package service

import (
	"encoding/json"
	"flexsnoop"
	"flexsnoop/internal/journal"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// This file tests crash recovery at the package level: journals are
// crafted (or left behind by a real server) and a fresh Server is opened
// on them. The process-level kill -9 path is covered by the chaos smoke
// test in cmd/ringsimd.

// durableCfg is a single-worker server with both durability tiers on.
func durableCfg(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	return Config{
		Workers:  1,
		WALDir:   filepath.Join(dir, "wal"),
		CacheDir: filepath.Join(dir, "cache"),
	}
}

// TestRecoveryRestoresDoneJobs: jobs completed before a restart are
// still queryable after it, answered from the disk cache with
// bit-identical results.
func TestRecoveryRestoresDoneJobs(t *testing.T) {
	cfg := durableCfg(t)
	s1 := mustNew(t, cfg)
	var ids []string
	var want []flexsnoop.Result
	for seed := int64(1); seed <= 3; seed++ {
		st, err := s1.Submit(smallSpec(seed))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		want = append(want, *waitState(t, s1, id, StateDone).Result)
	}
	s1.Close()

	s2 := mustNew(t, cfg)
	defer s2.Close()
	if !s2.Ready() {
		t.Fatal("server not ready after replay")
	}
	for i, id := range ids {
		st, err := s2.Status(id)
		if err != nil {
			t.Fatalf("Status(%s) after restart: %v", id, err)
		}
		if st.State != StateDone || st.Result == nil {
			t.Fatalf("job %s after restart: state %q, result %v", id, st.State, st.Result)
		}
		if !reflect.DeepEqual(*st.Result, want[i]) {
			t.Errorf("job %s result changed across restart", id)
		}
	}
	stats := s2.Stats()
	if stats.WALReplayed != 3 {
		t.Errorf("WALReplayed = %d, want 3", stats.WALReplayed)
	}
	if stats.WALRequeued != 0 {
		t.Errorf("WALRequeued = %d, want 0 (all jobs were done)", stats.WALRequeued)
	}
	// A new submission must not collide with replayed IDs.
	st, err := s2.Submit(smallSpec(99))
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if st.ID != "j-000004" {
		t.Errorf("post-restart job ID = %s, want j-000004", st.ID)
	}
}

// TestRecoveryRequeuesIncomplete simulates a kill -9: a journal with
// submitted records but no completions. The restarted server requeues
// everything, preserving priority order and the original job IDs, and
// runs the jobs to completion. The journal also holds a "started"
// record, which older builds appended on every dispatch: such journals
// must still replay.
//
// One execution outlives the job that created it. Job 5 is deduplicated
// onto job 3's priority-9 execution, job 3 is then cancelled, and enough
// jobs come and go after it that the finished-job retention evicts it.
// Replay must requeue the execution at job 3's priority and sequence,
// ahead of job 4's later priority-9 execution, and so must a second
// restart, which reads the journal the first one compacted without job 3.
func TestRecoveryRequeuesIncomplete(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	j, _, err := journal.Open(journal.Options{Dir: walDir})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	specs := map[uint64]JobSpec{1: smallSpec(10), 2: smallSpec(20), 3: smallSpec(30)}
	prios := map[uint64]int{1: 5, 2: 0, 3: 9}
	fps := map[uint64]string{}
	for seq := uint64(1); seq <= 3; seq++ {
		spec := specs[seq]
		spec.Priority = prios[seq]
		fj, err := spec.Job()
		if err != nil {
			t.Fatalf("spec.Job: %v", err)
		}
		fps[seq] = fj.Fingerprint()
		raw, _ := json.Marshal(spec)
		if err := j.Append(journal.Record{
			Kind: journal.KindSubmitted, JobID: jobID(seq), Seq: seq,
			Fingerprint: fps[seq], Priority: spec.Priority, Spec: raw,
		}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// One was mid-run when the "crash" hit: requeued all the same.
	if err := j.Append(journal.Record{Kind: "started", Seq: 1, Fingerprint: fps[1]}); err != nil {
		t.Fatalf("Append started: %v", err)
	}
	j.Close()

	// Jobs 4 and 5, the cancel and the filler jobs go through a live
	// server that cannot dispatch (a coordinator with no backends), so the
	// journal holds what Submit and Cancel write. It is then abandoned as
	// by a crash: its journal is copied before Close, whose drain would
	// journal the cancellation of the queued executions.
	s0 := mustNew(t, Config{Workers: -1, Coordinator: true, WALDir: walDir, WALSync: "none"})
	if got := s0.Stats().WALRequeued; got != 3 {
		t.Fatalf("WALRequeued = %d, want 3", got)
	}
	spec4 := smallSpec(40)
	spec4.Priority = 9
	fps[4] = mustJob(t, spec4).Fingerprint()
	if st, err := s0.Submit(spec4); err != nil || st.ID != jobID(4) {
		t.Fatalf("Submit of job 4 = %+v, %v", st, err)
	}
	st5, err := s0.Submit(specs[3]) // priority 0: the execution's 9 must count
	if err != nil || st5.ID != jobID(5) || s0.Stats().JobsDeduped != 1 {
		t.Fatalf("Submit of job 3's twin = %+v, %v; want %s deduplicated", st5, err, jobID(5))
	}
	if _, err := s0.Cancel(jobID(3)); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	// Five jobs plus these exceed the retention by one: job 3, the oldest
	// finished job, is evicted.
	for i := 0; i < finishedJobRetention-4; i++ {
		st, err := s0.Submit(smallSpec(int64(1000 + i)))
		if err != nil {
			t.Fatalf("filler Submit: %v", err)
		}
		if _, err := s0.Cancel(st.ID); err != nil {
			t.Fatalf("filler Cancel: %v", err)
		}
	}
	if _, err := s0.Status(jobID(3)); err == nil {
		t.Fatal("job 3 was not evicted by the finished-job retention")
	}
	crash1, crash2 := filepath.Join(dir, "crash1"), filepath.Join(dir, "crash2")
	copyDir(t, walDir, crash1)
	s0.Close()

	// A single worker dispatches strictly in priority order, then in
	// admission order: 9 (job 3's), 9 (job 4's), 5, 0.
	want := []string{shortFP(fps[3]), shortFP(fps[4]), shortFP(fps[1]), shortFP(fps[2])}
	wantFP := map[uint64]string{1: fps[1], 2: fps[2], 4: fps[4], 5: fps[3]}
	if got := replayOrder(t, crash1, crash2, wantFP); !reflect.DeepEqual(got, want) {
		t.Errorf("restart 1: dispatch order %v, want %v (priority then seq)", got, want)
	}
	if got := replayOrder(t, crash2, "", wantFP); !reflect.DeepEqual(got, want) {
		t.Errorf("restart 2: dispatch order %v, want %v (priority then seq)", got, want)
	}
}

// replayOrder restarts a one-worker server on walDir, runs the jobs
// replay requeued to completion, and returns their fingerprints (short
// form) in dispatch order. Each job of wantFP must end done with that
// fingerprint. While the first run is held, before any run completes, it
// copies the journal to crashDir (unless empty): the state a crash right
// after replay leaves.
func replayOrder(t *testing.T, walDir, crashDir string, wantFP map[uint64]string) []string {
	t.Helper()
	var mu sync.Mutex
	var order []string
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	var first sync.Once
	s := mustNew(t, Config{Workers: 1, WALDir: walDir, Logf: func(format string, args ...any) {
		if strings.HasPrefix(format, "job run ") {
			mu.Lock()
			order = append(order, args[2].(string)) // shortFP
			mu.Unlock()
			first.Do(func() { <-hold })
		}
	}})
	defer s.Close()
	defer release()
	if got := s.Stats().WALRequeued; got != uint64(len(wantFP)) {
		t.Fatalf("WALRequeued = %d, want %d", got, len(wantFP))
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no replayed job was dispatched")
		}
	}
	if crashDir != "" {
		copyDir(t, walDir, crashDir)
	}
	release()
	for seq, fp := range wantFP {
		if st := waitState(t, s, jobID(seq), StateDone); st.Fingerprint != fp {
			t.Errorf("job %s fingerprint changed across recovery", jobID(seq))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]string(nil), order...)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func jobID(seq uint64) string { return fmt.Sprintf("j-%06d", seq) }

// TestRecoveryCancelledStaysCancelled: a journaled cancellation is not
// resurrected — the job replays as canceled and nothing is queued, even
// though its submitted record carries a runnable spec.
func TestRecoveryCancelledStaysCancelled(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	j, _, err := journal.Open(journal.Options{Dir: walDir})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	spec := smallSpec(42)
	fj, _ := spec.Job()
	raw, _ := json.Marshal(spec)
	must := func(rec journal.Record) {
		t.Helper()
		if err := j.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	must(journal.Record{Kind: journal.KindSubmitted, JobID: "j-000001", Seq: 1,
		Fingerprint: fj.Fingerprint(), Spec: raw})
	must(journal.Record{Kind: journal.KindCancelled, JobID: "j-000001", Seq: 1,
		Fingerprint: fj.Fingerprint()})
	j.Close()

	s := mustNew(t, Config{Workers: 1, WALDir: walDir})
	defer s.Close()
	st, err := s.Status("j-000001")
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.State != StateCanceled {
		t.Errorf("replayed state = %q, want canceled", st.State)
	}
	if depth := s.Stats().QueueDepth; depth != 0 {
		t.Errorf("queue depth %d after replaying a cancelled job, want 0", depth)
	}
	if got := s.Stats().RunsCompleted; got != 0 {
		t.Errorf("cancelled job ran anyway (%d completions)", got)
	}
}

// TestRecoveryFailedStaysFailed: two journals restore a failed job. One
// has a done record that carries a deterministic failure; the other has
// a submitted record whose spec was lost, with no done record. After
// replay neither job has an execution: each reports failed with its
// error, streams an empty metrics series, and ignores Cancel. A second
// restart, from the compacted journal, restores the same state.
func TestRecoveryFailedStaysFailed(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	j, _, err := journal.Open(journal.Options{Dir: walDir})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	must := func(rec journal.Record) {
		t.Helper()
		if err := j.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	failed, lost := mustJob(t, smallSpec(61)), mustJob(t, smallSpec(62))
	raw, _ := json.Marshal(smallSpec(61))
	must(journal.Record{Kind: journal.KindSubmitted, JobID: "j-000001", Seq: 1,
		Fingerprint: failed.Fingerprint(), Spec: raw})
	must(journal.Record{Kind: journal.KindDone, Seq: 1, Fingerprint: failed.Fingerprint(),
		Error: "simulation failed: deterministic"})
	must(journal.Record{Kind: journal.KindSubmitted, JobID: "j-000002", Seq: 2,
		Fingerprint: lost.Fingerprint()})
	j.Close()

	want := map[string]string{
		"j-000001": "simulation failed: deterministic",
		"j-000002": "service: recovered job lost both its result and its spec",
	}
	for restart := 1; restart <= 2; restart++ {
		s := mustNew(t, Config{Workers: 1, WALDir: walDir})
		ts := httptest.NewServer(s.Handler())
		for id, msg := range want {
			if st, err := s.Status(id); err != nil || st.State != StateFailed || st.Error != msg {
				t.Errorf("restart %d: %s = %+v, %v; want failed with %q", restart, id, st, err, msg)
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/metrics")
			if err != nil {
				t.Fatalf("GET metrics: %v", err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || len(body) != 0 {
				t.Errorf("restart %d: %s metrics = %d with %d bytes, want an empty 200 stream",
					restart, id, resp.StatusCode, len(body))
			}
			records := s.Stats().WALRecords
			if st, err := s.Cancel(id); err != nil || st.State != StateFailed || st.Error != msg {
				t.Errorf("restart %d: Cancel(%s) = %+v, %v; want it unchanged", restart, id, st, err)
			}
			if got := s.Stats().WALRecords; got != records {
				t.Errorf("restart %d: Cancel(%s) of a failed job journaled %d records", restart, id, got-records)
			}
		}
		if st := s.Stats(); st.QueueDepth != 0 || st.WALRequeued != 0 {
			t.Errorf("restart %d: queue depth %d, %d requeued; want nothing to run",
				restart, st.QueueDepth, st.WALRequeued)
		}
		ts.Close()
		s.Close()
	}
}

// TestViolatingJobFailsServerSurvives: a job whose run violates a
// coherence invariant is an ordinary terminal job. The spec is a Subset
// fault run whose checker finds incompatible states on one line; while
// that protocol bug stands the job fails with the checker's error, and
// done is accepted for once it is fixed. The server then runs another
// job, and a server reopened on its journal becomes ready with the first
// job still terminal.
func TestViolatingJobFailsServerSurvives(t *testing.T) {
	var spec JobSpec
	body := `{"algorithm":"Subset","workload":"fft","options":{"ops_per_core":300,"seed":1,` +
		`"check_invariants":true,"faults":"kind=drop,rate=0.05,seed=1"}}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatalf("decode spec: %v", err)
	}
	cfg := durableCfg(t)
	s1 := mustNew(t, cfg)
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	first := waitTerminal(t, s1, st.ID)
	switch first.State {
	case StateDone:
	case StateFailed:
		for _, want := range []string{"check at cycle", "line 0x100000f28f0"} {
			if !strings.Contains(first.Error, want) {
				t.Errorf("job error %q does not name %q", first.Error, want)
			}
		}
	default:
		t.Fatalf("violating job = %q, want done or failed", first.State)
	}
	later, err := s1.Submit(smallSpec(64))
	if err != nil {
		t.Fatalf("Submit after the violating job: %v", err)
	}
	waitState(t, s1, later.ID, StateDone)
	s1.Close()

	s2 := mustNew(t, cfg)
	defer s2.Close()
	if !s2.Ready() {
		t.Fatal("server not ready after replay")
	}
	if got, err := s2.Status(st.ID); err != nil || got.State != first.State || got.Error != first.Error {
		t.Errorf("violating job after restart = %+v, %v; want %q with error %q", got, err, first.State, first.Error)
	}
}

// TestJournalRecordsEachTransitionOnce reads back the journal a server
// wrote: one job runs to done; a deduplicated job's first submitter is
// cancelled while the shared execution is still queued; a running job
// is cancelled during Drain, which cancels the queued execution. The
// journal holds no "started" records and exactly one cancelled record
// per cancelled job.
func TestJournalRecordsEachTransitionOnce(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	s := mustNew(t, Config{Workers: 1, QueueCapacity: 8, WALDir: walDir})
	first, err := s.Submit(smallSpec(70))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, first.ID, StateDone)

	blocker, err := s.Submit(longSpec(71))
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	waitBusy(t, s, 1)
	a, err := s.Submit(smallSpec(72))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	b, err := s.Submit(smallSpec(72)) // deduplicated onto a's queued execution
	if err != nil {
		t.Fatalf("Submit dedup: %v", err)
	}
	if _, err := s.Cancel(a.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if st, _ := s.Status(b.ID); st.State != StateQueued {
		t.Fatalf("deduplicated job after its first submitter's cancel: %q, want queued", st.State)
	}

	// Drain cancels the queued execution at once; the blocker runs on
	// until it is cancelled here.
	drained := make(chan struct{})
	go func() { s.Drain(time.Minute); close(drained) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatalf("Cancel blocker: %v", err)
	}
	<-drained

	j, records, err := journal.Open(journal.Options{Dir: walDir})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	j.Close()
	kinds := map[string]int{}
	cancels := map[string]int{}
	for _, rec := range records {
		kinds[rec.Kind]++
		if rec.Kind == journal.KindCancelled {
			cancels[rec.JobID]++
		}
	}
	if want := map[string]int{journal.KindSubmitted: 4, journal.KindDone: 1, journal.KindCancelled: 3}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("journal record kinds = %v, want %v", kinds, want)
	}
	if want := map[string]int{blocker.ID: 1, a.ID: 1, b.ID: 1}; !reflect.DeepEqual(cancels, want) {
		t.Errorf("cancelled records per job = %v, want %v", cancels, want)
	}
}

// TestRecoveryTornTailAndDoubleRestart: a torn final record (the one
// write that can legitimately be lost) does not poison recovery, and a
// second restart replays the same state as the first — replay and
// post-replay compaction are idempotent.
func TestRecoveryTornTailAndDoubleRestart(t *testing.T) {
	cfg := durableCfg(t)
	s1 := mustNew(t, cfg)
	st, err := s1.Submit(smallSpec(5))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	want := *waitState(t, s1, st.ID, StateDone).Result
	s1.Close()

	// Tear the journal tail: a half-written record from the "crash".
	segs, err := filepath.Glob(filepath.Join(cfg.WALDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("000000a0 deadbeef {\"kind\":\"subm"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for restart := 1; restart <= 2; restart++ {
		s := mustNew(t, cfg)
		got, err := s.Status(st.ID)
		if err != nil {
			t.Fatalf("restart %d: Status: %v", restart, err)
		}
		if got.State != StateDone || got.Result == nil || !reflect.DeepEqual(*got.Result, want) {
			t.Fatalf("restart %d: job not restored intact (state %q)", restart, got.State)
		}
		s.Close()
	}
}

// TestRecoveryDiskCacheFlippedByte: a done job whose cached result file
// was corrupted (one flipped payload byte) is never served corrupt — the
// entry fails its checksum, is deleted, and the job is deterministically
// re-run to the identical result.
func TestRecoveryDiskCacheFlippedByte(t *testing.T) {
	cfg := durableCfg(t)
	s1 := mustNew(t, cfg)
	spec := smallSpec(8)
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	want := *waitState(t, s1, st.ID, StateDone).Result
	s1.Close()

	entries, err := filepath.Glob(filepath.Join(cfg.CacheDir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries: %v, %v", entries, err)
	}
	b, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x01 // flip one payload byte; the header stays intact
	if err := os.WriteFile(entries[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, cfg)
	defer s2.Close()
	// Replay found the done record but the cached result failed its
	// checksum: the job must have been requeued, not served corrupt.
	got := waitState(t, s2, st.ID, StateDone)
	if !reflect.DeepEqual(*got.Result, want) {
		t.Errorf("re-run after corruption is not bit-identical")
	}
	stats := s2.Stats()
	if stats.DiskCacheCorrupt != 1 {
		t.Errorf("DiskCacheCorrupt = %d, want 1", stats.DiskCacheCorrupt)
	}
	if stats.WALRequeued != 1 {
		t.Errorf("WALRequeued = %d, want 1 (corrupt cache forces a re-run)", stats.WALRequeued)
	}
}

// TestRecoveryEmptyWAL: a fresh (or empty) journal directory is a clean
// cold start.
func TestRecoveryEmptyWAL(t *testing.T) {
	cfg := durableCfg(t)
	s := mustNew(t, cfg)
	if !s.Ready() {
		t.Fatal("not ready on an empty journal")
	}
	st, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, st.ID, StateDone)
	s.Close()

	// And reopening the now non-empty dir with zero live jobs works too.
	s2 := mustNew(t, cfg)
	defer s2.Close()
	if got := s2.Stats().WALReplayed; got != 1 {
		t.Errorf("WALReplayed = %d, want 1", got)
	}
}
