package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flexsnoop"
	"flexsnoop/internal/telemetry"
)

// mustNew builds a started Server or fails the test.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// smallSpec is a fast-to-simulate job; vary seed to make distinct jobs.
func smallSpec(seed int64) JobSpec {
	return JobSpec{
		Algorithm: "Subset",
		Workload:  "fft",
		Options:   SpecOptions{OpsPerCore: 200, Seed: seed, Predictor: "Sub2k"},
	}
}

func waitState(t *testing.T, s *Server, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed || st.State == StateDone || st.State == StateCanceled {
			t.Fatalf("job %s reached terminal state %q (error %q), want %q", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubmitMatchesInProcess: a job run through the full HTTP round trip
// (JSON spec in, JSON Result out) is bit-identical to calling the
// simulator in-process with the same configuration.
func TestSubmitMatchesInProcess(t *testing.T) {
	spec := smallSpec(7)
	fj, err := spec.Job()
	if err != nil {
		t.Fatalf("spec.Job: %v", err)
	}
	want, err := flexsnoop.RunJobContext(context.Background(), fj)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}

	s := mustNew(t, Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	got, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remote result differs from in-process run:\nremote: %+v\nlocal:  %+v", got, want)
	}
}

// TestCacheHit: the second identical submission is answered from the
// content-addressed cache without a second simulation.
func TestCacheHit(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close()

	st1, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if st1.Cached {
		t.Fatal("first submission reported cached")
	}
	done1 := waitState(t, s, st1.ID, StateDone)

	st2, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if !st2.Cached || st2.State != StateDone || st2.Result == nil {
		t.Fatalf("second submission not served from cache: %+v", st2)
	}
	if !reflect.DeepEqual(*st2.Result, *done1.Result) {
		t.Error("cached result differs from computed result")
	}
	if st2.Fingerprint != st1.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", st1.Fingerprint, st2.Fingerprint)
	}

	// "shard_rings" names a removed mode. Older clients still send it, so
	// the wire accepts and ignores it: the same spec with the field set
	// is the same job and is answered from the same cache entry.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"algorithm":"Subset","workload":"fft",` +
		`"options":{"ops_per_core":200,"seed":1,"predictor":"Sub2k","shard_rings":true}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST with shard_rings: %v", err)
	}
	defer resp.Body.Close()
	var st3 JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st3); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK || !st3.Cached || st3.Fingerprint != st1.Fingerprint {
		t.Fatalf("spec with shard_rings not served from cache: status %d, %+v", resp.StatusCode, st3)
	}

	stats := s.Stats()
	if stats.RunsCompleted != 1 {
		t.Errorf("RunsCompleted = %d, want 1 (cache must prevent the rerun)", stats.RunsCompleted)
	}
	if stats.CacheHits != 2 || stats.CacheEntries != 1 {
		t.Errorf("cache hits=%d entries=%d, want 2/1", stats.CacheHits, stats.CacheEntries)
	}
}

// TestEvictionDoesNotCopyJobOrder: once finishedJobRetention jobs are
// retained, every admission evicts the oldest finished job. The eviction
// must shift the job order in place, so a cache-hit Submit at the bound
// allocates about what it does below it, not a copy of the whole order.
func TestEvictionDoesNotCopyJobOrder(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close()
	spec := smallSpec(80)
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, st.ID, StateDone)

	const n = 500
	submit := func() {
		t.Helper()
		if st, err := s.Submit(spec); err != nil || !st.Cached {
			t.Fatalf("Submit = %+v, %v; want a cache hit", st, err)
		}
	}
	bytesPerSubmit := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			submit()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	below := bytesPerSubmit() // jobs 2 to 501: nothing to evict
	for retained := 1 + n; retained < finishedJobRetention; retained++ {
		submit()
	}
	at := bytesPerSubmit() // every Submit evicts one job
	t.Logf("cache-hit Submit: %d B below the retention bound, %d B at it", below, at)
	if at > below+4<<10 {
		t.Errorf("cache-hit Submit allocates %d B at the retention bound, %d B below it: eviction copies the job order",
			at, below)
	}
}

// TestInFlightDedup: identical submissions that arrive while the first is
// still pending share one execution (singleflight), and both observe the
// same result.
func TestInFlightDedup(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueCapacity: 8})
	defer s.Close()

	// Occupy the single worker so the deduped pair stays queued.
	blocker, err := s.Submit(smallSpec(100))
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	a, err := s.Submit(smallSpec(2))
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := s.Submit(smallSpec(2))
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if a.ID == b.ID {
		t.Fatal("dedup must still mint distinct job IDs")
	}
	if got := s.Stats().JobsDeduped; got != 1 {
		t.Errorf("JobsDeduped = %d, want 1", got)
	}

	ra := waitState(t, s, a.ID, StateDone)
	rb := waitState(t, s, b.ID, StateDone)
	if !reflect.DeepEqual(*ra.Result, *rb.Result) {
		t.Error("deduped jobs observed different results")
	}
	waitState(t, s, blocker.ID, StateDone)
	if got := s.Stats().RunsCompleted; got != 2 {
		t.Errorf("RunsCompleted = %d, want 2 (blocker + one shared run)", got)
	}
}

// TestQueueFullBackpressure: beyond the queue capacity, submissions fail
// with ErrQueueFull, and the HTTP layer turns that into 429 + Retry-After.
func TestQueueFullBackpressure(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueCapacity: 1})
	defer s.Close()

	// Long jobs with distinct seeds: no dedup, and neither the running nor
	// the queued one finishes during the test, so the queue stays full.
	long := func(seed int64) JobSpec {
		sp := smallSpec(seed)
		sp.Options.OpsPerCore = 500000
		return sp
	}
	// Fill until the worker is busy and the queue is at capacity; only then
	// is rejection guaranteed rather than racing the worker's pop.
	seed := int64(10)
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.Stats()
		if st.BusyWorkers == 1 && st.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never filled: busy=%d depth=%d", st.BusyWorkers, st.QueueDepth)
		}
		_, err := s.Submit(long(seed))
		if err != nil && !errors.Is(err, ErrQueueFull) {
			t.Fatalf("submit seed %d: %v", seed, err)
		}
		seed++
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(long(seed)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit with full queue = %v, want ErrQueueFull", err)
	}
	if got := s.Stats().JobsRejected; got == 0 {
		t.Error("JobsRejected = 0 after a rejection")
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(long(99))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
}

// TestCancelQueuedAndRunning covers both cancellation paths: a queued job
// is dequeued without ever running; a running job's context interrupts
// the simulation.
func TestCancelQueuedAndRunning(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueCapacity: 8})
	defer s.Close()

	running, err := s.Submit(JobSpec{
		Algorithm: "SupersetCon",
		Workload:  "lu",
		Options:   SpecOptions{OpsPerCore: 200000, Seed: 5},
	})
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	queued, err := s.Submit(smallSpec(6))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued job state after cancel = %q, want canceled", st.State)
	}

	waitState(t, s, running.ID, StateRunning)
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	got := waitTerminal(t, s, running.ID)
	if got.State != StateCanceled {
		t.Fatalf("running job state after cancel = %q, want canceled", got.State)
	}

	// Cancel is idempotent on finished jobs.
	again, err := s.Cancel(running.ID)
	if err != nil || again.State != StateCanceled {
		t.Fatalf("re-cancel: %+v, %v", again, err)
	}

	// The job reports canceled as soon as Cancel returns; the execution
	// finalises (and counts) when the worker observes the context. Poll.
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().RunsCanceled != 2 {
		if time.Now().After(deadline) {
			st := s.Stats()
			t.Fatalf("RunsCanceled = %d (completed %d), want 2", st.RunsCanceled, st.RunsCompleted)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.Stats().RunsCompleted; got != 0 {
		t.Errorf("RunsCompleted = %d, want 0", got)
	}
}

func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached a terminal state (last %q)", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMetricsStream: the NDJSON endpoint replays the full interval series
// for a completed run, rows parse as telemetry.Row, and cycles ascend.
// A live subscriber that attached before completion sees the same series.
func TestMetricsStream(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smallSpec(3)
	spec.Options.OpsPerCore = 2000
	spec.Options.IntervalCycles = 500
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Live subscriber: attach immediately, read to EOF.
	liveRows := make(chan int, 1)
	go func() {
		n, _ := readMetrics(ts.URL, st.ID)
		liveRows <- n
	}()

	waitState(t, s, st.ID, StateDone)

	// Replay subscriber: attach after completion.
	n, rows := readMetrics(ts.URL, st.ID)
	if n == 0 {
		t.Fatal("no metrics rows streamed")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Cycle <= rows[i-1].Cycle {
			t.Fatalf("row %d cycle %d not after row %d cycle %d", i, rows[i].Cycle, i-1, rows[i-1].Cycle)
		}
	}
	select {
	case live := <-liveRows:
		if live != n {
			t.Errorf("live subscriber saw %d rows, replay saw %d", live, n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("live subscriber never finished")
	}

	// A cache-hit job has no execution: its stream is empty, not a 404.
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !st2.Cached {
		t.Fatal("resubmission not cached")
	}
	if n2, _ := readMetrics(ts.URL, st2.ID); n2 != 0 {
		t.Errorf("cache-hit job streamed %d rows, want 0", n2)
	}
}

func readMetrics(base, id string) (int, []telemetry.Row) {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/metrics")
	if err != nil {
		return -1, nil
	}
	defer resp.Body.Close()
	var rows []telemetry.Row
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r telemetry.Row
		if json.Unmarshal(sc.Bytes(), &r) != nil {
			return -1, nil
		}
		rows = append(rows, r)
	}
	return len(rows), rows
}

// TestDrain: draining cancels queued jobs, lets the running one finish,
// flips /readyz to 503, and refuses new submissions.
func TestDrain(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueCapacity: 8})
	spec := smallSpec(20)
	spec.Options.OpsPerCore = 2000
	running, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	// Make sure the worker picked it up before queueing the second job:
	// drain must distinguish running (finish) from queued (cancel).
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().BusyWorkers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(smallSpec(21))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	s.Drain(30 * time.Second)

	if st, _ := s.Status(running.ID); st.State != StateDone {
		t.Errorf("running job after drain = %q, want done (graceful finish)", st.State)
	}
	if st, _ := s.Status(queued.ID); st.State != StateCanceled {
		t.Errorf("queued job after drain = %q, want canceled", st.State)
	}
	if _, err := s.Submit(smallSpec(22)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining = %v, want ErrDraining", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestBadSpecsRejected: malformed specs come back as 400s with the
// sentinel-typed errors, not as queued jobs.
func TestBadSpecsRejected(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close()

	cases := []struct {
		name string
		spec JobSpec
		want error
	}{
		{"bad algorithm", JobSpec{Algorithm: "nope", Workload: "fft"}, flexsnoop.ErrUnknownAlgorithm},
		{"bad workload", JobSpec{Algorithm: "Subset", Workload: "nope"}, flexsnoop.ErrUnknownWorkload},
		{"bad predictor", JobSpec{Algorithm: "Subset", Workload: "fft",
			Options: SpecOptions{Predictor: "nope"}}, flexsnoop.ErrBadConfig},
		{"bad faults", JobSpec{Algorithm: "Subset", Workload: "fft",
			Options: SpecOptions{Faults: "kind=banana"}}, flexsnoop.ErrFaultPlan},
		{"retries without plan", JobSpec{Algorithm: "Subset", Workload: "fft",
			Options: SpecOptions{FaultMaxRetries: 5}}, flexsnoop.ErrBadConfig},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.spec); !errors.Is(err, tc.want) {
			t.Errorf("%s: Submit err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if got := s.Stats().JobsSubmitted; got != 0 {
		t.Errorf("rejected specs counted as submitted: %d", got)
	}
}

// TestConcurrentMatrix is the acceptance scenario: 64 concurrent clients
// submit a 16-config matrix against a small queue. Every submission
// completes (backpressure is retried, duplicates dedup or hit cache),
// results are bit-identical to in-process runs, and the server's worker
// pool and hubs leak no goroutines.
func TestConcurrentMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent matrix is not short")
	}

	configs := make([]JobSpec, 16)
	baseline := make([]flexsnoop.Result, 16)
	algs := []string{"Eager", "Lazy", "Subset", "SupersetCon", "SupersetAgg", "Exact"}
	for i := range configs {
		configs[i] = JobSpec{
			Algorithm: algs[i%len(algs)],
			Workload:  "fft",
			Options:   SpecOptions{OpsPerCore: 200, Seed: int64(1000 + i/len(algs))},
		}
		fj, err := configs[i].Job()
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		res, err := flexsnoop.RunJobContext(context.Background(), fj)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		baseline[i] = res
	}

	before := runtime.NumGoroutine()

	s := mustNew(t, Config{Workers: 4, QueueCapacity: 8})
	ts := httptest.NewServer(s.Handler())
	c := &Client{BaseURL: ts.URL}

	const clients = 64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := g % len(configs)
			got, err := c.Run(context.Background(), configs[cfg])
			if err != nil {
				errs[g] = err
				return
			}
			if !reflect.DeepEqual(got, baseline[cfg]) {
				errs[g] = fmt.Errorf("config %d: remote result differs from in-process baseline", cfg)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", g, err)
		}
	}

	stats := s.Stats()
	if stats.RunsCompleted != uint64(len(configs)) {
		t.Errorf("RunsCompleted = %d, want %d (dedup+cache must collapse 64 submissions)",
			stats.RunsCompleted, len(configs))
	}
	if stats.CacheHits+stats.JobsDeduped == 0 {
		t.Error("64 submissions of 16 configs produced no cache hits or dedups")
	}

	ts.Close()
	s.Close()

	// Goroutine-leak check: workers, hubs and handlers must all unwind.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
