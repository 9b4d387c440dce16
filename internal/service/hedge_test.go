package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flexsnoop"
)

// hedgeSpec is slow enough that the 1ms hedge timer reliably fires while
// the primary attempt is still running (a run is about 200 ms), yet small
// enough to finish promptly under -race on a loaded host: TestHedgedDispatch
// takes about 10 s of its 30 s wait under -race on 2 vCPUs, leaving room
// for ci.sh's race pass, which runs packages in parallel.
func hedgeSpec(seed int64) JobSpec {
	return JobSpec{
		Algorithm: "Subset",
		Workload:  "fft",
		Options:   SpecOptions{OpsPerCore: 2000, Seed: seed, Predictor: "Sub2k"},
	}
}

// TestHedgedDispatch: a coordinator with a tiny hedge delay re-dispatches
// a running job to a second backend; the job completes with the correct
// (bit-identical) result, the hedge is counted, and the two attempts
// agree — zero mismatches.
func TestHedgedDispatch(t *testing.T) {
	spec := hedgeSpec(11)
	fj, err := spec.Job()
	if err != nil {
		t.Fatalf("spec.Job: %v", err)
	}
	want, err := flexsnoop.RunJobContext(context.Background(), fj)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}

	_, w1 := newWorker(t, 1)
	_, w2 := newWorker(t, 1)
	cfg := coordCfg(w1, w2)
	cfg.HedgeDelay = time.Millisecond
	coord := mustNew(t, cfg)
	defer coord.Close()

	st, err := coord.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitState(t, coord, st.ID, StateDone)
	if !reflect.DeepEqual(*got.Result, want) {
		t.Errorf("hedged result differs from in-process run")
	}

	// The losing attempt runs to completion for verification; give it a
	// moment to settle before reading the counters.
	deadline := time.Now().Add(60 * time.Second)
	for {
		stats := coord.Stats()
		if stats.Hedges >= 1 && stats.Backends[0].Inflight == 0 && stats.Backends[1].Inflight == 0 {
			if stats.HedgeMismatches != 0 {
				t.Errorf("HedgeMismatches = %d on a deterministic fleet, want 0", stats.HedgeMismatches)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hedge never settled: %+v", stats)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHedgeMismatchDetected: a backend that returns a wrong result is
// caught. A stub "backend" answers every submission instantly with a
// doctored Result; the local pool runs the job for real. The stub's
// hedge settles first and wins, and when the honest local attempt
// completes, the divergence is flagged as an integrity error.
func TestHedgeMismatchDetected(t *testing.T) {
	bogus := flexsnoop.Result{Cycles: 1} // no real run produces this
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/jobs" && r.Method == http.MethodPost:
			res := bogus
			writeJSON(w, http.StatusOK, JobStatus{
				ID: "stub-1", State: StateDone, Result: &res,
			})
		case r.URL.Path == "/statsz":
			writeJSON(w, http.StatusOK, Stats{Workers: 2, Ready: true})
		default:
			http.NotFound(w, r)
		}
	}))
	defer stub.Close()

	cfg := Config{
		Workers:        1, // the honest primary: local, index 0, wins the tie
		Backends:       []string{stub.URL},
		HealthInterval: 50 * time.Millisecond,
		HedgeDelay:     time.Millisecond,
	}
	coord := mustNew(t, cfg)
	defer coord.Close()

	st, err := coord.Submit(hedgeSpec(12))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// The stub's instant (wrong) answer wins the race...
	got := waitTerminal(t, coord, st.ID)
	if got.State != StateDone || got.Result.Cycles != 1 {
		t.Fatalf("stub result did not win: state %q", got.State)
	}
	// ...and the honest local run exposes it when it completes.
	deadline := time.Now().Add(60 * time.Second)
	for {
		stats := coord.Stats()
		if stats.HedgeMismatches == 1 {
			if stats.Hedges != 1 || stats.HedgeWins != 1 {
				t.Errorf("Hedges/HedgeWins = %d/%d, want 1/1", stats.Hedges, stats.HedgeWins)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("mismatch never detected: %+v", stats)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitWatchedWorker is newWorker with one slot, plus a flag set on the
// first job-status request it serves. A coordinator waits on a job only
// once its submission has returned, so from then on it can cancel the
// worker's copy of the job by ID.
func waitWatchedWorker(t *testing.T) (*Server, string, *atomic.Bool) {
	t.Helper()
	s := mustNew(t, Config{Workers: 1})
	waited := new(atomic.Bool)
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			waited.Store(true)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts.URL, waited
}

// TestHedgeCanceled: cancelling a hedged job reaches both attempts, since
// both run under the job's own context. Each worker cancels its copy
// instead of finishing it, and the coordinator frees both slots.
func TestHedgeCanceled(t *testing.T) {
	w1, u1, waited1 := waitWatchedWorker(t)
	w2, u2, waited2 := waitWatchedWorker(t)
	cfg := coordCfg(u1, u2)
	cfg.HedgeDelay = time.Millisecond
	coord := mustNew(t, cfg)
	defer coord.Close()

	st, err := coord.Submit(hedgeSpec(13))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Cancel once the coordinator is waiting on both the primary and the
	// hedge.
	deadline := time.Now().Add(30 * time.Second)
	for !waited1.Load() || !waited2.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("hedge never started on both workers: %+v", coord.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := coord.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}

	deadline = time.Now().Add(60 * time.Second)
	for {
		stats, s1, s2 := coord.Stats(), w1.Stats(), w2.Stats()
		if s1.RunsCanceled == 1 && s2.RunsCanceled == 1 &&
			stats.Backends[0].Inflight == 0 && stats.Backends[1].Inflight == 0 {
			if s1.RunsCompleted != 0 || s2.RunsCompleted != 0 {
				t.Errorf("workers completed %d/%d runs of a cancelled job, want 0/0", s1.RunsCompleted, s2.RunsCompleted)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never reached both attempts: workers canceled %d/%d completed %d/%d, coordinator %+v",
				s1.RunsCanceled, s2.RunsCanceled, s1.RunsCompleted, s2.RunsCompleted, stats.Backends)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got, _ := coord.Status(st.ID); got.State != StateCanceled {
		t.Errorf("job after cancel = %q, want canceled", got.State)
	}
}
