package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexsnoop"
)

// This file tests the one way to wait for a job: GET /v1/jobs/{id}?wait=1
// answers once the job is terminal, and it is the only request Client.Wait
// and a coordinator make to wait for a job.

// missShapeSpec is a job in the shape of perfbench's svc-miss workload:
// 16-op SupersetAgg on barnes with faults injected and the checker armed,
// about 5 ms of simulation. ops scales it.
func missShapeSpec(t *testing.T, seed int64, ops uint64) JobSpec {
	t.Helper()
	plan, err := flexsnoop.ParseFaultPlan("kind=drop,rate=0.02,seed=7;kind=delay,rate=0.05,delay=80,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFor(flexsnoop.SupersetAgg, "barnes", flexsnoop.Options{
		OpsPerCore: ops, Seed: seed, Faults: plan, CheckEvery: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// statusCounter wraps a handler and counts the requests for a job's
// status (GET /v1/jobs/{id}, not its metrics stream): all of them, and
// those still being served.
type statusCounter struct {
	gets, inflight atomic.Int64
}

func (c *statusCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") &&
			!strings.HasSuffix(r.URL.Path, "/metrics") {
			c.gets.Add(1)
			c.inflight.Add(1)
			defer c.inflight.Add(-1)
		}
		h.ServeHTTP(w, r)
	})
}

// countedServer serves s behind a statusCounter.
func countedServer(t *testing.T, s *Server) (*httptest.Server, *statusCounter) {
	t.Helper()
	c := new(statusCounter)
	ts := httptest.NewServer(c.wrap(s.Handler()))
	t.Cleanup(ts.Close)
	return ts, c
}

// eventually fails the test unless cond holds within 30 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// getWait issues a raw blocking wait for one job in the background.
func getWait(base, id string) <-chan JobStatus {
	out := make(chan JobStatus, 1)
	go func() {
		var st JobStatus
		if resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=1"); err == nil {
			_ = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		out <- st
	}()
	return out
}

// TestSubmitWaitOneStatusRequest: SubmitWait of a fresh job costs one
// status request, however long the job takes.
func TestSubmitWaitOneStatusRequest(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close()
	ts, counter := countedServer(t, s)
	c := &Client{BaseURL: ts.URL}

	st, err := c.SubmitWait(context.Background(), missShapeSpec(t, 1, 16))
	if err != nil || st.State != StateDone || st.Result == nil {
		t.Fatalf("SubmitWait = %+v, %v; want done with a result", st, err)
	}
	if got := counter.gets.Load(); got != 1 {
		t.Errorf("SubmitWait sent %d status requests, want 1", got)
	}
}

// TestCoordinatorOneStatusRequest: a coordinator waits on a job it
// dispatched to a worker with one status request, although the job runs
// for about 100 ms.
func TestCoordinatorOneStatusRequest(t *testing.T) {
	worker := mustNew(t, Config{Workers: 1})
	defer worker.Close()
	ts, counter := countedServer(t, worker)
	coord := mustNew(t, coordCfg(ts.URL))
	defer coord.Close()

	st, err := coord.Submit(missShapeSpec(t, 2, 400))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, coord, st.ID, StateDone)
	if got := counter.gets.Load(); got != 1 {
		t.Errorf("coordinator sent the worker %d status requests, want 1", got)
	}
}

// TestWaitWakesOnOwnCancel: a wait returns as soon as its own job is
// cancelled, while a deduplicated twin keeps the shared execution
// running.
func TestWaitWakesOnOwnCancel(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close()
	ts, counter := countedServer(t, s)

	a, err := s.Submit(longSpec(91))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	b, err := s.Submit(longSpec(91))
	if err != nil || s.Stats().JobsDeduped != 1 {
		t.Fatalf("Submit twin = %+v, %v; want it deduplicated", b, err)
	}
	reply := getWait(ts.URL, b.ID)
	eventually(t, "the wait is being served", func() bool { return counter.inflight.Load() == 1 })
	if _, err := s.Cancel(b.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	select {
	case st := <-reply:
		if st.State != StateCanceled {
			t.Errorf("wait on the cancelled twin = %q, want canceled", st.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wait on the cancelled twin did not return")
	}
	if st, _ := s.Status(a.ID); st.State != StateRunning {
		t.Errorf("the other job is %q, want its execution still running", st.State)
	}
}

// TestWaitEndsWithContext: a blocked Client.Wait returns its context's
// error once the context is cancelled, after one request, and the server
// stops serving it.
func TestWaitEndsWithContext(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close()
	ts, counter := countedServer(t, s)
	c := &Client{BaseURL: ts.URL}

	st, err := s.Submit(longSpec(92))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Wait(ctx, st.ID)
		errc <- err
	}()
	eventually(t, "the wait is being served", func() bool { return counter.inflight.Load() == 1 })
	time.Sleep(100 * time.Millisecond) // the wait stays one request
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Wait after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait ignored its context")
	}
	eventually(t, "the server stops serving the wait", func() bool { return counter.inflight.Load() == 0 })
	if got := counter.gets.Load(); got != 1 {
		t.Errorf("Wait sent %d status requests, want 1", got)
	}
}

// TestDrainReleasesWaits: drain finalises every job, so it releases the
// wait on a running job and on a queued one.
func TestDrainReleasesWaits(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close() // a second drain is a no-op; this one covers early failures
	ts, counter := countedServer(t, s)

	running, err := s.Submit(longSpec(93))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitBusy(t, s, 1)
	queued, err := s.Submit(longSpec(94))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	replies := []<-chan JobStatus{getWait(ts.URL, running.ID), getWait(ts.URL, queued.ID)}
	eventually(t, "both waits are being served", func() bool { return counter.inflight.Load() == 2 })
	s.Drain(0)
	for i, reply := range replies {
		select {
		case st := <-reply:
			if st.State != StateCanceled {
				t.Errorf("wait %d after drain = %q, want canceled", i, st.State)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("drain did not release wait %d", i)
		}
	}
}

// TestWaitRejectsLiveReply: a server that answers a wait with a live job
// ignores ?wait=1, so Wait reports that after one request instead of
// asking again.
func TestWaitRejectsLiveReply(t *testing.T) {
	var gets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		writeJSON(w, http.StatusOK, JobStatus{ID: "j-000001", State: StateRunning})
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := c.Wait(ctx, "j-000001")
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), "wait=1") {
		t.Errorf("Wait on a live reply = %v, want an error naming ?wait=1 before the deadline", err)
	}
	if got := gets.Load(); got != 1 {
		t.Errorf("Wait sent %d requests, want 1", got)
	}
}

// TestCancelDuringRemoteSubmit: a job cancelled on the coordinator while
// its POST to a worker is in flight does not stay running there. The
// worker admits the job but holds the response until the coordinator's
// job is cancelled; the coordinator must still learn the worker's job ID
// and cancel it.
func TestCancelDuringRemoteSubmit(t *testing.T) {
	worker := mustNew(t, Config{Workers: 1})
	defer worker.Close()
	h := worker.Handler()
	admitted, hold := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	var first sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		first.Do(func() { close(admitted) })
		<-hold
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	defer ts.Close()
	defer release()
	coord := mustNew(t, coordCfg(ts.URL))
	defer coord.Close()

	st, err := coord.Submit(longSpec(95))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-admitted:
	case <-time.After(30 * time.Second):
		t.Fatal("the coordinator never submitted to the worker")
	}
	if _, err := coord.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	release()
	eventually(t, "the worker cancels its copy", func() bool { return worker.Stats().RunsCanceled == 1 })
	if got := worker.Stats().RunsCompleted; got != 0 {
		t.Errorf("worker completed %d runs of a cancelled job, want 0", got)
	}
	waitState(t, coord, st.ID, StateCanceled)
}
