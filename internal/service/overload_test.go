package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flexsnoop"
)

// These tests cover the overload-resilience layer (DESIGN.md §12):
// end-to-end deadlines, CoDel-style queue aging, per-client rate
// limiting, honest Retry-After, and per-backend circuit breakers. The invariant every test leans on: overload controls change
// WHICH jobs run, never what an admitted job computes.

// longSpec is a job that will not finish on its own within a test: it
// occupies a worker until cancelled.
func longSpec(seed int64) JobSpec {
	sp := smallSpec(seed)
	sp.Options.OpsPerCore = 500000
	return sp
}

// waitBusy blocks until the local pool has n busy workers.
func waitBusy(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().BusyWorkers < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d busy workers", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetryAfterMonotone: the Retry-After estimate is always at least
// one second and never decreases as the queue deepens — a deeper queue
// must not promise an earlier retry — with or without a measured drain
// rate.
func TestRetryAfterMonotone(t *testing.T) {
	for _, perSec := range []float64{0, 0.01, 0.5, 2, 100, 1e6} {
		prev := 0
		for depth := 0; depth <= 512; depth++ {
			got := retryAfterSeconds(depth, perSec)
			if got < 1 {
				t.Fatalf("retryAfterSeconds(%d, %g) = %d, want >= 1", depth, perSec, got)
			}
			if got > 60 {
				t.Fatalf("retryAfterSeconds(%d, %g) = %d, want <= 60", depth, perSec, got)
			}
			if got < prev {
				t.Fatalf("retryAfterSeconds(%d, %g) = %d < %d at depth-1: not monotone",
					depth, perSec, got, prev)
			}
			prev = got
		}
	}
	if got := retryAfterSeconds(-5, 0); got != 1 {
		t.Errorf("retryAfterSeconds(-5, 0) = %d, want 1", got)
	}
}

// TestDeadlineExpiredInQueue: a job whose deadline passes while it waits
// behind a busy worker is shed by the maintenance scan — it fails with
// the expiry error without a worker ever starting it.
func TestDeadlineExpiredInQueue(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueCapacity: 8})
	defer s.Close()

	blocker, err := s.Submit(longSpec(400))
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	waitBusy(t, s, 1)

	spec := smallSpec(401)
	spec.DeadlineMS = 50
	doomed, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit doomed: %v", err)
	}
	st := waitTerminal(t, s, doomed.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, ErrExpired.Error()) {
		t.Fatalf("doomed job: state=%q error=%q, want failed with the expiry error", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "queued") {
		t.Errorf("expiry error %q does not say the job died in the queue", st.Error)
	}
	stats := s.Stats()
	if stats.JobsExpired == 0 {
		t.Error("JobsExpired = 0 after an in-queue expiry")
	}
	// The worker never ran it: the only completed/failed run accounting
	// belongs to the still-running blocker.
	if stats.RunsCompleted != 0 || stats.RunsFailed != 0 {
		t.Errorf("runs completed=%d failed=%d, want 0/0 (expiry is not a run)",
			stats.RunsCompleted, stats.RunsFailed)
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
}

// TestDeadlineInterruptsRunningJob: a deadline that fires mid-simulation
// interrupts the run via its context; the job fails with the expiry
// error rather than running to completion.
func TestDeadlineInterruptsRunningJob(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close()

	spec := longSpec(410)
	spec.DeadlineMS = 100
	start := time.Now()
	st0, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := waitTerminal(t, s, st0.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, ErrExpired.Error()) {
		t.Fatalf("state=%q error=%q, want failed with the expiry error", st.State, st.Error)
	}
	// 500k ops would run far longer than the deadline; the interrupt must
	// land promptly (generous bound: the run dies well under the time the
	// full simulation would take).
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("expiry took %s, deadline was 100ms", elapsed)
	}
	if got := s.Stats().JobsExpired; got != 1 {
		t.Errorf("JobsExpired = %d, want 1", got)
	}
}

// TestRateLimitPerClient: per-client token buckets admit the burst, then
// reject with ErrRateLimited and a positive wait; other clients and
// anonymous submissions are unaffected.
func TestRateLimitPerClient(t *testing.T) {
	s := mustNew(t, Config{Workers: 2, RateLimit: 1, RateBurst: 2})
	defer s.Close()

	submit := func(seed int64, client string) error {
		sp := smallSpec(seed)
		sp.ClientID = client
		_, err := s.Submit(sp)
		return err
	}
	if err := submit(420, "alice"); err != nil {
		t.Fatalf("first: %v", err)
	}
	if err := submit(421, "alice"); err != nil {
		t.Fatalf("second (burst): %v", err)
	}
	err := submit(422, "alice")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third rapid submit = %v, want ErrRateLimited", err)
	}
	var oe *overloadError
	if !errors.As(err, &oe) || oe.retryAfter <= 0 {
		t.Fatalf("rate-limit error carries no positive retry hint: %v", err)
	}
	// The limit is per client: bob and anonymous submissions still pass.
	if err := submit(423, "bob"); err != nil {
		t.Errorf("bob's first submit: %v", err)
	}
	if err := submit(424, ""); err != nil {
		t.Errorf("anonymous submit: %v", err)
	}
	if got := s.Stats().JobsRateLimited; got != 1 {
		t.Errorf("JobsRateLimited = %d, want 1", got)
	}
}

// TestCoDelShedsLowestPriority: with a sojourn target set, a queue stuck
// behind a busy worker sheds its lowest-priority job first; the
// high-priority one survives to run.
func TestCoDelShedsLowestPriority(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueCapacity: 8, SojournTarget: 100 * time.Millisecond})
	defer s.Close()

	blocker, err := s.Submit(longSpec(430))
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	waitBusy(t, s, 1)

	lowSpec := smallSpec(431)
	lowSpec.Priority = -1
	low, err := s.Submit(lowSpec)
	if err != nil {
		t.Fatalf("submit low: %v", err)
	}
	highSpec := smallSpec(432)
	highSpec.Priority = 1
	high, err := s.Submit(highSpec)
	if err != nil {
		t.Fatalf("submit high: %v", err)
	}

	st := waitTerminal(t, s, low.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "shed") {
		t.Fatalf("low-priority job: state=%q error=%q, want failed/shed", st.State, st.Error)
	}
	if hs, err := s.Status(high.ID); err != nil || hs.State == StateFailed {
		t.Fatalf("high-priority job was shed before the low one: %+v err=%v", hs, err)
	}
	// Free the worker promptly so the next aging interval cannot reach the
	// high-priority job; it must now run to completion.
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	if st := waitTerminal(t, s, high.ID); st.State != StateDone {
		t.Fatalf("high-priority job: state=%q error=%q, want done", st.State, st.Error)
	}
	if got := s.Stats().JobsShed; got == 0 {
		t.Error("JobsShed = 0 after a CoDel shed")
	}
}

// breakerBackend is a real worker behind a fault-injection proxy: while
// failing, job submissions get a 500 (a backend-side, failover-worthy
// error) but health probes still pass — so only dispatch outcomes can
// open its breaker.
func breakerBackend(t *testing.T) (proxy *httptest.Server, failing *atomic.Bool) {
	t.Helper()
	worker := mustNew(t, Config{Workers: 2})
	t.Cleanup(worker.Close)
	wts := httptest.NewServer(worker.Handler())
	t.Cleanup(wts.Close)
	target, err := url.Parse(wts.URL)
	if err != nil {
		t.Fatalf("parse worker URL: %v", err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	failing = new(atomic.Bool)
	proxy = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() && r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			writeError(w, http.StatusInternalServerError, errors.New("injected backend fault"))
			return
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	return proxy, failing
}

// TestBreakerOpensAndRecovers walks the breaker state machine end to
// end on a coordinator with one remote backend: consecutive dispatch
// failures open the breaker (and the job fails fast instead of parking),
// a passing probe makes it half-open once the backend heals, and the
// success of the one job it then takes closes the breaker with a
// bit-identical result.
func TestBreakerOpensAndRecovers(t *testing.T) {
	proxy, failing := breakerBackend(t)
	failing.Store(true)

	s := mustNew(t, Config{
		Workers:         -1, // pure coordinator: every dispatch goes remote
		Backends:        []string{proxy.URL},
		BreakerFailures: 2,
		HealthInterval:  time.Hour, // the test runs the one probe itself
	})
	defer s.Close()

	// Job A: two failover attempts fail on the only backend, opening the
	// breaker; with every backend quarantined the job fails fast.
	a, err := s.Submit(smallSpec(450))
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	if st := waitTerminal(t, s, a.ID); st.State != StateFailed || !strings.Contains(st.Error, "gave up") {
		t.Fatalf("job A: state=%q error=%q, want fail-fast after the breaker opened", st.State, st.Error)
	}
	stats := s.Stats()
	if len(stats.Backends) != 1 {
		t.Fatalf("backends = %d, want 1", len(stats.Backends))
	}
	if got := stats.Backends[0].BreakerState; got != "open" {
		t.Fatalf("breaker state after failures = %q, want open", got)
	}
	if got := stats.Backends[0].BreakerOpens; got != 1 {
		t.Errorf("BreakerOpens = %d, want 1", got)
	}

	// Heal the backend and probe it: the breaker goes half-open, the next
	// job is the one it takes, and that job's success closes the breaker.
	failing.Store(false)
	s.probeBackends(5 * time.Second)
	if got := s.Stats().Backends[0].BreakerState; got != "half-open" {
		t.Fatalf("breaker state after a passing probe = %q, want half-open", got)
	}
	spec := smallSpec(451)
	b, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	st := waitTerminal(t, s, b.ID)
	if st.State != StateDone {
		t.Fatalf("job B: state=%q error=%q, want done via the half-open probe", st.State, st.Error)
	}
	job, err := spec.Job()
	if err != nil {
		t.Fatalf("spec.Job: %v", err)
	}
	baseline, err := flexsnoop.RunJobContext(context.Background(), job)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if !reflect.DeepEqual(*st.Result, baseline) {
		t.Error("probe result diverges from the serial baseline")
	}
	if got := s.Stats().Backends[0].BreakerState; got != "closed" {
		t.Errorf("breaker state after the probe = %q, want closed", got)
	}
}

// TestHalfOpenExpiredDispatch: a half-open backend whose one job expires
// before it starts stays eligible. The dispatch never ran, so it says
// nothing about the backend, and the next job is the one that decides
// the breaker.
func TestHalfOpenExpiredDispatch(t *testing.T) {
	_, workerURL := newWorker(t, 2)
	cfg := coordCfg(workerURL)
	cfg.HealthInterval = time.Hour // no probe may re-decide the breaker
	s := mustNew(t, cfg)
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	expired := &execution{
		fp: "expired-before-start", spec: smallSpec(470), label: "expired",
		queueIndex: -1, deadline: time.Now().Add(-time.Second), state: StateQueued,
		ctx: ctx, cancel: cancel, hub: newMetricsHub(), done: make(chan struct{}),
	}
	s.mu.Lock()
	s.openBreakerLocked(s.backends[0], errors.New("induced for test"))
	s.mu.Unlock()
	s.probeBackends(5 * time.Second)
	if got := s.Stats().Backends[0].BreakerState; got != "half-open" {
		t.Fatalf("breaker state after a passing probe = %q, want half-open", got)
	}
	s.mu.Lock()
	s.dispatchLocked(s.backends[0], expired, false)
	s.mu.Unlock()
	<-expired.done

	st, err := s.Submit(smallSpec(471))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if got := waitTerminal(t, s, st.ID); got.State != StateDone {
		t.Fatalf("job after the expired half-open dispatch: state=%q error=%q, want done", got.State, got.Error)
	}
	if got := s.Stats().Backends[0].BreakerState; got != "closed" {
		t.Errorf("breaker state after the job = %q, want closed", got)
	}
}

// TestObeyingClientEventuallyAdmitted: a full queue answers 429 with a
// positive integer Retry-After, and a client that obeys it is admitted
// once the queue drains — the header is a promise, not a brush-off.
func TestObeyingClientEventuallyAdmitted(t *testing.T) {
	s := mustNew(t, Config{Workers: 2, QueueCapacity: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 2000 ops keeps each job running long enough to fill the queue, yet
	// the test takes about 24 s of its 120 s budget under -race on 2 vCPUs,
	// leaving room for ci.sh's race pass, which runs packages in parallel.
	medium := func(seed int64) JobSpec {
		sp := smallSpec(seed)
		sp.Options.OpsPerCore = 2000
		return sp
	}
	// Flood over HTTP until a 429 lands, then check its header.
	var retryAfter string
	seed := int64(460)
	deadline := time.Now().Add(30 * time.Second)
	for retryAfter == "" {
		if time.Now().After(deadline) {
			t.Fatal("never got a 429")
		}
		body, _ := json.Marshal(medium(seed))
		seed++
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			retryAfter = resp.Header.Get("Retry-After")
		}
		resp.Body.Close()
	}
	secs, err := strconv.Atoi(retryAfter)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", retryAfter)
	}

	// The obeying client: SubmitWait honors Retry-After, and the queue is
	// draining (2 workers chewing through it), so admission must come.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c := &Client{BaseURL: ts.URL}
	st, err := c.SubmitWait(ctx, medium(seed))
	if err != nil {
		t.Fatalf("obeying client was never admitted: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("obeying client's job: state=%q error=%q, want done", st.State, st.Error)
	}
}

// TestChaosOverloadFlood is the acceptance chaos test: flood a small
// server with 8x its queue capacity in mixed priorities and deadlines,
// with aging armed. Required: expired jobs die with the
// expiry error (never a worker result), rejected jobs see backpressure
// errors only, every high-priority generous-deadline job that was
// admitted completes, every completed result is bit-identical to a
// serial in-process run, and nothing leaks a goroutine.
func TestChaosOverloadFlood(t *testing.T) {
	before := runtime.NumGoroutine()
	const capacity = 8
	s := mustNew(t, Config{
		Workers:       2,
		QueueCapacity: capacity,
		SojournTarget: 50 * time.Millisecond,
	})

	type flooded struct {
		spec JobSpec
		id   string // admitted job ID ("" = rejected at admission)
	}
	var jobs []flooded
	var rejected int
	for i := 0; i < 8*capacity; i++ {
		sp := smallSpec(int64(3000 + i))
		switch i % 3 {
		case 0:
			sp.Priority = 2
		case 2:
			sp.Priority = -1
		}
		switch i % 4 {
		case 1:
			sp.DeadlineMS = 1 // doomed: expires in queue or interrupts the run
		case 3:
			sp.DeadlineMS = 30000 // generous: must not expire
		}
		// A few doomed jobs are long, so even one that reaches a worker
		// before its 1ms budget is interrupted mid-run rather than finishing.
		if i%8 == 1 {
			sp.Options.OpsPerCore = 200000
		}
		st, err := s.Submit(sp)
		switch {
		case err == nil:
			jobs = append(jobs, flooded{spec: sp, id: st.ID})
		case errors.Is(err, ErrQueueFull):
			rejected++ // backpressure (queue full): the only legal rejection
		default:
			t.Fatalf("flood submit %d: unexpected error %v", i, err)
		}
	}
	if rejected == 0 {
		t.Error("an 8x-capacity flood was fully admitted: backpressure never engaged")
	}

	var completed, expired, shed int
	for _, f := range jobs {
		st := waitTerminal(t, s, f.id)
		switch {
		case st.State == StateDone:
			completed++
			job, err := f.spec.Job()
			if err != nil {
				t.Fatalf("spec.Job: %v", err)
			}
			baseline, err := flexsnoop.RunJobContext(context.Background(), job)
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			if !reflect.DeepEqual(*st.Result, baseline) {
				t.Errorf("job %s (seed %d): result diverges from the serial baseline",
					f.id, f.spec.Options.Seed)
			}
		case strings.Contains(st.Error, ErrExpired.Error()):
			expired++
			if f.spec.DeadlineMS == 0 || f.spec.DeadlineMS >= 30000 {
				t.Errorf("job %s expired without a tight deadline (%dms)", f.id, f.spec.DeadlineMS)
			}
		case strings.Contains(st.Error, "shed"):
			shed++
		default:
			t.Errorf("job %s: state=%q error=%q, want done/expired/shed", f.id, st.State, st.Error)
		}
		if f.spec.Priority == 2 && f.spec.DeadlineMS == 0 && st.State != StateDone {
			t.Errorf("admitted high-priority job %s did not complete: state=%q error=%q",
				f.id, st.State, st.Error)
		}
	}
	if completed == 0 {
		t.Error("no admitted job completed")
	}
	if expired == 0 {
		t.Error("no 1ms-deadline job expired under an 8x flood")
	}
	t.Logf("flood: %d admitted (%d done, %d expired, %d shed), %d rejected",
		len(jobs), completed, expired, shed, rejected)

	stats := s.Stats()
	if stats.JobsExpired == 0 {
		t.Error("JobsExpired = 0")
	}
	if got := int(stats.JobsExpired); got != expired {
		t.Errorf("JobsExpired = %d, observed %d expired jobs", got, expired)
	}

	// Clean shutdown, no goroutine leak: everything the overload layer
	// started (maintenance loop included) must exit with the server.
	s.Close()
	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines: %d before flood, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
