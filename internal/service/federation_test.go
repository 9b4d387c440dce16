package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flexsnoop"
)

// newWorker starts a worker server and returns it with its base URL.
func newWorker(t *testing.T, workers int) (*Server, string) {
	t.Helper()
	s := mustNew(t, Config{Workers: workers})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts.URL
}

// coordCfg is a coordinator config tuned for tests: no local execution,
// fast probes.
func coordCfg(backends ...string) Config {
	return Config{
		Workers:        -1,
		Backends:       backends,
		HealthInterval: 50 * time.Millisecond,
	}
}

// TestFederationMatchesInProcess is the tentpole acceptance test: a
// 16-cell matrix dispatched by a coordinator across two worker backends
// is bit-identical to running every cell in-process. Determinism makes
// the federation an invisible implementation detail.
func TestFederationMatchesInProcess(t *testing.T) {
	configs := make([]JobSpec, 16)
	baseline := make([]flexsnoop.Result, 16)
	algs := []string{"Eager", "Lazy", "Subset", "SupersetCon", "SupersetAgg", "Exact"}
	for i := range configs {
		configs[i] = JobSpec{
			Algorithm: algs[i%len(algs)],
			Workload:  "fft",
			Options:   SpecOptions{OpsPerCore: 200, Seed: int64(2000 + i/len(algs))},
		}
		fj, err := configs[i].Job()
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		baseline[i], err = flexsnoop.RunJobContext(context.Background(), fj)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
	}

	_, w1 := newWorker(t, 2)
	_, w2 := newWorker(t, 2)
	coord := mustNew(t, coordCfg(w1, w2))
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	results := make([]flexsnoop.Result, len(configs))
	errs := make([]error, len(configs))
	done := make(chan int)
	for i := range configs {
		go func(i int) {
			results[i], errs[i] = c.Run(context.Background(), configs[i])
			done <- i
		}(i)
	}
	for range configs {
		<-done
	}
	for i := range configs {
		if errs[i] != nil {
			t.Fatalf("cell %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], baseline[i]) {
			t.Errorf("cell %d: federated result differs from in-process baseline", i)
		}
	}

	stats := coord.Stats()
	if stats.BusyWorkers != 0 || stats.Workers != 0 {
		t.Errorf("coordinator reports local workers %d busy %d, want 0/0", stats.Workers, stats.BusyWorkers)
	}
	if len(stats.Backends) != 2 {
		t.Fatalf("coordinator reports %d backends, want 2", len(stats.Backends))
	}
	var dispatched uint64
	for _, b := range stats.Backends {
		if b.Local {
			t.Errorf("backend %s claims to be local", b.Name)
		}
		if b.Dispatched == 0 {
			t.Errorf("backend %s got no dispatches: the fan-out did not spread", b.Name)
		}
		dispatched += b.Dispatched
	}
	if dispatched != uint64(len(configs)) {
		t.Errorf("total dispatched = %d, want %d", dispatched, len(configs))
	}

	// The coordinator's cache fronts the fleet: resubmitting any cell is
	// answered locally, without another dispatch.
	st, err := coord.Submit(configs[0])
	if err != nil || !st.Cached {
		t.Fatalf("resubmission not served from coordinator cache: %+v, %v", st, err)
	}
	if got := coord.Stats().Backends[0].Dispatched + coord.Stats().Backends[1].Dispatched; got != dispatched {
		t.Errorf("cache hit still dispatched: %d -> %d", dispatched, got)
	}
}

// TestFederationFailover: a job dispatched to a dead backend is not
// failed — it is re-queued and retried on a live one, the dead
// backend's breaker opens, and /statsz counts the failover.
func TestFederationFailover(t *testing.T) {
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	_, live := newWorker(t, 2)
	// The dead backend is listed first: the first dispatch deterministically
	// picks it (least-loaded ties go to the earlier backend) and fails over.
	coord := mustNew(t, coordCfg(deadURL, live))
	defer coord.Close()

	st, err := coord.Submit(smallSpec(500))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got := waitTerminal(t, coord, st.ID)
	if got.State != StateDone {
		t.Fatalf("job after failover = %q (error %q), want done", got.State, got.Error)
	}

	want, err := flexsnoop.RunJobContext(context.Background(), mustJob(t, smallSpec(500)))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if !reflect.DeepEqual(*got.Result, want) {
		t.Error("failed-over result differs from in-process baseline")
	}

	stats := coord.Stats()
	if stats.Failovers == 0 {
		t.Error("Failovers = 0 after a dispatch to a dead backend")
	}
	for _, b := range stats.Backends {
		switch b.Name {
		case strings.TrimRight(deadURL, "/"):
			if b.Healthy || b.BreakerState != "open" {
				t.Errorf("dead backend healthy=%v breaker=%q, want its breaker open", b.Healthy, b.BreakerState)
			}
			if b.Failovers == 0 {
				t.Error("dead backend counts no failovers")
			}
			if b.LastError == "" {
				t.Error("dead backend has no last error")
			}
		default:
			if b.Completed == 0 {
				t.Errorf("live backend %s completed nothing", b.Name)
			}
		}
	}
}

// TestFederationAllBackendsDead: with every backend down, a job fails
// fast with the last backend error instead of parking forever.
func TestFederationAllBackendsDead(t *testing.T) {
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()

	coord := mustNew(t, coordCfg(deadURL))
	defer coord.Close()

	st, err := coord.Submit(smallSpec(600))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got := waitTerminal(t, coord, st.ID)
	if got.State != StateFailed {
		t.Fatalf("job with all backends dead = %q, want failed", got.State)
	}
	if !strings.Contains(got.Error, "gave up") {
		t.Errorf("error %q does not report giving up on backends", got.Error)
	}
	if coord.Stats().RunsFailed != 1 {
		t.Errorf("RunsFailed = %d, want 1", coord.Stats().RunsFailed)
	}
}

// TestFederationRegistration: a coordinator with no static backends
// accepts a worker registration over HTTP and dispatches to it; plain
// servers refuse registrations (403); bad URLs are 400s.
func TestFederationRegistration(t *testing.T) {
	worker, workerURL := newWorker(t, 2)

	coord := mustNew(t, Config{Workers: -1, Coordinator: true})
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	if err := c.Register(context.Background(), BackendRegistration{URL: workerURL, Workers: 2}); err != nil {
		t.Fatalf("register: %v", err)
	}
	// Re-registration is a heartbeat, not a duplicate backend.
	if err := c.Register(context.Background(), BackendRegistration{URL: workerURL + "/", Workers: 2}); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if n := len(coord.Stats().Backends); n != 1 {
		t.Fatalf("backends after re-registration = %d, want 1", n)
	}
	if !coord.Stats().Backends[0].Registered {
		t.Error("registered backend not flagged Registered")
	}

	res, err := c.Run(context.Background(), smallSpec(700))
	if err != nil {
		t.Fatalf("run via registered worker: %v", err)
	}
	want, err := flexsnoop.RunJobContext(context.Background(), mustJob(t, smallSpec(700)))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("result via registered worker differs from in-process baseline")
	}
	if worker.Stats().RunsCompleted != 1 {
		t.Errorf("worker RunsCompleted = %d, want 1", worker.Stats().RunsCompleted)
	}

	if err := c.Register(context.Background(), BackendRegistration{URL: "not a url"}); err == nil {
		t.Error("bad registration URL accepted")
	}

	// A plain (non-coordinator) server refuses registrations.
	if err := worker.RegisterBackend(BackendRegistration{URL: ts.URL}); !errors.Is(err, ErrNotCoordinator) {
		t.Errorf("RegisterBackend on plain server = %v, want ErrNotCoordinator", err)
	}
	wc := &Client{BaseURL: workerURL}
	err = wc.Register(context.Background(), BackendRegistration{URL: ts.URL})
	var re *remoteError
	if !errors.As(err, &re) || re.StatusCode != 403 {
		t.Errorf("HTTP register on plain server = %v, want 403", err)
	}
}

// TestFederationProbeRecovery: a backend whose breaker is open is
// re-admitted half-open by the health prober, or at once by a
// registration heartbeat, and the next job through it closes the breaker.
func TestFederationProbeRecovery(t *testing.T) {
	worker, workerURL := newWorker(t, 2)

	coord := mustNew(t, coordCfg(workerURL))
	defer coord.Close()

	// Open the backend's breaker by hand (as a failed dispatch would).
	coord.mu.Lock()
	coord.openBreakerLocked(coord.backends[0], errors.New("induced for test"))
	coord.mu.Unlock()

	// The prober (50ms interval) must make it half-open and pick up its
	// real pool size from /statsz.
	deadline := time.Now().Add(30 * time.Second)
	for {
		b := coord.Stats().Backends[0]
		if b.Healthy && b.Slots == 2 {
			if b.BreakerState != "half-open" {
				t.Errorf("breaker after a passing probe = %q, want half-open", b.BreakerState)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend never recovered: %+v", b)
		}
		time.Sleep(5 * time.Millisecond)
	}

	st, err := coord.Submit(smallSpec(800))
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	if got := waitTerminal(t, coord, st.ID); got.State != StateDone {
		t.Fatalf("job after recovery = %q, want done", got.State)
	}
	if worker.Stats().RunsCompleted != 1 {
		t.Errorf("worker RunsCompleted = %d, want 1", worker.Stats().RunsCompleted)
	}
	if got := coord.Stats().Backends[0].BreakerState; got != "closed" {
		t.Errorf("breaker after the half-open job = %q, want closed", got)
	}

	// A heartbeat re-admits without waiting for a probe: this coordinator
	// never probes within the test.
	hb := mustNew(t, Config{Workers: -1, Coordinator: true, HealthInterval: time.Hour})
	defer hb.Close()
	reg := BackendRegistration{URL: workerURL, Workers: 2}
	if err := hb.RegisterBackend(reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	hb.mu.Lock()
	hb.openBreakerLocked(hb.backends[0], errors.New("induced for test"))
	hb.mu.Unlock()
	if b := hb.Stats().Backends[0]; b.Healthy || b.BreakerState != "open" {
		t.Fatalf("backend after opening its breaker: %+v", b)
	}
	if err := hb.RegisterBackend(reg); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if b := hb.Stats().Backends[0]; !b.Healthy || b.BreakerState != "half-open" {
		t.Fatalf("backend after a heartbeat: %+v, want half-open", b)
	}
	st, err = hb.Submit(smallSpec(801))
	if err != nil {
		t.Fatalf("submit after heartbeat: %v", err)
	}
	if got := waitTerminal(t, hb, st.ID); got.State != StateDone {
		t.Fatalf("job after heartbeat = %q, want done", got.State)
	}
	if got := hb.Stats().Backends[0].BreakerState; got != "closed" {
		t.Errorf("breaker after the half-open job = %q, want closed", got)
	}
}

// TestProbeOneRequestPerBackend: one probe round sends a backend one
// request, GET /statsz, and that snapshot's ready flag is the health
// signal, so a draining backend fails the probe.
func TestProbeOneRequestPerBackend(t *testing.T) {
	worker := mustNew(t, Config{Workers: 2})
	h := worker.Handler()
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	cfg := coordCfg(ts.URL)
	cfg.HealthInterval = time.Hour // the test runs each probe itself
	coord := mustNew(t, cfg)
	defer coord.Close()

	coord.probeBackends(5 * time.Second)
	if got := requests.Load(); got != 1 {
		t.Errorf("one probe round sent the backend %d requests, want 1", got)
	}
	if b := coord.Stats().Backends[0]; !b.Healthy || b.Slots != 2 {
		t.Errorf("backend after a passing probe: %+v, want healthy with 2 slots", b)
	}

	worker.Close() // draining: /statsz now reports ready false
	coord.probeBackends(5 * time.Second)
	b := coord.Stats().Backends[0]
	if b.BreakerState != "open" || !strings.Contains(b.LastError, "not ready") {
		t.Errorf("backend after probing a draining worker: %+v, want its breaker open on \"not ready\"", b)
	}
}

// TestSpecVersionRejected: a spec from a future protocol version is
// refused with ErrSpecVersion (HTTP 400), never silently misread;
// version 0 (field absent on the wire) means version 1 and is accepted.
func TestSpecVersionRejected(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	defer s.Close()

	bad := smallSpec(900)
	bad.Version = SpecVersion + 1
	if _, err := s.Submit(bad); !errors.Is(err, ErrSpecVersion) {
		t.Errorf("Submit version %d = %v, want ErrSpecVersion", bad.Version, err)
	}
	bad.Version = -1
	if _, err := s.Submit(bad); !errors.Is(err, ErrSpecVersion) {
		t.Errorf("Submit version -1 = %v, want ErrSpecVersion", err)
	}

	ok := smallSpec(900)
	ok.Version = SpecVersion
	if _, err := s.Submit(ok); err != nil {
		t.Errorf("Submit version %d = %v, want accepted", SpecVersion, err)
	}
	ok.Version = 0
	if _, err := s.Submit(ok); err != nil {
		t.Errorf("Submit version 0 = %v, want accepted (0 means 1)", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	future := smallSpec(901)
	future.Version = 99
	_, err := c.Submit(context.Background(), future)
	var re *remoteError
	if !errors.As(err, &re) || re.StatusCode != 400 {
		t.Errorf("HTTP submit of version 99 = %v, want 400", err)
	}
}

func mustJob(t *testing.T, spec JobSpec) flexsnoop.Job {
	t.Helper()
	fj, err := spec.Job()
	if err != nil {
		t.Fatalf("spec.Job: %v", err)
	}
	return fj
}
