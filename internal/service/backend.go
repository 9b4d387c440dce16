package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"flexsnoop"
)

// This file is the federation layer: the coordinator's backend registry,
// the health checker, and the remote execution path with failover.
//
// A Server becomes a coordinator when its Config names static backends or
// sets Coordinator (workers then register themselves over HTTP). The
// execution substrate generalises from "the local worker pool" to a set
// of backends — the local pool plus any number of remote ringsimd
// daemons — and the dispatcher assigns each queued execution to the
// least-loaded eligible backend. Everything above the dispatch seam
// (queueing, dedup, the content-addressed cache, cancellation, drain) is
// unchanged: in particular the coordinator's result cache now fronts the
// whole fleet, so a sweep re-run against the coordinator is answered
// without touching any worker.

// backend is one execution substrate: the local worker pool (client ==
// nil) or a remote ringsimd daemon driven through a Client. All mutable
// fields are guarded by the owning Server's mutex; the prober and the
// run goroutines copy what they need out under the lock and do network
// I/O unlocked.
type backend struct {
	name   string  // "local" or the remote base URL
	client *Client // nil for the local pool

	slots    int  // max concurrent dispatches (local: Workers; remote: its worker count)
	inflight int  // executions currently dispatched here
	dynamic  bool // registered via POST /v1/backends rather than Config.Backends

	lastErr string // most recent dispatch or probe failure

	// Health is one circuit breaker per remote backend (DESIGN.md §12),
	// fed by dispatch outcomes and by probes and heartbeats. The local
	// pool's breaker stays closed: its failures are the job's, not the
	// substrate's.
	breaker      breakerState
	consecFails  int    // consecutive transient dispatch failures while closed
	breakerOpens uint64 // cumulative closed/half-open → open transitions

	// Cumulative counters (reported per backend by /statsz).
	dispatched, completed, failed, failovers uint64

	// Last probe snapshot of the remote's own /statsz (zero for local).
	remoteQueueDepth int
	remoteHitRate    float64
}

// BackendRegistration is the wire body of POST /v1/backends: a worker
// announcing itself to a coordinator.
type BackendRegistration struct {
	// URL is the worker's base URL as the coordinator should dial it.
	URL string `json:"url"`
	// Workers is the worker's simulation pool size; the coordinator
	// dispatches at most this many concurrent jobs to it (0 = probe it).
	Workers int `json:"workers,omitempty"`
}

// breakerState is the per-backend circuit-breaker state machine:
// closed (dispatch normally) → open (no dispatch, after BreakerFailures
// consecutive transient failures or a failed probe) →
// half-open (after a passing probe or a heartbeat: one job at a time;
// success closes, failure re-opens).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (st breakerState) String() string {
	switch st {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BackendStats is the /statsz view of one backend.
type BackendStats struct {
	Name       string `json:"name"`
	Local      bool   `json:"local,omitempty"`
	Healthy    bool   `json:"healthy"`
	Registered bool   `json:"registered,omitempty"` // via POST /v1/backends
	Slots      int    `json:"slots"`
	Inflight   int    `json:"inflight"`
	Dispatched uint64 `json:"dispatched"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Failovers  uint64 `json:"failovers"`
	// QueueDepth and CacheHitRate mirror the remote backend's own /statsz
	// as of the last health probe (zero for the local pool: its queue is
	// this server's queue).
	QueueDepth   int     `json:"queue_depth,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	// Healthy is "breaker not open". BreakerState ("closed", "open",
	// "half-open") and BreakerOpens are reported for remote backends.
	BreakerState string `json:"breaker_state,omitempty"`
	BreakerOpens uint64 `json:"breaker_opens,omitempty"`
	LastError    string `json:"last_error,omitempty"`
}

func (b *backend) statsLocked() BackendStats {
	st := BackendStats{
		Name:         b.name,
		Local:        b.client == nil,
		Healthy:      b.breaker != breakerOpen,
		Registered:   b.dynamic,
		Slots:        b.slots,
		Inflight:     b.inflight,
		Dispatched:   b.dispatched,
		Completed:    b.completed,
		Failed:       b.failed,
		Failovers:    b.failovers,
		QueueDepth:   b.remoteQueueDepth,
		CacheHitRate: b.remoteHitRate,
		LastError:    b.lastErr,
	}
	if b.client != nil {
		st.BreakerState = b.breaker.String()
		st.BreakerOpens = b.breakerOpens
	}
	return st
}

// availableLocked reports whether the backend could accept work at all
// (ignoring free slots): its breaker is not open. Failover's "fail fast
// when nobody is left" decision keys off this.
func (b *backend) availableLocked() bool {
	return b.slots > 0 && b.breaker != breakerOpen
}

// eligibleLocked is availableLocked plus a free slot. A half-open backend
// takes one job at a time: that dispatch's outcome closes or re-opens the
// breaker, and a dispatch that never ran (its deadline passed first)
// leaves it half-open and eligible again.
func (b *backend) eligibleLocked() bool {
	if !b.availableLocked() || b.inflight >= b.slots {
		return false
	}
	return b.breaker != breakerHalfOpen || b.inflight == 0
}

// federated reports whether this server is a coordinator.
func (c Config) federated() bool { return c.Coordinator || len(c.Backends) > 0 }

// RegisterBackend adds a remote backend (or refreshes an existing one —
// registration doubles as a heartbeat). Only coordinators accept
// registrations.
func (s *Server) RegisterBackend(reg BackendRegistration) error {
	if !s.cfg.federated() {
		return fmt.Errorf("%w: not a coordinator", ErrNotCoordinator)
	}
	url := strings.TrimRight(strings.TrimSpace(reg.URL), "/")
	if url == "" || !strings.Contains(url, "://") {
		return fmt.Errorf("%w: backend URL %q", flexsnoop.ErrBadConfig, reg.URL)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.backends {
		if b.name == url {
			if reg.Workers > 0 {
				b.slots = reg.Workers
			}
			s.halfOpenLocked(b, "heartbeat")
			return nil
		}
	}
	b := s.newRemoteBackendLocked(url, reg.Workers)
	b.dynamic = true
	s.logf("backend %s registered (%d slots)", b.name, b.slots)
	s.cond.Broadcast()
	return nil
}

// newRemoteBackendLocked appends a remote backend with its breaker
// optimistically closed: the first dispatch or probe opens it if the
// backend is down, and a failed dispatch fails over rather than failing
// the job.
func (s *Server) newRemoteBackendLocked(url string, workers int) *backend {
	if workers <= 0 {
		workers = defaultRemoteSlots
	}
	b := &backend{
		name: url,
		// Transport retries are disabled: the coordinator's failover IS its
		// retry mechanism, and it needs transport errors surfaced promptly
		// to open the backend's breaker and requeue elsewhere.
		client: &Client{BaseURL: url, MaxTransportRetries: -1},
		slots:  workers,
	}
	s.backends = append(s.backends, b)
	return b
}

// defaultRemoteSlots bounds dispatch to a remote backend whose pool size
// is not yet known (static -backends entry before its first /statsz
// probe). The first probe replaces it with the worker's real pool size.
const defaultRemoteSlots = 4

// pickLocked returns the eligible backend (breaker permitting, free
// capacity) that is least loaded (lowest inflight/slots fraction; ties go
// to the earlier backend, so the local pool — always index 0 when present
// — wins a dead heat), skipping skip: a hedge on its primary's backend
// would only duplicate the same failure domain. Nil when every backend is
// busy, quarantined, or absent.
func (s *Server) pickLocked(skip *backend) *backend {
	var best *backend
	var bestLoad float64
	for _, b := range s.backends {
		if b == skip || !b.eligibleLocked() {
			continue
		}
		load := float64(b.inflight) / float64(b.slots)
		if best == nil || load < bestLoad {
			best, bestLoad = b, load
		}
	}
	return best
}

// anyAvailableLocked reports whether any backend (local included) could
// currently accept work, busy or not — open breakers do not count, so a
// job failing over off the last live backend fails fast instead of
// parking until a probe re-admits one.
func (s *Server) anyAvailableLocked() bool {
	for _, b := range s.backends {
		if b.availableLocked() {
			return true
		}
	}
	return false
}

// backendObserveLocked feeds one finished dispatch attempt into the
// backend's circuit breaker: transient failures count against it,
// successes close it. No-op for the local pool (its failures are the
// job's, not the substrate's), for cancellations and for expiries.
func (s *Server) backendObserveLocked(b *backend, err error) {
	if b.client == nil {
		return
	}
	switch {
	case err == nil:
		if b.breaker != breakerClosed {
			s.logf("backend %s breaker closed (dispatch succeeded)", b.name)
		}
		b.breaker = breakerClosed
		b.consecFails = 0
	case transient(err):
		s.breakerFailureLocked(b, err)
	}
}

// breakerFailureLocked records one failed dispatch: the threshold of
// consecutive failures — or any failure while half-open — opens the
// breaker.
func (s *Server) breakerFailureLocked(b *backend, err error) {
	b.consecFails++
	if b.breaker == breakerHalfOpen || b.consecFails >= s.cfg.BreakerFailures {
		s.openBreakerLocked(b, err)
		return
	}
	b.lastErr = err.Error()
}

// openBreakerLocked takes a backend out of dispatch until a passing
// probe or a registration heartbeat makes it half-open.
func (s *Server) openBreakerLocked(b *backend, err error) {
	b.lastErr = err.Error()
	if b.breaker != breakerOpen {
		b.breakerOpens++
		s.logf("backend %s breaker open: %v", b.name, err)
	}
	b.breaker = breakerOpen
}

// halfOpenLocked is the open → half-open edge: the backend answered a
// probe or sent a heartbeat, so it may take one job to prove itself.
func (s *Server) halfOpenLocked(b *backend, via string) {
	b.lastErr = ""
	if b.breaker != breakerOpen {
		return
	}
	b.breaker = breakerHalfOpen
	s.logf("backend %s breaker half-open (%s)", b.name, via)
	s.cond.Broadcast() // a waiting dispatcher may now have a slot
}

// transientError marks a dispatch failure as the backend's fault rather
// than the job's: the execution is eligible for failover to another
// backend.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// permanentError marks a dispatch failure as the job's own: retrying on
// another backend would deterministically reproduce it.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// transient reports whether a dispatch failure should fail over. A
// deterministic simulator makes the classification crisp: a spec the
// worker rejected (HTTP 400) or a simulation that failed would do exactly
// the same anywhere, so only backend-side conditions — transport errors,
// 5xx, a draining or restarted worker — are worth a retry elsewhere. An
// expired deadline or an admission-control shed is the job's fate, not
// the backend's fault.
func transient(err error) bool {
	var te *transientError
	if errors.As(err, &te) {
		return true
	}
	var pe *permanentError
	if errors.As(err, &pe) {
		return false
	}
	if errors.Is(err, ErrExpired) || errors.Is(err, errShed) {
		return false
	}
	var re *remoteError
	if errors.As(err, &re) {
		return re.StatusCode != http.StatusBadRequest
	}
	// Not an API response at all: the backend is unreachable.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// runRemote executes one attempt of ex on a remote backend: submit
// (with backpressure backoff), wait for a terminal state, translate it
// back into the local execution's terms. Every attempt runs under the
// execution's context, and its cancellation is propagated: the blocked
// wait ends immediately and SubmitWait cancels the remote job
// best-effort so the worker's slot frees promptly, even if the
// cancellation came while the submit was in flight.
func (s *Server) runRemote(b *backend, ex *execution) (flexsnoop.Result, error) {
	ctx := ex.ctx
	spec := ex.spec
	spec.Version = SpecVersion
	if !ex.deadline.IsZero() {
		// End-to-end deadline: the worker gets only the budget that is
		// left after this job's time in the coordinator's queue, and the
		// coordinator stops waiting the moment the deadline passes.
		remaining := time.Until(ex.deadline)
		if remaining <= 0 {
			return flexsnoop.Result{}, fmt.Errorf("%w: before remote dispatch to %s", ErrExpired, b.name)
		}
		if spec.DeadlineMS = int64(remaining / time.Millisecond); spec.DeadlineMS < 1 {
			spec.DeadlineMS = 1
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, ex.deadline)
		defer cancel()
	}
	st, err := b.client.SubmitWait(ctx, spec)
	if err != nil {
		if ctx.Err() == nil {
			return flexsnoop.Result{}, err
		}
		// Our side gave up (deadline, job cancel or drain): report why.
		if expired := remoteExpiry(ctx, ex); expired != nil {
			return flexsnoop.Result{}, expired
		}
		return flexsnoop.Result{}, context.Canceled
	}
	switch st.State {
	case StateDone:
		if st.Result == nil {
			return flexsnoop.Result{}, &transientError{fmt.Errorf("backend %s: done without a result", b.name)}
		}
		return *st.Result, nil
	case StateCanceled:
		if expired := remoteExpiry(ctx, ex); expired != nil {
			return flexsnoop.Result{}, expired
		}
		if ctx.Err() != nil {
			return flexsnoop.Result{}, context.Canceled
		}
		// The worker cancelled it (drain): not this job's fault.
		return flexsnoop.Result{}, &transientError{fmt.Errorf("backend %s canceled the job (draining?)", b.name)}
	default:
		// The worker enforced the propagated deadline itself: surface it
		// as this job's expiry, not as a backend failure.
		if strings.Contains(st.Error, ErrExpired.Error()) {
			return flexsnoop.Result{}, fmt.Errorf("%w: on %s: %s", ErrExpired, b.name, st.Error)
		}
		// A deterministic simulation failure: retrying elsewhere would
		// reproduce it identically, so surface the worker's error as
		// final — and never as a breaker or failover signal.
		return flexsnoop.Result{}, &permanentError{fmt.Errorf("backend %s: %s", b.name, st.Error)}
	}
}

// remoteExpiry translates an attempt abort into the job's expiry when
// the execution's own deadline — not a cancellation — fired: the
// attempt context carries the deadline (WithDeadline above), and the
// execution context stays live unless the job was cancelled or drained.
func remoteExpiry(ctx context.Context, ex *execution) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) && ex.ctx.Err() == nil {
		return fmt.Errorf("%w: deadline passed mid-dispatch", ErrExpired)
	}
	return nil
}

// prober is the coordinator's health checker: every HealthInterval it
// probes each remote backend with one GET /statsz, which reports both
// health (ready: the predicate /readyz answers) and load and pool size.
// A failed probe, or a backend that is not ready, opens the backend's
// breaker; a passing one moves an open breaker to half-open and wakes
// the dispatcher.
func (s *Server) prober() {
	defer s.wg.Done()
	interval := s.cfg.HealthInterval
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.probeBackends(interval)
		}
	}
}

// probeBackends runs one probe round over a snapshot of the remote
// backends.
func (s *Server) probeBackends(timeout time.Duration) {
	s.mu.Lock()
	targets := make([]*backend, 0, len(s.backends))
	for _, b := range s.backends {
		if b.client != nil {
			targets = append(targets, b)
		}
	}
	s.mu.Unlock()

	for _, b := range targets {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		remote, err := b.client.Stats(ctx)
		cancel()
		if err == nil && !remote.Ready {
			err = fmt.Errorf("not ready (draining=%t)", remote.Draining)
		}

		s.mu.Lock()
		if err != nil {
			s.openBreakerLocked(b, err)
		} else {
			s.halfOpenLocked(b, "probe passed")
			if remote.Workers > 0 {
				b.slots = remote.Workers
			}
			b.remoteQueueDepth = remote.QueueDepth
			b.remoteHitRate = remote.CacheHitRate
		}
		s.mu.Unlock()
	}
}

// ErrNotCoordinator: a backend registration sent to a plain (non
// federated) server.
var ErrNotCoordinator = errors.New("service: server is not a coordinator")
