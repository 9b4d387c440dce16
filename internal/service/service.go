// Package service turns the simulator into an embeddable
// simulation-as-a-service job server: a JSON job API backed by a bounded
// priority queue with backpressure, a worker pool, a content-addressed
// result cache with in-flight deduplication, streaming interval
// telemetry, and graceful drain.
//
// The design leans on two properties the engine already guarantees.
// Determinism (reruns of one configuration are bit-identical) makes the
// content-addressed cache exactly correct: a Result served from cache is
// indistinguishable from a fresh simulation, so identical submissions —
// concurrent or not — collapse into one run. Cancellation (Simulate
// stops between events) makes DELETE and graceful drain cheap: a
// cancelled job never corrupts shared state because every run builds its
// own machine.
//
// cmd/ringsimd wraps the package in a daemon; sweep -remote and the
// Client type consume it.
package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"flexsnoop"
	"flexsnoop/internal/journal"
)

// Job lifecycle states, as reported by the API.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull: the bounded queue refused the job (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining: the server is shutting down (HTTP 503).
	ErrDraining = errors.New("service: server draining")
	// ErrUnknownJob: no job with that ID (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrDurability: the write-ahead journal refused an append, so the
	// state transition cannot be acknowledged (HTTP 500). The job state
	// is unchanged.
	ErrDurability = errors.New("service: write-ahead journal append failed")
)

// Config sizes a Server. The zero value gets sensible defaults.
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	// Each simulation is an independent single-threaded event kernel, so
	// workers scale linearly until cores saturate. A negative value
	// disables local execution entirely — meaningful only for a
	// coordinator, which then purely dispatches to its backends.
	Workers int
	// QueueCapacity bounds the pending-job queue (default 64). Beyond
	// it, submissions fail with ErrQueueFull — backpressure, not OOM.
	QueueCapacity int
	// CacheEntries bounds the content-addressed result cache (default
	// 256, LRU eviction). Zero disables caching entirely.
	CacheEntries int

	// Backends lists remote ringsimd base URLs to federate with. A
	// non-empty list (or Coordinator) turns this server into a
	// coordinator: queued jobs are dispatched least-loaded-first across
	// the local pool and every backend whose breaker is not open, and the
	// result cache fronts the whole fleet.
	Backends []string
	// Coordinator enables federation even with no static Backends:
	// workers announce themselves via POST /v1/backends (see
	// RegisterLoop and ringsimd -register).
	Coordinator bool
	// HealthInterval paces the /readyz + /statsz probes of remote
	// backends (default 2s). A passing probe is what moves an open
	// breaker to half-open, so this is also the recovery clock.
	HealthInterval time.Duration
	// DispatchRetries bounds how many times a job that failed on a dying
	// backend is re-queued and retried on another one (default 3).
	// Beyond it the job fails with the last backend error.
	DispatchRetries int

	// SojournTarget enables CoDel-style queue aging: when the oldest
	// queued job's sojourn stays above this target for a full target
	// interval, one low-priority execution is shed (failed with a
	// shed error) per interval until sojourn recovers. Zero disables
	// aging (the queue only sheds by rejecting new work).
	SojournTarget time.Duration
	// RateLimit enables per-client admission control: each distinct
	// JobSpec.ClientID may be admitted at most this many jobs per second
	// (token bucket, burst RateBurst). Submissions without a client_id
	// are not limited. Zero disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket burst for RateLimit (default:
	// ceil(RateLimit), at least 1).
	RateBurst int
	// BreakerFailures is how many consecutive transient dispatch failures
	// open a remote backend's circuit breaker (default 1). A failed probe
	// opens it too; a passing probe or a registration heartbeat makes it
	// half-open, and the one job it then takes closes or re-opens it.
	BreakerFailures int

	// HedgeDelay enables hedged dispatch on a coordinator: an execution
	// still running on one backend this long after dispatch is
	// speculatively re-dispatched to a second eligible backend. The first
	// result wins; because the simulator is deterministic the two results
	// must be bit-identical, so a disagreement is surfaced as a hard
	// integrity error in /statsz (HedgeMismatches) and the log. Zero
	// disables hedging.
	HedgeDelay time.Duration

	// WALDir enables the crash journal: every job state transition is
	// appended (and, under WALSync "always", fsynced) before it is
	// acknowledged, and on startup the journal is replayed — completed
	// jobs resolve from the disk cache, incomplete jobs are requeued with
	// their original priority and admission sequence. Empty disables
	// journaling (the pre-durability volatile behavior).
	WALDir string
	// WALSync is the journal fsync policy: "always" (default; survives
	// power loss) or "none" (survives kill -9 but defers flushing to the
	// OS). See journal.SyncPolicy.
	WALSync string
	// CacheDir enables the disk tier of the result cache:
	// content-addressed files keyed by fingerprint with an embedded
	// sha256 verified on every read. A corrupt or truncated entry is a
	// miss (and is deleted), never served. Empty keeps the cache
	// memory-only.
	CacheDir string

	// MaxRequestBytes bounds HTTP request bodies (job specs, backend
	// registrations); beyond it submission fails with 413 (default 1 MiB).
	MaxRequestBytes int64

	// Logf, when non-nil, receives one line per job state change.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 || (c.Workers < 0 && !c.federated()) {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 0 {
		c.Workers = -1 // canonical "no local pool"
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.DispatchRetries <= 0 {
		c.DispatchRetries = 3
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	} else if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.RateLimit > 0 && c.RateBurst <= 0 {
		c.RateBurst = int(c.RateLimit)
		if float64(c.RateBurst) < c.RateLimit {
			c.RateBurst++
		}
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 1
	}
	return c
}

// finishedJobRetention bounds how many finished (done, failed, canceled)
// jobs remain queryable. Older finished jobs are forgotten oldest-first.
const finishedJobRetention = 1024

// execution is one actual simulation: the unit the queue, the worker
// pool and the in-flight dedup map operate on. Several jobs (identical
// submissions) may be attached to one execution.
type execution struct {
	fp    string
	job   flexsnoop.Job
	spec  JobSpec // original wire spec, re-submittable to a remote backend
	label string  // "Algorithm/workload" pprof + log label

	priority   int
	seq        uint64
	queueIndex int       // heap index; -1 when not queued
	enqueuedAt time.Time // last (re)admission to the queue, for sojourn aging
	// deadline is the end-to-end completion deadline (zero = none): past
	// it the job is shed from the queue, never started by a worker, and
	// interrupted if running. Identical submissions deduped onto this
	// execution extend it (a job with no deadline clears it).
	deadline time.Time

	state    string
	jobs     []*job
	live     int // attached jobs not individually cancelled
	attempts int // failed dispatches so far (federation failover)
	running  int // attempts currently in flight (>1 only while hedged)
	ctx      context.Context
	cancel   context.CancelFunc
	hub      *metricsHub
	done     chan struct{}
	result   flexsnoop.Result
	err      error

	hedged bool // a speculative second dispatch was launched
}

// job is one submission. A cache hit produces a job with no execution,
// as does a job recovered from the journal in a terminal state.
type job struct {
	id       string
	seq      uint64
	fp       string
	exec     *execution // nil iff served from cache or recovered terminal
	cached   bool
	canceled bool
	result   flexsnoop.Result // cached result (exec == nil only)
	err      error            // failure recovered from the journal (exec == nil only)
	// cancelWake is closed when Cancel ends this job alone, waking a
	// waiting status call while a deduplicated twin keeps the execution
	// running. The first waiter makes it; a job nobody waits on has none.
	cancelWake chan struct{}
}

// terminal reports whether a job in this state will never change again.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// JobStatus is the API's view of one job.
type JobStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Fingerprint string `json:"fingerprint"`
	// Cached marks a submission answered from the result cache without
	// simulating.
	Cached bool `json:"cached,omitempty"`
	// Result is present once State is "done". It is the simulator's
	// native Result object, bit-identical to an in-process run of the
	// same configuration.
	Result *flexsnoop.Result `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
}

func (j *job) statusLocked() JobStatus {
	st := JobStatus{ID: j.id, Fingerprint: j.fp, Cached: j.cached}
	switch {
	case j.cached:
		st.State = StateDone
		res := j.result
		st.Result = &res
	case j.canceled:
		st.State = StateCanceled
	case j.exec == nil:
		st.State = StateFailed
		st.Error = j.err.Error()
	default:
		st.State = j.exec.state
		switch j.exec.state {
		case StateDone:
			res := j.exec.result
			st.Result = &res
		case StateFailed:
			st.Error = j.exec.err.Error()
		}
	}
	return st
}

// Server is the job server. Create it with New, serve its Handler, and
// stop it with Drain (or Close in tests).
type Server struct {
	cfg   Config
	start time.Time

	mu       sync.Mutex
	cond     *sync.Cond // signals the dispatcher: work, slots, or shutdown
	jobs     map[string]*job
	order    []string // job insertion order, for finished-job eviction
	execs    map[string]*execution
	queue    jobQueue
	cache    *resultCache
	wal      *journal.Journal // nil without Config.WALDir
	backends []*backend       // execution substrates; index 0 is local when present
	wg       sync.WaitGroup
	stop     chan struct{} // closed on the first Drain; stops the prober

	draining bool
	ready    bool // journal replay finished; /readyz gates on this
	seq      uint64
	busy     int // local in-flight simulations (BusyWorkers)

	// Overload-resilience state (admission.go). limiter holds the
	// per-client token buckets; drainPerSec is the EWMA of executions
	// leaving the system, from which Retry-After promises are computed;
	// aboveSince tracks how long queue sojourn has exceeded the CoDel
	// target.
	limiter     map[string]*tokenBucket
	lastDrain   time.Time
	drainPerSec float64
	aboveSince  time.Time
	maintOn     bool // the maintenance goroutine is running

	// verifying tracks executions finalised as Done while another attempt
	// was still in flight: the loser deliberately runs to completion to
	// cross-check the accepted result, but drain must still be able to
	// interrupt it.
	verifying map[*execution]struct{}

	// stats holds the cumulative counters /statsz reports; Stats copies
	// it and fills in the live fields.
	stats Stats
}

// New builds and starts a server: its dispatcher (and, for a
// coordinator, its health checker) is live on return. With WALDir set,
// the journal is replayed first — completed jobs are restored from the
// disk cache and incomplete ones requeued — before the server reports
// ready; an unusable WAL or cache directory is the only error.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:       cfg.withDefaults(),
		start:     time.Now(),
		jobs:      make(map[string]*job),
		execs:     make(map[string]*execution),
		verifying: make(map[*execution]struct{}),
		stop:      make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	var disk *diskCache
	if s.cfg.CacheDir != "" {
		var err error
		if disk, err = newDiskCache(s.cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	s.cache = newResultCache(s.cfg.CacheEntries, disk)
	if s.cfg.Workers > 0 {
		s.backends = append(s.backends, &backend{name: "local", slots: s.cfg.Workers})
	}
	for _, url := range s.cfg.Backends {
		s.newRemoteBackendLocked(strings.TrimRight(strings.TrimSpace(url), "/"), 0)
	}

	if s.cfg.WALDir != "" {
		sync, err := journal.ParseSyncPolicy(s.cfg.WALSync)
		if err != nil {
			return nil, err
		}
		wal, records, err := journal.Open(journal.Options{Dir: s.cfg.WALDir, Sync: sync})
		if err != nil {
			return nil, err
		}
		s.wal = wal
		s.mu.Lock()
		if err := s.replayLocked(records); err != nil {
			s.mu.Unlock()
			wal.Close()
			return nil, err
		}
		s.ready = true
		s.mu.Unlock()
	} else {
		s.ready = true
	}

	s.wg.Add(1)
	go s.dispatcher()
	if s.cfg.federated() {
		s.wg.Add(1)
		go s.prober()
	}
	if s.cfg.SojournTarget > 0 {
		// Aging needs the maintenance goroutine from startup; deadline
		// jobs start it lazily.
		s.mu.Lock()
		s.ensureMaintLocked()
		s.mu.Unlock()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit validates a spec and admits it: served from cache, attached to
// an identical in-flight execution, or queued. Errors are either
// validation failures (wrap the flexsnoop sentinels), backpressure
// (ErrQueueFull or ErrRateLimited, carrying an honest Retry-After hint)
// or ErrDraining.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	fj, err := spec.Job()
	if err != nil {
		return JobStatus{}, err
	}
	fp := fj.Fingerprint()
	now := time.Now()
	deadline := spec.deadlineFrom(now)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	s.stats.JobsSubmitted++

	// Per-client admission control precedes everything else: a client
	// over its budget is told exactly when its next token arrives.
	if s.cfg.RateLimit > 0 && spec.ClientID != "" {
		if wait := s.takeTokenLocked(spec.ClientID, now); wait > 0 {
			s.stats.JobsRateLimited++
			return JobStatus{}, &overloadError{
				err:        fmt.Errorf("%w: client %q over %g jobs/s", ErrRateLimited, spec.ClientID, s.cfg.RateLimit),
				retryAfter: wait,
			}
		}
	}

	// Content-addressed cache: a completed identical run answers
	// immediately, without a queue slot. Journaled with the spec so a
	// post-crash status request for this job ID can still be answered
	// (from the disk cache, or by re-running if the cached result did
	// not survive).
	if res, ok := s.cache.Get(fp); ok {
		if err := s.walSubmitLocked(spec, fp); err != nil {
			return JobStatus{}, err
		}
		j := s.newJobLocked(fp, nil)
		j.cached = true
		j.result = res
		s.logf("job %s %s cache-hit (%s)", j.id, fj.Algorithm.String()+"/"+fj.Workload, shortFP(fp))
		return j.statusLocked(), nil
	}

	// In-flight dedup (singleflight): identical concurrent submissions
	// share one execution and therefore one simulation.
	if ex, ok := s.execs[fp]; ok {
		// The journal entry precedes the acknowledgment. The record
		// carries no spec (the execution's first record has it), only the
		// execution's priority and sequence, which outlive its first job.
		if err := s.walAppendLocked(journal.Record{
			Kind: journal.KindSubmitted, JobID: s.nextJobID(), Seq: s.seq + 1, Fingerprint: fp,
			Priority: ex.priority, ExecSeq: ex.seq,
		}); err != nil {
			return JobStatus{}, err
		}
		j := s.newJobLocked(fp, ex)
		s.stats.JobsDeduped++
		// A deduped submission extends a queued execution's deadline to the
		// most generous of its attached jobs; one without a deadline clears
		// it. A running execution keeps its budget — its context deadline is
		// already armed.
		if ex.state == StateQueued {
			if deadline.IsZero() {
				ex.deadline = time.Time{}
			} else if !ex.deadline.IsZero() && deadline.After(ex.deadline) {
				ex.deadline = deadline
			}
		}
		s.logf("job %s %s deduped onto %s", j.id, ex.label, shortFP(fp))
		return j.statusLocked(), nil
	}

	// Backpressure precedes the journal append: once a submitted record
	// is durable, admission must not fail, or replay would resurrect a
	// job the client was told to retry.
	if s.queue.Len() >= s.cfg.QueueCapacity {
		s.stats.JobsRejected++
		return JobStatus{}, &overloadError{err: ErrQueueFull, retryAfter: s.retryAfterLocked()}
	}
	if err := s.walSubmitLocked(spec, fp); err != nil {
		return JobStatus{}, err
	}
	// s.seq+1 is the admission sequence of the job minted below.
	ex := s.enqueueLocked(spec, fj, fp, spec.Priority, s.seq+1, deadline)
	j := s.newJobLocked(fp, ex)
	s.cond.Signal()
	s.logf("job %s %s queued (%s, priority %d)", j.id, ex.label, shortFP(fp), spec.Priority)
	return j.statusLocked(), nil
}

// enqueueLocked builds the execution of fingerprint fp, queues it and
// indexes it for dedup. Submit and journal replay both create executions
// here, with the priority and admission sequence of the execution's first
// job. A deadline starts the maintenance goroutine, which is what sheds
// the execution if its budget runs out in the queue.
func (s *Server) enqueueLocked(spec JobSpec, fj flexsnoop.Job, fp string, priority int, seq uint64, deadline time.Time) *execution {
	ctx, cancel := context.WithCancel(context.Background())
	ex := &execution{
		fp:       fp,
		job:      fj,
		spec:     spec,
		label:    fj.Algorithm.String() + "/" + fj.Workload,
		priority: priority,
		seq:      seq,
		deadline: deadline,
		state:    StateQueued,
		ctx:      ctx,
		cancel:   cancel,
		hub:      newMetricsHub(),
		done:     make(chan struct{}),
	}
	if !deadline.IsZero() {
		s.ensureMaintLocked()
	}
	s.queue.Push(ex)
	s.execs[fp] = ex
	return ex
}

// nextJobID previews the ID newJobLocked will mint, so the journal
// record written before the acknowledgment names the job it admits.
func (s *Server) nextJobID() string { return fmt.Sprintf("j-%06d", s.seq+1) }

// newJobLocked mints a job, attaches it to its execution (nil for a cache
// hit), and evicts over-retention finished jobs oldest-first.
func (s *Server) newJobLocked(fp string, ex *execution) *job {
	s.seq++
	j := &job{id: fmt.Sprintf("j-%06d", s.seq), seq: s.seq, fp: fp, exec: ex}
	if ex != nil {
		ex.jobs = append(ex.jobs, j)
		ex.live++
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictFinishedLocked()
	return j
}

// Status reports one job.
func (s *Server) Status(id string) (JobStatus, error) {
	return s.status(context.Background(), id, false)
}

// status reports one job. With wait, a job that is not terminal yet is
// reported once it is (its execution is finalised, or Cancel ends the
// job alone) or once ctx ends, whichever comes first. Drain finalises
// every execution, so it releases every waiter.
func (s *Server) status(ctx context.Context, id string, wait bool) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if st := j.statusLocked(); !wait || terminal(st.State) {
		return st, nil
	}
	// Not terminal, so the job has an execution.
	if j.cancelWake == nil {
		j.cancelWake = make(chan struct{})
	}
	done, canceled := j.exec.done, j.cancelWake
	s.mu.Unlock()
	select {
	case <-done:
	case <-canceled:
	case <-ctx.Done():
	}
	s.mu.Lock()
	return j.statusLocked(), nil
}

// Cancel cancels one job. Cancelling the last live job of an execution
// cancels the simulation itself: dequeued if still queued, interrupted
// via its context if running. Finished jobs are unaffected (idempotent).
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	st := j.statusLocked()
	if terminal(st.State) {
		return st, nil
	}
	// Journal the cancellation before acknowledging it: a cancel the
	// client saw succeed must not come back from the dead on replay.
	if err := s.walAppendLocked(cancelRecord(j)); err != nil {
		return JobStatus{}, err
	}
	j.canceled = true
	if j.cancelWake != nil {
		close(j.cancelWake)
	}
	ex := j.exec
	ex.live--
	if ex.live == 0 {
		if s.queue.Remove(ex) {
			// Still queued: no worker will ever see it; finalise here.
			s.finalizeLocked(ex, flexsnoop.Result{}, context.Canceled)
		} else {
			// Running: interrupt the simulation; the worker finalises.
			ex.cancel()
		}
	}
	s.logf("job %s %s canceled", j.id, ex.label)
	return j.statusLocked(), nil
}

// Stream returns the metrics hub for a job's execution. A job with no
// execution (a cache hit, or a job recovered from the journal as
// finished) streams nothing: the hub is nil and so is the error.
func (s *Server) Stream(id string) (hub *metricsHub, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.exec == nil {
		return nil, nil
	}
	return j.exec.hub, nil
}

// dispatcher is the single scheduling goroutine: it waits until a queued
// execution and a backend with a free slot coexist, assigns the
// execution to the least-loaded eligible backend, and spawns a run
// goroutine for it. With only the local backend this degenerates to the
// classic bounded worker pool (at most Workers concurrent simulations);
// with remote backends it is the federation dispatch loop.
func (s *Server) dispatcher() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.draining && (s.queue.Len() == 0 || s.pickLocked(nil) == nil) {
			s.cond.Wait()
		}
		if s.draining {
			return // Drain has already cancelled everything still queued
		}
		ex := s.queue.Pop()
		// Pop-time expiry check: between maintenance scans a deadline can
		// pass; a worker must never start a job its caller has given up on.
		if now := time.Now(); !ex.deadline.IsZero() && !now.Before(ex.deadline) {
			s.finalizeLocked(ex, flexsnoop.Result{}, fmt.Errorf(
				"%w: expired at dispatch after %s queued", ErrExpired,
				now.Sub(ex.enqueuedAt).Round(time.Millisecond)))
			continue
		}
		b := s.pickLocked(nil)
		s.dispatchLocked(b, ex, false)
		if s.cfg.HedgeDelay > 0 && s.cfg.federated() {
			s.wg.Add(1)
			go s.hedgeTimer(b, ex)
		}
	}
}

// dispatchLocked assigns one attempt of an execution to a backend and
// spawns its run goroutine. Every attempt, hedges included, runs under
// the execution's own context.
func (s *Server) dispatchLocked(b *backend, ex *execution, hedge bool) {
	b.inflight++
	b.dispatched++
	if b.client == nil {
		s.busy++
	}
	ex.running++
	ex.state = StateRunning
	s.wg.Add(1)
	go s.runOn(b, ex, hedge)
}

// hedgeTimer waits out the hedge delay and, if the execution is still
// running, re-dispatches it to a second backend. First result
// wins; the loser's result is compared bit-for-bit against the winner's
// (see runOn), because a deterministic simulator makes any divergence a
// hard integrity error.
func (s *Server) hedgeTimer(primary *backend, ex *execution) {
	defer s.wg.Done()
	t := time.NewTimer(s.cfg.HedgeDelay)
	defer t.Stop()
	select {
	case <-ex.done:
		return
	case <-s.stop:
		return
	case <-t.C:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ex.state != StateRunning || ex.hedged || s.draining || ex.ctx.Err() != nil {
		return
	}
	b := s.pickLocked(primary)
	if b == nil {
		return // no second eligible backend with a free slot
	}
	ex.hedged = true
	s.stats.Hedges++
	s.logf("job %s hedged onto %s after %s (%s)", ex.label, b.name, s.cfg.HedgeDelay, shortFP(ex.fp))
	s.dispatchLocked(b, ex, true)
}

// runOn executes one attempt of a dispatched execution on its assigned
// backend and settles it: finalised on success, deterministic failure or
// cancellation; re-queued for failover when a remote backend died under
// it (bounded by DispatchRetries, then failed with the last backend
// error). When hedging is on, two attempts of one execution can be in
// flight: the first to settle finalises the execution, and the other —
// which deliberately runs to completion when the winner succeeded —
// only verifies that its result is bit-identical, counting any
// divergence as a hard integrity error.
func (s *Server) runOn(b *backend, ex *execution, hedge bool) {
	defer s.wg.Done()
	s.logf("job run %s on %s (%s)", ex.label, b.name, shortFP(ex.fp))

	var res flexsnoop.Result
	var err error
	switch {
	case !ex.deadline.IsZero() && !time.Now().Before(ex.deadline):
		// Last line of defence for "a worker never starts an expired job":
		// the budget ran out between dispatch and here.
		err = fmt.Errorf("%w: expired before starting on %s", ErrExpired, b.name)
	case b.client == nil:
		res, err = s.runExecution(ex)
	default:
		res, err = s.runRemote(b, ex)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	b.inflight--
	ex.running--
	if b.client == nil {
		s.busy--
	}
	// Feed the breaker before anything decides on failover: eligibility for
	// the retry below must see this attempt's outcome. An attempt that
	// never started expired, which says nothing about the backend.
	s.backendObserveLocked(b, err)
	defer s.cond.Broadcast() // a slot freed (or a requeue): wake the dispatcher

	// Another attempt already settled the execution: this one is only a
	// cross-check. Deterministic simulations make the comparison exact.
	if terminal(ex.state) {
		if err == nil && ex.state == StateDone {
			b.completed++
			if !reflect.DeepEqual(res, ex.result) {
				s.stats.HedgeMismatches++
				s.logf("INTEGRITY ERROR: hedged re-execution of %s on %s diverged from the accepted result (%s)",
					ex.label, b.name, shortFP(ex.fp))
			}
		}
		if ex.running == 0 {
			// Last attempt settled: the deferred context release finalize
			// skipped (to let this verification finish) happens now.
			delete(s.verifying, ex)
			ex.cancel()
		}
		return
	}

	// A hedge that failed does not touch the execution: the primary
	// attempt is still in flight. backendObserveLocked above already fed
	// the failure to the backend's breaker.
	if hedge && err != nil {
		return
	}
	if hedge && err == nil {
		s.stats.HedgeWins++
	}

	// Failover: a remote backend failing for backend-side reasons while
	// the job itself is still wanted does not fail the job — it goes back
	// to the queue for another backend (bounded).
	if b.client != nil && err != nil && transient(err) && ex.ctx.Err() == nil && !s.draining {
		b.failovers++
		s.stats.Failovers++
		ex.attempts++
		// Retry on another backend — unless the retries are spent, or no
		// available backend is left to retry on (failing fast beats parking
		// the job until an operator notices the whole fleet is down).
		if ex.attempts <= s.cfg.DispatchRetries && s.anyAvailableLocked() {
			ex.state = StateQueued
			s.queue.Push(ex)
			s.logf("job %s failing over from %s (attempt %d/%d): %v",
				ex.label, b.name, ex.attempts, s.cfg.DispatchRetries, err)
			return
		}
		err = fmt.Errorf("service: job gave up after %d backend failures, last on %s: %w",
			ex.attempts, b.name, err)
	}
	if err == nil {
		b.completed++
	} else if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrExpired) {
		// Expired work is the caller's budget running out, not the
		// backend failing; it does not count against the backend.
		b.failed++
		b.lastErr = err.Error()
	}
	s.finalizeLocked(ex, res, err)
}

// runExecution performs the simulation outside the server lock, labelled
// for pprof so a CPU profile of the daemon attributes time per job, and
// with the streaming telemetry tap installed.
func (s *Server) runExecution(ex *execution) (res flexsnoop.Result, err error) {
	ctx := ex.ctx
	if !ex.deadline.IsZero() {
		// The end-to-end deadline bounds the run itself: RunJobContext
		// stops between simulated events, so expiry interrupts promptly.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, ex.deadline)
		defer cancel()
	}
	opts := ex.job.Options
	opts.Telemetry = &flexsnoop.TelemetryOptions{
		OnRow:          ex.hub.publish,
		IntervalCycles: ex.spec.Options.IntervalCycles,
	}
	pprof.Do(ctx, pprof.Labels("job", ex.label), func(ctx context.Context) {
		res, err = flexsnoop.RunJobContext(ctx, flexsnoop.Job{
			Algorithm: ex.job.Algorithm,
			Workload:  ex.job.Workload,
			Options:   opts,
		})
	})
	return res, err
}

// finalizeLocked moves an execution to its terminal state, feeds the
// cache and counters, journals the completion, and releases waiters.
// The transition is decided before its record is appended, so a failed
// append here is only counted and logged (by walAppendLocked): replay
// then re-runs the execution, which determinism makes harmless.
func (s *Server) finalizeLocked(ex *execution, res flexsnoop.Result, err error) {
	delete(s.execs, ex.fp)
	s.queue.Remove(ex) // no-op unless a hedge settled it while still queued for failover
	s.observeDrainLocked(time.Now())
	switch {
	case err == nil:
		ex.state = StateDone
		ex.result = res
		// The disk-cache write precedes the done record: replay resolves a
		// done record through the cache, so the order must never leave a
		// durable "done" pointing at a missing result. (Replay tolerates it
		// anyway — the job is re-run — but the common case should not.)
		if cerr := s.cache.Put(ex.fp, res); cerr != nil {
			s.stats.WALErrors++
			s.logf("wal: persisting result of %s: %v (job completes; replay would re-run it)", ex.label, cerr)
		}
		_ = s.walAppendLocked(journal.Record{Kind: journal.KindDone, Seq: ex.seq, Fingerprint: ex.fp})
		st := &s.stats
		st.RunsCompleted++
		st.SimCyclesTotal += uint64(res.Cycles)
		st.FaultDrops += res.Stats.FaultDrops
		st.FaultDups += res.Stats.FaultDups
		st.FaultDelays += res.Stats.FaultDelays
		st.FaultStalls += res.Stats.FaultStalls
		st.SnoopTimeouts += res.Stats.SnoopTimeouts
		st.DegradedLines += res.Stats.DegradedLines
		s.logf("job done %s (%d cycles)", ex.label, res.Cycles)
	case errors.Is(err, context.Canceled):
		ex.state = StateCanceled
		ex.err = err
		s.stats.RunsCanceled++
		s.logf("job canceled %s", ex.label)
	case errors.Is(err, ErrExpired), errors.Is(err, errShed),
		errors.Is(err, context.DeadlineExceeded):
		// Deadline expiry and overload shedding fail the job for its
		// caller, but are journaled as cancellations, not as a
		// deterministic failure: replay must not poison the fingerprint —
		// the same spec resubmitted under normal load is expected to run.
		ex.state = StateFailed
		if !errors.Is(err, ErrExpired) && !errors.Is(err, errShed) {
			err = fmt.Errorf("%w: %v", ErrExpired, err)
		}
		ex.err = err
		s.journalCancelsLocked(ex)
		if errors.Is(err, errShed) {
			s.stats.JobsShed++
		} else {
			s.stats.JobsExpired++
		}
		s.logf("job shed %s: %v", ex.label, err)
	default:
		ex.state = StateFailed
		ex.err = err
		// A deterministic failure would recur on replay: journal it as done
		// with the error so restart does not loop on a poisoned spec.
		_ = s.walAppendLocked(journal.Record{Kind: journal.KindDone, Seq: ex.seq, Fingerprint: ex.fp, Error: err.Error()})
		s.stats.RunsFailed++
		s.logf("job failed %s: %v", ex.label, err)
	}
	if ex.state == StateDone && ex.running > 0 && !s.draining {
		// The winner of a hedged race settled; the loser keeps running so
		// its result can be cross-checked (runOn cancels the context once
		// the last attempt is in). Drain interrupts it.
		s.verifying[ex] = struct{}{}
	} else {
		// Releases the context's resources, and interrupts an attempt
		// still in flight: it has nothing left to verify against a failed
		// or cancelled execution, or against any execution once draining.
		ex.cancel()
	}
	ex.hub.close()
	close(ex.done)
}

// Draining reports whether the server has stopped accepting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the server down: new submissions are refused,
// queued jobs are cancelled, and running simulations get until timeout
// to finish before their contexts are cancelled. Drain returns once
// every worker has exited; it is safe to call more than once.
func (s *Server) Drain(timeout time.Duration) {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.stop) // stops the prober
	}
	for ex := s.queue.Pop(); ex != nil; ex = s.queue.Pop() {
		// Graceful shutdown journals the cancellations it implies, so a
		// restart does not resurrect jobs the operator chose to drop —
		// the journal distinguishes drain from a crash.
		s.journalCancelsLocked(ex)
		s.finalizeLocked(ex, flexsnoop.Result{}, context.Canceled)
	}
	// Hedge losers whose winner already settled have nothing left to
	// prove: drain interrupts them at once.
	for ex := range s.verifying {
		ex.cancel()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if already {
		s.wg.Wait()
		return
	}

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		// Deadline passed: interrupt the runs still in flight. Simulate
		// stops between simulated events, so this converges promptly.
		s.mu.Lock()
		for _, ex := range s.execs {
			ex.cancel()
		}
		s.mu.Unlock()
		<-done
	}
	s.mu.Lock()
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			s.logf("wal: close: %v", err)
		}
		s.wal = nil
	}
	s.mu.Unlock()
	s.logf("drained")
}

// Close shuts down immediately: running jobs are cancelled. For tests.
func (s *Server) Close() { s.Drain(0) }

// Ready reports whether startup (journal replay included) has finished;
// /readyz gates on it so load balancers do not route to a server still
// reconstructing its queue.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready && !s.draining
}

// Stats is the /statsz snapshot.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Ready         bool    `json:"ready"`

	Workers       int `json:"workers"`
	BusyWorkers   int `json:"busy_workers"`
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`

	JobsSubmitted uint64         `json:"jobs_submitted"`
	JobsRejected  uint64         `json:"jobs_rejected"`
	JobsDeduped   uint64         `json:"jobs_deduped"`
	JobStates     map[string]int `json:"job_states"`

	// Overload resilience (DESIGN.md §12). QueueOldestAgeSeconds is the
	// head-of-line sojourn — the age of the oldest queued job — the signal
	// aging acts on. JobsExpired counts jobs shed (queued) or
	// interrupted (running) past their deadline; JobsShed counts CoDel
	// sojourn sheds; JobsRateLimited counts 429s from per-client admission
	// control. Goroutines is runtime.NumGoroutine, for leak checks under
	// flood.
	QueueOldestAgeSeconds float64 `json:"queue_oldest_age_seconds"`
	JobsExpired           uint64  `json:"jobs_expired,omitempty"`
	JobsShed              uint64  `json:"jobs_shed,omitempty"`
	JobsRateLimited       uint64  `json:"jobs_rate_limited,omitempty"`
	Goroutines            int     `json:"goroutines"`

	CacheEntries  int     `json:"cache_entries"`
	CacheCapacity int     `json:"cache_capacity"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`

	RunsCompleted  uint64 `json:"runs_completed"`
	RunsFailed     uint64 `json:"runs_failed"`
	RunsCanceled   uint64 `json:"runs_canceled"`
	SimCyclesTotal uint64 `json:"sim_cycles_total"`

	// Federation (coordinator mode only). Failovers counts executions
	// re-queued off a failing backend; Backends is the per-backend view:
	// health, load, dispatch counters, and each remote's own queue depth
	// and cache hit rate as of the last probe.
	Failovers uint64         `json:"failovers,omitempty"`
	Backends  []BackendStats `json:"backends,omitempty"`

	// Hedged dispatch (coordinator mode with HedgeDelay). HedgeMismatches
	// counts hard integrity errors: a hedge pair whose deterministic
	// results were not bit-identical.
	Hedges          uint64 `json:"hedges,omitempty"`
	HedgeWins       uint64 `json:"hedge_wins,omitempty"`
	HedgeMismatches uint64 `json:"hedge_mismatches,omitempty"`

	// Durability (WALDir / CacheDir only).
	WALRecords       uint64 `json:"wal_records,omitempty"`
	WALReplayed      uint64 `json:"wal_replayed,omitempty"`
	WALRequeued      uint64 `json:"wal_requeued,omitempty"`
	WALErrors        uint64 `json:"wal_errors,omitempty"`
	DiskCacheEntries int    `json:"disk_cache_entries,omitempty"`
	DiskCacheHits    uint64 `json:"disk_cache_hits,omitempty"`
	DiskCacheCorrupt uint64 `json:"disk_cache_corrupt,omitempty"`

	// Robustness counters aggregated over completed runs.
	FaultDrops    uint64 `json:"fault_drops"`
	FaultDups     uint64 `json:"fault_dups"`
	FaultDelays   uint64 `json:"fault_delays"`
	FaultStalls   uint64 `json:"fault_stalls"`
	SnoopTimeouts uint64 `json:"snoop_timeouts"`
	DegradedLines uint64 `json:"degraded_lines"`
}

// Stats snapshots the server's counters. The federation and durability
// counters stay zero (and omitted) on a server that does not use them.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.UptimeSeconds = time.Since(s.start).Seconds()
	st.Draining = s.draining
	st.Ready = s.ready && !s.draining
	st.Workers = max(s.cfg.Workers, 0) // a coordinator may have no local pool
	st.BusyWorkers = s.busy
	st.QueueDepth = s.queue.Len()
	st.QueueCapacity = s.cfg.QueueCapacity
	st.Goroutines = runtime.NumGoroutine()
	if oldest := s.queue.OldestEnqueue(); !oldest.IsZero() {
		st.QueueOldestAgeSeconds = time.Since(oldest).Seconds()
	}
	st.JobStates = map[string]int{}
	for _, j := range s.jobs {
		st.JobStates[j.statusLocked().State]++
	}
	st.CacheEntries = s.cache.Len()
	st.CacheCapacity = s.cfg.CacheEntries
	st.CacheHits, st.CacheMisses = s.cache.hits, s.cache.misses
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(lookups)
	}
	if s.cfg.federated() {
		for _, b := range s.backends {
			st.Backends = append(st.Backends, b.statsLocked())
		}
	}
	if s.wal != nil {
		st.WALRecords = s.wal.Appended()
	}
	if s.cache.disk != nil {
		st.DiskCacheEntries = s.cache.disk.Len()
		st.DiskCacheHits = s.cache.disk.hits
		st.DiskCacheCorrupt = s.cache.disk.corrupt
	}
	return st
}

// shortFP abbreviates a fingerprint for logs.
func shortFP(fp string) string {
	if len(fp) > 17 {
		return fp[:17]
	}
	return fp
}
