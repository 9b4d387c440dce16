package service

import (
	"errors"
	"fmt"
	"math"
	"time"

	"flexsnoop"
)

// This file is the overload-resilience layer (DESIGN.md §12): end-to-end
// deadlines, CoDel-style queue aging, per-client token-bucket rate
// limiting and honest Retry-After hints. Everything here is opt-in — a
// Config with the zero values behaves exactly like the pre-overload
// server — and none of it touches what an admitted job computes:
// shedding changes *which* jobs run, never their results.

// Overload sentinels the HTTP layer maps onto 429 + Retry-After.
var (
	// ErrRateLimited: the per-client token bucket refused the submission
	// (HTTP 429). The Retry-After hint is the time until the next token.
	ErrRateLimited = errors.New("service: client rate limit exceeded")
	// ErrExpired: the job's end-to-end deadline passed before it
	// completed — shed from the queue before dispatch, or interrupted
	// while running. The job reports state "failed" with this error.
	ErrExpired = errors.New("service: job deadline expired")
	// errShed: the admission controller dropped the job to keep queue
	// sojourn bounded (CoDel aging). Not exported: callers observe it as
	// a failed state with a descriptive message and should treat it like
	// backpressure, not like a spec error.
	errShed = errors.New("service: job shed under overload")
)

// deadlineFrom is the end-to-end deadline of a job admitted at t, or the
// zero time when the spec has none.
func (s JobSpec) deadlineFrom(t time.Time) time.Time {
	if s.DeadlineMS <= 0 {
		return time.Time{}
	}
	return t.Add(time.Duration(s.DeadlineMS) * time.Millisecond)
}

// overloadError wraps a 429-class sentinel with the server's honest
// retry hint, computed from the measured drain rate. The HTTP layer
// surfaces it as the Retry-After header.
type overloadError struct {
	err        error
	retryAfter time.Duration
}

func (e *overloadError) Error() string { return e.err.Error() }
func (e *overloadError) Unwrap() error { return e.err }

// retryAfterSeconds is the honest Retry-After for a queue of the given
// depth draining at perSec executions per second: the time until the
// submitter's job would plausibly find a slot, at least 1 (the header's
// resolution), at most 60 (beyond that the estimate is noise). With no
// drain observed yet the depth alone scales the hint. Monotone
// non-decreasing in depth for a fixed rate — a deeper queue never
// promises an earlier retry.
func retryAfterSeconds(depth int, perSec float64) int {
	if depth < 0 {
		depth = 0
	}
	var secs int
	if perSec > 0 {
		secs = int(math.Ceil(float64(depth+1) / perSec))
	} else {
		secs = 1 + depth/8
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// retryAfterLocked is the server's current Retry-After hint.
func (s *Server) retryAfterLocked() time.Duration {
	return time.Duration(retryAfterSeconds(s.queue.Len(), s.drainPerSec)) * time.Second
}

// observeDrainLocked updates the EWMA drain rate on every execution
// leaving the system (completed, failed, cancelled or shed) — the rate
// Retry-After promises are computed from.
func (s *Server) observeDrainLocked(now time.Time) {
	if !s.lastDrain.IsZero() {
		dt := now.Sub(s.lastDrain).Seconds()
		if dt < 1e-4 {
			dt = 1e-4
		}
		inst := 1 / dt
		if inst > 1e4 {
			inst = 1e4
		}
		if s.drainPerSec == 0 {
			s.drainPerSec = inst
		} else {
			s.drainPerSec = 0.7*s.drainPerSec + 0.3*inst
		}
	}
	s.lastDrain = now
}

// tokenBucket is one client's admission budget: RateLimit tokens per
// second with RateBurst capacity.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// maxRateClients bounds the limiter map; beyond it, buckets that have
// refilled to capacity (i.e. carry no throttling state) are pruned.
const maxRateClients = 4096

// takeTokenLocked charges one admission to the client's bucket. It
// returns zero when admitted, otherwise the wait until the next token —
// the honest Retry-After for this client.
func (s *Server) takeTokenLocked(clientID string, now time.Time) time.Duration {
	rate, burst := s.cfg.RateLimit, float64(s.cfg.RateBurst)
	if s.limiter == nil {
		s.limiter = make(map[string]*tokenBucket)
	}
	b := s.limiter[clientID]
	if b == nil {
		if len(s.limiter) >= maxRateClients {
			s.pruneLimiterLocked(now)
		}
		b = &tokenBucket{tokens: burst, last: now}
		s.limiter[clientID] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * rate
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0
	}
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait
}

// pruneLimiterLocked drops buckets that have refilled to capacity (their
// state is indistinguishable from a fresh bucket), then — if every
// client is mid-refill — an arbitrary one, keeping the map bounded even
// against adversarial client_id churn.
func (s *Server) pruneLimiterLocked(now time.Time) {
	rate, burst := s.cfg.RateLimit, float64(s.cfg.RateBurst)
	for id, b := range s.limiter {
		if b.tokens+now.Sub(b.last).Seconds()*rate >= burst {
			delete(s.limiter, id)
		}
	}
	for id := range s.limiter {
		if len(s.limiter) < maxRateClients {
			break
		}
		delete(s.limiter, id)
	}
}

// ensureMaintLocked starts the maintenance goroutine that ages the
// queue and sheds expired work. Started lazily — when the Config enables
// queue aging, or on the first admitted job with a deadline — so a
// default-configured server runs exactly the goroutines it always did.
func (s *Server) ensureMaintLocked() {
	if s.maintOn || s.draining {
		return
	}
	s.maintOn = true
	s.wg.Add(1)
	go s.maintLoop()
}

// maintTick paces the maintenance scan. 20ms bounds how stale an expiry
// or aging decision can be; the scan itself is O(queue) over a bounded
// queue.
const maintTick = 20 * time.Millisecond

func (s *Server) maintLoop() {
	defer s.wg.Done()
	t := time.NewTicker(maintTick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		if !s.draining {
			s.overloadScanLocked(time.Now())
		}
		s.mu.Unlock()
	}
}

// overloadScanLocked is one admission-control pass: shed queued work
// whose deadline has passed, then apply the CoDel-style sojourn control
// law. Called from the maintenance loop; harmless to call more often.
func (s *Server) overloadScanLocked(now time.Time) {
	// Expired-in-queue work is shed before it can ever reach a worker.
	for _, ex := range s.queue.TakeExpired(now) {
		s.finalizeLocked(ex, flexsnoop.Result{}, fmt.Errorf(
			"%w: spent %s queued, past its %s budget", ErrExpired,
			now.Sub(ex.enqueuedAt).Round(time.Millisecond),
			time.Duration(ex.spec.DeadlineMS)*time.Millisecond))
	}

	oldest := s.queue.OldestEnqueue()
	var sojourn time.Duration
	if !oldest.IsZero() {
		sojourn = now.Sub(oldest)
	}

	// CoDel-style aging: sustained head-of-line sojourn above the target
	// sheds one low-priority execution per target interval — small,
	// steady corrections instead of a cliff. Positive-priority work is
	// never aged out (ShedLowest skips it): a standing all-high-priority
	// queue stays standing rather than losing the work the queue exists
	// for.
	if target := s.cfg.SojournTarget; target > 0 {
		switch {
		case sojourn <= target:
			s.aboveSince = time.Time{}
		case s.aboveSince.IsZero():
			s.aboveSince = now
		case now.Sub(s.aboveSince) >= target:
			if ex := s.queue.ShedLowest(); ex != nil {
				s.finalizeLocked(ex, flexsnoop.Result{}, fmt.Errorf(
					"%w: queue sojourn %s over the %s target", errShed,
					sojourn.Round(time.Millisecond), target))
			}
			s.aboveSince = now
		}
	}
}
