package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"flexsnoop"
)

// Client is a minimal stdlib client for a ringsimd server, used by
// `sweep -remote`, the coordinator and the smoke tests.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxTransportRetries bounds per-call retries of transient transport
	// errors — connection refused or reset, an unexpected EOF, a dropped
	// proxy — on a capped exponential schedule (see retrySchedule).
	// Zero means the default (10); -1 disables transport retries. HTTP
	// responses are never retried here: a 4xx or a reported simulation
	// failure is permanent, and 429 backpressure has its own loop in
	// submitBackoff. The coordinator's per-backend clients run with -1 so
	// a dead worker surfaces immediately and failover — the coordinator's
	// own retry mechanism — takes over.
	MaxTransportRetries int
}

const (
	defaultTransportRetries = 10
	// retryBase is the first wait of the one retry schedule
	// (retrySchedule).
	retryBase = 50 * time.Millisecond
	// maxRetryAfter caps how long a server-sent Retry-After is honored —
	// a confused (or hostile) server must not park the client for
	// minutes.
	maxRetryAfter = 30 * time.Second
	// cancelGrace bounds how long a submission, and the cancel of a job
	// whose caller gave up, may outlive the caller's context.
	cancelGrace = 2 * time.Second
)

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// remoteError is a non-2xx API response surfaced as a Go error.
type remoteError struct {
	StatusCode int
	Message    string
	RetryAfter time.Duration
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.StatusCode, e.Message)
}

// do issues one request and decodes a JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var ae apiError
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&ae) == nil && ae.Error != "" {
			msg = ae.Error
		}
		re := &remoteError{StatusCode: resp.StatusCode, Message: msg}
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil {
				re.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return re
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// transportRetries resolves the MaxTransportRetries knob.
func (c *Client) transportRetries() int {
	switch {
	case c.MaxTransportRetries < 0:
		return 0
	case c.MaxTransportRetries == 0:
		return defaultTransportRetries
	default:
		return c.MaxTransportRetries
	}
}

// transientTransport reports whether an error is a transport-level
// failure worth retrying against the same server: the request may never
// have arrived (refused, reset) or the response was cut off (EOF). Any
// HTTP response the server actually produced — including 5xx — is a
// *remoteError and is not retried here, and a cancelled or expired
// context is the caller's decision, not a network fault.
func transientTransport(err error) bool {
	if err == nil {
		return false
	}
	var re *remoteError
	if errors.As(err, &re) {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// retrySchedule is the wait before retry attempt n (1-based) of a
// transport error or of a 429 without Retry-After: retryBase, doubling
// per attempt, capped at one second. Pure, so the schedule itself is
// unit-testable.
func retrySchedule(attempt int) time.Duration {
	wait := retryBase
	for i := 1; i < attempt && wait < time.Second; i++ {
		wait *= 2
	}
	return min(wait, time.Second)
}

// doRetry is do with transport-error retries. Retrying a submit is safe
// even if the lost response had actually been processed: submissions are
// deduplicated by fingerprint server-side, so the retry lands on the
// same execution.
func (c *Client) doRetry(ctx context.Context, method, path string, body, out any) error {
	budget := c.transportRetries()
	for attempt := 0; ; attempt++ {
		err := c.do(ctx, method, path, body, out)
		if !transientTransport(err) || attempt >= budget {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(retrySchedule(attempt + 1)):
		}
	}
}

// Submit submits a job once (modulo transport retries). A full queue
// comes back as a *remoteError with StatusCode 429; SubmitWait retries
// that case.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.doRetry(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// SubmitWait submits with bounded-backoff retries on queue-full
// backpressure (429 + Retry-After), then waits until the job reaches a
// terminal state. A caller that gives up leaves nothing running: once
// ctx ends, the job it submitted is cancelled best-effort, even if ctx
// ended while the submission was in flight.
func (c *Client) SubmitWait(ctx context.Context, spec JobSpec) (JobStatus, error) {
	st, err := c.submitBackoff(ctx, spec)
	id := st.ID
	if err == nil && !terminal(st.State) {
		st, err = c.Wait(ctx, id)
	}
	if err != nil && ctx.Err() != nil && id != "" {
		cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cancelGrace)
		defer cancel()
		_, _ = c.Cancel(cctx, id)
	}
	return st, err
}

// submitBackoff submits until the job is admitted, retrying 429
// backpressure. When the server sends Retry-After, that is the wait: the
// server computes it from its measured drain rate, so it beats any
// client-side guess in both directions — no hammering a deeply backed-up
// queue, no idling in front of one about to clear (capped at
// maxRetryAfter in case the server's estimate is wild). Without the
// header the client waits retrySchedule(attempt), the transport retries'
// schedule, which doubles from retryBase up to one second. Every other
// error — including ctx expiring mid-backoff — returns immediately.
//
// A POST may outlive ctx by cancelGrace: the server may admit a job
// whose caller gave up meanwhile, and only the response names it. Such a
// job is returned with ctx's error, for SubmitWait to cancel.
func (c *Client) submitBackoff(ctx context.Context, spec JobSpec) (JobStatus, error) {
	if err := ctx.Err(); err != nil {
		return JobStatus{}, err
	}
	postCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	defer context.AfterFunc(ctx, func() { time.AfterFunc(cancelGrace, cancel) })()
	for attempt := 1; ; attempt++ {
		st, err := c.Submit(postCtx, spec)
		if err == nil {
			return st, ctx.Err()
		}
		re, ok := err.(*remoteError)
		if !ok || re.StatusCode != http.StatusTooManyRequests {
			return JobStatus{}, err
		}
		wait := retrySchedule(attempt)
		if re.RetryAfter > 0 {
			wait = re.RetryAfter
			if wait > maxRetryAfter {
				wait = maxRetryAfter
			}
		}
		select {
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		case <-time.After(wait):
		}
	}
}

// Cancel cancels one job (with transport retries: cancellation is
// idempotent).
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.doRetry(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait blocks until a job is done, failed, or canceled: one GET
// /v1/jobs/{id}?wait=1, which the server answers once the job is terminal
// (with transport retries: the wait is idempotent).
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	if err := c.doRetry(ctx, http.MethodGet, "/v1/jobs/"+id+"?wait=1", nil, &st); err != nil {
		return JobStatus{}, err
	}
	if !terminal(st.State) {
		// Only a server that ignores ?wait answers it with a live job.
		return JobStatus{}, fmt.Errorf("service: job %s still %s after a blocking wait: the server at %s does not support ?wait=1", id, st.State, c.BaseURL)
	}
	return st, nil
}

// Run submits (with backpressure retry), waits, and returns the Result —
// the remote analogue of flexsnoop.RunJobContext. The Result is
// bit-identical to an in-process run of the same configuration.
func (c *Client) Run(ctx context.Context, spec JobSpec) (flexsnoop.Result, error) {
	st, err := c.SubmitWait(ctx, spec)
	if err != nil {
		return flexsnoop.Result{}, err
	}
	switch st.State {
	case StateDone:
		if st.Result == nil {
			return flexsnoop.Result{}, fmt.Errorf("service: job %s done without a result", st.ID)
		}
		return *st.Result, nil
	case StateCanceled:
		return flexsnoop.Result{}, context.Canceled
	default:
		return flexsnoop.Result{}, fmt.Errorf("service: job %s failed: %s", st.ID, st.Error)
	}
}

// Stats fetches the server's /statsz snapshot. The coordinator's
// health checker probes every remote backend with it.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/statsz", nil, &st)
	return st, err
}

// Register announces a worker to a coordinator (POST /v1/backends): the
// coordinator adds (or refreshes) the worker in its backend registry and
// starts dispatching jobs to it. Registration doubles as a heartbeat —
// re-registering an already-known URL updates its capacity and moves an
// open breaker to half-open.
func (c *Client) Register(ctx context.Context, reg BackendRegistration) error {
	return c.do(ctx, http.MethodPost, "/v1/backends", reg, nil)
}

// RegisterLoop keeps a worker registered with a coordinator until ctx is
// done: it registers immediately, then re-registers every interval as a
// heartbeat. While the coordinator is unreachable it retries with
// exponential backoff (starting at interval/4, doubling up to 8×interval),
// so a coordinator restart picks the worker back up without operator
// action. Interval defaults to 5s when zero; logf may be nil.
func RegisterLoop(ctx context.Context, coordinatorURL string, reg BackendRegistration, interval time.Duration, logf func(format string, args ...any)) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Client{BaseURL: coordinatorURL}
	backoff := interval / 4
	registered := false
	for {
		err := c.Register(ctx, reg)
		var wait time.Duration
		switch {
		case err == nil:
			if !registered {
				logf("registered with coordinator %s as %s", coordinatorURL, reg.URL)
			}
			registered = true
			backoff = interval / 4
			wait = interval
		case ctx.Err() != nil:
			return
		default:
			logf("registration with %s failed (retry in %s): %v", coordinatorURL, backoff, err)
			registered = false
			wait = backoff
			if backoff < 8*interval {
				backoff *= 2
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}
