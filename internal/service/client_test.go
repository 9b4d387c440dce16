package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// backpressureServer answers POST /v1/jobs with 429 for the first
// `rejects` attempts — sending Retry-After: retryAfter when non-empty —
// then admits the job as done (terminal, so the client never needs to
// wait).
func backpressureServer(rejects int32, retryAfter string) (*httptest.Server, *atomic.Int32) {
	var attempts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= rejects {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			writeError(w, http.StatusTooManyRequests, ErrQueueFull)
			return
		}
		writeJSON(w, http.StatusAccepted, JobStatus{ID: "j-000001", State: StateFailed, Error: "stub"})
	})
	return httptest.NewServer(mux), &attempts
}

// TestClientBackoffSchedule: with no Retry-After from the server,
// submitBackoff retries only 429s, with exponential backoff starting at
// retryBase — so three rejections cost at least base + 2*base + 4*base
// of waiting before the fourth attempt is admitted.
func TestClientBackoffSchedule(t *testing.T) {
	ts, attempts := backpressureServer(3, "")
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	start := time.Now()
	st, err := c.SubmitWait(context.Background(), smallSpec(1))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	if st.State != StateFailed {
		t.Fatalf("state = %q, want the stub terminal state", st.State)
	}
	if got := attempts.Load(); got != 4 {
		t.Errorf("attempts = %d, want 4 (three 429s, then admitted)", got)
	}
	// Lower bound only: wall-clock upper bounds are flaky under load.
	if min := 7 * retryBase; elapsed < min {
		t.Errorf("elapsed = %s, want >= %s (backoff %s+%s+%s)", elapsed, min, retryBase, 2*retryBase, 4*retryBase)
	}
}

// TestClientHonorsRetryAfter: when the 429 carries Retry-After, the
// client waits what the server asked — the server computes the hint from
// its measured drain rate, so it overrides the client-side guess in both
// directions.
func TestClientHonorsRetryAfter(t *testing.T) {
	ts, attempts := backpressureServer(1, "1")
	defer ts.Close()
	// The client's own first backoff (retryBase) would beat the server's
	// 1s ask; honoring the header means the retry waits the full second.
	c := &Client{BaseURL: ts.URL}

	start := time.Now()
	st, err := c.SubmitWait(context.Background(), smallSpec(1))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	if st.State != StateFailed {
		t.Fatalf("state = %q, want the stub terminal state", st.State)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2 (one 429, then admitted)", got)
	}
	if elapsed < time.Second {
		t.Errorf("elapsed = %s, want >= 1s (the server's Retry-After)", elapsed)
	}
}

// TestClientBackoffCancel: a context cancelled mid-backoff aborts the
// retry loop promptly instead of sleeping out the full wait, here the
// server's one-second Retry-After.
func TestClientBackoffCancel(t *testing.T) {
	ts, attempts := backpressureServer(1<<30, "1") // never admits
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(50 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err := c.SubmitWait(ctx, smallSpec(2))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitWait after cancel = %v, want context.Canceled", err)
	}
	if elapsed >= 450*time.Millisecond {
		t.Errorf("cancellation took %s: the backoff sleep was not interrupted", elapsed)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1 (no retry after cancellation)", got)
	}
}

// TestClientBackoffOnlyRetries429: any other error — here a 400 from a
// bad spec — returns immediately, with no retry.
func TestClientBackoffOnlyRetries429(t *testing.T) {
	var attempts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		writeError(w, http.StatusBadRequest, errors.New("bad spec"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	_, err := c.SubmitWait(context.Background(), smallSpec(3))
	var re *remoteError
	if !errors.As(err, &re) || re.StatusCode != http.StatusBadRequest {
		t.Fatalf("SubmitWait = %v, want the 400 remoteError", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1 (400 must not be retried)", got)
	}
}

// TestClientRunDoneWithoutResult: a server (or proxy) that reports a job
// done but omits its result must make Run fail with an error naming the
// job, not dereference the missing result.
func TestClientRunDoneWithoutResult(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, JobStatus{ID: "j-000001", State: StateDone})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	_, err := c.Run(context.Background(), smallSpec(4))
	if err == nil || !strings.Contains(err.Error(), "j-000001") {
		t.Fatalf("Run = %v, want an error naming job j-000001", err)
	}
}
