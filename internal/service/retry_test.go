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

// TestRetrySchedule pins the transport-retry backoff: 50 ms, doubling,
// capped at 1 s.
func TestRetrySchedule(t *testing.T) {
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := retrySchedule(i + 1); got != w {
			t.Errorf("retrySchedule(%d) = %s, want %s", i+1, got, w)
		}
	}
	if got := retrySchedule(200); got != time.Second {
		t.Errorf("retrySchedule(200) = %s, want the 1s cap", got)
	}
}

// resettingServer kills the first n connections at the TCP level (the
// client sees a reset or EOF), then serves normally.
func resettingServer(t *testing.T, n int64, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= n {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("ResponseWriter is not a Hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatalf("hijack: %v", err)
			}
			conn.Close() // mid-request close: reset/EOF on the client
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// TestClientRetriesTransientTransport: connection resets are retried on
// the capped exponential schedule and the call eventually succeeds.
func TestClientRetriesTransientTransport(t *testing.T) {
	ts, calls := resettingServer(t, 2, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, JobStatus{ID: "j-000001", State: StateDone})
	}))
	c := &Client{BaseURL: ts.URL}
	st, err := c.Wait(context.Background(), "j-000001")
	if err != nil {
		t.Fatalf("Wait with transient resets: %v", err)
	}
	if st.State != StateDone {
		t.Errorf("state = %q, want done", st.State)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (2 resets + 1 success)", got)
	}

	// Disconnected clients keep their HTTP connections honest too: a
	// submit retried after a lost response lands on the fingerprint-dedup
	// path server-side, so retrying POST is safe.
	ts2, calls2 := resettingServer(t, 1, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, JobStatus{ID: "j-000002", State: StateQueued})
	}))
	c2 := &Client{BaseURL: ts2.URL}
	if _, err := c2.Submit(context.Background(), smallSpec(1)); err != nil {
		t.Fatalf("Submit with one reset: %v", err)
	}
	if got := calls2.Load(); got != 2 {
		t.Errorf("server saw %d submits, want 2", got)
	}
}

// TestClientTransportRetriesDisabled: -1 surfaces the first transport
// error immediately — the coordinator's per-backend configuration, where
// failover is the retry mechanism.
func TestClientTransportRetriesDisabled(t *testing.T) {
	ts, calls := resettingServer(t, 100, nil)
	c := &Client{BaseURL: ts.URL, MaxTransportRetries: -1}
	if _, err := c.Wait(context.Background(), "j-000001"); err == nil {
		t.Fatal("Wait succeeded through a permanently resetting server")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d requests, want exactly 1 with retries disabled", got)
	}
}

// TestClientDoesNotRetryPermanentErrors: HTTP-level failures (4xx, and
// reported simulation failures) are not transport errors — exactly one
// request goes out.
func TestClientDoesNotRetryPermanentErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusBadRequest, errors.New("bad spec"))
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	_, err := c.Submit(context.Background(), smallSpec(1))
	var re *remoteError
	if !errors.As(err, &re) || re.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want a 400 remoteError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 (4xx is permanent)", got)
	}
}

// TestClientRetryRespectsContext: a cancelled context stops the retry
// loop instead of burning the whole budget.
func TestClientRetryRespectsContext(t *testing.T) {
	ts, _ := resettingServer(t, 1000, nil)
	c := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Wait(ctx, "j-000001")
	if err == nil {
		t.Fatal("Wait succeeded unexpectedly")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("retry loop ignored the context for %s", elapsed)
	}
}

// TestRequestBodyLimits: an oversized spec is refused with 413 before it
// is parsed; an unknown JSON field is refused with 400.
func TestRequestBodyLimits(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, MaxRequestBytes: 512})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := `{"algorithm":"Subset","workload":"fft","options":{"predictor":"` +
		strings.Repeat("a", 4096) + `"}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec: HTTP %d, want 413", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"algorithm":"Subset","workload":"fft","bogus_field":1}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}

	// A normal spec still fits comfortably under the cap.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"algorithm":"Subset","workload":"fft","options":{"ops_per_core":200}}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("valid spec under the cap: HTTP %d, want 202", resp.StatusCode)
	}
}
