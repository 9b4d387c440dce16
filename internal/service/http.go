package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs              submit a JobSpec; 202 (queued/deduped) or
//	                             200 (cache hit), 400 on a bad spec, 429 +
//	                             Retry-After when the queue is full, 503
//	                             while draining
//	GET    /v1/jobs/{id}         job status; Result inline once done;
//	                             ?wait=1 answers once the job is terminal
//	DELETE /v1/jobs/{id}         cancel; idempotent on finished jobs
//	GET    /v1/jobs/{id}/metrics NDJSON interval-telemetry stream: full
//	                             replay, then live rows until the run ends
//	GET    /healthz              liveness (always 200 while serving)
//	GET    /readyz               readiness (503 once draining)
//	GET    /statsz               Stats snapshot as JSON
//
// Coordinators additionally serve the backend registry:
//
//	POST   /v1/backends          register (or heartbeat) a worker; 400 on
//	                             a bad URL, 403 on a non-coordinator
//	GET    /v1/backends          the per-backend stats slice as JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/backends", s.handleRegister)
	mux.HandleFunc("GET /v1/backends", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats().Backends)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		if !s.Ready() {
			// Journal replay still reconstructing the queue: don't route
			// jobs here yet (the server would accept them, but recovery
			// ordering guarantees are only meaningful once replay is done).
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// retryAfterHeader renders a 429's Retry-After: the server's honest
// estimate when the error carries one (overloadError), in whole seconds
// rounded up (the header's resolution), with "1" as the floor and the
// pre-overload fallback.
func retryAfterHeader(err error) string {
	var oe *overloadError
	if errors.As(err, &oe) && oe.retryAfter > 0 {
		secs := int(math.Ceil(oe.retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		return strconv.Itoa(secs)
	}
	return "1"
}

// decodeBody decodes a JSON request body into v with the request-size
// cap applied and unknown fields rejected. The status code distinguishes
// an oversized body (413) from a malformed one (400).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxRequestBytes)
		}
		return http.StatusBadRequest, err
	}
	return 0, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if code, err := s.decodeBody(w, r, &spec); err != nil {
		writeError(w, code, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	st, err := s.Submit(spec)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrRateLimited):
		w.Header().Set("Retry-After", retryAfterHeader(err))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrDurability):
		writeError(w, http.StatusInternalServerError, err)
		return
	default:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if st.Cached {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var reg BackendRegistration
	if code, err := s.decodeBody(w, r, &reg); err != nil {
		writeError(w, code, fmt.Errorf("decoding registration: %w", err))
		return
	}
	switch err := s.RegisterBackend(reg); {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"status": "registered"})
	case errors.Is(err, ErrNotCoordinator):
		writeError(w, http.StatusForbidden, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	wait := r.URL.RawQuery != "" && r.URL.Query().Get("wait") == "1"
	st, err := s.status(r.Context(), r.PathValue("id"), wait)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, st)
	case errors.Is(err, ErrDurability):
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeError(w, http.StatusNotFound, err)
	}
}

// handleMetrics streams a job's interval telemetry as NDJSON: one
// telemetry.Row object per line, flushed as produced. Subscribers that
// attach mid-run (or after completion) first replay the retained series,
// then tail live rows until the execution finishes or the client goes
// away. A cache-hit job has no execution and yields an empty stream.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hub, err := s.Stream(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if hub == nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for from := 0; ; {
		rows, done := hub.next(r.Context(), from)
		for _, row := range rows {
			if err := enc.Encode(row); err != nil {
				return // client went away
			}
		}
		from += len(rows)
		if flusher != nil && len(rows) > 0 {
			flusher.Flush()
		}
		if done && len(rows) == 0 {
			return
		}
		if done {
			// Drain any rows published between next and here, then stop.
			continue
		}
	}
}
