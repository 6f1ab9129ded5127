package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/guard"
	"repro/spt/client"
)

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /livez", s.handleLive)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req client.CompileRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := ValidateBenchmark(req.Benchmark); err != nil {
		writeError(w, http.StatusBadRequest, client.ErrorBody{Error: err.Error()})
		return
	}
	s.submit(w, r, KindCompile, req.JobRequest, req)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req client.SimulateRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := ValidateBenchmark(req.Benchmark); err != nil {
		writeError(w, http.StatusBadRequest, client.ErrorBody{Error: err.Error()})
		return
	}
	if _, err := ConfigFromRequest(req); err != nil {
		writeError(w, http.StatusBadRequest, client.ErrorBody{Error: err.Error()})
		return
	}
	s.submit(w, r, KindSimulate, req.JobRequest, req)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req client.SweepRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := ValidateBenchmark(req.Benchmark); err != nil {
		writeError(w, http.StatusBadRequest, client.ErrorBody{Error: err.Error()})
		return
	}
	if _, err := sweepVariants(req); err != nil {
		writeError(w, http.StatusBadRequest, client.ErrorBody{Error: err.Error()})
		return
	}
	s.submit(w, r, KindSweep, req.JobRequest, req)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, client.ErrorBody{Error: "unknown job id"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// healthNow assembles the /readyz body.
func (s *Server) healthNow() client.Health {
	ready, conds := s.ReadyState()
	status := "ok"
	if len(conds) > 0 {
		status = conds[0]
	}
	return client.Health{
		Status:     status,
		Ready:      ready,
		Draining:   s.draining.Load(),
		Conditions: conds,
		Node:       s.cfg.NodeName,
		QueueDepth: s.queue.depth(),
		InFlight:   int(s.inflight.Load()),
		Workers:    s.cfg.Workers,
		UptimeMS:   time.Since(s.start).Milliseconds(),
	}
}

// handleLive is the liveness probe: 200 iff the process can serve HTTP at
// all. Restart-worthy failures only — never condition-dependent, or a
// draining node would be killed mid-drain.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: 200 when the node should receive new
// work, 503 (body names the conditions) when it should not — draining,
// replaying a stolen journal, or running with a degraded spill store.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	h := s.healthNow()
	code := http.StatusOK
	if !h.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w, s.gaugesNow())
	if s.cfg.ExtraMetrics != nil {
		s.cfg.ExtraMetrics(w)
	}
}

// submit admits the job and either returns 202 (async) or blocks until the
// job settles (sync). A synchronous client that disconnects cancels its
// job through the shared context. The request is marshaled back to its raw
// payload so durable jobs can be journaled and replayed verbatim.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string, jr client.JobRequest, req any) {
	raw, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, client.ErrorBody{Error: "encode request: " + err.Error()})
		return
	}
	var reqCtx context.Context
	if !jr.Async {
		reqCtx = r.Context()
	}
	j, err := s.enqueue(reqCtx, kind, jr.Priority, raw)
	if err != nil {
		s.writeAdmissionError(w, kind, err)
		return
	}
	if jr.Async {
		writeJSON(w, http.StatusAccepted, map[string]string{"job_id": j.id})
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client is gone; j.ctx (derived from the request) cancels the
		// execution and the worker records a canceled outcome. There is
		// nobody left to write a response to.
		return
	}
	writeJobResult(w, j)
}

// writeJobResult maps a settled job onto an HTTP response: 200 with the
// result, 504 for budget exhaustion, 503 for a drain-canceled job, 500 for
// every other failure (including isolated panics).
func writeJobResult(w http.ResponseWriter, j *job) {
	js := j.status()
	switch js.Outcome {
	case client.OutcomeOK:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(js.Result)
		_, _ = w.Write([]byte("\n"))
	case client.OutcomeCanceled:
		writeError(w, http.StatusServiceUnavailable, orBody(js.Error, "job canceled"))
	default:
		status := http.StatusInternalServerError
		if js.Error != nil && js.Error.BudgetExceeded {
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, orBody(js.Error, "job failed"))
	}
}

func orBody(eb *client.ErrorBody, fallback string) client.ErrorBody {
	if eb != nil {
		return *eb
	}
	return client.ErrorBody{Error: fallback}
}

// writeAdmissionError maps queue rejection onto backpressure responses. The
// Retry-After on a full queue is the queue's expected drain time for this
// job class, not a constant — deterministic given the same queue state and
// latency history.
func (s *Server) writeAdmissionError(w http.ResponseWriter, kind string, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(kind)))
		writeError(w, http.StatusTooManyRequests, client.ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, client.ErrorBody{Error: err.Error()})
	default:
		writeError(w, http.StatusInternalServerError, client.ErrorBody{Error: err.Error(), BudgetExceeded: guard.Exceeded(err)})
	}
}

// decodeRequest parses the JSON body into dst; on failure it writes a 400
// and reports false.
func decodeRequest(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		status := http.StatusBadRequest
		if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, client.ErrorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeError(w http.ResponseWriter, status int, eb client.ErrorBody) {
	writeJSON(w, status, eb)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
