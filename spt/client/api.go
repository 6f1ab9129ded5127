// Package client is the typed Go client of the sptd daemon (cmd/sptd): a
// simulation-as-a-service layer over the SPT compile → profile → baseline →
// simulate pipeline. The wire types in this file are the single source of
// truth for the HTTP/JSON API — the daemon's handlers (internal/service)
// encode and decode exactly these structs.
package client

import (
	"encoding/json"
	"fmt"
)

// Priority is a job's admission class. Higher classes are dequeued first;
// within a class jobs run in arrival order. The empty string means
// PriorityNormal.
type Priority string

// The three priority classes of the sptd job queue.
const (
	PriorityHigh   Priority = "high"
	PriorityNormal Priority = "normal"
	PriorityLow    Priority = "low"
)

// JobRequest carries the fields common to every job-submitting endpoint.
type JobRequest struct {
	// Priority selects the queue class (default "normal").
	Priority Priority `json:"priority,omitempty"`
	// Async, when true, returns 202 with a job id immediately; poll
	// GET /v1/jobs/{id} for the result. Synchronous requests block until
	// the job finishes and are canceled when the client disconnects.
	Async bool `json:"async,omitempty"`
	// TimeoutMS bounds each pipeline stage's wall clock (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Steps bounds the simulated program's dynamic instructions (0 = server
	// default).
	Steps int64 `json:"steps,omitempty"`
	// Cycles bounds each simulation's cycles (0 = server default).
	Cycles int64 `json:"cycles,omitempty"`
}

// CompileRequest asks for an SPT compilation of one benchmark.
type CompileRequest struct {
	Benchmark string `json:"benchmark"`
	Scale     int    `json:"scale,omitempty"` // default 1
	JobRequest
}

// LoopSummary is one candidate loop of a compile report.
type LoopSummary struct {
	Func     string  `json:"func"`
	Header   string  `json:"header"`
	Selected bool    `json:"selected"`
	Coverage float64 `json:"coverage"`
	BodySize float64 `json:"body_size"`
	Reason   string  `json:"reason,omitempty"` // rejection reason when not selected
}

// CompileResponse is the result of a compile job.
type CompileResponse struct {
	JobID         string        `json:"job_id"`
	Benchmark     string        `json:"benchmark"`
	Scale         int           `json:"scale"`
	Fingerprint   string        `json:"fingerprint"` // content hash of the transformed program
	SelectedLoops int           `json:"selected_loops"`
	Loops         []LoopSummary `json:"loops"`
}

// SimulateRequest asks for a baseline + SPT evaluation of one benchmark.
// The configuration knobs mirror the sptsim flags; zero values mean the
// Table 1 defaults.
type SimulateRequest struct {
	Benchmark string `json:"benchmark"`
	Scale     int    `json:"scale,omitempty"`    // default 1
	Recovery  string `json:"recovery,omitempty"` // "srxfc" | "squash"
	RegCheck  string `json:"regcheck,omitempty"` // "value" | "update"
	SRB       int    `json:"srb,omitempty"`      // speculation result buffer entries
	// Cores is the total CMP core count (0 and 2 are the classic paper
	// machine; 3+ enables chained multi-threaded speculation).
	Cores int `json:"cores,omitempty"`
	// Sched selects the spec-thread scheduling policy:
	// "inorder" | "stride" | "eager" (default inorder).
	Sched string `json:"sched,omitempty"`
	// Stride is the iteration lookahead per spawn for Sched "stride".
	Stride int `json:"stride,omitempty"`
	// LiveIn selects live-in delivery: "svp" | "slice" (default svp).
	LiveIn string `json:"livein,omitempty"`
	JobRequest
}

// SimSummary is the flattened result of one simulation run.
type SimSummary struct {
	Cycles      int64 `json:"cycles"`
	Instrs      int64 `json:"instrs"`
	Exec        int64 `json:"exec"`
	PipeStall   int64 `json:"pipe_stall"`
	DcacheStall int64 `json:"dcache_stall"`

	Windows        int64 `json:"windows,omitempty"`
	FastCommits    int64 `json:"fast_commits,omitempty"`
	Replays        int64 `json:"replays,omitempty"`
	Kills          int64 `json:"kills,omitempty"`
	SpecInstrs     int64 `json:"spec_instrs,omitempty"`
	MisspecInstrs  int64 `json:"misspec_instrs,omitempty"`
	CommittedInstr int64 `json:"committed_instrs,omitempty"`
}

// SimulateResponse is the result of a simulate job.
type SimulateResponse struct {
	JobID     string     `json:"job_id"`
	Benchmark string     `json:"benchmark"`
	Scale     int        `json:"scale"`
	Baseline  SimSummary `json:"baseline"`
	SPT       SimSummary `json:"spt"`
	Speedup   float64    `json:"speedup"`
}

// SweepRequest asks for one of the Table 1 ablation sweeps.
type SweepRequest struct {
	Benchmark string `json:"benchmark"`
	Scale     int    `json:"scale,omitempty"`
	// Sweep selects the variant family: "recovery" | "regcheck" | "srb" |
	// "overhead" | "cores" | "sched" | "livein".
	Sweep string `json:"sweep"`
	// Points parameterizes "srb" (buffer sizes), "overhead" (RF-copy
	// cycles), "cores" (core counts) and "sched" (strides); ignored by the
	// fixed-variant sweeps.
	Points []int `json:"points,omitempty"`
	// Cores fixes the core count for the "sched" and "livein" families
	// (default 4); ignored elsewhere.
	Cores int `json:"cores,omitempty"`
	JobRequest
}

// SweepRow is one variant's outcome. A variant that fails (budget
// exhaustion, simulation error) carries its error here with Speedup zero;
// healthy siblings in the same sweep are unaffected.
type SweepRow struct {
	Variant string  `json:"variant"`
	Speedup float64 `json:"speedup"`
	Error   string  `json:"error,omitempty"`
}

// SweepResponse is the result of a sweep job.
type SweepResponse struct {
	JobID     string     `json:"job_id"`
	Benchmark string     `json:"benchmark"`
	Scale     int        `json:"scale"`
	Sweep     string     `json:"sweep"`
	Rows      []SweepRow `json:"rows"`
}

// Job lifecycle states reported by GET /v1/jobs/{id}. StateRetryable marks
// a journaled async job between a failed (or crash-interrupted) attempt and
// its re-execution.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateRetryable = "retryable"
	StateDone      = "done"
)

// Job outcomes (meaningful once State == StateDone).
const (
	OutcomeOK       = "ok"
	OutcomeFailed   = "failed"
	OutcomeCanceled = "canceled"
)

// JobStatus is the polling view of a job.
type JobStatus struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"` // "compile" | "simulate" | "sweep"
	State   string `json:"state"`
	Outcome string `json:"outcome,omitempty"`
	// Attempts counts completed executions beyond the first for durable
	// async jobs (retries after failures or daemon restarts).
	Attempts int             `json:"attempts,omitempty"`
	Error    *ErrorBody      `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// DecodeResult unmarshals the job's result into v (a *CompileResponse,
// *SimulateResponse or *SweepResponse matching the job's Kind).
func (js *JobStatus) DecodeResult(v any) error {
	if js.Result == nil {
		return fmt.Errorf("client: job %s has no result (state %s, outcome %s)", js.ID, js.State, js.Outcome)
	}
	return json.Unmarshal(js.Result, v)
}

// ErrorBody is the structured error payload of every non-2xx response.
type ErrorBody struct {
	Error          string `json:"error"`
	Stage          string `json:"stage,omitempty"`
	BudgetExceeded bool   `json:"budget_exceeded,omitempty"`
	Panicked       bool   `json:"panicked,omitempty"`
}

// Health is the GET /readyz body; the HTTP status additionally encodes
// readiness: 200 ready, 503 not.
type Health struct {
	// Status is "ok" when the node is serving, otherwise the dominant
	// not-ready condition: "draining" | "journal-replay" | "store-degraded".
	Status   string `json:"status"`
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining"`
	// Conditions lists every active not-ready condition (Status is the
	// first); empty when serving normally.
	Conditions []string `json:"conditions,omitempty"`
	// Node is the cluster node name (empty for a standalone daemon).
	Node       string `json:"node,omitempty"`
	QueueDepth int    `json:"queue_depth"`
	InFlight   int    `json:"in_flight"`
	Workers    int    `json:"workers"`
	UptimeMS   int64  `json:"uptime_ms"`
}

// ClusterMember is one row of the gossip membership table as surfaced by
// GET /v1/cluster.
type ClusterMember struct {
	Name string `json:"name"`
	URL  string `json:"url,omitempty"`
	// State is "alive", "suspect" or "dead". Suspect members are still
	// routable: one observer failing to reach a node is not a death.
	State       string `json:"state"`
	Incarnation uint64 `json:"incarnation"`
}

// ClusterView is the GET /v1/cluster payload: the node's gossip member
// table, the dead peers whose journals it adopted, and store and
// replication health, so operators and soak harnesses can assert
// convergence instead of sleeping.
type ClusterView struct {
	Self   string   `json:"self"`
	Stolen []string `json:"stolen,omitempty"`
	// Gossip is the membership table, self included.
	Gossip []ClusterMember `json:"gossip,omitempty"`
	// StoreDegraded mirrors the store's disk-tier health flag.
	StoreDegraded bool `json:"store_degraded,omitempty"`
	// QuarantineBytes is the size of the capped corrupt-file quarantine.
	QuarantineBytes int64 `json:"quarantine_bytes,omitempty"`
	// ReplicationPending counts store keys still awaiting a successful
	// replica push — zero means every local artifact is replicated.
	ReplicationPending int `json:"replication_pending"`
}

// APIError is a non-2xx daemon response surfaced as a Go error.
type APIError struct {
	StatusCode int
	// RetryAfterSeconds is set from the Retry-After header on 429/503
	// responses; 0 when absent.
	RetryAfterSeconds int
	Body              ErrorBody
}

// Error implements the error interface.
func (e *APIError) Error() string {
	msg := e.Body.Error
	if msg == "" {
		msg = "request failed"
	}
	return fmt.Sprintf("sptd: HTTP %d: %s", e.StatusCode, msg)
}

// IsBackpressure reports whether err is the daemon shedding load: a 429
// (queue full) or 503 (draining) that the caller should retry after
// RetryAfterSeconds.
func IsBackpressure(err error) bool {
	ae, ok := err.(*APIError)
	return ok && (ae.StatusCode == 429 || ae.StatusCode == 503)
}
