// Package chaos is the deterministic fault injector behind the soak
// harness: a seeded Plan of fault rules applied to the serving stack from
// both sides — an HTTP middleware that delays, errors, truncates or
// slow-streams responses, and a Pipeline decorator that delays, fails or
// panics pipeline stages.
//
// Determinism: every rule decides "inject or not" from a hash of
// (plan seed, rule index, per-rule call counter) — no wall clocks, no
// global randomness — so a soak run with the same plan and the same
// request sequence injects the same faults. MaxCalls bounds each rule, so
// a chaos run quiesces: after the budget is spent the stack is fault-free
// and every retried job can converge.
//
// The service layer never imports this package. It hooks in through
// service.Config.WrapPipeline, service.Config.ExtraMetrics and plain
// http.Handler wrapping in cmd/sptd.
package chaos

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/guard"
	"repro/internal/service"
	"repro/spt/client"
)

// Fault kinds.
const (
	FaultDelay     = "delay"     // sleep DelayMS before proceeding
	FaultError     = "error"     // fail the call (HTTP 500 / pipeline error)
	FaultPanic     = "panic"     // panic inside the pipeline stage (guard isolates it)
	FaultPartial   = "partial"   // send a truncated response body (client sees unexpected EOF)
	FaultSlowloris = "slowloris" // stream the response body slowly
)

// ErrInjected marks a pipeline failure as chaos-made. It classifies as a
// plain failure (retryable by the durability layer), not a cancellation.
var ErrInjected = fmt.Errorf("chaos: injected fault")

// Rule is one fault source. Exactly one of Stage (pipeline side) or
// Endpoint (HTTP side, path-prefix match) selects where it applies.
// Firing is Every-N (deterministic stride) or Prob (seeded hash threshold);
// MaxCalls bounds total injections (0 = unbounded — soak plans should
// always bound).
type Rule struct {
	Stage    string  `json:"stage,omitempty"`    // compile | simulate | sweep
	Endpoint string  `json:"endpoint,omitempty"` // e.g. "/v1/jobs"
	Fault    string  `json:"fault"`
	Every    int     `json:"every,omitempty"`
	Prob     float64 `json:"prob,omitempty"`
	DelayMS  int     `json:"delay_ms,omitempty"`
	MaxCalls int     `json:"max_calls,omitempty"`
}

// Plan is a seeded fault schedule, JSON-loadable for CI.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// DefaultPlan is the stock soak schedule: every fault kind on both sides
// of the stack, all rules bounded so the run quiesces.
func DefaultPlan(seed int64) Plan {
	return Plan{
		Seed: seed,
		Rules: []Rule{
			{Stage: service.KindSimulate, Fault: FaultError, Every: 5, MaxCalls: 4},
			{Stage: service.KindSimulate, Fault: FaultPanic, Every: 9, MaxCalls: 2},
			{Stage: service.KindCompile, Fault: FaultError, Every: 4, MaxCalls: 3},
			{Stage: service.KindCompile, Fault: FaultDelay, DelayMS: 40, Every: 3, MaxCalls: 6},
			{Stage: service.KindSweep, Fault: FaultError, Every: 3, MaxCalls: 2},
			{Endpoint: "/v1/jobs", Fault: FaultPartial, Every: 6, MaxCalls: 4},
			{Endpoint: "/v1/jobs", Fault: FaultSlowloris, DelayMS: 120, Every: 11, MaxCalls: 2},
			{Endpoint: "/v1/", Fault: FaultError, Prob: 0.08, MaxCalls: 5},
			{Endpoint: "/v1/", Fault: FaultDelay, DelayMS: 30, Prob: 0.1, MaxCalls: 8},
		},
	}
}

// LoadPlan reads a Plan from a JSON file.
func LoadPlan(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return Plan{}, fmt.Errorf("chaos: parse plan %s: %w", path, err)
	}
	return p, nil
}

// ruleState is a Rule plus its live counters.
type ruleState struct {
	rule     Rule
	idx      int
	seed     int64
	calls    atomic.Int64
	injected atomic.Int64
}

// fire decides deterministically whether this call is faulted.
func (r *ruleState) fire() bool {
	n := r.calls.Add(1)
	var hit bool
	switch {
	case r.rule.Every > 0:
		hit = n%int64(r.rule.Every) == 0
	case r.rule.Prob > 0:
		hit = hashUnit(r.seed, r.idx, n) < r.rule.Prob
	}
	if !hit {
		return false
	}
	inj := r.injected.Add(1)
	if r.rule.MaxCalls > 0 && inj > int64(r.rule.MaxCalls) {
		r.injected.Add(-1)
		return false
	}
	return true
}

// hashUnit maps (seed, rule, call) onto [0,1) with FNV-64 — stable across
// runs and platforms.
func hashUnit(seed int64, idx int, call int64) float64 {
	h := fnv.New64a()
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(idx))
	binary.LittleEndian.PutUint64(b[16:], uint64(call))
	_, _ = h.Write(b[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Injector applies a Plan. One Injector serves both the HTTP middleware
// and the pipeline decorator so /metrics shows one coherent fault count.
type Injector struct {
	plan  Plan
	rules []*ruleState
}

// New builds an Injector for plan.
func New(plan Plan) *Injector {
	inj := &Injector{plan: plan}
	for i, r := range plan.Rules {
		inj.rules = append(inj.rules, &ruleState{rule: r, idx: i, seed: plan.Seed})
	}
	return inj
}

// InjectedTotal returns how many faults have fired so far.
func (in *Injector) InjectedTotal() int64 {
	var n int64
	for _, r := range in.rules {
		n += r.injected.Load()
	}
	return n
}

// Metrics renders the injector's counters in Prometheus text format; wire
// it into service.Config.ExtraMetrics.
func (in *Injector) Metrics(w io.Writer) {
	fmt.Fprintf(w, "# HELP chaos_faults_injected_total Faults fired per plan rule.\n# TYPE chaos_faults_injected_total counter\n")
	for _, r := range in.rules {
		site := r.rule.Stage
		if site == "" {
			site = r.rule.Endpoint
		}
		fmt.Fprintf(w, "chaos_faults_injected_total{rule=\"%d\",site=%q,fault=%q} %d\n",
			r.idx, site, r.rule.Fault, r.injected.Load())
	}
	fmt.Fprintf(w, "# HELP chaos_calls_total Calls evaluated per plan rule.\n# TYPE chaos_calls_total counter\n")
	for _, r := range in.rules {
		fmt.Fprintf(w, "chaos_calls_total{rule=\"%d\"} %d\n", r.idx, r.calls.Load())
	}
}

// stageFault evaluates the pipeline-side rules for stage; it sleeps for
// delay faults, returns an ErrInjected-wrapped error for error faults and
// panics for panic faults (guard.Run turns that into a structured
// StageError without killing the worker).
func (in *Injector) stageFault(ctx context.Context, stage string) error {
	for _, r := range in.rules {
		if r.rule.Stage == "" || r.rule.Stage != stage {
			continue
		}
		if !r.fire() {
			continue
		}
		switch r.rule.Fault {
		case FaultDelay:
			sleepCtx(ctx, time.Duration(r.rule.DelayMS)*time.Millisecond)
		case FaultError:
			return fmt.Errorf("%w: stage %s (rule %d)", ErrInjected, stage, r.idx)
		case FaultPanic:
			panic(fmt.Sprintf("chaos: injected panic in stage %s (rule %d)", stage, r.idx))
		}
	}
	return nil
}

func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// WrapPipeline decorates p with the plan's stage faults; pass it as
// service.Config.WrapPipeline.
func (in *Injector) WrapPipeline(p service.Pipeline) service.Pipeline {
	return &chaosPipeline{inj: in, next: p}
}

type chaosPipeline struct {
	inj  *Injector
	next service.Pipeline
}

func (c *chaosPipeline) Compile(ctx context.Context, req client.CompileRequest, b guard.Budget) (*client.CompileResponse, error) {
	if err := c.inj.stageFault(ctx, service.KindCompile); err != nil {
		return nil, err
	}
	return c.next.Compile(ctx, req, b)
}

func (c *chaosPipeline) Simulate(ctx context.Context, req client.SimulateRequest, b guard.Budget) (*client.SimulateResponse, error) {
	if err := c.inj.stageFault(ctx, service.KindSimulate); err != nil {
		return nil, err
	}
	return c.next.Simulate(ctx, req, b)
}

func (c *chaosPipeline) Sweep(ctx context.Context, req client.SweepRequest, b guard.Budget) (*client.SweepResponse, error) {
	if err := c.inj.stageFault(ctx, service.KindSweep); err != nil {
		return nil, err
	}
	return c.next.Sweep(ctx, req, b)
}

// Middleware applies the endpoint-side rules around next. Delay and error
// faults act before the handler; partial and slowloris faults capture the
// handler's response and mangle its delivery.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var mangle *ruleState
		for _, rs := range in.rules {
			if rs.rule.Endpoint == "" || !strings.HasPrefix(r.URL.Path, rs.rule.Endpoint) {
				continue
			}
			if !rs.fire() {
				continue
			}
			switch rs.rule.Fault {
			case FaultDelay:
				sleepCtx(r.Context(), time.Duration(rs.rule.DelayMS)*time.Millisecond)
			case FaultError:
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				fmt.Fprintf(w, "{\"error\":\"chaos: injected error (rule %d)\"}\n", rs.idx)
				return
			case FaultPartial, FaultSlowloris:
				if mangle == nil {
					mangle = rs // first mangler wins; body is captured once
				}
			}
		}
		if mangle == nil {
			next.ServeHTTP(w, r)
			return
		}
		rec := &captureWriter{hdr: make(http.Header), status: http.StatusOK}
		next.ServeHTTP(rec, r)
		for k, vs := range rec.hdr {
			w.Header()[k] = vs
		}
		body := rec.buf.Bytes()
		switch mangle.rule.Fault {
		case FaultPartial:
			// Declare the full length, deliver half: net/http notices the
			// short handler and closes the connection mid-body, so the
			// client's read fails with an unexpected EOF — exactly the
			// truncating-server failure the resilient client must retry.
			w.Header().Set("Content-Length", fmt.Sprintf("%d", len(body)))
			w.WriteHeader(rec.status)
			_, _ = w.Write(body[:len(body)/2])
		case FaultSlowloris:
			w.WriteHeader(rec.status)
			streamSlow(w, r.Context(), body, time.Duration(mangle.rule.DelayMS)*time.Millisecond)
		}
	})
}

// captureWriter buffers a handler's response so the middleware can replay
// it mangled.
type captureWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (c *captureWriter) Header() http.Header         { return c.hdr }
func (c *captureWriter) WriteHeader(code int)        { c.status = code }
func (c *captureWriter) Write(p []byte) (int, error) { return c.buf.Write(p) }

// streamSlow dribbles body out in eight chunks spread across total,
// flushing between writes.
func streamSlow(w http.ResponseWriter, ctx context.Context, body []byte, total time.Duration) {
	const chunks = 8
	step := total / chunks
	fl, _ := w.(http.Flusher)
	for i := 0; i < chunks; i++ {
		lo, hi := i*len(body)/chunks, (i+1)*len(body)/chunks
		if _, err := w.Write(body[lo:hi]); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
		if i < chunks-1 {
			sleepCtx(ctx, step)
		}
	}
}
