package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/service"
	"repro/spt/client"
)

// passPipeline is a no-fault pipeline stub.
type passPipeline struct{}

func (passPipeline) Compile(_ context.Context, req client.CompileRequest, _ guard.Budget) (*client.CompileResponse, error) {
	return &client.CompileResponse{Benchmark: req.Benchmark}, nil
}
func (passPipeline) Simulate(_ context.Context, req client.SimulateRequest, _ guard.Budget) (*client.SimulateResponse, error) {
	return &client.SimulateResponse{Benchmark: req.Benchmark, Speedup: 2}, nil
}
func (passPipeline) Sweep(_ context.Context, req client.SweepRequest, _ guard.Budget) (*client.SweepResponse, error) {
	return &client.SweepResponse{Benchmark: req.Benchmark}, nil
}

// TestDeterministicDecisions: two injectors built from the same plan make
// identical inject/pass decisions call for call.
func TestDeterministicDecisions(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{
		{Stage: service.KindSimulate, Fault: FaultError, Prob: 0.3},
		{Stage: service.KindCompile, Fault: FaultError, Every: 3},
	}}
	a, b := New(plan), New(plan)
	for i := 0; i < 200; i++ {
		for ri := range plan.Rules {
			if a.rules[ri].fire() != b.rules[ri].fire() {
				t.Fatalf("decision diverged at call %d rule %d", i, ri)
			}
		}
	}
	if a.InjectedTotal() == 0 {
		t.Fatal("no faults fired in 200 calls at prob 0.3 / every 3")
	}
	if a.InjectedTotal() != b.InjectedTotal() {
		t.Fatal("total injections diverged")
	}
}

// TestMaxCallsQuiesces: a bounded rule stops injecting once its budget is
// spent, so a chaos run converges to fault-free behavior.
func TestMaxCallsQuiesces(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Stage: service.KindSimulate, Fault: FaultError, Every: 1, MaxCalls: 3}}})
	fired := 0
	for i := 0; i < 20; i++ {
		if in.rules[0].fire() {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("rule fired %d times, want exactly MaxCalls=3", fired)
	}
}

// TestPipelineErrorFault: an error fault surfaces as ErrInjected from the
// wrapped stage; once spent, calls pass through.
func TestPipelineErrorFault(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Stage: service.KindSimulate, Fault: FaultError, Every: 1, MaxCalls: 1}}})
	p := in.WrapPipeline(passPipeline{})
	_, err := p.Simulate(context.Background(), client.SimulateRequest{Benchmark: "parser"}, guard.Budget{})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("first call: err = %v, want ErrInjected", err)
	}
	resp, err := p.Simulate(context.Background(), client.SimulateRequest{Benchmark: "parser"}, guard.Budget{})
	if err != nil || resp.Speedup != 2 {
		t.Fatalf("post-quiesce call: %v %+v", err, resp)
	}
	// Other stages are untouched by a simulate-scoped rule.
	if _, err := p.Compile(context.Background(), client.CompileRequest{Benchmark: "parser"}, guard.Budget{}); err != nil {
		t.Fatalf("compile hit a simulate-scoped fault: %v", err)
	}
}

// TestPipelinePanicFaultIsolated: a panic fault thrown inside a stage is
// exactly what guard.Run is built to absorb.
func TestPipelinePanicFaultIsolated(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Stage: service.KindSweep, Fault: FaultPanic, Every: 1, MaxCalls: 1}}})
	p := in.WrapPipeline(passPipeline{})
	err := guard.Run("parser", "sweep", func() error {
		_, e := p.Sweep(context.Background(), client.SweepRequest{Benchmark: "parser"}, guard.Budget{})
		return e
	})
	var se *guard.StageError
	if !errors.As(err, &se) || !se.Panicked {
		t.Fatalf("panic fault not isolated into a StageError: %v", err)
	}
}

// TestMiddlewarePartialTruncates: the partial fault declares the full
// Content-Length but delivers half the body, so the client's read dies
// with an unexpected EOF — the retryable failure mode of satellite (a).
func TestMiddlewarePartialTruncates(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Endpoint: "/v1/jobs", Fault: FaultPartial, Every: 1, MaxCalls: 1}}})
	body := `{"id":"j000001","state":"done","outcome":"ok"}`
	h := in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, body)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/jobs/j000001")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	_, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr == nil {
		t.Fatal("truncated response read succeeded; want an unexpected-EOF class error")
	}

	// Fault budget spent: the next request is intact.
	resp, err = http.Get(ts.URL + "/v1/jobs/j000001")
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || string(got) != body {
		t.Fatalf("post-quiesce read: %v %q", rerr, got)
	}
}

// TestMiddlewareErrorThenPass: an endpoint error fault 500s the matched
// path only, and non-matching paths are never touched.
func TestMiddlewareErrorThenPass(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Endpoint: "/v1/simulate", Fault: FaultError, Every: 1, MaxCalls: 1}}})
	h := in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/livez")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("unmatched path faulted: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("matched path status = %d, want 500", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-quiesce status = %d, want 200", resp.StatusCode)
	}
}

// TestSlowlorisDelivers: the slow-stream fault still delivers the complete
// body (slowness, not loss).
func TestSlowlorisDelivers(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Endpoint: "/v1/", Fault: FaultSlowloris, DelayMS: 40, Every: 1, MaxCalls: 1}}})
	body := strings.Repeat("x", 256)
	h := in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/j1")
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || string(got) != body {
		t.Fatalf("slowloris mangled the body: %v (%d bytes)", rerr, len(got))
	}
}

// TestMetricsRender: fault counters surface in Prometheus text form.
func TestMetricsRender(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Stage: service.KindSimulate, Fault: FaultError, Every: 1, MaxCalls: 1}}})
	in.rules[0].fire()
	var sb strings.Builder
	in.Metrics(&sb)
	out := sb.String()
	if !strings.Contains(out, `chaos_faults_injected_total{rule="0",site="simulate",fault="error"} 1`) {
		t.Fatalf("metrics missing fault counter:\n%s", out)
	}
	if !strings.Contains(out, `chaos_calls_total{rule="0"} 1`) {
		t.Fatalf("metrics missing call counter:\n%s", out)
	}
}

// TestLoadPlanRoundtrip: plans persist to JSON for CI.
func TestLoadPlanRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/plan.json"
	if err := writeFile(path, `{"seed":7,"rules":[{"stage":"simulate","fault":"error","every":5,"max_calls":2}]}`); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Rules) != 1 || p.Rules[0].Fault != FaultError || p.Rules[0].MaxCalls != 2 {
		t.Fatalf("plan decoded wrong: %+v", p)
	}
	if _, err := LoadPlan(dir + "/missing.json"); err == nil {
		t.Fatal("missing plan file did not error")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
