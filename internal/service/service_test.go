package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/spt/client"
)

// stubPipeline lets tests script the execution layer: blocking, panicking
// and failing jobs become deterministic.
type stubPipeline struct {
	compile  func(ctx context.Context, req client.CompileRequest, b guard.Budget) (*client.CompileResponse, error)
	simulate func(ctx context.Context, req client.SimulateRequest, b guard.Budget) (*client.SimulateResponse, error)
	sweep    func(ctx context.Context, req client.SweepRequest, b guard.Budget) (*client.SweepResponse, error)
}

func (s *stubPipeline) Compile(ctx context.Context, req client.CompileRequest, b guard.Budget) (*client.CompileResponse, error) {
	if s.compile == nil {
		return &client.CompileResponse{Benchmark: req.Benchmark}, nil
	}
	return s.compile(ctx, req, b)
}

func (s *stubPipeline) Simulate(ctx context.Context, req client.SimulateRequest, b guard.Budget) (*client.SimulateResponse, error) {
	if s.simulate == nil {
		return &client.SimulateResponse{Benchmark: req.Benchmark}, nil
	}
	return s.simulate(ctx, req, b)
}

func (s *stubPipeline) Sweep(ctx context.Context, req client.SweepRequest, b guard.Budget) (*client.SweepResponse, error) {
	if s.sweep == nil {
		return &client.SweepResponse{Benchmark: req.Benchmark}, nil
	}
	return s.sweep(ctx, req, b)
}

// startServer builds a server + HTTP test harness and tears both down.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		// Drain first: it force-cancels stragglers at the deadline, so
		// ts.Close never hangs on a still-blocked in-flight request.
		_ = s.Drain(2 * time.Second)
		ts.Close()
	})
	return s, ts, client.New(ts.URL, ts.Client())
}

func simulateJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/simulate: %v", err)
	}
	return resp
}

func TestQueueFullRejectsWith429AndRetryAfter(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	stub := &stubPipeline{
		simulate: func(ctx context.Context, req client.SimulateRequest, _ guard.Budget) (*client.SimulateResponse, error) {
			started <- struct{}{}
			select {
			case <-release:
				return &client.SimulateResponse{Benchmark: req.Benchmark}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	s, ts, cl := startServer(t, Config{Workers: 1, QueueCapacity: 1, Pipeline: stub})

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	// First request occupies the single worker; second fills the queue.
	wg.Add(1)
	go func() { defer wg.Done(); _, errs[0] = cl.Simulate(ctx, client.SimulateRequest{Benchmark: "parser"}) }()
	<-started
	wg.Add(1)
	go func() { defer wg.Done(); _, errs[1] = cl.Simulate(ctx, client.SimulateRequest{Benchmark: "parser"}) }()
	waitFor(t, func() bool { return s.queue.depth() == 1 }, "second job queued")

	// Third request must be shed with 429 + Retry-After.
	_, err := cl.Simulate(ctx, client.SimulateRequest{Benchmark: "parser"})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: got %v; want a 429 APIError", err)
	}
	if ae.RetryAfterSeconds <= 0 {
		t.Errorf("429 without Retry-After; backpressure needs a retry hint")
	}
	if !client.IsBackpressure(err) {
		t.Errorf("IsBackpressure = false for a 429")
	}

	close(release)
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Errorf("request %d failed after release: %v", i, e)
		}
	}
	if got := s.met.jobsRejected.Load(); got != 1 {
		t.Errorf("jobs rejected metric = %d; want 1", got)
	}
	_ = ts
}

func TestBudgetExceededJobReportsGuardClassification(t *testing.T) {
	// Real pipeline, absurd cycle budget: the baseline simulation trips
	// arch.ErrCycleLimit, which guard.Exceeded classifies as budget
	// exhaustion — the response must be a 504 carrying that flag and the
	// failing stage.
	_, ts, _ := startServer(t, Config{Workers: 2})
	resp := simulateJSON(t, ts.URL, `{"benchmark":"parser","cycles":1}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d; want 504 for a budget-exceeded job", resp.StatusCode)
	}
	var eb client.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if !eb.BudgetExceeded {
		t.Errorf("error body %+v; want budget_exceeded=true", eb)
	}
	if eb.Stage == "" {
		t.Errorf("error body %+v; want the failing stage recorded", eb)
	}
	if eb.Panicked {
		t.Errorf("budget exhaustion misreported as a panic: %+v", eb)
	}
}

func TestWorkerPanicBecomesStructured500AndDaemonSurvives(t *testing.T) {
	var calls int
	var mu sync.Mutex
	stub := &stubPipeline{
		simulate: func(_ context.Context, req client.SimulateRequest, _ guard.Budget) (*client.SimulateResponse, error) {
			mu.Lock()
			calls++
			first := calls == 1
			mu.Unlock()
			if first {
				panic("worker bomb")
			}
			return &client.SimulateResponse{Benchmark: req.Benchmark, Speedup: 1.5}, nil
		},
	}
	_, ts, cl := startServer(t, Config{Workers: 1, Pipeline: stub})

	resp := simulateJSON(t, ts.URL, `{"benchmark":"parser"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d; want 500 for a panicked job", resp.StatusCode)
	}
	var eb client.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if !eb.Panicked || !strings.Contains(eb.Error, "worker bomb") {
		t.Errorf("error body %+v; want panicked=true carrying the panic message", eb)
	}
	if eb.BudgetExceeded {
		t.Errorf("panic misclassified as budget exhaustion: %+v", eb)
	}

	// The daemon must still serve: same worker, next request succeeds.
	out, err := cl.Simulate(context.Background(), client.SimulateRequest{Benchmark: "parser"})
	if err != nil {
		t.Fatalf("request after panic: %v", err)
	}
	if out.Speedup != 1.5 {
		t.Errorf("post-panic response = %+v; want the stub result", out)
	}
}

func TestClientDisconnectCancelsRunningJob(t *testing.T) {
	jobStarted := make(chan struct{})
	jobCanceled := make(chan struct{})
	stub := &stubPipeline{
		simulate: func(ctx context.Context, _ client.SimulateRequest, _ guard.Budget) (*client.SimulateResponse, error) {
			close(jobStarted)
			<-ctx.Done()
			close(jobCanceled)
			return nil, ctx.Err()
		},
	}
	s, ts, _ := startServer(t, Config{Workers: 1, Pipeline: stub})

	ctx, cancel := context.WithCancel(context.Background())
	cl := client.New(ts.URL, ts.Client())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Simulate(ctx, client.SimulateRequest{Benchmark: "parser"})
		done <- err
	}()
	<-jobStarted
	cancel() // client walks away mid-job
	if err := <-done; err == nil {
		t.Error("client call returned nil after cancellation")
	}
	select {
	case <-jobCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("job context was not canceled after the client disconnected")
	}
	waitFor(t, func() bool { return s.met.jobsCanceled.Load() == 1 }, "canceled outcome recorded")
}

func TestSyncJobCanceledWhileQueuedIsNeverRun(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var ran int
	var mu sync.Mutex
	stub := &stubPipeline{
		simulate: func(ctx context.Context, req client.SimulateRequest, _ guard.Budget) (*client.SimulateResponse, error) {
			mu.Lock()
			ran++
			mu.Unlock()
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &client.SimulateResponse{Benchmark: req.Benchmark}, nil
		},
	}
	s, ts, _ := startServer(t, Config{Workers: 1, QueueCapacity: 4, Pipeline: stub})
	cl := client.New(ts.URL, ts.Client())

	bg, err1 := context.Background(), error(nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, err1 = cl.Simulate(bg, client.SimulateRequest{Benchmark: "parser"}) }()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = cl.Simulate(ctx, client.SimulateRequest{Benchmark: "parser"})
	}()
	waitFor(t, func() bool { return s.queue.depth() == 1 }, "second job queued")
	cancel() // abandon the queued job before a worker picks it up
	waitFor(t, func() bool {
		// The server notices the disconnect asynchronously; release the
		// worker only once the queued job's context is actually dead.
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, j := range s.jobs {
			if j.ctx.Err() != nil {
				return true
			}
		}
		return false
	}, "queued job context canceled")
	close(release)
	wg.Wait()
	// The worker pops the abandoned job, sees its dead context, and
	// finishes it as canceled without ever invoking the pipeline.
	waitFor(t, func() bool { return s.met.jobsCanceled.Load() == 1 }, "queued job finished as canceled")
	if err1 != nil {
		t.Errorf("first request failed: %v", err1)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran != 1 {
		t.Errorf("pipeline ran %d times; the canceled queued job must never execute", ran)
	}
}

func TestDrainRejectsNewWorkAndFinishesInFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	stub := &stubPipeline{
		simulate: func(ctx context.Context, req client.SimulateRequest, _ guard.Budget) (*client.SimulateResponse, error) {
			started <- struct{}{}
			select {
			case <-release:
				return &client.SimulateResponse{Benchmark: req.Benchmark, Speedup: 2}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	s, _, cl := startServer(t, Config{Workers: 1, Pipeline: stub})

	var inflightErr error
	var inflightResp *client.SimulateResponse
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inflightResp, inflightErr = cl.Simulate(context.Background(), client.SimulateRequest{Benchmark: "parser"})
	}()
	<-started

	s.BeginDrain()
	_, err := cl.Simulate(context.Background(), client.SimulateRequest{Benchmark: "parser"})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: got %v; want 503", err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(10 * time.Second) }()
	time.Sleep(20 * time.Millisecond) // let Drain reach its wait
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v; want clean (in-flight job finishes under the deadline)", err)
	}
	wg.Wait()
	if inflightErr != nil || inflightResp == nil || inflightResp.Speedup != 2 {
		t.Errorf("in-flight job during drain: resp %+v err %v; want completion", inflightResp, inflightErr)
	}

	// A drained node is not ready: /readyz answers 503 with the draining
	// condition in its body.
	_, err = cl.Health(context.Background())
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: got %v; want 503", err)
	}
	var h client.Health
	if jerr := json.Unmarshal([]byte(ae.Body.Error), &h); jerr != nil || !h.Draining || h.Status != "draining" {
		t.Errorf("readyz body after drain = %q (%v); want draining", ae.Body.Error, jerr)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	stub := &stubPipeline{
		simulate: func(ctx context.Context, _ client.SimulateRequest, _ guard.Budget) (*client.SimulateResponse, error) {
			<-ctx.Done() // never finishes voluntarily
			return nil, ctx.Err()
		},
	}
	s, ts, cl := startServer(t, Config{Workers: 1, Pipeline: stub})
	go func() {
		_, _ = cl.Simulate(context.Background(), client.SimulateRequest{Benchmark: "parser"})
	}()
	waitFor(t, func() bool { return s.inflight.Load() == 1 }, "job running")
	if err := s.Drain(50 * time.Millisecond); err == nil {
		t.Fatal("Drain returned nil; want an error reporting canceled stragglers")
	}
	waitFor(t, func() bool { return s.met.jobsCanceled.Load() == 1 }, "straggler recorded as canceled")
	_ = ts
}

func TestBadRequestsAreRejectedAtAdmission(t *testing.T) {
	_, ts, _ := startServer(t, Config{Workers: 1, Pipeline: &stubPipeline{}})
	cases := []struct {
		path, body string
	}{
		{"/v1/simulate", `{"benchmark":"nope"}`},
		{"/v1/simulate", `{"benchmark":"parser","recovery":"warp"}`},
		{"/v1/simulate", `{not json`},
		{"/v1/compile", `{"benchmark":""}`},
		{"/v1/sweep", `{"benchmark":"parser","sweep":"entropy"}`},
		{"/v1/sweep", `{"benchmark":"parser","sweep":"srb","points":[0]}`},
		{"/v1/simulate", `{"benchmark":"parser","cores":1}`},
		{"/v1/simulate", `{"benchmark":"parser","sched":"warp"}`},
		{"/v1/simulate", `{"benchmark":"parser","livein":"prophecy"}`},
		{"/v1/sweep", `{"benchmark":"parser","sweep":"cores","points":[1]}`},
		{"/v1/sweep", `{"benchmark":"parser","sweep":"sched","cores":1}`},
		{"/v1/sweep", `{"benchmark":"parser","sweep":"srb","points":[1048576]}`},
		{"/v1/sweep", `{"benchmark":"parser","sweep":"overhead","points":[4611686018427387904]}`},
		{"/v1/simulate", `{"benchmark":"parser","sched":"stride","cores":4,"stride":100}`},
		{"/v1/simulate", `{"benchmark":"parser","srb":-3}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d; want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	// Admission rejections must not occupy job slots or the metrics'
	// outcome counters (they never became jobs).
	resp, err := http.Get(ts.URL + "/v1/jobs/j000001")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("jobs lookup after rejected admissions: %d; want 404", resp.StatusCode)
	}
}

// TestOversizedBodyRejectedWith413: a standalone node answers a body over
// the 1 MiB admission limit the way a clustered node's forwarder does.
func TestOversizedBodyRejectedWith413(t *testing.T) {
	_, ts, _ := startServer(t, Config{Workers: 1, Pipeline: &stubPipeline{}})
	body := `{"benchmark":"` + strings.Repeat("a", 1<<20) + `"}`
	resp := simulateJSON(t, ts.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d; want 413", resp.StatusCode)
	}
	var eb client.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("error body %+v, %v; want a client.ErrorBody", eb, err)
	}
}

func TestMetricsExposition(t *testing.T) {
	stub := &stubPipeline{}
	_, _, cl := startServer(t, Config{Workers: 2, QueueCapacity: 7, Pipeline: stub})
	if _, err := cl.Simulate(context.Background(), client.SimulateRequest{Benchmark: "parser"}); err != nil {
		t.Fatal(err)
	}
	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sptd_queue_depth", "sptd_queue_capacity", "sptd_workers",
		"sptd_inflight_workers", "sptd_draining",
		"sptd_jobs_total{outcome=\"ok\"}", "sptd_jobs_total{outcome=\"rejected\"}",
		"sptd_cache_hits_total", "sptd_cache_hit_ratio",
		"sptd_trace_cache_hits_total", "sptd_trace_cache_joins_total", "sptd_trace_cache_misses_total",
		"sptd_trace_cache_bytes", "sptd_trace_capture_bytes",
		"sptd_trace_chunks_allocated_total", "sptd_trace_chunks_reused_total",
		"sptd_go_gc_cycles_total",
		"sptd_stage_latency_seconds_bucket{stage=\"simulate\",le=\"+Inf\"}",
		"sptd_stage_latency_seconds_count{stage=\"simulate\"}",
		"sptd_spec_commits_total{kind=\"fast\"}", "sptd_spec_commits_total{kind=\"replay\"}",
		"sptd_spec_squashes_total{cause=\"violation\"}", "sptd_spec_squashes_total{cause=\"eager\"}",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if strings.Contains(m, "sptd_capture_") {
		t.Error("metrics exposition still carries sptd_capture_ series")
	}
	if v, ok := client.MetricValue(m, `sptd_jobs_total{outcome="ok"}`); !ok || v != 1 {
		t.Errorf("ok jobs metric = %v %v; want 1", v, ok)
	}
	if v, ok := client.MetricValue(m, "sptd_queue_capacity"); !ok || v != 7 {
		t.Errorf("queue capacity metric = %v %v; want 7", v, ok)
	}
	if v, ok := client.MetricValue(m, `sptd_stage_latency_seconds_count{stage="simulate"}`); !ok || v != 1 {
		t.Errorf("stage count metric = %v %v; want 1", v, ok)
	}
}

// TestMetricsArePerServer runs two daemons in one process on the real
// pipeline: the work one serves shows in its own /metrics and in no other.
// Its speculation counts are those of the simulation it completed.
func TestMetricsArePerServer(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	_, _, a := startServer(t, Config{Workers: 1})
	_, _, b := startServer(t, Config{Workers: 1})
	ctx := context.Background()
	metric := func(cl *client.Client, name string) float64 {
		t.Helper()
		m, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := client.MetricValue(m, name)
		if !ok {
			t.Fatalf("metrics exposition missing %s", name)
		}
		return v
	}

	res, err := a.Simulate(ctx, client.SimulateRequest{Benchmark: "parser"})
	if err != nil {
		t.Fatal(err)
	}
	if res.SPT.FastCommits+res.SPT.Replays == 0 {
		t.Fatalf("simulate committed no windows: %+v", res.SPT)
	}
	for name, want := range map[string]int64{
		`sptd_spec_commits_total{kind="fast"}`:   res.SPT.FastCommits,
		`sptd_spec_commits_total{kind="replay"}`: res.SPT.Replays,
	} {
		if got := metric(a, name); got != float64(want) {
			t.Errorf("server A: %s = %v; want %d, the simulation's own count", name, got, want)
		}
	}
	// Two fresh SRB sizes miss together: one broadcast pass.
	if _, err := a.Sweep(ctx, client.SweepRequest{Benchmark: "parser", Sweep: "srb", Points: []int{16, 64}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sptd_sweep_broadcast_passes_total", "sptd_trace_chunks_allocated_total"} {
		if metric(a, name) == 0 {
			t.Errorf("server A: %s = 0 after its own work", name)
		}
	}
	for _, name := range []string{
		`sptd_spec_commits_total{kind="fast"}`, `sptd_spec_commits_total{kind="replay"}`,
		"sptd_sweep_broadcast_passes_total", "sptd_trace_chunks_allocated_total",
	} {
		if v := metric(b, name); v != 0 {
			t.Errorf("server B: %s = %v; want 0, it served nothing", name, v)
		}
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	stub := &stubPipeline{
		simulate: func(_ context.Context, req client.SimulateRequest, _ guard.Budget) (*client.SimulateResponse, error) {
			return &client.SimulateResponse{Benchmark: req.Benchmark, Speedup: 3}, nil
		},
	}
	_, _, cl := startServer(t, Config{Workers: 1, Pipeline: stub})
	ctx := context.Background()
	sub, err := cl.Simulate(ctx, client.SimulateRequest{
		Benchmark:  "parser",
		JobRequest: client.JobRequest{Async: true},
	})
	if err != nil {
		t.Fatalf("async submit: %v", err)
	}
	if sub.JobID == "" {
		t.Fatal("async submit returned no job id")
	}
	js, err := cl.Wait(ctx, sub.JobID, time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if js.Outcome != client.OutcomeOK || js.Kind != KindSimulate {
		t.Fatalf("job status %+v; want ok simulate", js)
	}
	var out client.SimulateResponse
	if err := js.DecodeResult(&out); err != nil {
		t.Fatal(err)
	}
	if out.Speedup != 3 || out.JobID != sub.JobID {
		t.Errorf("async result %+v; want the stub result under the same job id", out)
	}
	// Unknown ids are 404.
	if _, err := cl.Job(ctx, "j999999"); err == nil {
		t.Error("lookup of unknown job id succeeded; want 404")
	}
}

func TestPriorityOrderingUnderSingleWorker(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var order []string
	var mu sync.Mutex
	stub := &stubPipeline{
		simulate: func(ctx context.Context, req client.SimulateRequest, _ guard.Budget) (*client.SimulateResponse, error) {
			mu.Lock()
			order = append(order, string(req.Priority))
			n := len(order)
			mu.Unlock()
			if n == 1 {
				started <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
				}
			}
			return &client.SimulateResponse{Benchmark: req.Benchmark}, nil
		},
	}
	s, _, cl := startServer(t, Config{Workers: 1, QueueCapacity: 8, Pipeline: stub})
	ctx := context.Background()

	var wg sync.WaitGroup
	submit := func(p client.Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = cl.Simulate(ctx, client.SimulateRequest{
				Benchmark:  "parser",
				JobRequest: client.JobRequest{Priority: p},
			})
		}()
	}
	// Occupy the worker, then queue low before high: the high job must
	// still run first once the worker frees up.
	submit("first")
	<-started
	submit(client.PriorityLow)
	waitFor(t, func() bool { return s.queue.depth() == 1 }, "low queued")
	submit(client.PriorityHigh)
	waitFor(t, func() bool { return s.queue.depth() == 2 }, "high queued")
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	want := []string{"first", "high", "low"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("execution order %v; want %v", order, want)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestEndToEndRealPipeline drives the genuine SPT pipeline through the
// HTTP API: compile, simulate (checked against the local harness result),
// coalesced duplicates, and a sweep.
func TestEndToEndRealPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	s, _, cl := startServer(t, Config{Workers: 4, QueueCapacity: 32})
	ctx := context.Background()

	cres, err := cl.Compile(ctx, client.CompileRequest{Benchmark: "parser"})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if cres.Fingerprint == "" || cres.SelectedLoops == 0 {
		t.Errorf("compile response %+v; want a fingerprint and selected loops", cres)
	}

	want, err := localExpected(t)
	if err != nil {
		t.Fatal(err)
	}
	const dupes = 6
	got := make([]*client.SimulateResponse, dupes)
	var wg sync.WaitGroup
	for i := 0; i < dupes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			got[i], err = cl.Simulate(ctx, client.SimulateRequest{Benchmark: "parser"})
			if err != nil {
				t.Errorf("simulate %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g == nil {
			continue
		}
		if g.Baseline != want.Baseline || g.SPT != want.SPT || g.Speedup != want.Speedup {
			t.Errorf("response %d differs from the local pipeline:\n got %+v\nwant %+v", i, g, want)
		}
	}
	st := s.CacheStats()
	if st.Hits == 0 {
		t.Errorf("cache stats %+v; duplicate requests should have coalesced", st)
	}

	sres, err := cl.Sweep(ctx, client.SweepRequest{Benchmark: "parser", Sweep: "recovery"})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(sres.Rows) != 2 {
		t.Errorf("recovery sweep rows = %+v; want 2 variants", sres.Rows)
	}

	// The multi-core family rides the same broadcast sweep path; every row
	// must come back healthy with the classic machine first.
	cres2, err := cl.Sweep(ctx, client.SweepRequest{Benchmark: "parser", Sweep: "cores", Points: []int{2, 4}})
	if err != nil {
		t.Fatalf("cores sweep: %v", err)
	}
	if len(cres2.Rows) != 2 {
		t.Fatalf("cores sweep rows = %+v; want 2 variants", cres2.Rows)
	}
	for _, r := range cres2.Rows {
		if r.Error != "" || r.Speedup <= 0 {
			t.Errorf("cores row %+v; want a positive speedup and no error", r)
		}
	}
}

// localExpected computes the one-shot pipeline result the daemon must
// reproduce bit-identically.
func localExpected(t *testing.T) (*client.SimulateResponse, error) {
	t.Helper()
	run, err := harness.RunBenchmarkCached("parser", 1, arch.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	return &client.SimulateResponse{
		Benchmark: "parser",
		Scale:     1,
		Baseline:  Summarize(run.Baseline),
		SPT:       Summarize(run.SPT),
		Speedup:   run.Speedup(),
	}, nil
}
