package service

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/multispec"
	"repro/spt/client"
)

// Pipeline executes the daemon's three job kinds. The production
// implementation (sptPipeline) runs the real SPT pipeline through the
// shared artifact cache; tests substitute stubs to exercise failure paths
// (blocking, panicking, budget-exceeding executions) deterministically.
type Pipeline interface {
	Compile(ctx context.Context, req client.CompileRequest, budget guard.Budget) (*client.CompileResponse, error)
	Simulate(ctx context.Context, req client.SimulateRequest, budget guard.Budget) (*client.SimulateResponse, error)
	Sweep(ctx context.Context, req client.SweepRequest, budget guard.Budget) (*client.SweepResponse, error)
}

// sptPipeline is the real pipeline: every stage flows through the shared
// singleflight artifact cache, so concurrent identical requests coalesce
// into one underlying compilation/simulation and repeated requests are
// served from memory.
type sptPipeline struct {
	cache *artifact.Cache
}

// Compile builds and SPT-compiles the benchmark, reporting per-loop
// selection decisions and the transformed program's content fingerprint.
func (p *sptPipeline) Compile(ctx context.Context, req client.CompileRequest, budget guard.Budget) (*client.CompileResponse, error) {
	var resp *client.CompileResponse
	err := guard.Run(req.Benchmark, guard.StageCompile, func() error {
		sctx, cancel := budget.Context(ctx)
		defer cancel()
		cres, err := harness.CompileBenchmarkCached(sctx, req.Benchmark, ScaleOf(req.Scale), p.cache)
		if err != nil {
			return err
		}
		resp = &client.CompileResponse{
			Benchmark:   req.Benchmark,
			Scale:       ScaleOf(req.Scale),
			Fingerprint: cres.Program.Fingerprint(),
		}
		for _, l := range cres.Loops {
			resp.Loops = append(resp.Loops, client.LoopSummary{
				Func:     l.Key.Func,
				Header:   l.Key.Header,
				Selected: l.Selected,
				Coverage: l.Coverage,
				BodySize: l.BodySize,
				Reason:   l.Reason,
			})
			if l.Selected {
				resp.SelectedLoops++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Simulate evaluates baseline + SPT for the benchmark under the requested
// machine configuration. It is the exact pipeline of the one-shot cmd/sptsim
// path (optimize → compile → simulate both configurations), so responses are
// bit-identical to a local run.
func (p *sptPipeline) Simulate(ctx context.Context, req client.SimulateRequest, budget guard.Budget) (*client.SimulateResponse, error) {
	cfg, err := ConfigFromRequest(req)
	if err != nil {
		return nil, err
	}
	run, err := harness.RunBenchmarkGuarded(ctx, req.Benchmark, ScaleOf(req.Scale), cfg, harness.GuardOptions{
		Budget:    budget,
		Artifacts: p.cache,
		// The daemon's cache is byte-bounded and outlives the request, so
		// captured traces fan out across later simulate/sweep requests for
		// the same benchmark.
		RecordTraces: true,
	})
	if err != nil {
		return nil, err
	}
	return &client.SimulateResponse{
		Benchmark: req.Benchmark,
		Scale:     ScaleOf(req.Scale),
		Baseline:  Summarize(run.Baseline),
		SPT:       Summarize(run.SPT),
		Speedup:   run.Speedup(),
	}, nil
}

// Sweep runs one ablation family over the benchmark.
func (p *sptPipeline) Sweep(ctx context.Context, req client.SweepRequest, budget guard.Budget) (*client.SweepResponse, error) {
	variants, err := sweepVariants(req)
	if err != nil {
		return nil, err
	}
	rows, err := harness.Sweep(ctx, req.Benchmark, ScaleOf(req.Scale), variants, harness.GuardOptions{
		Budget:    budget,
		Artifacts: p.cache,
	})
	wireRows, err := sweepRows(rows, err)
	if err != nil {
		return nil, err
	}
	return &client.SweepResponse{
		Benchmark: req.Benchmark,
		Scale:     ScaleOf(req.Scale),
		Sweep:     req.Sweep,
		Rows:      wireRows,
	}, nil
}

// sweepRows maps harness ablation rows onto the wire shape. A sweep
// degrades per variant: a failed variant's row carries its error string
// while siblings keep their speedups. Only a total failure — every row
// errored, or no rows at all — becomes a job error.
func sweepRows(rows []harness.AblationRow, err error) ([]client.SweepRow, error) {
	failed := 0
	for _, r := range rows {
		if r.Err != nil {
			failed++
		}
	}
	if err != nil && (len(rows) == 0 || failed == len(rows)) {
		return nil, err
	}
	out := make([]client.SweepRow, 0, len(rows))
	for _, r := range rows {
		row := client.SweepRow{Variant: r.Variant, Speedup: r.Speedup}
		if r.Err != nil {
			row.Error = r.Err.Error()
		}
		out = append(out, row)
	}
	return out, nil
}

// ScaleOf applies the default scale: a request's zero or negative scale
// means scale 1. It is the one place the default lives, so the daemon, the
// result identity and the cluster's routing key all name the same program.
func ScaleOf(s int) int {
	if s <= 0 {
		return 1
	}
	return s
}

// Identity renders what a request's result is a deterministic function
// of: the kind, the program (benchmark and defaulted scale) and, for
// simulate and sweep, the canonical machine each configuration builds. A
// sweep contributes its family and every expanded variant's label and
// canonical config, in order, so its Cores and Points count only through
// the variants they produce. Requests that build the same machines on the
// same program share one identity whatever their spelling; budgets,
// priorities and async flags never enter it. A request the pipeline would
// reject returns that validation error instead.
func Identity(req any) (string, error) {
	switch r := req.(type) {
	case client.CompileRequest:
		return programIdentity(KindCompile, r.Benchmark, r.Scale), nil
	case client.SimulateRequest:
		cfg, err := ConfigFromRequest(r)
		if err != nil {
			return "", err
		}
		return programIdentity(KindSimulate, r.Benchmark, r.Scale) + " " + machineIdentity(cfg), nil
	case client.SweepRequest:
		variants, err := sweepVariants(r)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s %q", programIdentity(KindSweep, r.Benchmark, r.Scale), r.Sweep)
		for _, v := range variants {
			fmt.Fprintf(&b, " %q %s", v.Label, machineIdentity(v.Config))
		}
		return b.String(), nil
	}
	return "", fmt.Errorf("no result identity for %T", req)
}

func programIdentity(kind, benchmark string, scale int) string {
	return fmt.Sprintf("%s %q scale=%d", kind, benchmark, ScaleOf(scale))
}

// machineIdentity renders every field of the canonical configuration by
// name, so a new Config knob reaches the identity without being listed.
func machineIdentity(cfg arch.Config) string {
	return fmt.Sprintf("%#v", cfg.Canonical())
}

// ValidateBenchmark rejects unknown benchmark names at admission time, so
// bad requests fail with 400 before consuming a queue slot.
func ValidateBenchmark(name string) error {
	if name == "" {
		return fmt.Errorf("missing benchmark name")
	}
	if _, ok := bench.ByName(name); !ok {
		return fmt.Errorf("unknown benchmark %q; have %v", name, bench.Names())
	}
	return nil
}

// ConfigFromRequest maps a simulate request's knobs onto the Table 1
// default machine configuration: a zero knob keeps the default, and any
// other value is set and left to arch.Config.Validate, the one admission
// rule. Invalid knob values are client errors.
func ConfigFromRequest(req client.SimulateRequest) (arch.Config, error) {
	cfg := arch.DefaultConfig()
	var errs [4]error
	cfg.Recovery, errs[0] = arch.ParseRecovery(req.Recovery)
	cfg.RegCheck, errs[1] = arch.ParseRegCheck(req.RegCheck)
	cfg.Sched, errs[2] = multispec.ParsePolicy(req.Sched)
	cfg.LiveIn, errs[3] = multispec.ParseLiveIn(req.LiveIn)
	if req.SRB != 0 {
		cfg.SRBSize = req.SRB
	}
	cfg.Cores = req.Cores
	cfg.SchedStride = req.Stride
	if err := errors.Join(errs[:]...); err != nil {
		return cfg, err
	}
	return cfg, cfg.Validate()
}

// sweepVariants resolves the request's sweep family. Points must be
// positive whatever the family; every variant built is then validated as
// a machine, so a sweep is admitted exactly when all its machines are.
func sweepVariants(req client.SweepRequest) ([]harness.Variant, error) {
	for _, n := range req.Points {
		if n <= 0 {
			return nil, fmt.Errorf("bad sweep point %d (want positive)", n)
		}
	}
	points := func(defaults ...int) []int {
		if len(req.Points) == 0 {
			return defaults
		}
		return req.Points
	}
	var vs []harness.Variant
	switch req.Sweep {
	case "recovery":
		vs = harness.RecoveryVariants()
	case "regcheck":
		vs = harness.RegCheckVariants()
	case "srb":
		vs = harness.SRBVariants(points(16, 64, 256, 1024))
	case "overhead":
		vs = harness.OverheadVariants(points(1, 4, 16))
	case "cores":
		vs = harness.CoresVariants(points(2, 4, 8))
	case "sched":
		vs = harness.SchedVariants(req.Cores, points(2, 4))
	case "livein":
		vs = harness.LiveInVariants(req.Cores)
	default:
		return nil, fmt.Errorf("bad sweep %q (want recovery | regcheck | srb | overhead | cores | sched | livein)", req.Sweep)
	}
	for _, v := range vs {
		if err := v.Config.Validate(); err != nil {
			return nil, fmt.Errorf("sweep variant %q: %w", v.Label, err)
		}
	}
	return vs, nil
}

// Summarize flattens run statistics onto the wire shape. The sptbench load
// generator uses it to build its locally-computed expectation, so a
// bit-identical comparison against daemon responses compares the underlying
// RunStats field by field.
func Summarize(rs *arch.RunStats) client.SimSummary {
	if rs == nil {
		return client.SimSummary{}
	}
	return client.SimSummary{
		Cycles:         rs.Cycles,
		Instrs:         rs.Instrs,
		Exec:           rs.Breakdown.Exec,
		PipeStall:      rs.Breakdown.PipeStall,
		DcacheStall:    rs.Breakdown.DcacheStall,
		Windows:        rs.Windows,
		FastCommits:    rs.FastCommits,
		Replays:        rs.Replays,
		Kills:          rs.Kills(),
		SpecInstrs:     rs.SpecInstrs,
		MisspecInstrs:  rs.MisspecInstrs,
		CommittedInstr: rs.CommittedInstr,
	}
}
