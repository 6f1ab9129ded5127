// Package harness drives the full evaluation of Section 5: it compiles the
// ten benchmarks with the cost-driven SPT compiler, runs the baseline
// (single-core) and SPT (two-core) simulations, and regenerates the data
// behind every table and figure of the paper — Table 1 (machine
// configuration), Figure 6 (loop coverage vs. body size), Figure 7 (SPT
// loop number and coverage), Figure 8 (SPT loop speedup / fast-commit /
// misspeculation ratios), Figure 9 (program speedup with its
// execution/pipeline-stall/d-cache-stall breakdown) plus the Figure 1
// parser-loop statistics and the recovery/checker/SRB ablations implied by
// Table 1's "default" annotations.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/guard"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/multispec"
	"repro/internal/opt"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// workSem is the process-wide work-slot semaphore: every leaf evaluation
// (one benchmark pipeline, one sweep variant) holds a slot while it runs,
// so arbitrarily nested fan-out (suite sweeps of ablation sweeps) never
// oversubscribes the machine. Only leaves acquire slots — coordinator
// goroutines stay out of the semaphore, which makes nested acquisition
// (and hence deadlock) impossible.
var workSem = make(chan struct{}, runtime.GOMAXPROCS(0))

// acquireWork claims a work slot and returns its release function.
func acquireWork() func() {
	workSem <- struct{}{}
	return func() { <-workSem }
}

// BenchRun is the complete evaluation of one benchmark.
type BenchRun struct {
	Name     string
	Compile  *compiler.Result
	Baseline *arch.RunStats
	SPT      *arch.RunStats

	// RetriedScale is non-zero when a budget-exceeded stage forced the
	// guarded harness to rerun the benchmark at this reduced scale.
	RetriedScale int
}

// Speedup returns baseline cycles / SPT cycles. Incomplete runs (a stage
// failed or was skipped) report 1 rather than dereferencing nil stats.
func (r *BenchRun) Speedup() float64 {
	if r == nil || r.Baseline == nil || r.SPT == nil || r.SPT.Cycles == 0 {
		return 1
	}
	return float64(r.Baseline.Cycles) / float64(r.SPT.Cycles)
}

// RunBenchmarkCached evaluates one benchmark at the given scale under the
// given machine configuration, through an artifact cache: the generated
// program, its compilation, the SPT program's trace recording and both
// simulations are memoized so sweeps revisiting the same point reuse them.
// A nil cache computes everything directly on the live interpreter feed.
func RunBenchmarkCached(name string, scale int, cfg arch.Config, cache *artifact.Cache) (*BenchRun, error) {
	return RunBenchmarkGuarded(context.Background(), name, scale, cfg, GuardOptions{Artifacts: cache, RecordTraces: true})
}

// CompileBenchmarkCached builds and SPT-compiles one benchmark through an
// artifact cache, without simulating it. The generated program and the
// compilation are memoized; ctx bounds the profiling runs inside the
// compiler. This is the compile half of RunBenchmarkCached, exposed for
// callers (the sptd service) that serve compilation as its own operation.
func CompileBenchmarkCached(ctx context.Context, name string, scale int, cache *artifact.Cache) (*compiler.Result, error) {
	orig, err := benchProgram(cache, name, scale)
	if err != nil {
		return nil, err
	}
	return compileBench(cache, name, orig, func(p *ir.Program, o compiler.Options) (*compiler.Result, error) {
		return compiler.CompileContext(ctx, p, o)
	})
}

// benchProgram returns the optimized program of a benchmark (the baseline
// code, as in the paper), memoized under (name, scale).
func benchProgram(cache *artifact.Cache, name string, scale int) (*ir.Program, error) {
	return cache.Program(name, scale, "opt", func() (*ir.Program, error) {
		b, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown benchmark %q", name)
		}
		return opt.Optimize(b.Build(scale)), nil
	})
}

// compileBench memoizes the SPT compilation of a benchmark program under
// its per-benchmark compiler options.
func compileBench(cache *artifact.Cache, name string, orig *ir.Program, run func(*ir.Program, compiler.Options) (*compiler.Result, error)) (*compiler.Result, error) {
	o := bench.CompilerOptions(name)
	return cache.CompileResult(orig, fmt.Sprintf("%+v", o), func() (*compiler.Result, error) {
		return run(orig, o)
	})
}

// simulate runs p under every configuration of cfgs on one engine bank,
// fed by a single pass over the program's trace. With a trace cache, the
// trace is leased from it (memoized under its fingerprint and step limit,
// which all cfgs share): on a miss the bank rides the capture's
// interpreter pass (arch.CaptureMulti), on a hit it reads the recording in
// place (arch.RunRecordedMulti). A nil traces runs a live pass whose trace
// is not kept (arch.RunMulti). All three are bit-identical. Engines fail
// individually (validation, cycle budget) without aborting their siblings.
// A failed capture this call ran reports the bank's per-engine errors; a
// failed capture this call joined fails every engine with its error.
func simulate(ctx context.Context, traces *artifact.Cache, p *ir.Program, cfgs []arch.Config) ([]*arch.RunStats, []error) {
	stats := make([]*arch.RunStats, len(cfgs))
	errs := make([]error, len(cfgs))
	fail := func(err error) ([]*arch.RunStats, []error) {
		for i := range errs {
			errs[i] = err
		}
		return stats, errs
	}
	lp, err := interp.Load(p)
	if err != nil {
		return fail(err)
	}
	if traces == nil {
		return arch.RunMulti(ctx, lp, cfgs)
	}
	limit := cfgs[0].StepLimit
	captured := false
	rec, err := traces.LeaseRecording(p, limit, func(src trace.ChunkSource) (*trace.Recording, error) {
		captured = true
		rec, st, es, err := arch.CaptureMulti(ctx, lp, cfgs, limit, src)
		stats, errs = st, es
		return rec, err
	})
	if captured {
		if rec != nil {
			rec.Release()
		}
		return stats, errs
	}
	if err != nil {
		return fail(err)
	}
	defer rec.Release()
	return arch.RunRecordedMulti(ctx, lp, rec, cfgs)
}

// GuardOptions configures the guarded evaluation pipeline.
type GuardOptions struct {
	// Budget bounds each stage (wall clock) and each simulation
	// (steps/cycles); Budget.Retries bounds the rerun-at-reduced-scale
	// policy for budget-exceeded benchmarks.
	Budget guard.Budget
	// Perturb, when non-nil, rewrites the machine configuration per
	// benchmark before the run — the hook fault suites use to force
	// degenerate hardware on selected benchmarks.
	Perturb func(name string, cfg arch.Config) arch.Config
	// Artifacts, when non-nil, memoizes generated programs, compilations
	// and simulations across the evaluation — sweeps that revisit the same
	// (program, configuration) point reuse the stored result instead of
	// recomputing it. Results are identical to an uncached run.
	Artifacts *artifact.Cache
	// RecordTraces keeps the SPT stage's traces: the pass that simulates
	// an SPT program's first batch also captures its architectural trace
	// into Artifacts, and later batches read the recording instead of
	// re-interpreting. Recordings are tens of MB per program, so this pays
	// off only when later batches revisit the program — Sweep always turns
	// it on, and so does the daemon, whose cache outlives the request;
	// one-shot evaluations (RunAllGuarded over distinct benchmarks) leave it
	// off, and their trace is dropped as the pass goes. Without Artifacts
	// nothing is kept either way. The baseline stage never keeps its trace:
	// every machine shares one baseline per (program, step limit), whose
	// simulation Artifacts memoizes, so a kept baseline trace would never
	// be read again.
	RecordTraces bool
}

// Report is the outcome of a guarded whole-suite evaluation: the runs that
// completed (indexed like bench.Names(); nil where a benchmark failed) and
// a structured record of every failure.
type Report struct {
	Runs     []*BenchRun
	Failures []*guard.StageError
}

// Successes returns the completed runs, in order, with failures elided.
func (r *Report) Successes() []*BenchRun {
	var out []*BenchRun
	for _, run := range r.Runs {
		if run != nil {
			out = append(out, run)
		}
	}
	return out
}

// RunBenchmarkGuarded evaluates one benchmark with panic isolation,
// per-stage wall-clock deadlines, and step/cycle budgets. Stage failures
// come back as *guard.StageError. A budget-exceeded run is retried at
// halved scale up to Budget.Retries times — degraded results beat no
// results for a sweep — and a retried run records its RetriedScale.
func RunBenchmarkGuarded(ctx context.Context, name string, scale int, cfg arch.Config, opts GuardOptions) (*BenchRun, error) {
	runs, errs := evaluate(ctx, name, scale, []arch.Config{opts.normalize(name, cfg)}, opts)
	return runs[0], errs[0]
}

// normalize applies the Perturb hook, then the budget, to a configuration.
func (o GuardOptions) normalize(name string, cfg arch.Config) arch.Config {
	if o.Perturb != nil {
		cfg = o.Perturb(name, cfg)
	}
	return o.Budget.Apply(cfg)
}

// evaluate is the one evaluation pipeline: it evaluates one benchmark under
// a batch of normalized configurations that share a step limit (a single
// run is a batch of one). The results are indexed like cfgs. Failures stay
// per configuration, and a budget-exceeded one is retried alone at halved
// scale, up to Budget.Retries times.
func evaluate(ctx context.Context, name string, scale int, cfgs []arch.Config, opts GuardOptions) ([]*BenchRun, []error) {
	runs, errs := evaluateOnce(ctx, name, scale, cfgs, opts)
	for i := range cfgs {
		sc := scale
		for r := 0; guard.Exceeded(errs[i]) && r < opts.Budget.Retries && sc > 1; r++ {
			sc /= 2
			rs, es := evaluateOnce(ctx, name, sc, cfgs[i:i+1], opts)
			runs[i], errs[i] = rs[0], es[0]
			if errs[i] == nil {
				runs[i].RetriedScale = sc
			}
		}
	}
	return runs, errs
}

// evaluateOnce is one guarded pass over the compile / baseline / SPT
// pipeline. The compile stage runs once for the whole batch. Each
// simulation stage makes one batched cache transaction
// (artifact.Cache.SimulateBatch) whose misses one simulate call computes,
// so configurations that canonicalize alike (every baseline) simulate once.
// Only the SPT stage leases recordings (see GuardOptions.RecordTraces); the
// baseline stage always runs a live pass. A configuration whose baseline
// fails skips the SPT stage. Each stage gets its own deadline derived from
// the budget.
func evaluateOnce(ctx context.Context, name string, scale int, cfgs []arch.Config, opts GuardOptions) ([]*BenchRun, []error) {
	budget := opts.Budget
	cache := opts.Artifacts
	runs := make([]*BenchRun, len(cfgs))
	errs := make([]error, len(cfgs))
	var (
		orig *ir.Program
		cres *compiler.Result
	)
	err := guard.Run(name, guard.StageCompile, func() error {
		var berr error
		orig, berr = benchProgram(cache, name, scale)
		if berr != nil {
			return berr
		}
		sctx, cancel := budget.Context(ctx)
		defer cancel()
		var cerr error
		cres, cerr = compileBench(cache, name, orig, func(p *ir.Program, o compiler.Options) (*compiler.Result, error) {
			return compiler.CompileContext(sctx, p, o)
		})
		return cerr
	})
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return runs, errs
	}

	// simulateStage simulates p under cfgOf(cfgs[i]) for every member i of
	// live, on traces leased from traces (nil: a live pass), storing the
	// stats in out[i], and returns the members that succeeded; the others
	// get their errors, attributed to the stage.
	simulateStage := func(stage string, p *ir.Program, traces *artifact.Cache, live []int, cfgOf func(arch.Config) arch.Config, out []*arch.RunStats) []int {
		scfgs := make([]arch.Config, len(live))
		for j, i := range live {
			scfgs[j] = cfgOf(cfgs[i])
		}
		var stats []*arch.RunStats
		var serrs []error
		err := guard.Run(name, stage, func() error {
			stats, serrs = cache.SimulateBatch(p, scfgs, func(miss []int) ([]*arch.RunStats, []error) {
				sctx, cancel := budget.Context(ctx)
				defer cancel()
				mcfgs := make([]arch.Config, len(miss))
				for j, m := range miss {
					mcfgs[j] = scfgs[m]
				}
				return simulate(sctx, traces, p, mcfgs)
			})
			return nil
		})
		var ok []int
		for j, i := range live {
			switch {
			case err != nil:
				errs[i] = err
			case serrs[j] != nil:
				// guard.Run wraps the error as this stage's failure.
				errs[i] = guard.Run(name, stage, func() error { return serrs[j] })
			default:
				out[i] = stats[j]
				ok = append(ok, i)
			}
		}
		return ok
	}
	live := make([]int, len(cfgs))
	for i := range live {
		live[i] = i
	}
	base := make([]*arch.RunStats, len(cfgs))
	spt := make([]*arch.RunStats, len(cfgs))
	var traces *artifact.Cache
	if opts.RecordTraces {
		traces = cache
	}
	live = simulateStage(guard.StageBaseline, orig, nil, live, arch.Config.Baseline, base)
	live = simulateStage(guard.StageSimulate, cres.Program, traces, live, func(c arch.Config) arch.Config { return c }, spt)
	for _, i := range live {
		runs[i] = &BenchRun{Name: name, Compile: cres, Baseline: base[i], SPT: spt[i]}
	}
	return runs, errs
}

// RunAllGuarded evaluates every benchmark concurrently under the guarded
// pipeline. One benchmark's failure — including a panic in its compile or
// simulate stage — never takes down the suite: it becomes a structured
// entry in Report.Failures while the other benchmarks complete normally.
func RunAllGuarded(ctx context.Context, scale int, cfg arch.Config, opts GuardOptions) *Report {
	names := bench.Names()
	rep := &Report{Runs: make([]*BenchRun, len(names))}
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			release := acquireWork()
			defer release()
			rep.Runs[i], errs[i] = RunBenchmarkGuarded(ctx, name, scale, cfg, opts)
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		var se *guard.StageError
		if !errors.As(err, &se) {
			se = &guard.StageError{Benchmark: names[i], Stage: "run", Err: err}
		}
		rep.Failures = append(rep.Failures, se)
	}
	return rep
}

// ---- Figure 6: accumulative loop coverage vs. loop body size ----

// CoveragePoint is one point of a Figure 6 curve.
type CoveragePoint struct {
	BodySize float64 // average dynamic body size (instructions)
	Coverage float64 // accumulative fraction of program cycles
}

// Fig6SizeLimits is the x-axis of Figure 6 (log-scale body-size limits).
var Fig6SizeLimits = []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 100000, 1000000}

// LoopCoverageCached profiles one benchmark and returns its accumulative
// coverage curve: for each size limit, the fraction of total cycles spent
// in loops whose average body size is within the limit. Cycles are counted
// once, at the outermost qualifying loop, so nests do not double count.
// The raw (unoptimized) program and its profile are memoized in cache (nil
// computes directly), so repeated coverage queries — and anything else
// profiling the same program — share the work.
func LoopCoverageCached(name string, scale int, cache *artifact.Cache) ([]CoveragePoint, error) {
	// Figure 6 profiles the raw build: coverage is a property of the
	// program as written, before the optimizer reshapes its loops.
	p, err := cache.Program(name, scale, "raw", func() (*ir.Program, error) {
		b, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown benchmark %q", name)
		}
		return b.Build(scale), nil
	})
	if err != nil {
		return nil, err
	}
	prof, err := cache.Profile(p, "steps=0", func() (*profiler.Profile, error) {
		lp, err := interp.Load(p)
		if err != nil {
			return nil, err
		}
		return profiler.Collect(lp, 0)
	})
	if err != nil {
		return nil, err
	}
	return coverageCurve(prof, Fig6SizeLimits), nil
}

func coverageCurve(prof *profiler.Profile, limits []float64) []CoveragePoint {
	var pts []CoveragePoint
	for _, lim := range limits {
		pts = append(pts, CoveragePoint{BodySize: lim, Coverage: coverageAt(prof, lim)})
	}
	return pts
}

// coverageAt returns the fraction of total cycles inside loops with body
// size <= lim, counting each loop's inclusive cycles only when no enclosing
// loop also qualifies.
func coverageAt(prof *profiler.Profile, lim float64) float64 {
	if prof.TotalCycles == 0 {
		return 0
	}
	qualifies := func(lp *profiler.LoopProfile) bool {
		return lp != nil && lp.Iterations > 0 && lp.BodySize() <= lim
	}
	var covered int64
	for _, lp := range prof.Loops {
		if !qualifies(lp) {
			continue
		}
		// Skip if any qualifying ancestor exists (the ancestor counts it).
		anc := lp.Parent
		skip := false
		for anc != nil {
			pl := prof.Loops[*anc]
			if qualifies(pl) {
				skip = true
				break
			}
			if pl == nil {
				break
			}
			anc = pl.Parent
		}
		if !skip {
			covered += lp.InclCycles
		}
	}
	frac := float64(covered) / float64(prof.TotalCycles)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// ---- Figure 7: SPT loop number and coverage ----

// Fig7Row is one benchmark's bar in Figure 7.
type Fig7Row struct {
	Name        string
	SizeCap     float64 // 1000, or 2500 for gap
	MaxCoverage float64 // coverage of all loops within the cap
	SPTCoverage float64 // coverage of the selected SPT loops
	NumSPTLoops int
}

// Fig7 computes the SPT loop selection summary for one benchmark from a
// finished run.
func Fig7(run *BenchRun) Fig7Row {
	cap := bench.CompilerOptions(run.Name).MaxBodySize
	row := Fig7Row{Name: run.Name, SizeCap: cap}
	row.MaxCoverage = coverageAt(run.Compile.Profile, cap)
	for _, l := range run.Compile.SelectedLoops() {
		row.NumSPTLoops++
		row.SPTCoverage += l.Coverage
	}
	if row.SPTCoverage > row.MaxCoverage {
		row.SPTCoverage = row.MaxCoverage // nested-attribution guard
	}
	return row
}

// ---- Figure 8: SPT loop performance ----

// Fig8Row is one benchmark's loop-level results.
type Fig8Row struct {
	Name            string
	LoopSpeedup     float64 // cycle-weighted average over selected loops
	FastCommitRatio float64
	MisspecRatio    float64
	LoopsMeasured   int
}

// Fig8 computes loop-level speedup and speculation quality for a run.
func Fig8(run *BenchRun) Fig8Row {
	row := Fig8Row{Name: run.Name}
	var baseCycles, sptCycles int64
	var windows, fast, spec, misspec int64
	for _, l := range run.Compile.SelectedLoops() {
		key := profiler.LoopKey{Func: l.Key.Func, Header: arch.NormalizeHeader(l.Key.Header)}
		bl := run.Baseline.PerLoop[key]
		sl := run.SPT.PerLoop[key]
		if bl == nil || sl == nil || bl.Cycles == 0 || sl.Cycles == 0 {
			continue
		}
		row.LoopsMeasured++
		baseCycles += bl.Cycles
		sptCycles += sl.Cycles
		windows += sl.Windows
		fast += sl.FastCommits
		spec += sl.SpecInstrs
		misspec += sl.MisspecInstrs
	}
	if sptCycles > 0 {
		row.LoopSpeedup = float64(baseCycles) / float64(sptCycles)
	} else {
		row.LoopSpeedup = 1
	}
	if windows > 0 {
		row.FastCommitRatio = float64(fast) / float64(windows)
	}
	if spec > 0 {
		row.MisspecRatio = float64(misspec) / float64(spec)
	}
	return row
}

// ---- Figure 9: program speedup with breakdown ----

// Fig9Row is one benchmark's overall result.
type Fig9Row struct {
	Name    string
	Speedup float64
	// The speedup percentage decomposed by where the cycles went away
	// (execution / pipeline stalls / d-cache stalls), as in the stacked
	// bars of Figure 9. Parts sum to Speedup-1.
	ExecPart, PipePart, DcachePart float64
}

// Fig9 computes the program-level summary of a run.
func Fig9(run *BenchRun) Fig9Row {
	row := Fig9Row{Name: run.Name, Speedup: run.Speedup()}
	gain := row.Speedup - 1
	if gain <= 0 {
		return row
	}
	db := run.Baseline.Breakdown
	ds := run.SPT.Breakdown
	dExec := float64(db.Exec - ds.Exec)
	dPipe := float64(db.PipeStall - ds.PipeStall)
	dDc := float64(db.DcacheStall - ds.DcacheStall)
	for _, d := range []*float64{&dExec, &dPipe, &dDc} {
		if *d < 0 {
			*d = 0
		}
	}
	tot := dExec + dPipe + dDc
	if tot <= 0 {
		row.ExecPart = gain
		return row
	}
	row.ExecPart = gain * dExec / tot
	row.PipePart = gain * dPipe / tot
	row.DcachePart = gain * dDc / tot
	return row
}

// Average returns the arithmetic-mean Fig9 row across benchmarks (the
// paper's "Average" bar).
func Average(rows []Fig9Row) Fig9Row {
	out := Fig9Row{Name: "Average"}
	if len(rows) == 0 {
		return out
	}
	for _, r := range rows {
		out.Speedup += r.Speedup
		out.ExecPart += r.ExecPart
		out.PipePart += r.PipePart
		out.DcachePart += r.DcachePart
	}
	n := float64(len(rows))
	out.Speedup /= n
	out.ExecPart /= n
	out.PipePart /= n
	out.DcachePart /= n
	return out
}

// ---- Figure 1: the parser list-free loop ----

// Fig1Stats reports the headline statistics of the parser free-list loop.
type Fig1Stats struct {
	LoopSpeedup     float64
	FastCommitRatio float64
	MisspecRatio    float64
	Windows         int64
}

// Fig1ParserCached measures the Figure 1 loop on the default machine. The
// underlying parser run goes through cache (nil computes directly), so it
// is shared with any suite evaluation at the same scale and configuration.
func Fig1ParserCached(scale int, cache *artifact.Cache) (Fig1Stats, error) {
	run, err := RunBenchmarkCached("parser", scale, arch.DefaultConfig(), cache)
	if err != nil {
		return Fig1Stats{}, err
	}
	key := profiler.LoopKey{Func: "freelist", Header: "head"}
	bl := run.Baseline.PerLoop[key]
	sl := run.SPT.PerLoop[key]
	if bl == nil || sl == nil {
		return Fig1Stats{}, fmt.Errorf("harness: parser free loop not measured")
	}
	st := Fig1Stats{Windows: sl.Windows}
	if sl.Cycles > 0 {
		st.LoopSpeedup = float64(bl.Cycles) / float64(sl.Cycles)
	}
	st.FastCommitRatio = sl.FastCommitRatio()
	st.MisspecRatio = sl.MisspecRatio()
	return st, nil
}

// ---- Table 1 ----

// Table1 renders the default machine configuration as (parameter, value)
// rows, mirroring the paper's Table 1.
func Table1(cfg arch.Config) [][2]string {
	c := cfg.Cache
	return [][2]string{
		{"Processor cores", "2 in-order cores (main + speculative)"},
		{"L1 caches", fmt.Sprintf("separate I/D, %dKB, %d-way, %dB-block, %d-cycle latency",
			c.L1I.SizeBytes>>10, c.L1I.Ways, c.L1I.BlockBytes, c.L1I.Latency)},
		{"L2 cache", fmt.Sprintf("%dKB, %d-way, %dB-block, %d-cycle latency",
			c.L2.SizeBytes>>10, c.L2.Ways, c.L2.BlockBytes, c.L2.Latency)},
		{"L3 cache", fmt.Sprintf("%dMB, %d-way, %dB-block, %d-cycle latency",
			c.L3.SizeBytes>>20, c.L3.Ways, c.L3.BlockBytes, c.L3.Latency)},
		{"Memory latency", fmt.Sprintf("%d cycles", c.MemLatency)},
		{"Normal / re-execution fetch width", fmt.Sprintf("%d", cfg.FetchWidth)},
		{"Normal / re-execution issue width", fmt.Sprintf("%d", cfg.IssueWidth)},
		{"Replay fetch width", fmt.Sprintf("%d", cfg.ReplayFetchWidth)},
		{"Replay issue width", fmt.Sprintf("%d", cfg.ReplayIssueWidth)},
		{"Branch predictor", fmt.Sprintf("GAg with %d entries", cfg.BPredEntries)},
		{"Mispredicted branch penalty", fmt.Sprintf("%d cycles", cfg.BranchPenalty)},
		{"RF copy overhead", fmt.Sprintf("%d cycle minimum", cfg.RFCopyCycles)},
		{"Fast commit overhead", fmt.Sprintf("%d cycles minimum", cfg.FastCommitCycles)},
		{"Speculation result buffer size", fmt.Sprintf("%d entries", cfg.SRBSize)},
		{"Misspeculation recovery", cfg.Recovery.Describe()},
		{"Register dependence checking", cfg.RegCheck.Describe()},
	}
}

// ---- Ablations / configuration sweeps ----

// AblationRow compares configurations on one benchmark. A variant that
// failed still gets a row: Err records why and Speedup is zero — consumers
// that only want numbers skip rows with Err set.
type AblationRow struct {
	Name    string
	Variant string
	Speedup float64
	Err     error
}

// Variant is one configuration point of a sweep.
type Variant struct {
	Label  string
	Config arch.Config
}

// Sweep evaluates every variant of one benchmark under the guarded
// pipeline. Variants sharing a (program, step-limit) recording are grouped
// into one batch: the batch holds a single work-slot, each simulation
// stage makes one trace pass that feeds one engine per variant, and the
// SPT stage's pass reads (or captures) the one recording (see simulate).
// Rows come back in variant order, and with opts.Artifacts set the numbers
// are identical to a sequential uncached run (the shared compile, baseline
// and repeated-configuration simulations are memoized, not approximated;
// every pass is bit-identical to a live run — see TestSweepDeterminism and
// TestReplayDeterminismAcrossVariants).
//
// Sweep degrades gracefully: a failed variant does not abort its batch
// siblings; its row carries the error (AblationRow.Err) with Speedup zero,
// and the joined per-variant errors are returned alongside the rows.
func Sweep(ctx context.Context, name string, scale int, variants []Variant, opts GuardOptions) ([]AblationRow, error) {
	// A sweep's variants share one program, so a kept trace serves every
	// later batch; one-shot callers drop it (see GuardOptions.RecordTraces).
	opts.RecordTraces = true
	if opts.Artifacts == nil && len(variants) > 1 {
		// Even a caller that asked for no cross-call memoization profits
		// from sharing within the sweep: the benchmark is generated,
		// compiled and interpreted once, and every variant reads the
		// captured trace (results stay bit-identical — see
		// TestSweepDeterminism). The cache is private to this call, so its
		// recordings are released once the last variant joins.
		priv := artifact.NewBounded(0)
		opts.Artifacts = priv
		defer priv.ReleaseRecordings()
	}
	// Normalize every variant's configuration up front, exactly as
	// RunBenchmarkGuarded would, so variants can be grouped by the step
	// limit that keys their shared recording.
	groups := map[int64][]int{}
	var limits []int64 // deterministic batch launch order
	effective := make([]arch.Config, len(variants))
	for i, v := range variants {
		effective[i] = opts.normalize(name, v.Config)
		sl := effective[i].StepLimit
		if _, ok := groups[sl]; !ok {
			limits = append(limits, sl)
		}
		groups[sl] = append(groups[sl], i)
	}
	runs := make([]*BenchRun, len(variants))
	errs := make([]error, len(variants))
	var wg sync.WaitGroup
	for _, sl := range limits {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			// The whole batch is one leaf evaluation: one slot, however
			// many engines ride the shared trace pass.
			release := acquireWork()
			defer release()
			cfgs := make([]arch.Config, len(idxs))
			for j, i := range idxs {
				cfgs[j] = effective[i]
			}
			rs, es := evaluate(ctx, name, scale, cfgs, opts)
			for j, i := range idxs {
				runs[i], errs[i] = rs[j], es[j]
			}
		}(groups[sl])
	}
	wg.Wait()
	rows := make([]AblationRow, len(variants))
	for i, run := range runs {
		rows[i] = AblationRow{Name: name, Variant: variants[i].Label, Err: errs[i]}
		if errs[i] == nil {
			rows[i].Speedup = run.Speedup()
		}
	}
	return rows, errors.Join(errs...)
}

// RecoveryVariants compares SRX+FC against full squash.
func RecoveryVariants() []Variant {
	var vs []Variant
	for _, rec := range []arch.RecoveryKind{arch.RecoverySRXFC, arch.RecoverySquash} {
		cfg := arch.DefaultConfig()
		cfg.Recovery = rec
		vs = append(vs, Variant{Label: rec.Describe(), Config: cfg})
	}
	return vs
}

// RegCheckVariants compares value-based against update-based checking.
func RegCheckVariants() []Variant {
	var vs []Variant
	for _, rc := range []arch.RegCheckKind{arch.RegCheckValue, arch.RegCheckUpdate} {
		cfg := arch.DefaultConfig()
		cfg.RegCheck = rc
		vs = append(vs, Variant{Label: rc.Describe(), Config: cfg})
	}
	return vs
}

// OverheadVariants sweeps the fork (RF copy) and fast-commit overheads —
// the paper's Section 6 calls understanding "the implications of various
// architectural parameters" out as future work; this is the first of those
// sweeps.
func OverheadVariants(cycles []int) []Variant {
	var vs []Variant
	for _, n := range cycles {
		cfg := arch.DefaultConfig()
		cfg.RFCopyCycles = n
		cfg.FastCommitCycles = n * 5
		vs = append(vs, Variant{
			Label:  fmt.Sprintf("RFcopy=%d fastcommit=%d", n, n*5),
			Config: cfg,
		})
	}
	return vs
}

// SRBVariants sweeps the speculation-result-buffer size.
func SRBVariants(sizes []int) []Variant {
	var vs []Variant
	for _, n := range sizes {
		cfg := arch.DefaultConfig()
		cfg.SRBSize = n
		vs = append(vs, Variant{Label: fmt.Sprintf("SRB=%d", n), Config: cfg})
	}
	return vs
}

// CoresVariants sweeps the CMP core count: 2 is the paper's classic
// machine, larger counts enable chained speculation where a committing
// window spawns its successor on the next free core.
func CoresVariants(cores []int) []Variant {
	var vs []Variant
	for _, n := range cores {
		cfg := arch.DefaultConfig()
		cfg.Cores = n
		vs = append(vs, Variant{Label: fmt.Sprintf("cores=%d", n), Config: cfg})
	}
	return vs
}

// SchedVariants compares the spec-thread scheduling policies at a fixed
// core count: in-order next-iteration spawning, stride-K lookahead for each
// requested stride, and eager restart on violation.
func SchedVariants(cores int, strides []int) []Variant {
	if cores == 0 {
		cores = 4
	}
	mk := func(label string, mut func(*arch.Config)) Variant {
		cfg := arch.DefaultConfig()
		cfg.Cores = cores
		mut(&cfg)
		return Variant{Label: label, Config: cfg}
	}
	vs := []Variant{
		mk(fmt.Sprintf("cores=%d %s", cores, multispec.SchedInOrder), func(*arch.Config) {}),
	}
	for _, k := range strides {
		vs = append(vs, mk(fmt.Sprintf("cores=%d stride=%d", cores, k), func(c *arch.Config) {
			c.Sched = multispec.SchedStride
			c.SchedStride = k
		}))
	}
	vs = append(vs, mk(fmt.Sprintf("cores=%d %s", cores, multispec.SchedEager), func(c *arch.Config) {
		c.Sched = multispec.SchedEager
	}))
	return vs
}

// LiveInVariants compares fork-time register snapshots (SVP) against
// DDG backward-slice pre-computation at spawn.
func LiveInVariants(cores int) []Variant {
	if cores == 0 {
		cores = 4
	}
	var vs []Variant
	for _, m := range []multispec.LiveInMode{multispec.LiveInSVP, multispec.LiveInSlice} {
		cfg := arch.DefaultConfig()
		cfg.Cores = cores
		cfg.LiveIn = m
		vs = append(vs, Variant{Label: fmt.Sprintf("cores=%d livein=%s", cores, m), Config: cfg})
	}
	return vs
}
