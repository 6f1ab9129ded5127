package repro

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (Section 5), plus raw substrate benchmarks. The
// figure benchmarks report the regenerated headline numbers through
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the paper's
// rows alongside Go-level performance data. EXPERIMENTS.md records the
// paper-vs-measured comparison in prose.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/spt"
)

const benchScale = 1

var (
	runAllOnce sync.Once
	runAllRes  []*harness.BenchRun
	runAllErr  error
)

// evalAll runs the full 10-benchmark evaluation once and caches it across
// the figure benchmarks.
func evalAll(b *testing.B) []*harness.BenchRun {
	b.Helper()
	runAllOnce.Do(func() {
		rep := harness.RunAllGuarded(context.Background(), benchScale, arch.DefaultConfig(), harness.GuardOptions{})
		runAllRes = rep.Runs
		if len(rep.Failures) > 0 {
			runAllErr = rep.Failures[0]
		}
	})
	if runAllErr != nil {
		b.Fatal(runAllErr)
	}
	return runAllRes
}

// BenchmarkTable1Config regenerates Table 1 (the machine configuration).
func BenchmarkTable1Config(b *testing.B) {
	b.ReportAllocs()
	var rows [][2]string
	for i := 0; i < b.N; i++ {
		rows = harness.Table1(arch.DefaultConfig())
	}
	b.ReportMetric(float64(len(rows)), "config_rows")
}

// BenchmarkFig1ParserLoop regenerates the Figure 1 statistics: the parser
// list-free loop's speedup (paper: >40%), fast-commit ratio (paper: ~20%)
// and misspeculated-instruction ratio (paper: ~5%).
func BenchmarkFig1ParserLoop(b *testing.B) {
	b.ReportAllocs()
	var st harness.Fig1Stats
	for i := 0; i < b.N; i++ {
		var err error
		st, err = harness.Fig1ParserCached(benchScale, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(st.LoopSpeedup-1), "loop_speedup_%")
	b.ReportMetric(100*st.FastCommitRatio, "fast_commit_%")
	b.ReportMetric(100*st.MisspecRatio, "misspec_%")
}

// BenchmarkFig6LoopCoverage regenerates Figure 6's accumulative
// loop-coverage curves and reports the total coverage extremes the paper
// highlights (most benchmarks >60%; vortex near zero).
func BenchmarkFig6LoopCoverage(b *testing.B) {
	b.ReportAllocs()
	var parserTotal, vortexTotal float64
	for i := 0; i < b.N; i++ {
		for _, name := range bench.Names() {
			pts, err := harness.LoopCoverageCached(name, benchScale, nil)
			if err != nil {
				b.Fatal(err)
			}
			total := pts[len(pts)-1].Coverage
			switch name {
			case "parser":
				parserTotal = total
			case "vortex":
				vortexTotal = total
			}
		}
	}
	b.ReportMetric(100*parserTotal, "parser_loop_cov_%")
	b.ReportMetric(100*vortexTotal, "vortex_loop_cov_%")
}

// BenchmarkFig7SPTLoops regenerates Figure 7: SPT loop counts and coverage
// (paper: on average only ~32 SPT loops covering ~53% of execution).
func BenchmarkFig7SPTLoops(b *testing.B) {
	b.ReportAllocs()
	var loops float64
	var sptCov float64
	for i := 0; i < b.N; i++ {
		runs := evalAll(b)
		loops, sptCov = 0, 0
		for _, r := range runs {
			row := harness.Fig7(r)
			loops += float64(row.NumSPTLoops)
			sptCov += row.SPTCoverage
		}
		loops /= float64(len(runs))
		sptCov /= float64(len(runs))
	}
	b.ReportMetric(loops, "avg_spt_loops")
	b.ReportMetric(100*sptCov, "avg_spt_cov_%")
}

// BenchmarkFig8LoopPerf regenerates Figure 8: average SPT loop speedup
// (paper: ~35%), fast-commit ratio (paper: ~64%) and misspeculation ratio
// (paper: ~1.2%).
func BenchmarkFig8LoopPerf(b *testing.B) {
	b.ReportAllocs()
	var spd, fc, ms, n float64
	for i := 0; i < b.N; i++ {
		spd, fc, ms, n = 0, 0, 0, 0
		for _, r := range evalAll(b) {
			row := harness.Fig8(r)
			if row.LoopsMeasured == 0 {
				continue
			}
			spd += row.LoopSpeedup
			fc += row.FastCommitRatio
			ms += row.MisspecRatio
			n++
		}
	}
	b.ReportMetric(100*(spd/n-1), "avg_loop_speedup_%")
	b.ReportMetric(100*fc/n, "avg_fast_commit_%")
	b.ReportMetric(100*ms/n, "avg_misspec_%")
}

// BenchmarkFig9ProgramSpeedup regenerates Figure 9: the overall program
// speedup (paper: 15.6% average) and its execution/pipeline-stall/d-cache
// breakdown (paper: 8.4% / 1.7% / 5.5%).
func BenchmarkFig9ProgramSpeedup(b *testing.B) {
	b.ReportAllocs()
	var avg harness.Fig9Row
	for i := 0; i < b.N; i++ {
		var rows []harness.Fig9Row
		for _, r := range evalAll(b) {
			rows = append(rows, harness.Fig9(r))
		}
		avg = harness.Average(rows)
	}
	b.ReportMetric(100*(avg.Speedup-1), "avg_speedup_%")
	b.ReportMetric(100*avg.ExecPart, "exec_part_%")
	b.ReportMetric(100*avg.PipePart, "pipe_part_%")
	b.ReportMetric(100*avg.DcachePart, "dcache_part_%")
}

// BenchmarkFig9PerBenchmark reports each benchmark's program speedup as a
// sub-benchmark (the individual bars of Figure 9).
func BenchmarkFig9PerBenchmark(b *testing.B) {
	b.ReportAllocs()
	for _, name := range bench.Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sp float64
			for i := 0; i < b.N; i++ {
				for _, r := range evalAll(b) {
					if r.Name == name {
						sp = r.Speedup()
					}
				}
			}
			b.ReportMetric(100*(sp-1), "speedup_%")
		})
	}
}

// BenchmarkAblationRecovery compares SRX+FC against conventional full
// squash (the Table 1 recovery default versus the alternative).
func BenchmarkAblationRecovery(b *testing.B) {
	b.ReportAllocs()
	var srx, squash float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Sweep(context.Background(), "parser", benchScale, harness.RecoveryVariants(), harness.GuardOptions{})
		if err != nil {
			b.Fatal(err)
		}
		srx, squash = rows[0].Speedup, rows[1].Speedup
	}
	b.ReportMetric(100*(srx-1), "srxfc_speedup_%")
	b.ReportMetric(100*(squash-1), "squash_speedup_%")
}

// BenchmarkAblationRegCheck compares value-based against update-based
// register dependence checking (Table 1 default: value-based).
func BenchmarkAblationRegCheck(b *testing.B) {
	b.ReportAllocs()
	var val, upd float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Sweep(context.Background(), "mcf", benchScale, harness.RegCheckVariants(), harness.GuardOptions{})
		if err != nil {
			b.Fatal(err)
		}
		val, upd = rows[0].Speedup, rows[1].Speedup
	}
	b.ReportMetric(100*(val-1), "value_based_speedup_%")
	b.ReportMetric(100*(upd-1), "update_based_speedup_%")
}

// BenchmarkAblationSRB sweeps the speculation result buffer size.
func BenchmarkAblationSRB(b *testing.B) {
	b.ReportAllocs()
	sizes := []int{16, 64, 256, 1024}
	var spd []float64
	for i := 0; i < b.N; i++ {
		rows, err := harness.Sweep(context.Background(), "parser", benchScale, harness.SRBVariants(sizes), harness.GuardOptions{})
		if err != nil {
			b.Fatal(err)
		}
		spd = spd[:0]
		for _, r := range rows {
			spd = append(spd, r.Speedup)
		}
	}
	b.ReportMetric(100*(spd[0]-1), "srb16_speedup_%")
	b.ReportMetric(100*(spd[len(spd)-1]-1), "srb1024_speedup_%")
}

// ---- substrate performance benchmarks ----

// BenchmarkInterpreter measures raw sequential interpretation throughput.
func BenchmarkInterpreter(b *testing.B) {
	b.ReportAllocs()
	prog := spt.Benchmark("gzip", benchScale)
	lp, err := interp.Load(prog)
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := interp.New(lp)
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.SetBytes(steps) // "bytes" = dynamic instructions per run
}

// BenchmarkSimulator measures the trace-driven SPT machine's throughput.
func BenchmarkSimulator(b *testing.B) {
	b.ReportAllocs()
	prog := spt.Benchmark("gzip", benchScale)
	cres, err := compiler.Compile(prog, bench.CompilerOptions("gzip"))
	if err != nil {
		b.Fatal(err)
	}
	lp, err := interp.Load(cres.Program)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arch.NewMachine(lp, arch.DefaultConfig()).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceRecord measures capturing an architectural trace into the
// columnar recording: one interpreter pass through a Recorder per
// iteration. "Bytes" is the resident size of the finished recording, so
// MB/s is encode throughput.
func BenchmarkTraceRecord(b *testing.B) {
	b.ReportAllocs()
	prog := spt.Benchmark("gzip", benchScale)
	lp, err := interp.Load(prog)
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := arch.RecordTrace(context.Background(), lp, 0)
		if err != nil {
			b.Fatal(err)
		}
		size = rec.Bytes()
		rec.Release()
	}
	b.SetBytes(size)
}

// BenchmarkTraceCapture measures interpreter-driven trace capture of the
// Figure 1 parser benchmark. "Bytes" is the finished recording's resident
// size, so MB/s is capture throughput.
func BenchmarkTraceCapture(b *testing.B) {
	b.ReportAllocs()
	prog := spt.Benchmark("parser", benchScale)
	lp, err := interp.Load(prog)
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := arch.RecordTrace(context.Background(), lp, 0)
		if err != nil {
			b.Fatal(err)
		}
		size = rec.Bytes()
		rec.Release()
	}
	b.SetBytes(size)
}

// BenchmarkTraceReplay measures fanning a captured recording back out:
// record once, then replay the full event stream into a handler per
// iteration. MB/s here is decode throughput — the per-config cost a
// sweep pays instead of re-interpreting.
func BenchmarkTraceReplay(b *testing.B) {
	b.ReportAllocs()
	prog := spt.Benchmark("gzip", benchScale)
	lp, err := interp.Load(prog)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := arch.RecordTrace(context.Background(), lp, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer rec.Release()
	var seen int64
	sink := trace.HandlerFunc(func(ev *trace.Event) { seen++ })
	b.SetBytes(rec.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen = 0
		if err := rec.Replay(context.Background(), sink); err != nil {
			b.Fatal(err)
		}
	}
	if seen != rec.Len() {
		b.Fatalf("replayed %d events; recording holds %d", seen, rec.Len())
	}
}

// BenchmarkSweepBroadcast measures the recorded pass a batched sweep
// rides on a hit: one captured recording drives N variant engines, which
// read it in place (arch.RunRecordedMulti). ns/op shows how the cost of a
// bank grows with its size; "bytes" is the recording size, so MB/s is
// aggregate throughput per pass.
func BenchmarkSweepBroadcast(b *testing.B) {
	prog := spt.Benchmark("parser", benchScale)
	cres, err := compiler.Compile(prog, bench.CompilerOptions("parser"))
	if err != nil {
		b.Fatal(err)
	}
	lp, err := interp.Load(cres.Program)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := arch.RecordTrace(context.Background(), lp, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer rec.Release()
	srbSizes := []int{16, 32, 64, 128, 256, 512, 1024, 2048}
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("variants=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			cfgs := make([]arch.Config, n)
			for i := range cfgs {
				cfgs[i] = arch.DefaultConfig()
				cfgs[i].SRBSize = srbSizes[i]
			}
			b.SetBytes(rec.Bytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, errs := arch.RunRecordedMulti(context.Background(), lp, rec, cfgs)
				for v := range cfgs {
					if errs[v] != nil {
						b.Fatal(errs[v])
					}
					if stats[v] == nil || stats[v].Cycles <= 0 {
						b.Fatalf("variant %d returned no cycles", v)
					}
				}
			}
		})
	}
}

// BenchmarkEngineMix measures the engine work of a sweep fan-out: for each
// of bzip2, crafty, gcc, gzip and parser, one 4-variant broadcast bank per
// sweep family — SRB sizes, fork/commit overheads, core counts 5-8, and the
// scheduling policies at 4 cores. Recording and compilation happen once,
// outside the timer, as they do for a warmed sweep; an op is all 20 banks.
// Against BenchmarkSweepBroadcast (parser, 2-core SRB variants only) it
// weights the multi-core chain and runSpec the way sweep traffic does.
func BenchmarkEngineMix(b *testing.B) {
	type bank struct {
		lp   *interp.Program
		rec  *trace.Recording
		cfgs []arch.Config
	}
	var families [][]harness.Variant
	families = append(families,
		harness.SRBVariants([]int{512, 1024, 1536, 2048}),
		harness.OverheadVariants([]int{2, 8, 16, 64}),
		harness.CoresVariants([]int{5, 6, 7, 8}),
		harness.SchedVariants(4, []int{2, 8}))
	var banks []bank
	for _, name := range []string{"bzip2", "crafty", "gcc", "gzip", "parser"} {
		cres, err := compiler.Compile(spt.Benchmark(name, benchScale), bench.CompilerOptions(name))
		if err != nil {
			b.Fatal(err)
		}
		lp, err := interp.Load(cres.Program)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := arch.RecordTrace(context.Background(), lp, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer rec.Release()
		for _, vs := range families {
			bk := bank{lp: lp, rec: rec}
			for _, v := range vs {
				bk.cfgs = append(bk.cfgs, v.Config)
			}
			banks = append(banks, bk)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bk := range banks {
			stats, errs := arch.RunRecordedMulti(context.Background(), bk.lp, bk.rec, bk.cfgs)
			for v := range bk.cfgs {
				if errs[v] != nil {
					b.Fatal(errs[v])
				}
				if stats[v].Cycles <= 0 {
					b.Fatalf("variant %d returned no cycles", v)
				}
			}
		}
	}
}

// BenchmarkMultiSpec measures the N-core CMP speculation engine: the same
// compiled benchmark simulated with 2, 4 and 8 speculation cores under the
// default in-order next-iteration scheduler. ns/op tracks how simulation
// cost grows as the in-flight chain deepens; the reported metrics show what
// the chain buys (cycles) and how hard it works (chain spawns per run).
func BenchmarkMultiSpec(b *testing.B) {
	prog := spt.Benchmark("parser", benchScale)
	cres, err := compiler.Compile(prog, bench.CompilerOptions("parser"))
	if err != nil {
		b.Fatal(err)
	}
	lp, err := interp.Load(cres.Program)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			cfg := arch.DefaultConfig()
			cfg.Cores = n
			var st *arch.RunStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err = arch.NewMachine(lp, cfg).Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Cycles), "cycles")
			b.ReportMetric(float64(st.ChainSpawns), "chain_spawns")
		})
	}
}

// BenchmarkCompiler measures the two-pass cost-driven compilation itself.
func BenchmarkCompiler(b *testing.B) {
	b.ReportAllocs()
	prog := spt.Benchmark("gcc", benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(prog, bench.CompilerOptions("gcc")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordingMiss measures the recording-miss path in process, as
// the daemon's recapture load drives it: each op rotates the ten scale-1
// programs through a trace cache bounded below their recordings, so every
// lookup misses and each program is captured and simulated once (a fresh
// SRB size per op keeps the simulation cache from answering). It reports
// GC cycles, trace misses, and recording chunks allocated and reused per
// op.
func BenchmarkRecordingMiss(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	cache := artifact.NewBoundedBytes(0, 16<<20)
	run := func(i int) {
		cfg := arch.DefaultConfig()
		cfg.SRBSize = 32 + i%4096
		for _, name := range bench.Names() {
			if _, err := harness.RunBenchmarkGuarded(ctx, name, benchScale, cfg, harness.GuardOptions{Artifacts: cache, RecordTraces: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
	run(-1) // build, compile and simulate the baselines once
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0, st0 := ms.NumGC, cache.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.NumGC-gc0)/float64(b.N), "gc/op")
	st1 := cache.Stats()
	b.ReportMetric(float64(st1.RecordingMisses-st0.RecordingMisses)/float64(b.N), "misses/op")
	b.ReportMetric(float64(st1.ChunksAllocated-st0.ChunksAllocated)/float64(b.N), "chunks_new/op")
	b.ReportMetric(float64(st1.ChunksReused-st0.ChunksReused)/float64(b.N), "chunks_reused/op")
}
