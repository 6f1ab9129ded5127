package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/arch"
)

func runBench(t *testing.T, name string, scale int) *BenchRun {
	t.Helper()
	r, err := RunBenchmarkCached(name, scale, arch.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("RunBenchmarkCached(%s, nil): %v", name, err)
	}
	return r
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1(arch.DefaultConfig())
	want := map[string]string{
		"L1 caches":                      "separate I/D, 16KB, 4-way, 64B-block, 1-cycle latency",
		"L2 cache":                       "256KB, 8-way, 64B-block, 5-cycle latency",
		"L3 cache":                       "3MB, 12-way, 128B-block, 12-cycle latency",
		"Memory latency":                 "150 cycles",
		"Replay fetch width":             "12",
		"Replay issue width":             "12",
		"Branch predictor":               "GAg with 1024 entries",
		"Mispredicted branch penalty":    "5 cycles",
		"RF copy overhead":               "1 cycle minimum",
		"Fast commit overhead":           "5 cycles minimum",
		"Speculation result buffer size": "1024 entries",
		"Register dependence checking":   "value-based",
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r[0]] = r[1]
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Table1[%s] = %q, want %q", k, got[k], v)
		}
	}
	if !strings.Contains(got["Misspeculation recovery"], "SRX+FC") {
		t.Errorf("recovery = %q", got["Misspeculation recovery"])
	}
}

func TestFig6CoverageShapes(t *testing.T) {
	// Parser: substantial loop coverage, monotone accumulation, below 100%.
	pts, err := LoopCoverageCached("parser", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := 0.0
	for _, p := range pts {
		if p.Coverage < last-1e-9 {
			t.Errorf("coverage not monotone at size %v: %v < %v", p.BodySize, p.Coverage, last)
		}
		last = p.Coverage
	}
	if last < 0.5 || last > 0.99 {
		t.Errorf("parser total loop coverage = %v, want 0.5..0.99", last)
	}
	// Vortex: almost no loop coverage (the paper's standout).
	vpts, err := LoopCoverageCached("vortex", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := vpts[len(vpts)-1].Coverage; v > 0.3 {
		t.Errorf("vortex loop coverage = %v, want < 0.3", v)
	}
	// Gap: visible jump once the huge-body loop qualifies (Figure 6's
	// signature), i.e. coverage at 3000 much larger than at 1000.
	gpts, err := LoopCoverageCached("gap", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var at1000, at3000 float64
	for _, p := range gpts {
		if p.BodySize == 1000 {
			at1000 = p.Coverage
		}
		if p.BodySize == 3000 {
			at3000 = p.Coverage
		}
	}
	if at3000-at1000 < 0.3 {
		t.Errorf("gap coverage jump = %v -> %v, want a >0.3 jump at the huge loop", at1000, at3000)
	}
}

func TestFig7Shapes(t *testing.T) {
	pr := runBench(t, "parser", 1)
	row := Fig7(pr)
	if row.NumSPTLoops < 3 {
		t.Errorf("parser SPT loops = %d, want >= 3", row.NumSPTLoops)
	}
	if row.SPTCoverage <= 0.2 || row.SPTCoverage > row.MaxCoverage+1e-9 {
		t.Errorf("parser SPT coverage = %v (max %v)", row.SPTCoverage, row.MaxCoverage)
	}
	vo := runBench(t, "vortex", 1)
	vrow := Fig7(vo)
	if vrow.NumSPTLoops != 0 || vrow.SPTCoverage != 0 {
		t.Errorf("vortex Fig7 = %+v, want no SPT loops", vrow)
	}
	if bench := Fig7(runBench(t, "gap", 1)); bench.SizeCap != 2500 {
		t.Errorf("gap size cap = %v, want 2500", bench.SizeCap)
	}
}

func TestFig8Shapes(t *testing.T) {
	pr := runBench(t, "parser", 1)
	row := Fig8(pr)
	if row.LoopsMeasured == 0 {
		t.Fatal("no loops measured")
	}
	if row.LoopSpeedup < 1.2 || row.LoopSpeedup > 2.05 {
		t.Errorf("parser loop speedup = %v, want 1.2..2.05", row.LoopSpeedup)
	}
	if row.FastCommitRatio < 0.3 || row.FastCommitRatio > 0.99 {
		t.Errorf("parser fast-commit ratio = %v", row.FastCommitRatio)
	}
	if row.MisspecRatio <= 0 || row.MisspecRatio > 0.15 {
		t.Errorf("parser misspec ratio = %v, want small but nonzero", row.MisspecRatio)
	}
}

func TestFig9Shapes(t *testing.T) {
	pr := runBench(t, "parser", 1)
	row := Fig9(pr)
	if row.Speedup < 1.1 || row.Speedup > 1.6 {
		t.Errorf("parser program speedup = %v", row.Speedup)
	}
	sum := row.ExecPart + row.PipePart + row.DcachePart
	if diff := sum - (row.Speedup - 1); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("breakdown parts sum %v != gain %v", sum, row.Speedup-1)
	}
	vo := Fig9(runBench(t, "vortex", 1))
	if vo.Speedup < 0.97 || vo.Speedup > 1.03 {
		t.Errorf("vortex speedup = %v, want ~1.0", vo.Speedup)
	}
}

func TestAverage(t *testing.T) {
	rows := []Fig9Row{
		{Speedup: 1.2, ExecPart: 0.1, PipePart: 0.05, DcachePart: 0.05},
		{Speedup: 1.0},
	}
	avg := Average(rows)
	if avg.Speedup != 1.1 || avg.ExecPart != 0.05 {
		t.Errorf("Average = %+v", avg)
	}
	if empty := Average(nil); empty.Speedup != 0 {
		t.Errorf("Average(nil) = %+v", empty)
	}
}

func TestFig1ParserHeadline(t *testing.T) {
	st, err := Fig1ParserCached(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: the loop speeds up by more than 40%, only ~20% of windows are
	// perfectly parallel, and ~5% of speculative instructions are invalid.
	// Our shape: >25% loop speedup, minority fast-commit, small misspec.
	if st.LoopSpeedup < 1.25 {
		t.Errorf("Fig1 loop speedup = %v, want > 1.25", st.LoopSpeedup)
	}
	if st.FastCommitRatio < 0.05 || st.FastCommitRatio > 0.6 {
		t.Errorf("Fig1 fast-commit ratio = %v, want a minority of windows", st.FastCommitRatio)
	}
	if st.MisspecRatio < 0.005 || st.MisspecRatio > 0.2 {
		t.Errorf("Fig1 misspec ratio = %v, want small but real", st.MisspecRatio)
	}
	if st.Windows == 0 {
		t.Error("no windows measured")
	}
}

func TestAblateRecovery(t *testing.T) {
	rows, err := Sweep(context.Background(), "parser", 1, RecoveryVariants(), GuardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	srx, squash := rows[0].Speedup, rows[1].Speedup
	if srx < squash-1e-9 {
		t.Errorf("SRX+FC (%v) worse than squash (%v)", srx, squash)
	}
}

func TestAblateRegCheck(t *testing.T) {
	rows, err := Sweep(context.Background(), "mcf", 1, RegCheckVariants(), GuardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	val, upd := rows[0].Speedup, rows[1].Speedup
	if val < upd-1e-9 {
		t.Errorf("value-based (%v) worse than update-based (%v)", val, upd)
	}
}

func TestAblateSRB(t *testing.T) {
	rows, err := Sweep(context.Background(), "parser", 1, SRBVariants([]int{16, 1024}), GuardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Speedup < rows[0].Speedup-1e-9 {
		t.Errorf("SRB 1024 (%v) worse than SRB 16 (%v)", rows[1].Speedup, rows[0].Speedup)
	}
}

func TestAblateCores(t *testing.T) {
	rows, err := Sweep(context.Background(), "parser", 1, CoresVariants([]int{2, 4, 8}), GuardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More cores must never lose to the classic 2-core machine: chained
	// spawning only adds overlap, the commit order is unchanged.
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup < rows[0].Speedup-1e-9 {
			t.Errorf("%s (%v) worse than %s (%v)", rows[i].Variant, rows[i].Speedup,
				rows[0].Variant, rows[0].Speedup)
		}
	}
}

func TestAblateSched(t *testing.T) {
	rows, err := Sweep(context.Background(), "parser", 1, SchedVariants(4, []int{2}), GuardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // inorder + stride=2 + eager
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Err != nil || r.Speedup <= 0 {
			t.Errorf("row %+v; want a positive speedup", r)
		}
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	rep := RunAllGuarded(context.Background(), 1, arch.DefaultConfig(), GuardOptions{})
	if len(rep.Failures) > 0 {
		t.Fatal(rep.Failures[0])
	}
	runs := rep.Runs
	if len(runs) != 10 {
		t.Fatalf("runs = %d", len(runs))
	}
	var rows []Fig9Row
	for _, r := range runs {
		rows = append(rows, Fig9(r))
	}
	avg := Average(rows)
	// The paper's headline: ~15.6% average speedup on two cores. Our
	// synthetic substrate lands in the same band.
	if avg.Speedup < 1.08 || avg.Speedup > 1.35 {
		t.Errorf("average speedup = %v, want the paper's band (1.08..1.35)", avg.Speedup)
	}
	// Execution-cycle reduction dominates, d-cache second, pipeline stalls
	// smallest — Figure 9's stacking.
	if !(avg.ExecPart > avg.DcachePart && avg.DcachePart > avg.PipePart) {
		t.Errorf("breakdown ordering wrong: %+v", avg)
	}
}

func TestRunBenchmarkErrors(t *testing.T) {
	if _, err := RunBenchmarkCached("perlbmk", 1, arch.DefaultConfig(), nil); err == nil {
		t.Error("excluded benchmark accepted")
	}
	if _, err := LoopCoverageCached("nosuch", 1, nil); err == nil {
		t.Error("unknown benchmark accepted by LoopCoverageCached")
	}
}

func TestScaleStability(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-2 evaluation")
	}
	// The headline shapes must hold at a larger workload scale: vortex flat,
	// parser and mcf clearly positive.
	for _, tc := range []struct {
		name     string
		min, max float64
	}{
		{"vortex", 0.97, 1.03},
		{"parser", 1.08, 1.45},
		{"mcf", 1.10, 1.55},
	} {
		run, err := RunBenchmarkCached(tc.name, 2, arch.DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sp := run.Speedup(); sp < tc.min || sp > tc.max {
			t.Errorf("%s at scale 2: speedup %.3f outside [%.2f, %.2f]", tc.name, sp, tc.min, tc.max)
		}
	}
}

func TestAblateOverheads(t *testing.T) {
	rows, err := Sweep(context.Background(), "parser", 1, OverheadVariants([]int{1, 16}), GuardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Heavier fork/commit overheads must not help.
	if rows[1].Speedup > rows[0].Speedup+1e-9 {
		t.Errorf("16x overheads (%v) beat 1x (%v)", rows[1].Speedup, rows[0].Speedup)
	}
}
