package harness

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/guard"
	"repro/internal/interp"
)

// TestStepLimitThroughRunBenchmark: a step budget on the machine
// configuration surfaces as interp.ErrStepLimit through the whole
// harness pipeline, not as a hang or a panic.
func TestStepLimitThroughRunBenchmark(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.StepLimit = 100
	_, err := RunBenchmarkCached("parser", 1, cfg, nil)
	if err == nil {
		t.Fatal("expected step-limit error")
	}
	if !errors.Is(err, interp.ErrStepLimit) {
		t.Fatalf("err = %v, want interp.ErrStepLimit", err)
	}
	if !guard.Exceeded(err) {
		t.Fatalf("Exceeded(%v) = false, want true", err)
	}
}

// TestSpeedupNilSafe: incomplete runs report a neutral speedup instead of
// dereferencing nil stats.
func TestSpeedupNilSafe(t *testing.T) {
	var nilRun *BenchRun
	for name, r := range map[string]*BenchRun{
		"nil run":     nilRun,
		"empty":       {},
		"no baseline": {SPT: &arch.RunStats{Cycles: 10}},
		"no spt":      {Baseline: &arch.RunStats{Cycles: 10}},
		"zero cycles": {Baseline: &arch.RunStats{Cycles: 10}, SPT: &arch.RunStats{}},
	} {
		if sp := r.Speedup(); sp != 1 {
			t.Errorf("%s: Speedup() = %v, want 1", name, sp)
		}
	}
}

// TestRunAllGuardedOneFailure is the acceptance criterion for graceful
// degradation: force one benchmark onto an impossible budget and the other
// nine must still complete, with the failure recorded as a structured
// StageError rather than taking down the suite.
func TestRunAllGuardedOneFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	names := bench.Names()
	victim := names[0]
	opts := GuardOptions{
		Perturb: func(name string, cfg arch.Config) arch.Config {
			if name == victim {
				cfg.StepLimit = 100
			}
			return cfg
		},
	}
	rep := RunAllGuarded(context.Background(), 1, arch.DefaultConfig(), opts)
	if len(rep.Failures) != 1 {
		t.Fatalf("failures = %d, want 1: %v", len(rep.Failures), rep.Failures)
	}
	se := rep.Failures[0]
	if se.Benchmark != victim {
		t.Errorf("failed benchmark = %q, want %q", se.Benchmark, victim)
	}
	if se.Panicked {
		t.Errorf("budget exhaustion reported as panic:\n%s", se.Stack)
	}
	if !guard.Exceeded(se) {
		t.Errorf("failure not classified as budget exhaustion: %v", se)
	}
	if got := len(rep.Successes()); got != len(names)-1 {
		t.Fatalf("successes = %d, want %d", got, len(names)-1)
	}
	for i, run := range rep.Runs {
		if names[i] == victim {
			if run != nil {
				t.Errorf("victim has a run: %+v", run)
			}
			continue
		}
		if run == nil || run.Baseline == nil || run.SPT == nil {
			t.Errorf("%s: incomplete run despite healthy config", names[i])
		}
	}
}

// TestRetryAtReducedScale: a step budget that only the smaller workload
// fits within triggers the rerun-at-halved-scale policy, and the degraded
// run records the scale it actually completed at.
func TestRetryAtReducedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scale evaluation")
	}
	r1 := runBench(t, "mcf", 1)
	r2 := runBench(t, "mcf", 2)
	lo := r1.Baseline.Instrs
	if r1.SPT.Instrs > lo {
		lo = r1.SPT.Instrs
	}
	hi := r2.Baseline.Instrs
	if r2.SPT.Instrs < hi {
		hi = r2.SPT.Instrs
	}
	if hi <= lo+1 {
		t.Fatalf("no budget separates scale 1 (%d instrs) from scale 2 (%d)", lo, hi)
	}
	opts := GuardOptions{Budget: guard.Budget{Steps: (lo + hi) / 2, Retries: 1}}
	run, err := RunBenchmarkGuarded(context.Background(), "mcf", 2, arch.DefaultConfig(), opts)
	if err != nil {
		t.Fatalf("guarded run failed despite retry budget: %v", err)
	}
	if run.RetriedScale != 1 {
		t.Errorf("RetriedScale = %d, want 1", run.RetriedScale)
	}
	// Without the retry allowance the same budget is a hard failure.
	opts.Budget.Retries = 0
	_, err = RunBenchmarkGuarded(context.Background(), "mcf", 2, arch.DefaultConfig(), opts)
	if err == nil || !guard.Exceeded(err) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
}

// TestStageDeadline: an unmeetable wall-clock budget aborts in the first
// stage with a structured, budget-classified error — no hang.
func TestStageDeadline(t *testing.T) {
	opts := GuardOptions{Budget: guard.Budget{Timeout: time.Nanosecond}}
	_, err := RunBenchmarkGuarded(context.Background(), "parser", 1, arch.DefaultConfig(), opts)
	if err == nil {
		t.Fatal("expected deadline error")
	}
	var se *guard.StageError
	if !errors.As(err, &se) {
		t.Fatalf("unstructured error: %v", err)
	}
	if !guard.Exceeded(err) {
		t.Fatalf("deadline not classified as budget exhaustion: %v", err)
	}
}

// TestRunAllPartialResults: a failing suite still reports a full-length
// run slice, with every failure recorded as a budget exhaustion.
func TestRunAllPartialResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	cfg := arch.DefaultConfig()
	cfg.StepLimit = 100 // every benchmark exceeds this
	rep := RunAllGuarded(context.Background(), 1, cfg, GuardOptions{})
	if len(rep.Failures) != len(bench.Names()) {
		t.Fatalf("failures = %d, want every benchmark", len(rep.Failures))
	}
	for _, se := range rep.Failures {
		if !guard.Exceeded(se) {
			t.Fatalf("err = %v, want budget exhaustion", se)
		}
	}
	if len(rep.Runs) != len(bench.Names()) {
		t.Fatalf("runs = %d, want full-length slice", len(rep.Runs))
	}
}
