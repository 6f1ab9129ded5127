package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/artifact"
)

// sweepVariants is a mixed ablation: recovery kinds, SRB sizes and fork
// overheads. Several variants resolve to the same machine configuration
// (SRB=1024 and RFcopy=1 are the defaults), which is exactly what the
// artifact cache is supposed to exploit.
func sweepVariants() []Variant {
	vs := RecoveryVariants()
	vs = append(vs, SRBVariants([]int{16, 1024})...)
	vs = append(vs, OverheadVariants([]int{1, 4})...)
	return vs
}

// TestSweepDeterminism is the PR's acceptance gate: a parallel, fully
// cached Sweep must be indistinguishable — row ordering, speedups, and the
// complete simulation statistics — from a sequential uncached evaluation.
func TestSweepDeterminism(t *testing.T) {
	const name, scale = "parser", 1
	variants := sweepVariants()

	// Sequential, uncached reference.
	var wantRows []AblationRow
	wantRuns := make([]*BenchRun, len(variants))
	for i, v := range variants {
		run, err := RunBenchmarkCached(name, scale, v.Config, nil)
		if err != nil {
			t.Fatalf("sequential %s: %v", v.Label, err)
		}
		wantRuns[i] = run
		wantRows = append(wantRows, AblationRow{Name: name, Variant: v.Label, Speedup: run.Speedup()})
	}

	// Parallel, cached sweep — twice, so both the cold (computing) and the
	// warm (fully cached) paths are exercised.
	cache := &artifact.Cache{}
	opts := GuardOptions{Artifacts: cache}
	for pass := 0; pass < 2; pass++ {
		got, err := Sweep(context.Background(), name, scale, variants, opts)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("pass %d rows diverge from sequential run:\ngot  %+v\nwant %+v", pass, got, wantRows)
		}
	}

	// The complete per-variant statistics — cycle counts, breakdowns,
	// per-loop attribution — must match the uncached pipeline, not just the
	// headline speedups.
	for i, v := range variants {
		run, err := RunBenchmarkCached(name, scale, v.Config, cache)
		if err != nil {
			t.Fatalf("cached %s: %v", v.Label, err)
		}
		if !reflect.DeepEqual(run.Baseline, wantRuns[i].Baseline) {
			t.Errorf("%s: cached baseline stats diverge", v.Label)
		}
		if !reflect.DeepEqual(run.SPT, wantRuns[i].SPT) {
			t.Errorf("%s: cached SPT stats diverge", v.Label)
		}
	}

	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache did not engage: %+v", st)
	}
	// Six variants share one program, one compile, one baseline; three of
	// them are the default configuration. The cache must have collapsed the
	// duplicates: at most program+compile+baseline+4 distinct SPT sims,
	// plus the one SPT program recording every SPT simulation replays
	// from. The baseline simulates live and keeps no recording.
	if st.Entries > 8 {
		t.Errorf("cache holds %d entries; duplicate work was not collapsed", st.Entries)
	}
	if st.RecordingMisses != 1 {
		t.Errorf("sweep interpreted %d traces; want exactly 1 (the SPT program)", st.RecordingMisses)
	}
	// The six same-step-limit variants form one batch, whose two stages each
	// feed their bank in a single pass: the baseline stage a live pass, the
	// SPT stage the pass that captures its recording (on the cold pass).
	// Only passes that feed two or more engines count as broadcasts: the
	// baseline pass feeds the one deduplicated baseline engine and does not
	// count; the SPT pass feeds the four distinct SPT engines. The warm pass
	// is answered entirely from the cache and broadcasts nothing.
	if got := st.BroadcastPasses; got != 1 {
		t.Errorf("broadcast passes = %d; want 1 (the SPT stage, cold pass only)", got)
	}
	if got := st.BatchedVariants; got != 4 {
		t.Errorf("batched variants = %d; want 4 (the distinct SPT engines)", got)
	}
}

// TestSweepPartialRows: a failing variant does not abort its batch
// siblings — the ok row keeps its speedup, the broken row carries its own
// error, and the sweep error joins the per-variant failures.
func TestSweepPartialRows(t *testing.T) {
	bad := arch.DefaultConfig()
	bad.SRBSize = 0 // fails Validate inside the simulator stage
	variants := []Variant{
		{Label: "ok", Config: arch.DefaultConfig()},
		{Label: "broken", Config: bad},
	}
	rows, err := Sweep(context.Background(), "mcf", 1, variants, GuardOptions{})
	if err == nil {
		t.Fatal("broken variant did not surface an error")
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v; want one row per variant", rows)
	}
	if rows[0].Variant != "ok" || rows[0].Err != nil || rows[0].Speedup <= 0 {
		t.Fatalf("ok row = %+v; want a surviving speedup with no error", rows[0])
	}
	if rows[1].Variant != "broken" || rows[1].Err == nil || rows[1].Speedup != 0 {
		t.Fatalf("broken row = %+v; want a zero-speedup row carrying the error", rows[1])
	}
	var zero []Variant
	if rows, err := Sweep(context.Background(), "mcf", 1, zero, GuardOptions{}); err != nil || len(rows) != 0 {
		t.Fatalf("empty sweep: rows=%v err=%v", rows, err)
	}
}

// TestSweepUnknownBenchmark: every variant fails; every row carries the
// compile error, and the sweep error is non-nil.
func TestSweepUnknownBenchmark(t *testing.T) {
	rows, err := Sweep(context.Background(), "nosuch", 1, RecoveryVariants(), GuardOptions{})
	if err == nil || len(rows) != 2 {
		t.Fatalf("rows=%v err=%v; want one errored row per variant and an error", rows, err)
	}
	for _, r := range rows {
		if r.Err == nil || r.Speedup != 0 {
			t.Fatalf("row %+v; want a zero-speedup row carrying the compile error", r)
		}
	}
}

// TestLoopCoverageCached: the cached curve matches the direct one and the
// second query is served from the cache.
func TestLoopCoverageCached(t *testing.T) {
	want, err := LoopCoverageCached("mcf", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := &artifact.Cache{}
	for pass := 0; pass < 2; pass++ {
		got, err := LoopCoverageCached("mcf", 1, cache)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: cached coverage diverges", pass)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("second coverage query missed the cache: %+v", st)
	}

	if _, err := LoopCoverageCached("nosuch", 1, cache); err == nil {
		t.Error("unknown benchmark accepted")
	}
	// The failed build must not poison the cache.
	if _, err := LoopCoverageCached("nosuch", 1, cache); err == nil {
		t.Error("unknown benchmark accepted on retry")
	}
}
