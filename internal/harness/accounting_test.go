package harness

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/artifact"
)

// TestCacheAccounting pins the artifact traffic of the two pipelines the
// daemon serves. Operators (and the repo benchmark's validity guards) read
// these counts as cache-miss metrics, so a refactor of the pipeline must
// leave them exactly as they are.
func TestCacheAccounting(t *testing.T) {
	const name, scale = "parser", 1
	cache := &artifact.Cache{}
	opts := GuardOptions{Artifacts: cache, RecordTraces: true}

	// Cold simulate: the optimized program, its compilation, one recording
	// per simulated program (baseline and SPT code) and one simulation each.
	if _, err := RunBenchmarkGuarded(context.Background(), name, scale, arch.DefaultConfig(), opts); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Misses != 6 || st.RecordingMisses != 2 {
		t.Fatalf("cold simulate: hits=%d misses=%d recording misses=%d; want 0, 6 (program, compile, 2 recordings, 2 simulations), 2",
			st.Hits, st.Misses, st.RecordingMisses)
	}

	// A fresh k-point sweep on the warmed program: every new SPT
	// configuration is one simulation miss; the program, its compilation,
	// the baseline and the recordings are all served from the cache.
	variants := SRBVariants([]int{16, 64, 256})
	if _, err := Sweep(context.Background(), name, scale, variants, GuardOptions{Artifacts: cache}); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if d := after.Misses - st.Misses; d != int64(len(variants)) {
		t.Errorf("sweep: %d misses; want %d (one simulation per fresh variant)", d, len(variants))
	}
	if d := after.RecordingMisses - st.RecordingMisses; d != 0 {
		t.Errorf("sweep: %d recording misses; want 0 (the recordings are warm)", d)
	}
}
