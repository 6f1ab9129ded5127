package harness

import (
	"context"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/multispec"
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

// TestSpeculationConservation checks two conservation laws of the timing
// model over every benchmark on six machines, and that the cache's outcome
// tallies are the sums of the runs it computed:
//
//   - every window ends exactly once: it fast-commits, replays or is
//     squashed, except that a wrong-path window both replays and counts
//     as squashed;
//   - a two-core machine has no successor threads, so nothing dies by
//     cascade or eager restart.
func TestSpeculationConservation(t *testing.T) {
	mk := func(mut func(*arch.Config)) arch.Config {
		c := arch.DefaultConfig()
		mut(&c)
		return c
	}
	machines := []arch.Config{
		mk(func(*arch.Config) {}),
		mk(func(c *arch.Config) { c.Recovery = arch.RecoverySquash }),
		mk(func(c *arch.Config) { c.Cores = 4 }),
		mk(func(c *arch.Config) { c.Cores, c.Sched = 8, multispec.SchedEager }),
		mk(func(c *arch.Config) { c.Cores, c.Sched, c.SchedStride = 8, multispec.SchedStride, 3 }),
		mk(func(c *arch.Config) { c.SRBSize = 64 }),
	}
	cache := &artifact.Cache{}
	opts := GuardOptions{Artifacts: cache, RecordTraces: true}
	names := bench.Names()
	runs := make([][]*BenchRun, len(names))
	errs := make([][]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer acquireWork()()
			runs[i], errs[i] = evaluate(context.Background(), name, 1, machines, opts)
		}()
	}
	wg.Wait()

	var sum artifact.Work
	for i, name := range names {
		for j, cfg := range machines {
			if errs[i][j] != nil {
				t.Fatalf("%s on %+v: %v", name, cfg, errs[i][j])
			}
			rs := runs[i][j].SPT
			if ended := rs.FastCommits + rs.Replays + rs.Kills() - rs.Squashes[arch.SquashWrongPath]; ended != rs.Windows {
				t.Errorf("%s machine %d: %d windows, but %d fast commits + %d replays + %d kills - %d wrong-path = %d",
					name, j, rs.Windows, rs.FastCommits, rs.Replays, rs.Kills(), rs.Squashes[arch.SquashWrongPath], ended)
			}
			if chain := rs.Squashes[arch.SquashCascade] + rs.Squashes[arch.SquashEager]; cfg.EffCores() == 2 && chain != 0 {
				t.Errorf("%s machine %d: %d chain squashes on two cores", name, j, chain)
			}
			if b := runs[i][j].Baseline; b.Windows != 0 || b.Kills() != 0 {
				t.Errorf("%s machine %d: the baseline speculated (%d windows, %d kills)", name, j, b.Windows, b.Kills())
			}
			sum.FastCommits += rs.FastCommits
			sum.Replays += rs.Replays
			for k, n := range rs.Squashes {
				sum.Squashes[k] += n
			}
		}
	}
	// Each SPT machine is a distinct simulation, computed once.
	st := cache.Stats()
	if st.FastCommits != sum.FastCommits || st.Replays != sum.Replays || st.Squashes != sum.Squashes {
		t.Errorf("cache tallied %d/%d/%v fast commits/replays/squashes; the runs sum to %d/%d/%v",
			st.FastCommits, st.Replays, st.Squashes, sum.FastCommits, sum.Replays, sum.Squashes)
	}
}
