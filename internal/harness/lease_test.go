package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/interp"
	"repro/internal/ir"
)

// TestLeasedRecordingsUnderEviction is the recycling stress test (run it
// under -race): goroutines rotate programs through a cache whose byte
// bound holds about one recording, so captures keep evicting recordings
// that other goroutines are replaying under leases, and recycled chunks
// keep flowing into new captures. Every result must equal an uncached
// run's.
func TestLeasedRecordingsUnderEviction(t *testing.T) {
	names := []string{"gap", "parser", "vortex", "crafty"}
	banks := [][]arch.Config{
		{arch.DefaultConfig(), baselineOf(arch.DefaultConfig())},
		{srb(16), cores(4)},
	}
	progs := make([]*ir.Program, len(names))
	want := make([][][]*arch.RunStats, len(names))
	var biggest int64
	for i, name := range names {
		cres, err := CompileBenchmarkCached(context.Background(), name, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = cres.Program
		for _, cfgs := range banks {
			st, errs := simulate(context.Background(), GuardOptions{}, progs[i], cfgs)
			for _, err := range errs {
				if err != nil {
					t.Fatalf("%s uncached: %v", name, err)
				}
			}
			want[i] = append(want[i], st)
		}
		lp, err := interp.Load(progs[i])
		if err != nil {
			t.Fatal(err)
		}
		rec, err := arch.RecordTrace(context.Background(), lp, 0)
		if err != nil {
			t.Fatal(err)
		}
		biggest = max(biggest, rec.Bytes())
	}

	cache := artifact.NewBoundedBytes(0, biggest+biggest/4)
	opts := GuardOptions{Artifacts: cache, RecordTraces: true}
	const workers, rounds = 3, 3
	var wg sync.WaitGroup
	errc := make(chan error, workers*rounds*len(names)*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range names {
					i := (k + w) % len(names)
					b := (r + w) % len(banks)
					got, errs := simulate(context.Background(), opts, progs[i], banks[b])
					for j := range got {
						if errs[j] != nil {
							errc <- fmt.Errorf("%s bank %d: %w", names[i], b, errs[j])
						} else if !reflect.DeepEqual(got[j], want[i][b][j]) {
							errc <- fmt.Errorf("%s bank %d variant %d: stats diverge from the uncached run", names[i], b, j)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := cache.Stats()
	if st.Evictions == 0 || st.ChunksReused == 0 {
		t.Errorf("rotation evicted %d recordings and reused %d chunks; the test exercises no recycling", st.Evictions, st.ChunksReused)
	}
	if st.CaptureBytes != 0 {
		t.Errorf("%d capture bytes still charged after every capture finished", st.CaptureBytes)
	}
}

func srb(n int) arch.Config {
	c := arch.DefaultConfig()
	c.SRBSize = n
	return c
}

func cores(n int) arch.Config {
	c := arch.DefaultConfig()
	c.Cores = n
	return c
}

// TestFailedCaptureKeepsPerConfigErrors: a capture that fails on its step
// limit still reports each engine's own error, exactly as a pass whose
// trace is not kept does: the invalid machine its validation error, the
// valid one the step limit.
func TestFailedCaptureKeepsPerConfigErrors(t *testing.T) {
	p, err := benchProgram(nil, "parser", 1)
	if err != nil {
		t.Fatal(err)
	}
	bad, good := arch.DefaultConfig(), arch.DefaultConfig()
	bad.SRBSize = 0
	bad.StepLimit, good.StepLimit = 2000, 2000
	cfgs := []arch.Config{bad, good}
	ctx := context.Background()
	_, want := simulate(ctx, GuardOptions{}, p, cfgs)
	if want[0] == nil || want[1] == nil || want[0].Error() == want[1].Error() {
		t.Fatalf("live pass errors %v / %v; want a validation error and a step-limit error", want[0], want[1])
	}
	if !errors.Is(want[1], interp.ErrStepLimit) {
		t.Fatalf("valid machine failed with %v; want the step limit", want[1])
	}
	_, got := simulate(ctx, GuardOptions{Artifacts: &artifact.Cache{}, RecordTraces: true}, p, cfgs)
	for i := range cfgs {
		if got[i] == nil || got[i].Error() != want[i].Error() {
			t.Errorf("config %d: capturing pass reports %v; want %v", i, got[i], want[i])
		}
	}
}
