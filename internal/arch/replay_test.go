package arch

// Tests for the record-once/replay-many path: a recording replayed into an
// engine bank (RunRecordedMulti) must be bit-identical to the live
// interpret-and-simulate Run for every machine configuration, and corrupt
// recordings must fail with ErrCorruptTrace instead of panicking.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/trace"
)

// compileParallelLoop compiles the mostly-parallel loop with the SPT
// compiler and loads it; the trace mixes fast commits with selective
// re-execution replays, covering both commit paths.
func compileParallelLoop(tb testing.TB, n int64, depth int) *interp.Program {
	tb.Helper()
	res, err := compiler.Compile(buildMostlyParallelLoop(n, depth), compiler.DefaultOptions())
	if err != nil {
		tb.Fatalf("Compile: %v", err)
	}
	lp, err := interp.Load(res.Program)
	if err != nil {
		tb.Fatalf("Load: %v", err)
	}
	return lp
}

// replayVariants is the configuration matrix the determinism contract is
// checked against: every recovery/regcheck/SRB family member plus window
// and baseline corners.
func replayVariants() map[string]Config {
	vs := map[string]Config{}
	for _, rec := range []RecoveryKind{RecoverySRXFC, RecoverySquash} {
		cfg := DefaultConfig()
		cfg.Recovery = rec
		vs[fmt.Sprintf("recovery=%d", rec)] = cfg
	}
	for _, rc := range []RegCheckKind{RegCheckValue, RegCheckUpdate} {
		cfg := DefaultConfig()
		cfg.RegCheck = rc
		vs[fmt.Sprintf("regcheck=%d", rc)] = cfg
	}
	for _, srb := range []int{4, 64, 1024} {
		cfg := DefaultConfig()
		cfg.SRBSize = srb
		vs[fmt.Sprintf("srb=%d", srb)] = cfg
	}
	base := DefaultConfig()
	base.SPT = false
	vs["baseline"] = base
	narrow := DefaultConfig()
	narrow.SRBSize = 32
	narrow.Window = 64
	vs["window=64"] = narrow
	return vs
}

// replayOne replays rec under one configuration: a bank of one.
func replayOne(lp *interp.Program, rec *trace.Recording, cfg Config) (*RunStats, error) {
	stats, errs := RunRecordedMulti(context.Background(), lp, rec, []Config{cfg})
	return stats[0], errs[0]
}

func TestRunRecordedMatchesRun(t *testing.T) {
	lp := compileParallelLoop(t, 400, 14)
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatalf("RecordTrace: %v", err)
	}
	if rec.Len() == 0 || rec.Len() != rec.Steps() {
		t.Fatalf("recording %d events / %d steps", rec.Len(), rec.Steps())
	}
	for name, cfg := range replayVariants() {
		t.Run(name, func(t *testing.T) {
			want, err := NewMachine(lp, cfg).Run()
			if err != nil {
				t.Fatalf("fused Run: %v", err)
			}
			got, err := replayOne(lp, rec, cfg)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed stats diverge from fused run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestRunRecordedCorrupt(t *testing.T) {
	lp := compileParallelLoop(t, 100, 6)
	t.Run("nil", func(t *testing.T) {
		if _, err := replayOne(lp, nil, DefaultConfig()); !errors.Is(err, ErrCorruptTrace) {
			t.Fatalf("err = %v; want ErrCorruptTrace", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		rec, err := RecordTrace(context.Background(), lp, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec.Truncate(rec.Len() / 2)
		if _, err := replayOne(lp, rec, DefaultConfig()); !errors.Is(err, ErrCorruptTrace) {
			t.Fatalf("err = %v; want ErrCorruptTrace", err)
		}
	})
	t.Run("unresolvable-coordinates", func(t *testing.T) {
		r := trace.NewRecorder(nil)
		r.Event(&trace.Event{Func: int32(lp.NumFuncs()) + 7, ID: 0})
		rec := r.Finalize(1)
		if _, err := replayOne(lp, rec, DefaultConfig()); !errors.Is(err, ErrCorruptTrace) {
			t.Fatalf("err = %v; want ErrCorruptTrace", err)
		}
	})
}

func TestRunRecordedStepLimit(t *testing.T) {
	lp := compileParallelLoop(t, 200, 8)
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.StepLimit = rec.Len() / 2
	fusedStats, fusedErr := NewMachine(lp, cfg).Run()
	replayStats, replayErr := replayOne(lp, rec, cfg)
	if !errors.Is(fusedErr, interp.ErrStepLimit) || !errors.Is(replayErr, interp.ErrStepLimit) {
		t.Fatalf("fused err = %v, replay err = %v; want interp.ErrStepLimit from both", fusedErr, replayErr)
	}
	if fusedStats != nil || replayStats != nil {
		t.Fatal("budget-exceeded runs must not return stats")
	}
	// Recording under the same limit fails the same way and caches nothing.
	if _, err := RecordTrace(context.Background(), lp, cfg.StepLimit); !errors.Is(err, interp.ErrStepLimit) {
		t.Fatalf("RecordTrace err = %v; want interp.ErrStepLimit", err)
	}
}

func TestRunRecordedCycleLimit(t *testing.T) {
	lp := compileParallelLoop(t, 200, 8)
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CycleLimit = 50
	_, fusedErr := NewMachine(lp, cfg).Run()
	_, replayErr := replayOne(lp, rec, cfg)
	if !errors.Is(fusedErr, ErrCycleLimit) || !errors.Is(replayErr, ErrCycleLimit) {
		t.Fatalf("fused err = %v, replay err = %v; want ErrCycleLimit from both", fusedErr, replayErr)
	}
}

// multiVariants is a small mixed bank for RunRecordedMulti tests: a
// baseline core plus SPT variants that disagree on recovery and SRB size.
func multiVariants() []Config {
	base := DefaultConfig()
	base.SPT = false
	squash := DefaultConfig()
	squash.Recovery = RecoverySquash
	srb16 := DefaultConfig()
	srb16.SRBSize = 16
	return []Config{base, DefaultConfig(), squash, srb16}
}

// TestRunRecordedMultiMatchesSingle locks in the broadcast contract at the
// engine level: every variant of a RunRecordedMulti bank returns exactly the
// stats of its own live run.
func TestRunRecordedMultiMatchesSingle(t *testing.T) {
	lp := compileParallelLoop(t, 300, 10)
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := multiVariants()
	stats, errs := RunRecordedMulti(context.Background(), lp, rec, cfgs)
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("variant %d: %v", i, errs[i])
		}
		want, err := NewMachine(lp, cfg).Run()
		if err != nil {
			t.Fatalf("live run %d: %v", i, err)
		}
		if !reflect.DeepEqual(stats[i], want) {
			t.Fatalf("variant %d diverges from its own live run:\n got %+v\nwant %+v", i, stats[i], want)
		}
	}
}

// TestRunRecordedMultiBudgetIsolation starves one variant's cycle budget:
// it must fail with ErrCycleLimit while every sibling stays bit-identical
// to its live run.
func TestRunRecordedMultiBudgetIsolation(t *testing.T) {
	lp := compileParallelLoop(t, 300, 10)
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := multiVariants()
	starvedAt := 2
	cfgs[starvedAt].CycleLimit = 50
	stats, errs := RunRecordedMulti(context.Background(), lp, rec, cfgs)
	if !errors.Is(errs[starvedAt], ErrCycleLimit) {
		t.Fatalf("starved variant err = %v; want ErrCycleLimit", errs[starvedAt])
	}
	if stats[starvedAt] != nil {
		t.Fatal("starved variant must not return stats")
	}
	for i, cfg := range cfgs {
		if i == starvedAt {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("sibling %d: %v", i, errs[i])
		}
		want, err := NewMachine(lp, cfg).Run()
		if err != nil {
			t.Fatalf("live run %d: %v", i, err)
		}
		if !reflect.DeepEqual(stats[i], want) {
			t.Fatalf("sibling %d perturbed by the starved variant", i)
		}
	}
}

// TestRunRecordedMultiStepLimit gives one variant a private step limit: it
// alone reports interp.ErrStepLimit, exactly like its live run, and the
// unlimited siblings still see the full trace.
func TestRunRecordedMultiStepLimit(t *testing.T) {
	lp := compileParallelLoop(t, 200, 8)
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := multiVariants()
	limitedAt := 1
	cfgs[limitedAt].StepLimit = rec.Len() / 2
	stats, errs := RunRecordedMulti(context.Background(), lp, rec, cfgs)
	if !errors.Is(errs[limitedAt], interp.ErrStepLimit) {
		t.Fatalf("limited variant err = %v; want interp.ErrStepLimit", errs[limitedAt])
	}
	if stats[limitedAt] != nil {
		t.Fatal("step-limited variant must not return stats")
	}
	for i, cfg := range cfgs {
		if i == limitedAt {
			continue
		}
		if errs[i] != nil {
			t.Fatalf("sibling %d: %v", i, errs[i])
		}
		want, err := NewMachine(lp, cfg).Run()
		if err != nil {
			t.Fatalf("live run %d: %v", i, err)
		}
		if !reflect.DeepEqual(stats[i], want) {
			t.Fatalf("sibling %d perturbed by the step-limited variant", i)
		}
	}
}

// TestRunRecordedMultiCorrupt feeds torn input through the broadcast path:
// a truncated recording and a doctored event must surface ErrCorruptTrace on
// every variant — never a panic — and an invalid config fails only its slot.
func TestRunRecordedMultiCorrupt(t *testing.T) {
	lp := compileParallelLoop(t, 100, 6)
	cfgs := multiVariants()
	t.Run("truncated", func(t *testing.T) {
		rec, err := RecordTrace(context.Background(), lp, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec.Truncate(rec.Len() / 2)
		stats, errs := RunRecordedMulti(context.Background(), lp, rec, cfgs)
		for i := range cfgs {
			if !errors.Is(errs[i], ErrCorruptTrace) {
				t.Fatalf("variant %d err = %v; want ErrCorruptTrace", i, errs[i])
			}
			if stats[i] != nil {
				t.Fatalf("variant %d returned stats from a torn recording", i)
			}
		}
	})
	t.Run("doctored-event", func(t *testing.T) {
		// Re-record the trace but smuggle in one event whose coordinates do
		// not resolve; every engine must reject it mid-pass.
		im := interp.New(lp)
		r := trace.NewRecorder(nil)
		n := int64(0)
		im.SetHandler(trace.HandlerFunc(func(ev *trace.Event) {
			n++
			if n == 500 {
				cp := *ev
				cp.ID = 1 << 24
				r.Event(&cp)
				return
			}
			r.Event(ev)
		}))
		res, err := im.Run()
		if err != nil {
			t.Fatal(err)
		}
		rec := r.Finalize(res.Steps)
		stats, errs := RunRecordedMulti(context.Background(), lp, rec, cfgs)
		for i := range cfgs {
			if !errors.Is(errs[i], ErrCorruptTrace) {
				t.Fatalf("variant %d err = %v; want ErrCorruptTrace", i, errs[i])
			}
			if stats[i] != nil {
				t.Fatalf("variant %d returned stats from a doctored trace", i)
			}
		}
	})
	t.Run("invalid-config-slot", func(t *testing.T) {
		rec, err := RecordTrace(context.Background(), lp, 0)
		if err != nil {
			t.Fatal(err)
		}
		bank := multiVariants()
		bank[0].Window = -3
		stats, errs := RunRecordedMulti(context.Background(), lp, rec, bank)
		if errs[0] == nil || stats[0] != nil {
			t.Fatalf("invalid config: stats=%v errs=%v; want a validation error", stats[0], errs[0])
		}
		for i := 1; i < len(bank); i++ {
			if errs[i] != nil {
				t.Fatalf("sibling %d failed alongside the invalid config: %v", i, errs[i])
			}
			want, err := NewMachine(lp, bank[i]).Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stats[i], want) {
				t.Fatalf("sibling %d perturbed by the invalid config", i)
			}
		}
	})
	t.Run("empty-bank", func(t *testing.T) {
		rec, err := RecordTrace(context.Background(), lp, 0)
		if err != nil {
			t.Fatal(err)
		}
		stats, errs := RunRecordedMulti(context.Background(), lp, rec, nil)
		if len(stats) != 0 || len(errs) != 0 {
			t.Fatalf("empty bank returned %d stats, %d errs", len(stats), len(errs))
		}
	})
}
