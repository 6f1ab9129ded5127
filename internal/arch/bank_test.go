package arch

// Tests for the bank driver: the delivery contract every engine relies on
// (per-engine step limits, shedding failed engines, cancellation, input
// checks before any event is delivered) on both the recorded and the live
// pass, and the capture a live pass can keep.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/interp"
)

// TestBankPerEngineLimits: each engine of a bank receives exactly the
// prefix its own step limit allows, so every variant matches its own live
// run — limits inside the first burst, across a burst edge, just short of
// the trace, at it, past it and unlimited — on a recorded and a live pass.
func TestBankPerEngineLimits(t *testing.T) {
	lp := compileParallelLoop(t, 120, 8)
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := rec.Len()
	var cfgs []Config
	for _, lim := range []int64{1, bankBlock, bankBlock + 1, n - 1, n, n + 100, 0} {
		cfg := DefaultConfig()
		cfg.StepLimit = lim
		cfgs = append(cfgs, cfg)
	}
	recStats, recErrs := RunRecordedMulti(context.Background(), lp, rec, cfgs)
	liveStats, liveErrs := RunMulti(context.Background(), lp, cfgs)
	for i, cfg := range cfgs {
		want, werr := NewMachine(lp, cfg).Run()
		for _, got := range []struct {
			pass  string
			stats *RunStats
			err   error
		}{{"recorded", recStats[i], recErrs[i]}, {"live", liveStats[i], liveErrs[i]}} {
			if cfg.StepLimit > 0 && cfg.StepLimit < n {
				if !errors.Is(got.err, interp.ErrStepLimit) || !errors.Is(werr, interp.ErrStepLimit) {
					t.Errorf("%s limit %d: err = %v (own run %v); want ErrStepLimit", got.pass, cfg.StepLimit, got.err, werr)
				}
				continue
			}
			if got.err != nil || werr != nil || !reflect.DeepEqual(got.stats, want) {
				t.Errorf("%s limit %d: bank result (%v) diverges from its own run (%v)", got.pass, cfg.StepLimit, got.err, werr)
			}
		}
	}
}

// TestBankShedsFailedEngines: an engine that fails stops reading the
// window at its failure while its sibling runs to the end, and a recorded
// pass whose engines have all failed ends early.
func TestBankShedsFailedEngines(t *testing.T) {
	lp := compileParallelLoop(t, 3000, 14)
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatal(err)
	}
	starved := DefaultConfig()
	starved.CycleLimit = 50
	b := newBank(lp, []Config{starved, DefaultConfig()}, rec, nil)
	stats, errs := b.replay(context.Background())
	if !errors.Is(errs[0], ErrCycleLimit) || errs[1] != nil || stats[1] == nil {
		t.Fatalf("errs = %v; want the starved engine alone to fail", errs)
	}
	if got := b.engines[0].end; got > int64(starved.Window)+bankBlock {
		t.Errorf("failed engine read %d events; want it shed within a burst of its failure", got)
	}
	if b.fed != rec.Len() {
		t.Errorf("pass delivered %d of %d events with a live sibling", b.fed, rec.Len())
	}

	all := newBank(lp, []Config{starved, starved}, rec, nil)
	all.replay(context.Background())
	if all.fed >= rec.Len() {
		t.Errorf("a pass with every engine failed delivered all %d events; want it to end early", all.fed)
	}
}

// TestBankReplayCancel: a cancelled context ends a recorded pass after
// the burst in flight, failing every engine with the context's error.
func TestBankReplayCancel(t *testing.T) {
	lp := compileParallelLoop(t, 200, 8)
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := newBank(lp, []Config{DefaultConfig(), BaselineConfig()}, rec, nil)
	_, errs := b.replay(ctx)
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "interrupted") {
			t.Errorf("engine %d: err = %v; want an interrupted replay", i, err)
		}
	}
	if b.fed != bankBlock {
		t.Errorf("cancelled pass delivered %d events; want one burst (%d)", b.fed, bankBlock)
	}
}

// TestBankChecksInputsFirst: inputs the bank cannot simulate are rejected
// before any event is delivered. An invalid configuration fails alone; a
// torn recording fails every valid configuration and builds no engine.
func TestBankChecksInputsFirst(t *testing.T) {
	lp := compileParallelLoop(t, 100, 6)
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.SRBSize = 0
	rec.Truncate(rec.Len() - 1)
	b := newBank(lp, []Config{DefaultConfig(), bad}, rec, errors.New("torn"))
	_, errs := b.replay(context.Background())
	if errs[0] == nil || errs[0].Error() != "torn" || errs[1] == nil || errs[1].Error() == "torn" {
		t.Fatalf("errs = %v; want the torn feed's error and the configuration's own", errs)
	}
	if len(b.engines) != 0 || b.fed != 0 {
		t.Fatalf("bank built %d engines and delivered %d events; want none", len(b.engines), b.fed)
	}
	if _, errs = RunRecordedMulti(context.Background(), lp, rec, []Config{DefaultConfig()}); !errors.Is(errs[0], ErrCorruptTrace) {
		t.Fatalf("torn recording: err = %v; want ErrCorruptTrace", errs[0])
	}
}

// TestBankNilAndEmpty: a nil recording is rejected like a torn one rather
// than dereferenced, and an empty bank replays nothing and returns no
// results.
func TestBankNilAndEmpty(t *testing.T) {
	lp := compileParallelLoop(t, 100, 6)
	if _, errs := RunRecordedMulti(context.Background(), lp, nil, []Config{DefaultConfig()}); !errors.Is(errs[0], ErrCorruptTrace) {
		t.Fatalf("nil recording: err = %v; want ErrCorruptTrace", errs[0])
	}
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats, errs := RunRecordedMulti(context.Background(), lp, rec, nil); len(stats) != 0 || len(errs) != 0 {
		t.Fatalf("empty bank returned %d results", len(stats)+len(errs))
	}
}

// TestCaptureMultiKeepsTrace: a capturing pass simulates like separate
// runs and keeps a recording that replays to the same results; the
// capture runs to the end even when every engine has failed, since the
// recording outlives them.
func TestCaptureMultiKeepsTrace(t *testing.T) {
	lp := compileParallelLoop(t, 300, 10)
	starved := DefaultConfig()
	starved.CycleLimit = 50
	cfgs := []Config{DefaultConfig(), BaselineConfig(), starved}
	rec, stats, errs, err := CaptureMulti(context.Background(), lp, cfgs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, againErrs := RunRecordedMulti(context.Background(), lp, rec, cfgs)
	for i, cfg := range cfgs {
		want, werr := NewMachine(lp, cfg).Run()
		if !reflect.DeepEqual(stats[i], want) || !reflect.DeepEqual(again[i], want) ||
			!sameErr(errs[i], werr) || !sameErr(againErrs[i], werr) {
			t.Errorf("variant %d: capture (%v) / replay (%v) diverge from its own run (%v)", i, errs[i], againErrs[i], werr)
		}
	}
	solo, _, _, err := CaptureMulti(context.Background(), lp, []Config{starved}, 0, nil)
	if err != nil || solo.Len() != rec.Len() || !solo.Complete() {
		t.Fatalf("capture with a failed bank: %d of %d events (err %v); want the whole trace", solo.Len(), rec.Len(), err)
	}
	if _, _, _, err := CaptureMulti(context.Background(), lp, cfgs, 10, nil); !errors.Is(err, interp.ErrStepLimit) {
		t.Fatalf("capture past its step limit: err = %v; want ErrStepLimit", err)
	}
}

// sameErr reports whether two results failed alike: both nil, or both
// wrapping the same sentinel.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return errors.Is(a, ErrCycleLimit) == errors.Is(b, ErrCycleLimit)
}
