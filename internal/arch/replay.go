package arch

import (
	"context"
	"fmt"

	"repro/internal/interp"
	"repro/internal/trace"
)

// RecordTrace interprets lp once and captures its complete architectural
// trace as a Recording. stepLimit > 0 bounds the run exactly like
// Config.StepLimit does for a fused simulation: exceeding it aborts the
// capture with interp.ErrStepLimit and nothing is retained. The returned
// recording replays bit-identically into any machine configuration for the
// same program (RunRecordedMulti).
func RecordTrace(ctx context.Context, lp *interp.Program, stepLimit int64) (*trace.Recording, error) {
	im := interp.New(lp)
	if stepLimit > 0 {
		im.SetStepLimit(stepLimit)
	}
	im.SetContext(ctx)
	rec := trace.NewRecorder(nil)
	im.SetHandler(rec)
	res, err := im.Run()
	if err != nil {
		rec.Abort()
		return nil, err
	}
	return rec.Finalize(res.Steps), nil
}

// RunRecordedMulti simulates one captured trace under several machine
// configurations in a single broadcast decode pass: N engines are
// constructed up front and every event is decoded once and fanned out to
// all of them (trace.MultiReplayer). Each engine's result is bit-identical
// to a live RunContext of the same configuration — engines share nothing
// mutable, so fan-out order cannot influence per-engine state.
//
// Failure is isolated per variant: an engine that exhausts its cycle budget,
// rejects a corrupt event, or hits its per-variant StepLimit gets its own
// error while its siblings finish normally (a failed engine stops consuming
// and is shed from the pass on the broadcast's polling cadence). An invalid
// configuration fails only its own entry; a nil, unfinalized or truncated
// recording fails every valid entry with ErrCorruptTrace. The returned
// slices are indexed like cfgs; stats[i] is nil exactly when errs[i] is
// non-nil. When both the step and cycle budgets of one configuration would
// be exceeded, the surfaced budget error may differ from the live run's;
// both are budget-class errors with nil stats.
func RunRecordedMulti(ctx context.Context, lp *interp.Program, rec *trace.Recording, cfgs []Config) ([]*RunStats, []error) {
	var torn error
	if !rec.Complete() || rec.Len() != rec.Steps() {
		torn = fmt.Errorf("%w: recording incomplete (%d events for %d steps)",
			ErrCorruptTrace, rec.Len(), rec.Steps())
	}
	return runBank(ctx, lp, cfgs, torn, func(ctx context.Context, hs []trace.Handler, limits []int64) (int64, error) {
		var mr trace.MultiReplayer
		return rec.Steps(), mr.Replay(ctx, rec, hs, limits)
	})
}
