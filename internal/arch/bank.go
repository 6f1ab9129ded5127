package arch

import (
	"context"
	"fmt"

	"repro/internal/interp"
	"repro/internal/trace"
)

// bankBlock is the delivery burst: each engine simulates a whole burst
// before the next engine starts, which keeps one engine's working set hot
// for hundreds of events. Engines are independent, so the interleaving is
// unobservable.
const bankBlock = 512

// bank is the set of engines one trace drives. Its event window is the
// recording the trace is captured into (a live pass) or replayed from (a
// recorded pass): engines read events there in place and keep only their
// cursors. Events are validated once per bank, as their burst arrives; a
// corrupt event fails every engine that would have received it.
type bank struct {
	lp      *interp.Program
	win     *trace.Recording
	engines []*engine
	slots   []int   // engine -> cfgs index
	limits  []int64 // engine -> step limit (<= 0: none)
	stats   []*RunStats
	errs    []error

	fed     int64  // events delivered to every engine that wants them
	checked int64  // events validated
	bad     error  // why event checked is corrupt; nothing from it on is delivered
	alive   int    // engines that have not failed
	idle    func() // called once no engine is left alive (nil: keep going)
}

// newBank builds an engine per valid configuration, reading window win.
// An invalid configuration fails only its own entry; broken (a feed that
// cannot be simulated at all, such as a torn recording) fails every valid
// one.
func newBank(lp *interp.Program, cfgs []Config, win *trace.Recording, broken error) *bank {
	b := &bank{lp: lp, win: win, stats: make([]*RunStats, len(cfgs)), errs: make([]error, len(cfgs))}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			b.errs[i] = err
			continue
		}
		if broken != nil {
			b.errs[i] = broken
			continue
		}
		e := newEngine(lp, cfg)
		e.win = win
		e.onFail = func() {
			if b.alive--; b.alive == 0 && b.idle != nil {
				b.idle()
			}
		}
		b.engines = append(b.engines, e)
		b.slots = append(b.slots, i)
		b.limits = append(b.limits, cfg.StepLimit)
	}
	b.alive = len(b.engines)
	return b
}

// deliver validates the window's new events up to n — their coordinates
// must resolve to loaded instructions — and advances every engine through
// them, each up to its own step limit. Delivery stops before a corrupt
// event, and every engine that would have received it fails.
func (b *bank) deliver(n int64) {
	if b.alive == 0 {
		return
	}
	for nf := b.lp.NumFuncs(); b.bad == nil && b.checked < n; b.checked++ {
		ev := b.win.At(b.checked)
		if fn, id := ev.Func(), ev.ID(); fn < 0 || int(fn) >= nf || id < 0 || int(id) >= b.lp.FuncInstrCount(fn) {
			b.bad = fmt.Errorf("%w: func=%d id=%d", ErrCorruptTrace, fn, id)
			break
		}
	}
	to := min(n, b.checked)
	for j, e := range b.engines {
		if lim := b.limits[j]; lim > 0 && lim <= to {
			e.advance(lim)
			continue
		}
		e.advance(to)
		if b.bad != nil {
			e.fail(b.bad)
		}
	}
	b.fed = to
}

// maxLimit is the largest step limit of the bank, or 0 when an engine has
// none.
func (b *bank) maxLimit() int64 {
	var hi int64
	for _, lim := range b.limits {
		if lim <= 0 {
			return 0
		}
		hi = max(hi, lim)
	}
	return hi
}

// low is the oldest window event an engine can still read. Failed engines
// read nothing, and neither does an engine whose step limit the window has
// outgrown: it ends with ErrStepLimit and is never drained.
func (b *bank) low() int64 {
	lo := b.fed
	for j, e := range b.engines {
		if e.failure == nil && (b.limits[j] <= 0 || b.fed <= b.limits[j]) {
			lo = min(lo, e.low())
		}
	}
	return lo
}

// settle finishes every engine once the trace has ended after steps
// events, with the feed's error ferr. stats[i] is nil exactly when errs[i]
// is not; an engine's error is, in order of precedence: an invalid
// configuration, a broken feed, the engine's own abort (cycle budget,
// corrupt event), the feed's error, the configuration's step limit, and an
// abort while draining.
func (b *bank) settle(steps int64, ferr error) ([]*RunStats, []error) {
	for j, e := range b.engines {
		i := b.slots[j]
		switch {
		case e.failure != nil:
			b.errs[i] = e.failure
		case ferr != nil:
			b.errs[i] = ferr
		case b.limits[j] > 0 && b.limits[j] < steps:
			b.errs[i] = interp.ErrStepLimit
		default:
			e.finish()
			if e.failure != nil {
				// Short traces fit entirely inside the lookahead window, so
				// budget exhaustion can first surface while draining.
				b.errs[i] = e.failure
				continue
			}
			e.stats.Instrs = steps
			b.stats[i] = e.stats
		}
	}
	return b.stats, b.errs
}

// liveFeed is the interpreter's handler on a live pass: it appends each
// event to the bank's window and delivers a burst every bankBlock events;
// a window that is not kept drops what no engine reads.
type liveFeed struct {
	b    *bank
	rec  *trace.Recorder
	n    int64
	keep bool
}

// Event implements trace.Handler.
func (f *liveFeed) Event(ev *trace.Event) {
	f.rec.Event(ev)
	if f.n++; f.n&(bankBlock-1) == 0 {
		f.flush()
	}
}

// flush delivers every captured event.
func (f *liveFeed) flush() {
	f.b.deliver(f.n)
	if !f.keep {
		f.rec.Trim(f.b.low())
	}
}

// runLive drives a bank from one interpreter pass over lp, through the
// trace middleware mw when one is set. With keep, the pass captures the
// trace under stepLimit from src and runs to the end even once every
// engine has stopped, since the recording outlives them. Otherwise the
// window is dropped as the pass goes and the interpreter stops with the
// last engine, under the largest configured step limit.
func runLive(ctx context.Context, lp *interp.Program, cfgs []Config, mw func(trace.Handler) trace.Handler, keep bool, stepLimit int64, src trace.ChunkSource) (*trace.Recording, []*RunStats, []error, error) {
	rec := trace.NewWindow()
	if keep {
		rec = trace.NewRecorder(src)
	}
	b := newBank(lp, cfgs, rec.Recording(), nil)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if !keep {
		if len(b.engines) == 0 {
			return nil, b.stats, b.errs, nil
		}
		b.idle = cancel
		stepLimit = b.maxLimit()
	}
	f := &liveFeed{b: b, rec: rec, keep: keep}
	im := interp.New(lp)
	if stepLimit > 0 {
		im.SetStepLimit(stepLimit)
	}
	im.SetContext(ctx)
	var h trace.Handler = f
	if mw != nil {
		h = mw(h)
	}
	im.SetHandler(h)
	res, err := im.Run()
	f.flush()
	stats, errs := b.settle(res.Steps, err)
	if !keep || err != nil {
		rec.Abort()
		return nil, stats, errs, err
	}
	return rec.Finalize(res.Steps), stats, errs, nil
}

// RunMulti simulates lp under several machine configurations on a single
// interpreter pass whose trace is not kept, each bit-identical to its own
// Run; failures stay per configuration as in RunRecordedMulti.
func RunMulti(ctx context.Context, lp *interp.Program, cfgs []Config) ([]*RunStats, []error) {
	_, stats, errs, _ := runLive(ctx, lp, cfgs, nil, false, 0, nil)
	return stats, errs
}

// CaptureMulti is RunMulti that keeps the trace: the pass captures it
// under stepLimit into chunks from src (nil: fresh allocations) and
// returns the finished recording, or nil and the interpreter's error when
// the capture fails. The engines' results are settled either way.
func CaptureMulti(ctx context.Context, lp *interp.Program, cfgs []Config, stepLimit int64, src trace.ChunkSource) (rec *trace.Recording, stats []*RunStats, errs []error, err error) {
	return runLive(ctx, lp, cfgs, nil, true, stepLimit, src)
}

// RecordTrace interprets lp once and captures its complete architectural
// trace; stepLimit > 0 bounds the run like Config.StepLimit, and a capture
// that exceeds it fails with interp.ErrStepLimit. The recording replays
// bit-identically into any configuration (RunRecordedMulti).
func RecordTrace(ctx context.Context, lp *interp.Program, stepLimit int64) (*trace.Recording, error) {
	rec, _, _, err := CaptureMulti(ctx, lp, nil, stepLimit, nil)
	return rec, err
}

// RunRecordedMulti simulates a captured trace under several machine
// configurations, each bit-identical to its own live RunContext; the
// engines read the recording in place. Failures stay per variant (see
// settle), and the pass ends once no engine is left. A nil, unfinalized or
// truncated recording fails every valid entry with ErrCorruptTrace. When
// both the step and cycle budgets of one configuration would be exceeded,
// the surfaced budget error may differ from the live run's.
func RunRecordedMulti(ctx context.Context, lp *interp.Program, rec *trace.Recording, cfgs []Config) ([]*RunStats, []error) {
	var torn error
	if !rec.Complete() || rec.Len() != rec.Steps() {
		torn = fmt.Errorf("%w: recording incomplete (%d events for %d steps)",
			ErrCorruptTrace, rec.Len(), rec.Steps())
	}
	return newBank(lp, cfgs, rec, torn).replay(ctx)
}

// replay drives the bank from its finished recording in bankBlock bursts,
// polling ctx between them, until every engine has what it wants or has
// failed, then settles it.
func (b *bank) replay(ctx context.Context) ([]*RunStats, []error) {
	n := b.win.Len()
	end := b.maxLimit()
	if end <= 0 || end > n {
		end = n
	}
	for b.fed < end && b.alive > 0 && b.bad == nil {
		b.deliver(min(b.fed+bankBlock, end))
		if ctx != nil && ctx.Err() != nil {
			return b.settle(n, fmt.Errorf("arch: replay interrupted after %d events: %w", b.fed, ctx.Err()))
		}
	}
	return b.settle(n, nil)
}
