package arch

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/multispec"
	"repro/internal/trace"
)

// ErrCycleLimit is returned when a simulation exceeds Config.CycleLimit.
var ErrCycleLimit = errors.New("arch: cycle budget exceeded")

// ErrCorruptTrace is returned when the engine receives a trace event whose
// coordinates do not resolve to a loaded instruction. The engine stops
// simulating instead of indexing out of bounds.
var ErrCorruptTrace = errors.New("arch: corrupt trace event")

// Machine simulates one program on the SPT processor (or on a single core
// when cfg.SPT is false).
type Machine struct {
	lp  *interp.Program
	cfg Config
	mw  func(trace.Handler) trace.Handler
}

// NewMachine prepares a simulation of the loaded program.
func NewMachine(lp *interp.Program, cfg Config) *Machine {
	return &Machine{lp: lp, cfg: cfg}
}

// SetTraceMiddleware interposes mw between the interpreter and the SPT
// engine on the next Run. It exists for fault injection (dropping or
// corrupting events) and observation; nil restores the direct path.
func (m *Machine) SetTraceMiddleware(mw func(trace.Handler) trace.Handler) { m.mw = mw }

// Run executes the program under the sequential interpreter, feeds the
// trace through the SPT engine, and returns the simulation statistics.
func (m *Machine) Run() (*RunStats, error) { return m.RunContext(context.Background()) }

// RunContext is Run with cancellation and deadline support: ctx is checked
// periodically by the interpreter (every ~1024 steps), and the engine's
// cycle budget (Config.CycleLimit) cancels the run from the inside. The
// returned error distinguishes budget exhaustion (ErrCycleLimit,
// interp.ErrStepLimit, context deadline) from structural failures.
func (m *Machine) RunContext(ctx context.Context) (*RunStats, error) {
	_, stats, errs, _ := runLive(ctx, m.lp, []Config{m.cfg}, m.mw, false, 0, nil)
	return stats[0], errs[0]
}

// storeRec is one main-thread post-fork store for the speculative load
// address buffer check.
type storeRec struct {
	addr int64
	time int64
}

// specThread is the state of one in-flight speculative thread. Thread
// records are pooled per engine: the slices below keep their backing arrays
// across windows, so arming a thread in steady state allocates nothing. An
// empty (length-0) snapshot is equivalent to a missing one — every consumer
// guards by length.
type specThread struct {
	forkPos  int64 // absolute event index of the spt_fork
	forkTime int64 // cycle the speculative thread may start
	frame    int64 // frame of the forking loop
	fn       int32
	startID  int32  // first instruction id of the fork target block
	startPos int64  // absolute index of the start-point arrival; -1 until seen
	chainID  uint64 // version in the inter-thread chain (commit order)

	snapshot []int64 // fork-time register file of the loop frame
	mainRegs []int64 // architectural view of the loop frame registers since fork
	written  []bool  // registers written after the fork
	// inherit marks live-ins already wrong at spawn time: a thread spawned
	// by an in-flight window copies its register file from speculative
	// state, so a misspeculated last writer (or an inherited violation of
	// the spawner) taints the copy before the thread even starts.
	inherit []bool
	stores  []storeRec

	plan *multispec.SlicePlan // live-in pre-computation coverage (slice mode)
	loop *LoopStats           // loop the fork belongs to
}

// engine is the trace-driven SPT simulation core. It simulates behind a
// sliding window of events so the speculative thread can execute "future"
// trace entries while the main thread is still behind, exactly like the
// paper's two-pipeline trace simulator.
type engine struct {
	lp    *interp.Program
	cfg   Config
	hier  *cache.Hierarchy
	bp    *bpred.GAg
	main  *pipeline
	stats *RunStats

	// The event window is the bank's recording, read in place: events
	// [0, end) have arrived, and the engine reads none before low().
	win *trace.Recording
	end int64 // absolute index of the next event to arrive
	pos int64 // absolute index of the next main-thread event

	// In-flight speculative threads in spawn (= commit) order. On the
	// classic 2-core machine at most one is armed; with Cores=N up to N-1
	// chain up, each covering a later iteration range.
	specs []*specThread
	chain multispec.Chain     // commit-arbitration version chain
	sched multispec.Scheduler // spawn policy (cores, stride, eager restart)
	// coreFree holds one entry per idle speculative core: the cycle the
	// core last became free. Arming a thread pops the front (FIFO — cores
	// free in commit order); retiring a window pushes. A spawn's fork time
	// is clamped to its core's free time, which is what makes Cores=4
	// behave differently from Cores=8 under deep speculation.
	coreFree []int64
	planner  *multispec.Planner // live-in slice planner (slice mode only)
	// chainSSB carries committed windows' speculative stores to their
	// in-flight successors: addr -> whether the last store misspeculated.
	// Only populated while a committed window leaves successors behind, so
	// the classic one-thread machine never sees it.
	chainSSB map[int64]bool

	tracker *loopTracker
	curLoop *LoopStats

	onFail  func() // tells the driver this engine stopped simulating
	failure error  // budget exhaustion or corrupt input; simulation stops

	// Live activations in the main thread's view: the call stack.
	acts frameStack[activation]

	// Scratch state reused across events and speculation windows so the
	// simulator's steady state allocates nothing (locked in by
	// BenchmarkSpeculationEpisodes / TestSpeculationSteadyStateAllocs).
	specFree        []*specThread         // pooled thread records (commit grabs the next before releasing the old, so two circulate)
	specPipe        *pipeline             // persistent speculative-core pipeline
	specBd          Breakdown             // sink for the speculative pipeline's accounting
	srbScratch      []srbEntry            // SRB entries, preallocated to cfg.SRBSize
	reexecScratch   []int                 // replayed entry indices
	violatedScratch []bool                // violated live-in registers
	regsScratch     []int64               // commit-time register tracking (absorb)
	specFrames      frameStack[specFrame] // activations the current window's walk is inside
	ssb             map[int64]int
}

// activation is the engine's record of one live function activation: its
// call linkage (for return-value tracking) and its loop-tracker state.
type activation struct {
	parent int64  // calling activation, or -1 when not entered by a Call
	retDst ir.Reg // caller register receiving the return value
	fn     int32
	lastID int32 // id of the activation's latest event
	loops  trackFrame
}

func newEngine(lp *interp.Program, cfg Config) *engine {
	st := &RunStats{}
	e := &engine{
		lp:      lp,
		cfg:     cfg,
		hier:    cache.New(cfg.Cache),
		bp:      bpred.New(cfg.BPredEntries),
		stats:   st,
		tracker: newLoopTracker(lp),
	}
	nregs := make([]int, len(lp.IR.Funcs))
	for i, f := range lp.IR.Funcs {
		nregs[i] = f.NumRegs
	}
	e.main = newPipeline(cfg.IssueWidth, cfg.BranchPenalty, nregs, &st.Breakdown)
	e.specPipe = newPipeline(cfg.IssueWidth, cfg.BranchPenalty, nregs, &e.specBd)
	e.sched = multispec.NewScheduler(cfg.Sched, cfg.EffCores(), cfg.SchedStride)
	e.coreFree = make([]int64, e.sched.SpecCores())
	e.chainSSB = map[int64]bool{}
	if cfg.SPT && cfg.LiveIn == multispec.LiveInSlice {
		e.planner = multispec.NewPlanner(lp.IR)
	}
	e.srbScratch = make([]srbEntry, 0, cfg.SRBSize)
	e.ssb = map[int64]int{}
	st.PerLoop = e.tracker.perLoop
	return e
}

// grabSpec returns a pooled speculative-thread record; its scratch slices
// keep their capacity across windows.
func (e *engine) grabSpec() *specThread {
	if n := len(e.specFree); n > 0 {
		s := e.specFree[n-1]
		e.specFree = e.specFree[:n-1]
		return s
	}
	return &specThread{}
}

// releaseSpec returns a finished thread record to the pool.
func (e *engine) releaseSpec(s *specThread) {
	s.loop = nil
	s.plan = nil
	e.specFree = append(e.specFree, s)
}

// freeCore returns a speculative core to the idle pool at cycle t.
func (e *engine) freeCore(t int64) {
	e.coreFree = append(e.coreFree, t)
}

// claimCore pops the longest-idle speculative core, returning the cycle it
// became free. Callers check len(e.coreFree) > 0 first.
func (e *engine) claimCore() int64 {
	t := e.coreFree[0]
	e.coreFree = append(e.coreFree[:0], e.coreFree[1:]...)
	return t
}

// fail aborts the simulation with the given cause: further events are
// ignored, and the driver cancels the feed once no engine is left.
func (e *engine) fail(err error) {
	if e.failure == nil {
		e.failure = err
		if e.onFail != nil {
			e.onFail()
		}
	}
}

// advance lets events up to (not including) to arrive, simulating after
// each arrival as far as the lookahead window allows. Arrivals that leave
// the window no fuller than the lookahead trigger no step, so they are
// taken in one jump: every step sees the window end that one-at-a-time
// arrival would have shown it.
func (e *engine) advance(to int64) {
	lookahead := int64(e.cfg.Window)
	for e.failure == nil && e.end < to {
		e.end = min(to, max(e.end+1, e.pos+lookahead+1))
		for e.failure == nil && e.end-e.pos > lookahead && e.pos < e.end {
			e.step()
		}
	}
}

// low is the oldest window event the engine can still read: the main
// thread's next event, or the oldest in-flight thread's fork.
func (e *engine) low() int64 {
	if len(e.specs) > 0 && e.specs[0].forkPos < e.pos {
		return e.specs[0].forkPos
	}
	return e.pos
}

// finish drains the remaining events after the trace ends.
func (e *engine) finish() {
	for e.failure == nil && e.pos < e.end {
		e.step()
	}
	e.stats.Cycles = e.main.now()
	e.tracker.settle()
	e.stats.BranchLookups = e.bp.Lookups
	e.stats.BranchMispredicts = e.bp.Mispredicts
	e.stats.Cache = e.hier.Stats()
	// Fold issue slots into execution cycles.
	e.stats.Breakdown.Exec += (e.stats.Breakdown.IssueSlots + int64(e.cfg.IssueWidth) - 1) / int64(e.cfg.IssueWidth)
	e.stats.Breakdown.IssueSlots = 0
}

// step processes one main-thread event.
func (e *engine) step() {
	if e.cfg.CycleLimit > 0 && e.main.now() >= e.cfg.CycleLimit {
		e.fail(fmt.Errorf("%w: %d cycles at limit %d", ErrCycleLimit, e.main.now(), e.cfg.CycleLimit))
		return
	}
	// Arrival at the oldest speculative thread's start-point?
	if len(e.specs) > 0 && e.specs[0].startPos == e.pos {
		e.commitWindow()
		// commitWindow advanced e.pos past the committed region; continue
		// from there on the next step.
		return
	}
	ev := e.win.At(e.pos)
	in := e.lp.InstrAt(ev.Func(), ev.ID())

	e.bookkeep(ev, in, e.pos)
	_, complete := e.main.exec(ev, in, e.hier, e.bp, true)
	e.tracker.clock = e.main.now()

	switch in.Op {
	case ir.SptFork:
		if e.cfg.SPT {
			e.handleFork(ev, e.win.Snapshot(e.pos), complete, e.pos, e.pos+1)
		}
	case ir.SptKill:
		// Loop exit retires the whole chain: every in-flight thread ran
		// down a path the loop never takes.
		for _, s := range e.specs {
			e.stats.Squashes[SquashLoopExit]++
			if s.loop != nil {
				s.loop.Kills++
			}
			e.freeCore(e.main.now())
			e.releaseSpec(s)
		}
		e.specs = e.specs[:0]
		e.chain.Reset()
		if len(e.chainSSB) > 0 {
			clear(e.chainSSB)
		}
	case ir.Ret:
		e.main.dropFrame(ev.Frame())
	}
	e.pos++
}

// bookkeep maintains frame linkage, loop tracking and (when speculative
// threads are pending) the architectural post-fork register/store views. It
// must see every event exactly once, in trace order; pos is the event's
// absolute trace index, so threads forked later in the trace (whose
// register copy already reflects earlier events) skip them.
func (e *engine) bookkeep(ev trace.View, in *ir.Instr, pos int64) {
	ai := e.acts.find(ev.Frame())
	if ai < 0 {
		ai = e.openActivation(ev)
		if ai < 0 {
			return
		}
	}
	fi := e.acts.recs[ai]
	fi.lastID = ev.ID()

	e.curLoop = e.tracker.observe(&fi.loops, ev.Func(), ev.ID(), in.Op == ir.Ret)

	for _, s := range e.specs {
		if pos <= s.forkPos {
			// The thread's register copy postdates this event; so do every
			// younger thread's (specs is sorted by fork position).
			break
		}
		// The in-range checks below guard against fork snapshots that are
		// shorter than the frame's register file (possible only under fault
		// injection): out-of-range registers simply aren't tracked.
		switch in.Op {
		case ir.Store:
			s.stores = append(s.stores, storeRec{addr: ev.Addr(), time: e.main.now()})
		case ir.Ret:
			// A return into the loop frame writes the call's destination.
			if fi.parent == s.frame && fi.retDst != ir.NoReg && int(fi.retDst) < len(s.mainRegs) {
				s.mainRegs[fi.retDst] = ev.Val()
				s.written[fi.retDst] = true
			}
		}
		if ev.Frame() == s.frame {
			if d := in.Def(); d != ir.NoReg && int(d) < len(s.mainRegs) {
				s.mainRegs[d] = ev.Val()
				s.written[d] = true
			}
		}
	}

	if in.Op == ir.Ret {
		e.acts.drop(ai)
	}
}

// openActivation pushes a record for the first event of a new activation
// and returns its index. The activation is a callee of the innermost live
// one when that one's latest event is a Call. A frame id at or below the
// innermost live activation's cannot open an activation in a trace
// produced in call order: the engine fails with ErrCorruptTrace and
// returns -1.
func (e *engine) openActivation(ev trace.View) int {
	parent, retDst := int64(-1), ir.NoReg
	if n := len(e.acts.ids); n > 0 {
		top, caller := e.acts.ids[n-1], e.acts.recs[n-1]
		if top >= ev.Frame() {
			e.fail(fmt.Errorf("%w: activation %d opens inside live activation %d", ErrCorruptTrace, ev.Frame(), top))
			return -1
		}
		if pin := e.lp.InstrAt(caller.fn, caller.lastID); pin.Op == ir.Call {
			parent, retDst = top, pin.Dst
		}
	}
	a := e.acts.open(ev.Frame())
	a.parent, a.retDst, a.fn = parent, retDst, ev.Func()
	a.loops.reset()
	return len(e.acts.ids) - 1
}

// handleFork arms a speculative core for a fork event observed at forkPos
// with register context snap, scanning for the start-point from scanFrom
// onward. Re-forks after a commit pass scanFrom = the commit end, since
// earlier occurrences of the start block were already absorbed.
func (e *engine) handleFork(ev trace.View, snap []int64, complete, forkPos, scanFrom int64) {
	frame := ev.Frame()
	if len(e.coreFree) == 0 {
		e.stats.NoForks++
		return
	}
	in := e.lp.InstrAt(ev.Func(), ev.ID())
	bi := e.lp.LabelIndex(ev.Func(), in.Target)
	if bi < 0 {
		e.stats.NoForks++
		return
	}
	startID := e.lp.BlockStart(ev.Func(), bi)
	startPos := e.findStart(frame, startID, scanFrom)
	if startPos < 0 {
		// The target iteration never begins inside the lookahead window:
		// the loop is exiting (the spt_kill will arrive) or the iteration
		// is far larger than the window. The speculative thread runs down
		// a wrong path and is killed; no commit will happen.
		e.stats.NoForks++
		return
	}
	if n := len(e.specs); n > 0 && startPos <= e.specs[n-1].startPos {
		// Version-chain invariant: threads spawn — and therefore commit —
		// in start-point order. A fork whose start-point does not extend
		// the chain is suppressed.
		e.stats.NoForks++
		return
	}
	e.armThread(ev, snap, frame, complete, forkPos, bi, startID, startPos, e.curLoop)
}

// findStart locates the start-point: the stride-th next occurrence of the
// target block's first instruction in the forking frame, or -1 if the
// frame returns (or the window ends) first.
func (e *engine) findStart(frame int64, startID int32, scanFrom int64) int64 {
	seen := 0
	for p := scanFrom; p < e.end; p++ {
		x := e.win.At(p)
		if x.Frame() != frame {
			continue
		}
		if x.ID() == startID {
			if seen++; seen >= e.sched.Stride() {
				return p
			}
			continue
		}
		if e.lp.InstrAt(x.Func(), x.ID()).Op == ir.Ret {
			break // the loop frame returns before reaching the start-point
		}
	}
	return -1
}

// armThread claims a speculative core and arms a thread on it, copying the
// fork's register context snap. The fork time is the fork's completion
// plus the register-file copy (plus the live-in pre-computation slice in
// slice mode), but never earlier than the moment the claimed core became
// free.
func (e *engine) armThread(ev trace.View, snap []int64, frame int64, complete, forkPos int64, bi, startID int32, startPos int64, loop *LoopStats) *specThread {
	s := e.grabSpec()
	s.forkPos = forkPos
	desired := complete + int64(e.cfg.RFCopyCycles)
	if e.planner != nil {
		s.plan = e.planner.Plan(ev.Func(), bi)
		desired += s.plan.Cycles
	}
	if free := e.claimCore(); free > desired {
		desired = free
	}
	s.forkTime = desired
	s.frame = frame
	s.fn = ev.Func()
	s.startID = startID
	s.startPos = startPos
	s.chainID = e.chain.Spawn()
	s.loop = loop
	s.stores = s.stores[:0]
	s.inherit = s.inherit[:0]
	if n := len(snap); n > 0 {
		s.snapshot = append(s.snapshot[:0], snap...)
		s.mainRegs = append(s.mainRegs[:0], snap...)
		if cap(s.written) < n {
			s.written = make([]bool, n)
		} else {
			s.written = s.written[:n]
			clear(s.written)
		}
	} else {
		s.snapshot = s.snapshot[:0]
		s.mainRegs = s.mainRegs[:0]
		s.written = s.written[:0]
	}
	e.specs = append(e.specs, s)
	e.stats.Windows++
	if s.loop != nil {
		s.loop.Windows++
	}
	return s
}
