// Package profiler runs an IR program under the sequential interpreter and
// gathers the annotations the SPT compiler's cost-driven framework needs
// (Figure 4 of the paper): reach counts per loop-body instruction,
// cross-iteration register and memory dependence frequencies, iteration-
// start value patterns for software value prediction, trip counts, and the
// loop coverage statistics behind Figures 6 and 7.
package profiler

import (
	"context"

	"repro/internal/cfg"
	"repro/internal/ddg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/trace"
)

// LoopKey stably identifies a loop by function name and header label; it
// survives program cloning and transformation.
type LoopKey struct {
	Func   string
	Header string
}

// LoopProfile aggregates the runtime behaviour of one static loop.
type LoopProfile struct {
	Key LoopKey
	// Parent is the key of the dynamically enclosing loop, if any — the
	// loop (possibly in a calling function) that was active when this one
	// was first entered. Coverage accounting uses it to avoid double
	// counting nests.
	Parent *LoopKey

	Entries    int64 // times the loop was entered from outside
	Iterations int64 // body executions (start-point arrivals for candidates)

	InclInstrs int64 // dynamic instructions inside the loop, callees included
	InclCycles int64 // latency-weighted inclusive work

	// Exec counts executions of each body instruction (own frame only);
	// Exec[id]/Iterations is the instruction's reach probability.
	Exec map[int]int64

	// RegSamples counts iteration boundaries where register comparison was
	// possible; RegChange[r] counts boundaries at which r's iteration-start
	// value differed from the previous iteration's (value-based dependence
	// probability); RegWritten[r] counts iterations that wrote r at all
	// (update-based probability).
	RegSamples int64
	RegChange  map[ir.Reg]int64
	RegWritten map[ir.Reg]int64

	// MemDep counts, for (store-context, load-context) instruction pairs of
	// the loop body, how often the load read an address the previous
	// iteration stored to — the memory violation-candidate probabilities.
	// Contexts are body instruction ids; stores/loads performed inside
	// callees are attributed to the Call instruction.
	MemDep map[[2]int]int64

	// Values holds iteration-start value patterns for registers, feeding
	// software value prediction.
	Values map[ir.Reg]*ValueStats

	// CalleeCycles attributes latency-weighted work done inside callees to
	// the body Call instruction that entered them; CalleeCycles[id]/Exec[id]
	// is the average callee cost of call site id.
	CalleeCycles map[int]int64

	// Dense accumulators the collector updates per event and per iteration;
	// fill folds them into the maps above once collection ends.
	exec, callee          []int64      // by body instruction id
	regChange, regWritten []int64      // by register
	values                []ValueStats // by register; Samples == 0: never observed
}

// fill publishes the dense accumulators as the profile's maps. Every
// accumulator only ever grows from zero, so its nonzero entries are
// exactly the keys the maps would have gained one event at a time.
func (lp *LoopProfile) fill() {
	for id, n := range lp.exec {
		if n != 0 {
			lp.Exec[id] = n
		}
	}
	for id, n := range lp.callee {
		if n != 0 {
			lp.CalleeCycles[id] = n
		}
	}
	for r, n := range lp.regChange {
		if n != 0 {
			lp.RegChange[ir.Reg(r)] = n
		}
	}
	for r, n := range lp.regWritten {
		if n != 0 {
			lp.RegWritten[ir.Reg(r)] = n
		}
	}
	for r := range lp.values {
		if vs := &lp.values[r]; vs.Samples > 0 {
			vs.fill()
			lp.Values[ir.Reg(r)] = vs
		}
	}
}

// TripCount returns the average number of iterations per entry.
func (lp *LoopProfile) TripCount() float64 {
	if lp.Entries == 0 {
		return 0
	}
	return float64(lp.Iterations) / float64(lp.Entries)
}

// BodySize returns the average inclusive dynamic instructions per iteration.
func (lp *LoopProfile) BodySize() float64 {
	if lp.Iterations == 0 {
		return 0
	}
	return float64(lp.InclInstrs) / float64(lp.Iterations)
}

// BodyCycles returns the average inclusive latency-weighted work per
// iteration.
func (lp *LoopProfile) BodyCycles() float64 {
	if lp.Iterations == 0 {
		return 0
	}
	return float64(lp.InclCycles) / float64(lp.Iterations)
}

// ReachProb returns the probability that body instruction id executes in an
// iteration.
func (lp *LoopProfile) ReachProb(id int) float64 {
	if lp.Iterations == 0 {
		return 0
	}
	p := float64(lp.Exec[id]) / float64(lp.Iterations)
	if p > 1 {
		p = 1
	}
	return p
}

// RegChangeProb returns the value-based carried dependence probability of
// register r: the fraction of iterations that changed r's value.
func (lp *LoopProfile) RegChangeProb(r ir.Reg) float64 {
	if lp.RegSamples == 0 {
		return 0
	}
	return float64(lp.RegChange[r]) / float64(lp.RegSamples)
}

// RegWriteProb returns the update-based carried dependence probability of
// register r.
func (lp *LoopProfile) RegWriteProb(r ir.Reg) float64 {
	if lp.Iterations == 0 {
		return 0
	}
	return float64(lp.RegWritten[r]) / float64(lp.Iterations)
}

// CallSiteCycles returns the average callee work per execution of the body
// call instruction id.
func (lp *LoopProfile) CallSiteCycles(id int) float64 {
	n := lp.Exec[id]
	if n == 0 {
		return 0
	}
	return float64(lp.CalleeCycles[id]) / float64(n)
}

// MemDepProb returns the probability per iteration of the given
// (store-context, load-context) carried memory dependence.
func (lp *LoopProfile) MemDepProb(store, load int) float64 {
	if lp.Iterations == 0 {
		return 0
	}
	return float64(lp.MemDep[[2]int{store, load}]) / float64(lp.Iterations)
}

// Profile is the whole-program profiling result.
type Profile struct {
	TotalInstrs int64
	TotalCycles int64
	Loops       map[LoopKey]*LoopProfile
	Result      interp.Result
}

// Loop returns the profile of the given loop (nil if never executed).
func (p *Profile) Loop(k LoopKey) *LoopProfile { return p.Loops[k] }

// staticLoop is the per-function static description the collector consults.
type staticLoop struct {
	key        LoopKey
	header     int
	start      int // start-point block; == header for non-candidates
	startID0   int // first instruction id of the start block
	candidate  bool
	loop       *cfg.Loop
	numRegs    int
	numInstrs  int
	depthIndex int // nesting position within the frame's loop chain
}

type funcStatics struct {
	f *ir.Func
	// loopsAtBlock[b] lists the loops containing block b, outermost first.
	loopsAtBlock [][]*staticLoop
	blockOf      []int32
}

// activation is one dynamic instance of a loop.
type activation struct {
	sl    *staticLoop
	prof  *LoopProfile
	frame int64
	ctx   int // last body-instruction id seen in the loop's own frame

	iter      int64
	prevSnap  []int64
	prevKnown []bool
	snapValid bool
	written   []bool // regs written this iteration (dense; nil for non-candidates)

	// Cross-iteration store tracking. One generational map replaces the
	// classic prev/cur pair: every store is tagged with the iteration
	// generation it happened in, an iteration boundary is a single gen
	// increment, and stale entries are filtered on lookup instead of being
	// cleared (map clearing is O(capacity) and used to dominate loops with
	// many short iterations).
	stores   map[int64]storeGen // addr -> last store into it
	storeGen uint64             // generation tag of the current iteration
}

// storeGen is one remembered store: the loop-body context it came from and
// the iteration generation it belongs to. An entry is "current iteration"
// when gen matches the activation's storeGen, "previous iteration" at
// storeGen-1, and invisible otherwise.
type storeGen struct {
	ctx int
	gen uint64
}

type frameState struct {
	fi    int32
	regs  []int64
	known []bool
	acts  []*activation // loop activations opened by this frame
	prevB int32         // previous block index, -1 initially

	lastID int32 // last instruction id seen in this frame
	parent *frameState
	// retDst is the caller register that receives this frame's return
	// value (the Dst of the Call that created it), or NoReg.
	retDst ir.Reg
}

// collector implements trace.Handler.
type collector struct {
	lp      *interp.Program
	statics []*funcStatics
	prof    *Profile

	frames map[int64]*frameState
	stack  []*frameState // call stack of frames with events seen
	acts   []*activation // global activation stack (outermost first)

	// Recycled records: call-heavy traces churn through frames and loop
	// activations, so both are pooled for the lifetime of one collection.
	framePool []*frameState
	actPool   []*activation

	// One-entry lookup memo: consecutive events overwhelmingly share a
	// frame, so most Event calls skip the frames map.
	lastFrame int64
	lastFr    *frameState
}

// Collect runs the program and returns its profile. stepLimit bounds
// execution (0 means a large default).
func Collect(lp *interp.Program, stepLimit int64) (*Profile, error) {
	return CollectContext(context.Background(), lp, stepLimit)
}

// CollectContext is Collect under a cancellation/deadline context: the
// profiling run aborts with a wrapped context error when ctx is done.
func CollectContext(ctx context.Context, lp *interp.Program, stepLimit int64) (*Profile, error) {
	c := &collector{
		lp:     lp,
		prof:   &Profile{Loops: map[LoopKey]*LoopProfile{}},
		frames: map[int64]*frameState{},
	}
	c.buildStatics()
	m := interp.New(lp)
	if stepLimit > 0 {
		m.SetStepLimit(stepLimit)
	}
	m.SetContext(ctx)
	m.SetHandler(c)
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	for _, lp := range c.prof.Loops {
		lp.fill()
	}
	c.prof.Result = res
	return c.prof, nil
}

func (c *collector) buildStatics() {
	p := lpIR(c.lp)
	eff := ddg.ComputeEffects(p)
	c.statics = make([]*funcStatics, len(p.Funcs))
	for fi, f := range p.Funcs {
		fs := &funcStatics{f: f, loopsAtBlock: make([][]*staticLoop, len(f.Blocks))}
		fs.blockOf = make([]int32, f.NumInstrs())
		for id := 0; id < f.NumInstrs(); id++ {
			fs.blockOf[id] = int32(f.Linear[id].Block)
		}
		g, err := cfg.Build(f)
		if err != nil {
			// No CFG -> no loop statics for this function; events in it are
			// still counted, just not attributed to loops.
			c.statics[fi] = fs
			continue
		}
		forest := cfg.FindLoops(g)
		byLoop := map[*cfg.Loop]*staticLoop{}
		for _, l := range forest.Loops {
			sl := &staticLoop{
				key:       LoopKey{Func: f.Name, Header: f.Blocks[l.Header].Label},
				header:    l.Header,
				start:     l.Header,
				loop:      l,
				numRegs:   f.NumRegs,
				numInstrs: f.NumInstrs(),
			}
			if a := ddg.Analyze(p, f, g, l, eff); a != nil {
				sl.candidate = true
				sl.start = a.StartBlock
			} else if term := f.Blocks[l.Header].Term(); term.Op == ir.Br {
				// Non-candidate while-shaped loop: count iterations at the
				// body entry so the final exit test is not an iteration.
				t1, t2 := f.BlockIndex(term.Target), f.BlockIndex(term.Target2)
				switch {
				case l.Contains(t1) && !l.Contains(t2):
					sl.start = t1
				case l.Contains(t2) && !l.Contains(t1):
					sl.start = t2
				}
			}
			sl.startID0 = f.Blocks[sl.start].Instrs[0].ID
			byLoop[l] = sl
		}
		for b := range f.Blocks {
			// Chain of loops containing b, outermost first.
			var chain []*staticLoop
			for l := forest.InnermostAt[b]; l != nil; l = l.Parent {
				chain = append(chain, byLoop[l])
			}
			for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
			for d, sl := range chain {
				sl.depthIndex = d
			}
			fs.loopsAtBlock[b] = chain
		}
		c.statics[fi] = fs
	}
}

// lpIR returns the ir.Program behind a loaded program.
func lpIR(lp *interp.Program) *ir.Program { return lp.IR }

func (c *collector) loopProfile(sl *staticLoop) *LoopProfile {
	p := c.prof.Loops[sl.key]
	if p == nil {
		p = &LoopProfile{
			Key:          sl.key,
			Exec:         map[int]int64{},
			RegChange:    map[ir.Reg]int64{},
			RegWritten:   map[ir.Reg]int64{},
			MemDep:       map[[2]int]int64{},
			Values:       map[ir.Reg]*ValueStats{},
			CalleeCycles: map[int]int64{},
			exec:         make([]int64, sl.numInstrs),
			callee:       make([]int64, sl.numInstrs),
			regChange:    make([]int64, sl.numRegs),
			regWritten:   make([]int64, sl.numRegs),
			values:       make([]ValueStats, sl.numRegs),
		}
		c.prof.Loops[sl.key] = p
	}
	return p
}

// Event implements trace.Handler.
func (c *collector) Event(ev *trace.Event) {
	in := c.lp.InstrAt(ev.Func, ev.ID)
	lat := int64(in.Op.Latency())
	c.prof.TotalInstrs++
	c.prof.TotalCycles += lat

	var fr *frameState
	if c.lastFr != nil && c.lastFrame == ev.Frame {
		fr = c.lastFr
	} else {
		fr = c.frames[ev.Frame]
	}
	if fr == nil {
		fs := c.statics[ev.Func]
		fr = c.grabFrame(ev.Func, fs.f.NumRegs)
		// Link to the caller so the Call's destination register can be
		// updated when this frame returns (the Call event precedes the
		// callee's events and cannot carry the return value itself).
		if len(c.stack) > 0 {
			parent := c.stack[len(c.stack)-1]
			pin := c.statics[parent.fi].f.InstrByID(int(parent.lastID))
			if pin.Op == ir.Call {
				fr.parent = parent
				fr.retDst = pin.Dst
			}
		}
		c.frames[ev.Frame] = fr
		c.stack = append(c.stack, fr)
	}
	c.lastFrame, c.lastFr = ev.Frame, fr
	fr.lastID = ev.ID
	fs := c.statics[ev.Func]
	blk := fs.blockOf[ev.ID]

	// Maintain this frame's loop activations on block transitions.
	if blk != fr.prevB {
		c.syncActivations(fr, ev.Frame, int(blk))
		fr.prevB = blk
	}
	// Iteration boundary: execution of the first instruction of a loop's
	// start-point block (robust even for single-block loops, where the back
	// edge re-enters the same block).
	for _, a := range fr.acts {
		if int(ev.ID) == a.sl.startID0 {
			c.iterationBoundary(fr, a)
		}
	}

	// Attribute inclusive counts and contexts to all active activations.
	for _, a := range c.acts {
		a.prof.InclInstrs++
		a.prof.InclCycles += lat
		if a.frame == ev.Frame {
			a.ctx = int(ev.ID)
			a.prof.exec[ev.ID]++
		} else if a.ctx >= 0 {
			a.prof.callee[a.ctx] += lat
		}
	}

	// Candidate-loop dependence tracking.
	switch in.Op {
	case ir.Store:
		for _, a := range c.acts {
			if a.sl.candidate && a.stores != nil {
				a.stores[ev.Addr] = storeGen{ctx: a.ctx, gen: a.storeGen}
			}
		}
	case ir.Load:
		for _, a := range c.acts {
			if !a.sl.candidate || a.stores == nil {
				continue
			}
			if s, ok := a.stores[ev.Addr]; ok {
				if s.gen == a.storeGen {
					continue // same-iteration dependence: always satisfied
				}
				if s.gen == a.storeGen-1 {
					a.prof.MemDep[[2]int{s.ctx, a.ctx}]++
				}
			}
		}
	case ir.Ret:
		// Propagate the return value into the caller's shadow register
		// file, then close the frame.
		if fr.parent != nil && fr.retDst != ir.NoReg {
			p := fr.parent
			p.regs[fr.retDst] = ev.Val
			p.known[fr.retDst] = true
			for _, a := range c.acts {
				if a.written != nil && int(fr.retDst) < len(a.written) && c.frames[a.frame] == p {
					a.written[fr.retDst] = true
				}
			}
		}
		c.closeFrame(fr, ev.Frame)
		delete(c.frames, ev.Frame)
		c.lastFr = nil
		c.framePool = append(c.framePool, fr)
		return
	}

	// Shadow register file for value comparisons.
	if d := in.Def(); d != ir.NoReg {
		fr.regs[d] = ev.Val
		fr.known[d] = true
		for _, a := range c.acts {
			if a.frame == ev.Frame && a.written != nil && int(d) < len(a.written) {
				a.written[d] = true
			}
		}
	}
}

// grabFrame returns a reset frame record for function fi.
func (c *collector) grabFrame(fi int32, numRegs int) *frameState {
	if n := len(c.framePool); n > 0 {
		fr := c.framePool[n-1]
		c.framePool = c.framePool[:n-1]
		fr.fi = fi
		if cap(fr.regs) < numRegs || cap(fr.known) < numRegs {
			fr.regs = make([]int64, numRegs)
			fr.known = make([]bool, numRegs)
		} else {
			fr.regs = fr.regs[:numRegs]
			clear(fr.regs)
			fr.known = fr.known[:numRegs]
			clear(fr.known)
		}
		fr.acts = fr.acts[:0]
		fr.prevB = -1
		fr.lastID = 0
		fr.parent = nil
		fr.retDst = ir.NoReg
		return fr
	}
	return &frameState{
		fi:     fi,
		regs:   make([]int64, numRegs),
		known:  make([]bool, numRegs),
		prevB:  -1,
		retDst: ir.NoReg,
	}
}

// grabActivation returns a reset activation for one dynamic loop entry. The
// iteration-snapshot buffers and candidate-tracking maps keep their storage;
// snapValid=false and cleared maps make the record indistinguishable from a
// fresh one.
func (c *collector) grabActivation(sl *staticLoop, frame int64) *activation {
	var a *activation
	if n := len(c.actPool); n > 0 {
		a = c.actPool[n-1]
		c.actPool = c.actPool[:n-1]
		*a = activation{
			sl:        sl,
			frame:     frame,
			ctx:       -1,
			prevSnap:  a.prevSnap,
			prevKnown: a.prevKnown,
			written:   a.written,
			stores:    a.stores,
			storeGen:  a.storeGen,
		}
	} else {
		a = &activation{sl: sl, frame: frame, ctx: -1}
	}
	a.prof = c.loopProfile(sl)
	if sl.candidate {
		if cap(a.written) < sl.numRegs {
			a.written = make([]bool, sl.numRegs)
		} else {
			a.written = a.written[:sl.numRegs]
			clear(a.written)
		}
		if a.stores == nil {
			a.stores = map[int64]storeGen{}
		}
		// Advancing two generations makes every residual entry older than
		// "previous iteration", so the reused map needs no clearing.
		a.storeGen += 2
	} else {
		a.written, a.stores = nil, nil
	}
	return a
}

// syncActivations updates the frame's loop activations when control moves
// to block blk.
func (c *collector) syncActivations(fr *frameState, frame int64, blk int) {
	fs := c.statics[fr.fi]
	chain := fs.loopsAtBlock[blk]
	// Pop activations whose loop no longer contains blk.
	keep := 0
	for keep < len(fr.acts) && keep < len(chain) && fr.acts[keep].sl == chain[keep] {
		keep++
	}
	for len(fr.acts) > keep {
		c.popActivation(fr)
	}
	// Push new activations for newly entered loops.
	for len(fr.acts) < len(chain) {
		sl := chain[len(fr.acts)]
		a := c.grabActivation(sl, frame)
		// Dynamic (inter-procedural) nesting: the enclosing activation is
		// whatever loop is on top of the global stack right now — it may
		// live in a caller's function. Figure 6's accumulative coverage
		// needs this to avoid double counting loops reached through calls.
		if a.prof.Parent == nil && len(c.acts) > 0 {
			pk := c.acts[len(c.acts)-1].prof.Key
			if pk != a.prof.Key {
				a.prof.Parent = &pk
			}
		}
		a.prof.Entries++
		fr.acts = append(fr.acts, a)
		c.acts = append(c.acts, a)
	}
}

func (c *collector) iterationBoundary(fr *frameState, a *activation) {
	a.iter++
	a.prof.Iterations++
	if !a.sl.candidate {
		return
	}
	// Register change observation.
	n := len(fr.regs)
	if a.snapValid {
		a.prof.RegSamples++
		for r := 0; r < n; r++ {
			if a.prevKnown[r] && fr.known[r] {
				if fr.regs[r] != a.prevSnap[r] {
					a.prof.regChange[r]++
				}
				a.prof.values[r].observe(fr.regs[r] - a.prevSnap[r])
			}
		}
		for r, w := range a.written {
			if w {
				a.prof.regWritten[r]++
			}
		}
	}
	if len(a.prevSnap) != n {
		if cap(a.prevSnap) < n || cap(a.prevKnown) < n {
			a.prevSnap = make([]int64, n)
			a.prevKnown = make([]bool, n)
		} else {
			a.prevSnap = a.prevSnap[:n]
			a.prevKnown = a.prevKnown[:n]
		}
	}
	copy(a.prevSnap, fr.regs)
	copy(a.prevKnown, fr.known)
	a.snapValid = true
	clear(a.written)
	// Rotate store generations: current becomes previous, entries two or
	// more generations old fall out of scope without any map traffic.
	a.storeGen++
}

func (c *collector) popActivation(fr *frameState) {
	a := fr.acts[len(fr.acts)-1]
	fr.acts = fr.acts[:len(fr.acts)-1]
	// Remove from the global stack (it is the innermost for its frame; it
	// may not be the global top if callees opened activations — but frames
	// close before their callers, so scanning from the top is safe).
	for i := len(c.acts) - 1; i >= 0; i-- {
		if c.acts[i] == a {
			c.acts = append(c.acts[:i], c.acts[i+1:]...)
			break
		}
	}
	c.actPool = append(c.actPool, a)
}

func (c *collector) closeFrame(fr *frameState, frame int64) {
	for len(fr.acts) > 0 {
		c.popActivation(fr)
	}
	for i := len(c.stack) - 1; i >= 0; i-- {
		if c.stack[i] == fr {
			c.stack = append(c.stack[:i], c.stack[i+1:]...)
			break
		}
	}
}
