package arch

import (
	"strings"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/profiler"
)

// loopTracker attributes main-pipeline cycles and SPT window statistics to
// the innermost active loop. Loop identity is the (function, header label)
// pair, with the transformation's "spt.start." prefix stripped so baseline
// and SPT runs of the same benchmark share keys. Per-activation state lives
// in the engine's activation records.
type loopTracker struct {
	statics []trackStatics
	perLoop map[profiler.LoopKey]*LoopStats

	// active is the global loop activation stack (innermost last). Cycles
	// are charged inclusively (a loop's cycles include its callees' loops,
	// mirroring the profiler's coverage accounting) and lazily: an entry
	// adds the clock's advance since its push when it is popped.
	active []activeLoop
	clock  int64 // main-pipeline cycles, as of the last event charged
}

type activeLoop struct {
	ls    *LoopStats
	since int64 // clock at push
}

type trackStatics struct {
	blockOf []int32
	// chain[b] lists loop keys containing block b, outermost first.
	chain [][]profiler.LoopKey
	// startID0[b] is non-negative when block b's first instruction marks an
	// iteration boundary of the innermost loop at b.
	iterAt []int32 // instruction id that bumps the innermost loop's iteration, or -1
}

// trackFrame is one activation's loop state: the block of its previous
// event and its active loops, outermost first.
type trackFrame struct {
	prevB int32
	acts  []*LoopStats
}

// reset readies a recycled record for a new activation, keeping capacity.
func (fr *trackFrame) reset() {
	fr.prevB = -1
	fr.acts = fr.acts[:0]
}

// NormalizeHeader strips the SPT transformation prefix from a header label.
func NormalizeHeader(label string) string {
	if s, ok := strings.CutPrefix(label, "spt.start."); ok {
		return s
	}
	return label
}

func newLoopTracker(lp *interp.Program) *loopTracker {
	t := &loopTracker{perLoop: map[profiler.LoopKey]*LoopStats{}}
	p := lp.IR
	t.statics = make([]trackStatics, len(p.Funcs))
	for fi, f := range p.Funcs {
		st := trackStatics{
			blockOf: make([]int32, f.NumInstrs()),
			chain:   make([][]profiler.LoopKey, len(f.Blocks)),
			iterAt:  make([]int32, len(f.Blocks)),
		}
		for id := 0; id < f.NumInstrs(); id++ {
			st.blockOf[id] = int32(f.Linear[id].Block)
		}
		g, err := cfg.Build(f)
		if err != nil {
			// Unanalyzable function (never produced by Validate-d programs):
			// it simply contributes no per-loop attribution.
			t.statics[fi] = st
			continue
		}
		forest := cfg.FindLoops(g)
		keyOf := map[*cfg.Loop]profiler.LoopKey{}
		startOf := map[*cfg.Loop]int{}
		for _, l := range forest.Loops {
			keyOf[l] = profiler.LoopKey{
				Func:   f.Name,
				Header: NormalizeHeader(f.Blocks[l.Header].Label),
			}
			// Iteration boundary block: the body entry for while-shaped
			// loops, the header otherwise (mirrors the profiler).
			start := l.Header
			if term := f.Blocks[l.Header].Term(); term.Op == ir.Br {
				t1, t2 := f.BlockIndex(term.Target), f.BlockIndex(term.Target2)
				switch {
				case l.Contains(t1) && !l.Contains(t2):
					start = t1
				case l.Contains(t2) && !l.Contains(t1):
					start = t2
				}
			}
			startOf[l] = start
		}
		for b := range f.Blocks {
			st.iterAt[b] = -1
			var chain []profiler.LoopKey
			for l := forest.InnermostAt[b]; l != nil; l = l.Parent {
				chain = append(chain, keyOf[l])
			}
			for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
			st.chain[b] = chain
		}
		for _, l := range forest.Loops {
			b := startOf[l]
			st.iterAt[b] = int32(f.Blocks[b].Instrs[0].ID)
		}
		t.statics[fi] = st
	}
	return t
}

func (t *loopTracker) loopStats(k profiler.LoopKey) *LoopStats {
	ls := t.perLoop[k]
	if ls == nil {
		ls = &LoopStats{Key: k}
		t.perLoop[k] = ls
	}
	return ls
}

// current returns the innermost active loop's stats, or nil.
func (t *loopTracker) current() *LoopStats {
	if len(t.active) == 0 {
		return nil
	}
	return t.active[len(t.active)-1].ls
}

// settle charges the loops still active when the run ends.
func (t *loopTracker) settle() {
	for _, a := range t.active {
		a.ls.Cycles += t.clock - a.since
	}
}

// observe updates loop activations for one (bookkeeping) event of the
// activation whose state is fr and returns the innermost active loop after
// the event.
func (t *loopTracker) observe(fr *trackFrame, fn int32, id int32, isRet bool) *LoopStats {
	st := &t.statics[fn]
	blk := st.blockOf[id]
	if blk != fr.prevB {
		chain := st.chain[blk]
		keep := 0
		for keep < len(fr.acts) && keep < len(chain) && fr.acts[keep].Key == chain[keep] {
			keep++
		}
		for len(fr.acts) > keep {
			t.popAct(fr)
		}
		for len(fr.acts) < len(chain) {
			ls := t.loopStats(chain[len(fr.acts)])
			fr.acts = append(fr.acts, ls)
			t.active = append(t.active, activeLoop{ls, t.clock})
		}
		fr.prevB = blk
	}
	if st.iterAt[blk] == id && len(fr.acts) > 0 {
		fr.acts[len(fr.acts)-1].Iterations++
	}
	if isRet {
		for len(fr.acts) > 0 {
			t.popAct(fr)
		}
	}
	return t.current()
}

func (t *loopTracker) popAct(fr *trackFrame) {
	a := fr.acts[len(fr.acts)-1]
	fr.acts = fr.acts[:len(fr.acts)-1]
	for i := len(t.active) - 1; i >= 0; i-- {
		if t.active[i].ls == a {
			a.Cycles += t.clock - t.active[i].since
			t.active = append(t.active[:i], t.active[i+1:]...)
			break
		}
	}
}
