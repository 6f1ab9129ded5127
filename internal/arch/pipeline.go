package arch

import (
	"slices"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/trace"
)

// frameBoard is the register scoreboard of one activation: per-register
// readiness times and whether the producing instruction was a load. A board
// is sized to its function's register file when it is created; a register
// past the slice (possible only when a corrupted event names another
// function's registers) is ready at cycle 0, which matches the zero value.
type frameBoard struct {
	ready    []int64
	fromLoad []bool
}

// get returns the readiness time and load-origin of register r.
func (b *frameBoard) get(r ir.Reg) (int64, bool) {
	if b == nil || int(r) >= len(b.ready) {
		return 0, false
	}
	return b.ready[r], b.fromLoad[r]
}

// set records register r becoming ready at t.
func (b *frameBoard) set(r ir.Reg, t int64, fromLoad bool) {
	for int(r) >= len(b.ready) {
		b.ready = append(b.ready, 0)
		b.fromLoad = append(b.fromLoad, false)
	}
	b.ready[r] = t
	b.fromLoad[r] = fromLoad
}

// pipeline models one in-order core: instructions issue in program order,
// up to `width` per cycle, each waiting for its source operands; loads pay
// the shared cache's access time; mispredicted branches redirect the front
// end after BranchPenalty cycles. Wait cycles are attributed to Figure 9's
// stall categories.
type pipeline struct {
	width   int
	penalty int
	nregs   []int // register-file size per function index

	cycle    int64
	slots    int
	redirect int64 // earliest issue after a mispredicted branch

	// Scoreboards, one per live activation. The last-touched board is
	// memoized for the lookups that land below the top (the loop frame
	// under its callees).
	boards    frameStack[frameBoard]
	lastFrame int64
	lastBoard *frameBoard

	bd *Breakdown
}

func newPipeline(width, penalty int, nregs []int, bd *Breakdown) *pipeline {
	return &pipeline{width: width, penalty: penalty, nregs: nregs, bd: bd}
}

// board returns frame's scoreboard; with create it materializes one (from
// the pool when possible, sized for function fn, or empty when fn is -1)
// instead of returning nil.
func (p *pipeline) board(frame int64, fn int32, create bool) *frameBoard {
	if p.lastBoard != nil && p.lastFrame == frame {
		return p.lastBoard
	}
	var b *frameBoard
	if i := p.boards.find(frame); i >= 0 {
		b = p.boards.recs[i]
	} else if !create {
		return nil
	} else {
		b = p.boards.open(frame)
		n := 0 // unknown function: the board grows as registers are set
		if fn >= 0 {
			n = p.nregs[fn]
		}
		b.ready = slices.Grow(b.ready[:0], n)[:n]
		b.fromLoad = slices.Grow(b.fromLoad[:0], n)[:n]
		clear(b.ready)
		clear(b.fromLoad)
	}
	p.lastFrame, p.lastBoard = frame, b
	return b
}

// now returns the pipeline's current cycle.
func (p *pipeline) now() int64 { return p.cycle }

// advanceTo moves the pipeline clock forward (never backward).
func (p *pipeline) advanceTo(t int64) {
	if t > p.cycle {
		p.cycle = t
		p.slots = 0
	}
}

// reset clears scoreboard state (used when a speculative pipeline is
// re-armed for a new thread).
func (p *pipeline) reset(at int64) {
	p.cycle = at
	p.slots = 0
	p.redirect = 0
	p.boards.reset()
	p.lastBoard = nil
}

// dropFrame forgets scoreboard entries of a dead activation.
func (p *pipeline) dropFrame(frame int64) {
	if i := p.boards.find(frame); i >= 0 {
		if p.lastBoard == p.boards.recs[i] {
			p.lastBoard = nil
		}
		p.boards.drop(i)
	}
}

// InstrBytes is the synthetic size of one instruction in the I-cache
// address space (Itanium bundles are 16 bytes for 3 instructions; one
// 5-ish-byte slot per instruction is close enough for locality).
const InstrBytes = 5

// exec issues one traced instruction and returns its issue and completion
// times. mem provides load latencies (nil for a pure timing probe); bp may
// be nil to skip branch prediction.
func (p *pipeline) exec(ev trace.View, in *ir.Instr, hier *cache.Hierarchy, bp *bpred.GAg, account bool) (issue, complete int64) {
	// Slot discipline: at most width instructions per cycle, in order.
	if p.slots >= p.width {
		p.cycle++
		p.slots = 0
	}
	// Instruction fetch: a synthetic PC (function base + id) probes the
	// shared L1I; a miss stalls the front end for the extra latency.
	if hier != nil {
		pc := (int64(ev.Func()) << 24) + int64(ev.ID())*InstrBytes
		if extra := int64(hier.Instr(pc, p.cycle) - 1); extra > 0 {
			p.cycle += extra
			p.slots = 0
			if account {
				p.bd.PipeStall += extra
			}
		}
	}
	earliest := p.cycle

	// Operand readiness.
	opReady := int64(0)
	opLoad := false
	var uses [4]ir.Reg
	us := in.Uses(uses[:0])
	if len(us) > 0 {
		b := p.board(ev.Frame(), ev.Func(), false)
		for _, r := range us {
			if t, fl := b.get(r); t > opReady {
				opReady = t
				opLoad = fl
			}
		}
	}

	start := earliest
	if opReady > start {
		start = opReady
	}
	if p.redirect > start {
		start = p.redirect
	}
	if account && start > earliest {
		wait := start - earliest
		switch {
		case p.redirect >= opReady && p.redirect > earliest:
			p.bd.PipeStall += wait
		case opLoad:
			p.bd.DcacheStall += wait
		default:
			p.bd.Exec += wait // dependence-chain wait: execution time
		}
	}
	if start > p.cycle {
		p.cycle = start
		p.slots = 0
	}
	p.slots++
	if account {
		p.bd.IssueSlots++
	}

	lat := int64(in.Op.Latency())
	switch in.Op {
	case ir.Load:
		if hier != nil {
			lat = int64(hier.Data(ev.Addr(), start))
		}
	case ir.Store:
		if hier != nil {
			hier.Data(ev.Addr(), start) // warms/updates the shared cache
		}
		lat = 1
	case ir.Br:
		if bp != nil {
			if !bp.Predict(ev.Taken()) {
				p.redirect = start + lat + int64(p.penalty)
			}
		}
	}
	complete = start + lat

	if d := in.Def(); d != ir.NoReg {
		p.board(ev.Frame(), ev.Func(), true).set(d, complete, in.Op == ir.Load)
	}
	return start, complete
}

// setReady marks register r of activation frame (running function fn)
// available at time t.
func (p *pipeline) setReady(frame int64, fn int32, r ir.Reg, t int64, fromLoad bool) {
	p.board(frame, fn, true).set(r, t, fromLoad)
}
