package arch

import (
	"errors"
	"slices"

	"repro/internal/ir"
	"repro/internal/trace"
)

// srbEntry is one speculation-result-buffer record: a speculatively
// executed instruction with its timing and validity.
type srbEntry struct {
	pos      int64 // absolute trace index
	issue    int64
	complete int64
	misspec  bool
	wrongBr  bool // misspeculated branch: replay stops here
}

// specFrame is one activation inside a speculative window: its call
// linkage and the SRB entry that last wrote each of its registers.
type specFrame struct {
	frame   int64
	parent  int64   // calling activation, or -1 (the loop frame; unknown linkage)
	retDst  ir.Reg  // caller register receiving the return value
	writers []int32 // register -> SRB index of its last speculative writer, -1 = none
}

// writer returns the SRB index of r's last speculative writer, or -1.
func (f *specFrame) writer(r ir.Reg) int32 {
	if int(r) < len(f.writers) {
		return f.writers[r]
	}
	return -1
}

// setWriter records SRB entry idx as r's last speculative writer.
func (f *specFrame) setWriter(r ir.Reg, idx int) {
	for int(r) >= len(f.writers) {
		f.writers = append(f.writers, -1)
	}
	f.writers[r] = int32(idx)
}

// specFrameOf returns the window record of frame, or nil.
func (e *engine) specFrameOf(frame int64) *specFrame {
	if i := e.specFrames.find(frame); i >= 0 {
		return e.specFrames.recs[i]
	}
	return nil
}

// openSpecFrame files a record for an activation the walk enters, with
// room for nregs registers.
func (e *engine) openSpecFrame(frame int64, nregs int, parent int64, retDst ir.Reg) *specFrame {
	f := e.specFrames.open(frame)
	f.frame, f.parent, f.retDst = frame, parent, retDst
	f.writers = slices.Grow(f.writers[:0], nregs)[:nregs]
	for r := range f.writers {
		f.writers[r] = -1
	}
	return f
}

// commitWindow is called when the main thread arrives at the oldest
// speculative thread's start-point: it simulates that core's execution from
// the start-point up to the arrival time (bounded by the SRB and by the
// next thread's start-point), determines per-instruction validity with the
// register and memory dependence checkers, and performs fast-commit,
// selective re-execution replay, or a full squash depending on the
// configured recovery mechanism. The main thread resumes at the point
// replay stops. Commit order is arbitrated by the version chain: threads
// retire strictly in spawn order, which is what keeps N-core runs
// bit-identical across runs and replays.
func (e *engine) commitWindow() {
	s := e.specs[0]
	e.specs = append(e.specs[:0], e.specs[1:]...)
	if err := e.chain.Commit(s.chainID); err != nil {
		e.fail(errors.Join(errors.New("arch: commit arbitration broken"), err))
		return
	}
	defer e.releaseSpec(s)
	arrival := e.main.now()

	entries := e.runSpec(s, arrival)
	if len(entries) > 0 {
		busy := entries[len(entries)-1].complete - s.forkTime
		if busy > 0 {
			e.stats.SpecBusyCycles += busy
		}
	}
	if len(entries) == 0 {
		// The speculative core never got going before the main thread
		// arrived: kill it and continue normally. Successors (if any) were
		// spawned by earlier, committed windows and stay valid.
		e.stats.Squashes[SquashEmpty]++
		if s.loop != nil {
			s.loop.Kills++
		}
		e.freeCore(arrival)
		e.foldChainSSB(nil)
		return
	}

	// Dependence checks + transitive misspeculation closure happened in
	// runSpec. Summarize.
	clean := true
	stop := len(entries)
	for i := range entries {
		if entries[i].misspec {
			clean = false
			if entries[i].wrongBr {
				stop = i + 1
				break
			}
		}
	}
	entries = entries[:stop]
	// Threads spawned beyond the committed region never became
	// architectural: their fork context is wrong-path state.
	e.squashSuccessors(entries[len(entries)-1].pos, SquashCascade)

	e.stats.SpecInstrs += int64(len(entries))
	if s.loop != nil {
		s.loop.SpecInstrs += int64(len(entries))
	}

	if e.cfg.Recovery == RecoverySquash && !clean {
		// Conventional recovery: discard everything; main re-executes the
		// whole region normally from the start-point. Successors forked
		// from the discarded window die with it.
		e.stats.Squashes[SquashViolation]++
		e.stats.MisspecInstrs += int64(len(entries))
		if s.loop != nil {
			s.loop.Kills++
			s.loop.MisspecInstrs += int64(len(entries))
		}
		e.squashSuccessors(s.startPos-1, SquashCascade)
		e.freeCore(arrival)
		e.foldChainSSB(nil)
		return
	}

	if !clean && e.sched.EagerSquash() {
		// Eager restart: any violation retires the whole chain; speculation
		// restarts from the repaired architectural state (the re-arm in
		// absorb below, which fires once the chain is empty).
		e.squashSuccessors(s.startPos-1, SquashEager)
	}

	if clean {
		// Fast commit: the entire speculative state commits at once.
		e.stats.FastCommits++
		e.stats.CommittedInstr += int64(len(entries))
		if s.loop != nil {
			s.loop.FastCommits++
			s.loop.CommittedInstr += int64(len(entries))
		}
		e.main.advanceTo(arrival + int64(e.cfg.FastCommitCycles))
		e.freeCore(e.main.now())
		e.foldChainSSB(entries)
		e.absorb(entries, s)
		return
	}

	// Selective re-execution replay: walk the SRB in program order; commit
	// correct entries at the replay width, re-execute misspeculated ones on
	// the main pipeline at the normal width.
	e.stats.Replays++
	if s.loop != nil {
		s.loop.Replays++
	}
	var walked, reexec int64
	reexecEntries := e.reexecScratch[:0]
	for i := range entries {
		walked++
		if entries[i].misspec {
			reexec++
			reexecEntries = append(reexecEntries, i)
		}
	}
	e.reexecScratch = reexecEntries
	commitCost := (walked + int64(e.cfg.ReplayIssueWidth) - 1) / int64(e.cfg.ReplayIssueWidth)
	e.main.advanceTo(arrival + commitCost)
	// Re-execute misspeculated instructions with their true latencies.
	for _, i := range reexecEntries {
		ev := e.win.At(entries[i].pos)
		in := e.lp.InstrAt(ev.Func(), ev.ID())
		e.main.exec(ev, in, e.hier, nil, true)
	}
	e.main.advanceTo(e.main.now() + int64(e.cfg.FastCommitCycles)) // register copy-back on commit
	e.stats.MisspecInstrs += reexec
	e.stats.CommittedInstr += walked - reexec
	if s.loop != nil {
		s.loop.MisspecInstrs += reexec
		s.loop.CommittedInstr += walked - reexec
	}
	killed := entries[len(entries)-1].wrongBr
	if killed {
		e.stats.Squashes[SquashWrongPath]++
		if s.loop != nil {
			s.loop.Kills++
		}
	}
	e.freeCore(e.main.now())
	e.foldChainSSB(entries)
	e.absorb(entries, s)
}

// squashSuccessors retires every in-flight thread whose fork position lies
// beyond limit: its register copy was taken from state that never became
// architectural. Squashing walks from the youngest end, so only a suffix
// of the chain dies — predecessors are untouched (per-thread isolation).
func (e *engine) squashSuccessors(limit int64, cause SquashCause) {
	for len(e.specs) > 0 {
		s := e.specs[len(e.specs)-1]
		if s.forkPos <= limit {
			break
		}
		e.specs = e.specs[:len(e.specs)-1]
		e.chain.Squash(s.chainID)
		e.stats.Squashes[cause]++
		if s.loop != nil {
			s.loop.Kills++
		}
		e.freeCore(e.main.now())
		e.releaseSpec(s)
	}
}

// foldChainSSB publishes a committed window's speculative stores to its
// still-in-flight successors (the version chain's memory view): a
// successor's load to the same address forwards from here, inheriting the
// store's validity. With no successors the map is cleared instead — the
// classic one-thread machine therefore never populates it.
func (e *engine) foldChainSSB(entries []srbEntry) {
	if len(e.specs) == 0 {
		if len(e.chainSSB) > 0 {
			clear(e.chainSSB)
		}
		return
	}
	for addr, si := range e.ssb {
		if si < len(entries) {
			e.chainSSB[addr] = entries[si].misspec
		}
	}
}

// absorb performs engine bookkeeping for committed entries (the main
// thread adopts them without executing them) and moves the main position
// past the committed region.
func (e *engine) absorb(entries []srbEntry, s *specThread) {
	forkIdx := -1
	// Track the loop frame's register state through the committed region so
	// a re-fork starts from the commit-time context (what the real
	// machine's replay would have in the register file), not the stale
	// fork-event snapshot. The tracking array is engine scratch: it is
	// copied by armThread before the next window can reuse it.
	var regs []int64
	if len(s.mainRegs) > 0 {
		if cap(e.regsScratch) < len(s.mainRegs) {
			e.regsScratch = make([]int64, len(s.mainRegs))
		}
		regs = e.regsScratch[:len(s.mainRegs)]
		copy(regs, s.mainRegs)
	}
	for i := range entries {
		ev := e.win.At(entries[i].pos)
		in := e.lp.InstrAt(ev.Func(), ev.ID())
		if regs != nil {
			if in.Op == ir.Ret {
				if ai := e.acts.find(ev.Frame()); ai >= 0 {
					if fi := e.acts.recs[ai]; fi.parent == s.frame && fi.retDst != ir.NoReg && int(fi.retDst) < len(regs) {
						regs[fi.retDst] = ev.Val()
					}
				}
			}
			if ev.Frame() == s.frame {
				if d := in.Def(); d != ir.NoReg && int(d) < len(regs) {
					regs[d] = ev.Val()
				}
			}
		}
		e.bookkeep(ev, in, entries[i].pos)
		// Register readiness for subsequently executed main instructions:
		// committed results are available at commit time.
		if d := in.Def(); d != ir.NoReg {
			e.main.setReady(ev.Frame(), ev.Func(), d, e.main.now(), false)
		}
		if in.Op == ir.Ret {
			e.main.dropFrame(ev.Frame())
		}
		if in.Op == ir.SptFork && ev.Frame() == s.frame {
			// Only forks of the same loop activation can be re-armed with
			// the tracked register context; forks reached in other frames
			// (e.g. a later loop entered after this one exited) fire again
			// naturally when the main thread reaches them.
			forkIdx = i
		}
	}
	e.tracker.clock = e.main.now()
	e.pos = entries[len(entries)-1].pos + 1
	// A committed spt_fork re-arms a speculative core at commit time: the
	// replay walk "executes" the fork, so back-to-back windows keep the
	// speculative cores busy even when one iteration overflows the SRB.
	// With successors still in flight the chain already covers the next
	// iterations, so the re-arm only fires once the chain has drained.
	if e.cfg.SPT && forkIdx >= 0 && len(e.specs) == 0 {
		fe := entries[forkIdx]
		ev := e.win.At(fe.pos)
		snap := regs
		if regs == nil {
			snap = e.win.Snapshot(fe.pos)
		}
		e.handleFork(ev, snap, e.main.now(), fe.pos, e.pos)
	}
}

// spawnInWalk spawns the committing window's successor thread at one of its
// spt_fork entries — the N-core overlap: the new thread's fork time derives
// from the fork's completion inside the *speculative* pipeline, long before
// the main thread arrives. The spawned thread's live-ins come from the
// walk's speculative state, so wrongness propagates through the version
// chain: a live-in last written by a misspeculated entry (or inherited
// from an already-violated spawner) starts out violated.
func (e *engine) spawnInWalk(parent *specThread, pos, complete int64, entries []srbEntry, lw []int32, violated []bool) *specThread {
	if len(e.coreFree) == 0 {
		e.stats.NoForks++
		return nil
	}
	ev := e.win.At(pos)
	in := e.lp.InstrAt(ev.Func(), ev.ID())
	bi := e.lp.LabelIndex(ev.Func(), in.Target)
	if bi < 0 {
		e.stats.NoForks++
		return nil
	}
	startID := e.lp.BlockStart(ev.Func(), bi)
	startPos := e.findStart(parent.frame, startID, pos+1)
	if startPos < 0 {
		e.stats.NoForks++
		return nil
	}
	if n := len(e.specs); n > 0 && startPos <= e.specs[n-1].startPos {
		e.stats.NoForks++
		return nil
	}
	s := e.armThread(ev, e.win.Snapshot(pos), parent.frame, complete, pos, bi, startID, startPos, parent.loop)
	if n := len(s.snapshot); n > 0 {
		if cap(s.inherit) < n {
			s.inherit = make([]bool, n)
		} else {
			s.inherit = s.inherit[:n]
			clear(s.inherit)
		}
		for r := 0; r < n; r++ {
			if s.plan.Covers(ir.Reg(r)) {
				continue // recomputed by the pre-computation slice at spawn
			}
			if r < len(lw) && lw[r] >= 0 {
				s.inherit[r] = entries[lw[r]].misspec
			} else if r < len(violated) {
				s.inherit[r] = violated[r]
			}
		}
	}
	e.stats.ChainSpawns++
	return s
}

// runSpec simulates a speculative core from the thread's start-point: loads
// first search the thread's own speculative store buffer, then committed
// predecessors' stores (the chain SSB), then the shared cache with their
// timestamps recorded in the load address buffer; issue stops at the
// arrival time, the SRB capacity, a return out of the loop frame, the next
// in-flight thread's start-point, or the buffered window's end. Validity is
// resolved in program order: source violations from the register checker
// (value- or update-based, seeded with violations inherited through the
// version chain) and the memory checker (address-based against
// architectural post-fork stores, honouring temporal order), closed
// transitively over register def-use and store-buffer forwarding; a
// misspeculated branch marks the wrong-path stop. An spt_fork executed in
// the loop frame spawns the next thread in the chain when a core is free.
//
// The returned slice aliases engine scratch preallocated to the SRB size;
// it is valid until the next window's runSpec.
func (e *engine) runSpec(s *specThread, arrival int64) []srbEntry {
	entries := e.srbScratch[:0]
	e.specBd = Breakdown{}
	sp := e.specPipe
	sp.reset(s.forkTime)

	// Violated live-in registers of the loop frame: the configured checker
	// against the post-fork architectural writes, OR-ed with violations
	// inherited at spawn; registers covered by a pre-computation slice are
	// recomputed at spawn and never start violated.
	if cap(e.violatedScratch) < len(s.snapshot) {
		e.violatedScratch = make([]bool, len(s.snapshot))
	}
	violated := e.violatedScratch[:len(s.snapshot)]
	for r := range violated {
		v := false
		switch e.cfg.RegCheck {
		case RegCheckValue:
			v = len(s.mainRegs) > 0 && s.mainRegs[r] != s.snapshot[r]
		case RegCheckUpdate:
			v = len(s.written) > 0 && s.written[r]
		}
		if !v && r < len(s.inherit) && s.inherit[r] {
			v = true
		}
		if v && s.plan.Covers(ir.Reg(r)) {
			v = false
		}
		violated[r] = v
	}

	// The walk must not run past the next in-flight thread's start-point:
	// that iteration range belongs to the successor's core.
	stopAt := int64(-1)
	if len(e.specs) > 0 {
		stopAt = e.specs[0].startPos
	}

	// Register writers are tracked per activation the walk is inside: the
	// loop frame, where nearly every window event lives, and the callees
	// entered in the window, each dropped at its Ret.
	e.specFrames.reset()
	loop := e.openSpecFrame(s.frame, max(e.main.nregs[s.fn], len(s.snapshot)), -1, ir.NoReg)
	cur := loop  // the current event's record
	ssb := e.ssb // addr -> entry index of latest spec store
	clear(ssb)

	pos := s.startPos
	for pos < e.end {
		if pos == stopAt {
			break // the successor thread's iteration range starts here
		}
		ev := e.win.At(pos)
		in := e.lp.InstrAt(ev.Func(), ev.ID())

		if cur == nil || ev.Frame() != cur.frame {
			if cur = e.specFrameOf(ev.Frame()); cur == nil {
				cur = e.enterSpecFrame(s, ev, pos, len(entries)-1)
			}
		}
		if in.Op == ir.Ret && cur == loop {
			break // speculation ran out of the loop function
		}
		if len(entries) >= e.cfg.SRBSize {
			break // SRB full: the speculative thread stalls until commit
		}

		issue, complete := sp.exec(ev, in, nil, nil, false)
		if issue > arrival {
			break // killed at arrival
		}

		// Determine validity.
		miss := false
		var uses [4]ir.Reg
		for _, r := range in.Uses(uses[:0]) {
			if wi := cur.writer(r); wi >= 0 {
				if entries[wi].misspec {
					miss = true
				}
			} else if cur == loop && int(r) < len(violated) && violated[r] {
				miss = true
			}
		}
		var memLat int64
		switch in.Op {
		case ir.Load:
			if si, ok := ssb[ev.Addr()]; ok {
				// Store-buffer forwarding: inherits the store's validity.
				if entries[si].misspec {
					miss = true
				}
				memLat = 1
			} else if mi, ok := chainLookup(e.chainSSB, ev.Addr()); ok {
				// Forwarding from a committed predecessor window's store
				// buffer, validity inherited through the version chain.
				if mi {
					miss = true
				}
				memLat = 1
			} else {
				memLat = int64(e.hier.Data(ev.Addr(), issue))
				// Load address buffer: any architectural post-fork store to
				// this address at or after the load's issue is a violation.
				for _, st := range s.stores {
					if st.addr == ev.Addr() && st.time >= issue {
						miss = true
						break
					}
				}
			}
			complete = issue + memLat
			if d := in.Def(); d != ir.NoReg {
				sp.setReady(ev.Frame(), ev.Func(), d, complete, true)
			}
		case ir.Store:
			ssb[ev.Addr()] = len(entries)
		case ir.SptFork:
			if e.cfg.SPT && cur == loop {
				if ns := e.spawnInWalk(s, pos, complete, entries, loop.writers[:len(violated)], violated); ns != nil {
					stopAt = ns.startPos
				}
			}
		case ir.Ret:
			// Propagate the return value into the caller's writers.
			if cur.parent >= 0 && cur.retDst != ir.NoReg {
				if pf := e.specFrameOf(cur.parent); pf != nil {
					pf.setWriter(cur.retDst, len(entries))
				}
				// The caller's board exists: its Call defined retDst.
				sp.setReady(cur.parent, -1, cur.retDst, complete, false)
			}
			// No event of a returned activation follows its Ret.
			sp.dropFrame(ev.Frame())
			e.specFrames.drop(e.specFrames.find(ev.Frame()))
			cur = nil
		}
		if d := in.Def(); d != ir.NoReg {
			cur.setWriter(d, len(entries))
		}

		ent := srbEntry{pos: pos, issue: issue, complete: complete, misspec: miss}
		if miss && in.Op == ir.Br {
			ent.wrongBr = true
		}
		entries = append(entries, ent)
		pos++
	}
	e.srbScratch = entries[:0]
	return entries
}

// enterSpecFrame opens the record of an activation the walk enters at pos.
// It is a callee of the previous event's frame when that event is a Call,
// whose SRB entry (callIdx) the parameters inherit their validity from.
// Under event-drop fault injection the Call entry may be missing; the
// parameters are then treated as clean.
func (e *engine) enterSpecFrame(s *specThread, ev trace.View, pos int64, callIdx int) *specFrame {
	if pos > s.startPos {
		prev := e.win.At(pos - 1)
		if pin := e.lp.InstrAt(prev.Func(), prev.ID()); pin.Op == ir.Call {
			f := e.openSpecFrame(ev.Frame(), e.main.nregs[ev.Func()], prev.Frame(), pin.Dst)
			if callIdx >= 0 {
				for pr := 0; pr < e.lp.IR.Funcs[ev.Func()].NumParams; pr++ {
					f.writers[pr] = int32(callIdx)
				}
			}
			return f
		}
	}
	return e.openSpecFrame(ev.Frame(), e.main.nregs[ev.Func()], -1, ir.NoReg)
}

// chainLookup probes the chain SSB, skipping the map access entirely when
// it is empty (always, on the classic machine).
func chainLookup(m map[int64]bool, addr int64) (bool, bool) {
	if len(m) == 0 {
		return false, false
	}
	mi, ok := m[addr]
	return mi, ok
}
