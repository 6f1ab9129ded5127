package arch

// Hand-built SPT programs that probe each hardware structure of Section 3
// in isolation: the speculative store buffer, the load-address buffer's
// temporal-order check, misspeculation taint propagation through register
// def-use and call linkage, the wrong-path replay stop, and the SRB window
// bound. Each program is written directly in the transformed (forked) shape
// so the test controls exactly what the speculative window contains.

import (
	"testing"

	"repro/internal/ir"
)

// forkedLoop builds a canonical pre-transformed SPT loop:
//
//	entry:  <init>; temp_i = i; jmp head
//	head:   c = i > 0 ? start : killblk
//	start:  i = temp_i; temp_i = i-1; spt_fork(start); <body(i)>; i--; jmp head
//	killblk: spt_kill; jmp exit
//	exit:   ret <ret>
//
// body receives the builder and the iteration register.
type forkedLoopSpec struct {
	n       int64
	nregs   int // extra scratch registers to allocate
	globals []ir.Global
	body    func(b *ir.FuncBuilder, i ir.Reg, scratch []ir.Reg)
	retReg  func(scratch []ir.Reg) int // index into scratch, or -1 for i
}

func buildForkedLoop(spec forkedLoopSpec) *ir.Program {
	b := ir.NewFuncBuilder("main", 0)
	i, c, z, ti := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	scratch := make([]ir.Reg, spec.nregs)
	for k := range scratch {
		scratch[k] = b.NewReg()
	}
	b.Block("entry")
	b.MovI(i, spec.n)
	b.MovI(z, 0)
	for _, r := range scratch {
		b.MovI(r, 0)
	}
	b.Mov(ti, i)
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "start", "killblk")
	b.Block("start")
	b.Mov(i, ti)
	b.AddI(ti, i, -1)
	b.SptFork("start")
	spec.body(b, i, scratch)
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("killblk")
	b.SptKill()
	b.Jmp("exit")
	b.Block("exit")
	ret := i
	if spec.retReg != nil {
		if idx := spec.retReg(scratch); idx >= 0 {
			ret = scratch[idx]
		}
	}
	b.Ret(ret)
	pb := ir.NewProgramBuilder("main").AddFunc(b.Done())
	for _, g := range spec.globals {
		pb.AddGlobal(g.Name, g.Size, g.Init...)
	}
	return pb.Done()
}

func runForked(t *testing.T, spec forkedLoopSpec, cfg Config) *RunStats {
	t.Helper()
	p := buildForkedLoop(spec)
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid: %v\n%s", err, p.Disasm())
	}
	return simulate(t, p, cfg)
}

// TestSSBForwarding: an iteration stores to a private slot and immediately
// loads it back. The speculative thread's load must be satisfied by the
// speculative store buffer — never flagged as a violation, even though the
// address is written every iteration.
func TestSSBForwarding(t *testing.T) {
	spec := forkedLoopSpec{
		n:       200,
		nregs:   2,
		globals: []ir.Global{{Name: "slot", Size: 400}},
		body: func(b *ir.FuncBuilder, i ir.Reg, s []ir.Reg) {
			g, v := s[0], s[1]
			b.GAddr(g, "slot")
			b.ALU(ir.Add, g, g, i) // per-iteration slot: no cross-iteration alias
			b.MulI(v, i, 7)
			b.Store(g, 0, v)
			b.Load(v, g, 0) // same-window load: SSB hit
			emitChain(b, v, v, 6)
			b.Store(g, 0, v)
		},
	}
	st := runForked(t, spec, DefaultConfig())
	if st.Windows == 0 {
		t.Fatal("no windows")
	}
	if st.FastCommitRatio() < 0.95 {
		t.Errorf("SSB-forwarded loads caused violations: fast-commit %.2f", st.FastCommitRatio())
	}
}

// TestTemporalOrderMemoryCheck: the load-address buffer only flags stores
// the speculative load could not have seen. A carried dependence whose
// producer store happens *early* in the main iteration and whose consumer
// load happens *late* in the speculative iteration resolves through the
// coherent cache — no violation. Swapping the positions makes every window
// violate.
func TestTemporalOrderMemoryCheck(t *testing.T) {
	mk := func(loadFirst bool) forkedLoopSpec {
		return forkedLoopSpec{
			n:       300,
			nregs:   3,
			globals: []ir.Global{{Name: "cell", Size: 1}},
			body: func(b *ir.FuncBuilder, i ir.Reg, s []ir.Reg) {
				g, v, w := s[0], s[1], s[2]
				b.GAddr(g, "cell")
				if loadFirst {
					// load early ... store late: spec load races ahead of
					// the main store -> violation
					b.Load(v, g, 0)
					emitChain(b, w, i, 10)
					b.ALU(ir.Add, v, v, w)
					b.Store(g, 0, v)
				} else {
					// store early ... nothing reads late: main's store
					// completes before the next window's early chain
					// finishes, and the spec load happens after its own
					// long chain -> mostly no violation
					b.Load(v, g, 0)
					b.AddI(v, v, 1)
					b.Store(g, 0, v)
					emitChain(b, w, i, 10)
					b.ALU(ir.Xor, s[1], v, w)
				}
			},
			retReg: func(s []ir.Reg) int { return 1 },
		}
	}
	early := runForked(t, mk(true), DefaultConfig())
	late := runForked(t, mk(false), DefaultConfig())
	if early.FastCommitRatio() > 0.3 {
		t.Errorf("early-load/late-store loop fast-commits %.2f, want near 0", early.FastCommitRatio())
	}
	if late.FastCommitRatio() < 0.5 {
		t.Errorf("store-early loop fast-commits %.2f, want majority (temporal order satisfied)",
			late.FastCommitRatio())
	}
}

// TestTaintThroughCallLinkage: a violated value passed as a call argument
// taints the callee's computation and the returned value's consumers.
func TestTaintThroughCallLinkage(t *testing.T) {
	// callee(x) -> x*3 + chain
	cb := ir.NewFuncBuilder("callee", 1)
	cv := cb.NewReg()
	cb.Block("entry")
	cb.MulI(cv, cb.Param(0), 3)
	emitChain(cb, cv, cv, 4)
	cb.Ret(cv)
	callee := cb.Done()

	b := ir.NewFuncBuilder("main", 0)
	i, c, z, ti, g, v, acc := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(i, 200)
	b.MovI(z, 0)
	b.MovI(acc, 0)
	b.Mov(ti, i)
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "start", "killblk")
	b.Block("start")
	b.Mov(i, ti)
	b.AddI(ti, i, -1)
	b.SptFork("start")
	b.GAddr(g, "cell")
	b.Load(v, g, 0) // early load of the carried cell: violates
	b.Call(v, "callee", v)
	b.ALU(ir.Xor, acc, acc, v)
	emitChain(b, v, v, 6)
	b.Store(g, 0, v) // late store: next window's early load is stale
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("killblk")
	b.SptKill()
	b.Jmp("exit")
	b.Block("exit")
	b.Ret(acc)
	p := ir.NewProgramBuilder("main").AddFunc(b.Done()).AddFunc(callee).
		AddGlobal("cell", 1).Done()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st := simulate(t, p, DefaultConfig())
	if st.Windows == 0 || st.Replays == 0 {
		t.Fatalf("expected replayed windows: %+v", st)
	}
	// Nearly the whole window depends on the violated load through the
	// call: most speculative instructions must be re-executed.
	if st.MisspecRatio() < 0.5 {
		t.Errorf("taint did not propagate through the call: misspec ratio %.2f", st.MisspecRatio())
	}
}

// TestWrongPathStopsReplay: when the violated value feeds a branch early in
// the body, replay must stop there — committed instructions per window stay
// small even though the window is long.
func TestWrongPathStopsReplay(t *testing.T) {
	spec := forkedLoopSpec{
		n:       200,
		nregs:   4,
		globals: []ir.Global{{Name: "cell", Size: 1}},
		body: func(b *ir.FuncBuilder, i ir.Reg, s []ir.Reg) {
			g, v, w, one := s[0], s[1], s[2], s[3]
			b.GAddr(g, "cell")
			b.Load(v, g, 0) // violated early load
			b.MovI(one, 1)
			b.ALU(ir.And, w, v, one)
			b.Br(w, "odd", "even") // misspeculated branch right away
			b.Block("odd")
			emitChain(b, w, i, 12)
			b.Jmp("join")
			b.Block("even")
			emitChain(b, w, i, 12)
			b.Jmp("join")
			b.Block("join")
			b.ALU(ir.Add, v, v, w)
			b.Store(g, 0, v) // late store keeps every window violated
		},
		retReg: func(s []ir.Reg) int { return 1 },
	}
	st := runForked(t, spec, DefaultConfig())
	if st.Replays == 0 {
		t.Fatal("no replays")
	}
	perWindow := float64(st.CommittedInstr+st.MisspecInstrs) / float64(st.Windows)
	// The body is ~35 instructions; replay stopping at the early branch
	// must keep the per-window commit well below that.
	if perWindow > 20 {
		t.Errorf("replay did not stop at the wrong-path branch: %.1f instrs/window", perWindow)
	}
	if st.Squashes[SquashWrongPath] == 0 {
		t.Error("wrong-path windows should be counted as killed")
	}
}

// TestRecursionInsideSpeculativeWindow: speculative windows that call a
// recursive function must track frames correctly and still commit.
func TestRecursionInsideSpeculativeWindow(t *testing.T) {
	rb := ir.NewFuncBuilder("fib", 1)
	x, c, z, t1, t2 := rb.Param(0), rb.NewReg(), rb.NewReg(), rb.NewReg(), rb.NewReg()
	rb.Block("entry")
	rb.MovI(z, 2)
	rb.ALU(ir.CmpLT, c, x, z)
	rb.Br(c, "base", "rec")
	rb.Block("base")
	rb.Ret(x)
	rb.Block("rec")
	rb.AddI(t1, x, -1)
	rb.Call(t1, "fib", t1)
	rb.AddI(t2, x, -2)
	rb.Call(t2, "fib", t2)
	rb.ALU(ir.Add, t1, t1, t2)
	rb.Ret(t1)
	fib := rb.Done()

	spec := forkedLoopSpec{
		n:       100,
		nregs:   3,
		globals: []ir.Global{{Name: "out", Size: 128}},
		body: func(b *ir.FuncBuilder, i ir.Reg, s []ir.Reg) {
			v, g, m := s[0], s[1], s[2]
			b.MovI(v, 6)
			b.Call(v, "fib", v)
			b.GAddr(g, "out")
			b.MovI(m, 127)
			b.ALU(ir.And, m, i, m)
			b.ALU(ir.Add, g, g, m)
			b.Store(g, 0, v) // per-iteration slot: no carried dependence
		},
	}
	p := buildForkedLoop(spec)
	p.Funcs = append(p.Funcs, fib)
	p.Finalize()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	base := simulate(t, p, BaselineConfig())
	st := simulate(t, p, DefaultConfig())
	if st.Windows == 0 {
		t.Fatal("no windows")
	}
	if st.FastCommitRatio() < 0.9 {
		t.Errorf("recursive windows violated: fast-commit %.2f", st.FastCommitRatio())
	}
	if st.Cycles >= base.Cycles {
		t.Errorf("no speedup on independent recursive bodies: %d vs %d", st.Cycles, base.Cycles)
	}
}

// TestSpecInstrAccounting: committed + misspeculated must equal the
// speculative instruction count, and per-loop stats must not exceed totals.
func TestSpecInstrAccounting(t *testing.T) {
	p := buildParallelLoop(300, 10)
	cres := compileSPT(t, p)
	st := simulate(t, cres.Program, DefaultConfig())
	if st.CommittedInstr+st.MisspecInstrs != st.SpecInstrs {
		t.Errorf("accounting broken: committed %d + misspec %d != spec %d",
			st.CommittedInstr, st.MisspecInstrs, st.SpecInstrs)
	}
	for k, ls := range st.PerLoop {
		if ls.SpecInstrs > st.SpecInstrs || ls.Windows > st.Windows {
			t.Errorf("loop %v stats exceed totals: %+v", k, ls)
		}
		if ls.CommittedInstr+ls.MisspecInstrs != ls.SpecInstrs {
			t.Errorf("loop %v accounting broken: %+v", k, ls)
		}
	}
}

// TestSquashDiscardsEverything: under full-squash recovery no violated
// window contributes committed instructions.
func TestSquashDiscardsEverything(t *testing.T) {
	spec := forkedLoopSpec{
		n:       200,
		nregs:   3,
		globals: []ir.Global{{Name: "cell", Size: 1}},
		body: func(b *ir.FuncBuilder, i ir.Reg, s []ir.Reg) {
			g, v, w := s[0], s[1], s[2]
			b.GAddr(g, "cell")
			b.Load(v, g, 0)
			emitChain(b, w, i, 8)
			b.ALU(ir.Add, v, v, w)
			b.Store(g, 0, v)
		},
		retReg: func(s []ir.Reg) int { return 1 },
	}
	cfg := DefaultConfig()
	cfg.Recovery = RecoverySquash
	st := runForked(t, spec, cfg)
	if st.Replays != 0 {
		t.Errorf("squash recovery must not replay: %d", st.Replays)
	}
	if st.FastCommits > 0 && st.CommittedInstr == 0 {
		t.Error("clean windows should still commit under squash")
	}
	// Every violated window is squashed: misspec == all instructions of
	// those windows.
	if st.Squashes[SquashViolation] == 0 {
		t.Error("violated windows should be killed under squash")
	}
}

// TestWindowOverflowSuppressesForks: when one iteration exceeds the
// engine's lookahead window, the start-point is never found and the fork is
// suppressed rather than wedging the simulation.
func TestWindowOverflowSuppressesForks(t *testing.T) {
	spec := forkedLoopSpec{
		n:     6,
		nregs: 2,
		body: func(b *ir.FuncBuilder, i ir.Reg, s []ir.Reg) {
			// A gigantic inner loop makes each iteration larger than the
			// shrunken lookahead window.
			j, v := s[0], s[1]
			b.MovI(j, 500)
			b.Jmp("inner.head")
			b.Block("inner.head")
			b.MovI(v, 0)
			b.ALU(ir.CmpGT, v, j, v)
			b.Br(v, "inner.body", "inner.exit")
			b.Block("inner.body")
			emitChain(b, v, j, 2)
			b.AddI(j, j, -1)
			b.Jmp("inner.head")
			b.Block("inner.exit")
		},
	}
	cfg := DefaultConfig()
	cfg.Window = 512 // far smaller than the ~3500-instruction iteration
	cfg.SRBSize = 64
	st := runForked(t, spec, cfg)
	if st.NoForks == 0 {
		t.Errorf("expected suppressed forks with a tiny window: %+v", st)
	}
	if st.Cycles == 0 {
		t.Error("simulation wedged")
	}
}
