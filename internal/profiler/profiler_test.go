package profiler

import (
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
)

func collect(t *testing.T, p *ir.Program) *Profile {
	t.Helper()
	lp, err := interp.Load(p)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	prof, err := Collect(lp, 0)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return prof
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// buildCounted builds a counted while-loop with an accumulator.
func buildCounted(n int64) *ir.Program {
	b := ir.NewFuncBuilder("main", 0)
	i, s, c, z, inv := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(i, n)
	b.MovI(s, 0)
	b.MovI(z, 0)
	b.MovI(inv, 42) // loop-invariant
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "body", "exit")
	b.Block("body")
	b.ALU(ir.Add, s, s, inv)
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("exit")
	b.Ret(s)
	return ir.NewProgramBuilder("main").AddFunc(b.Done()).Done()
}

func TestCountedLoopProfile(t *testing.T) {
	prof := collect(t, buildCounted(50))
	lp := prof.Loop(LoopKey{Func: "main", Header: "head"})
	if lp == nil {
		t.Fatal("loop not profiled")
	}
	if lp.Entries != 1 {
		t.Errorf("entries = %d, want 1", lp.Entries)
	}
	if lp.Iterations != 50 {
		t.Errorf("iterations = %d, want 50", lp.Iterations)
	}
	if got := lp.TripCount(); !approx(got, 50, 0.01) {
		t.Errorf("trip count = %v", got)
	}
	// i (r0) changes every iteration; s (r1) changes every iteration
	// (inv != 0); inv (r4) never changes.
	if p := lp.RegChangeProb(0); !approx(p, 1, 0.05) {
		t.Errorf("RegChangeProb(i) = %v, want ~1", p)
	}
	if p := lp.RegChangeProb(1); !approx(p, 1, 0.05) {
		t.Errorf("RegChangeProb(s) = %v, want ~1", p)
	}
	if p := lp.RegChangeProb(4); p != 0 {
		t.Errorf("RegChangeProb(inv) = %v, want 0", p)
	}
	// Value profile: i strides by -1 with probability 1.
	stride, prob, ok := lp.Values[0].BestStride()
	if !ok || stride != -1 || !approx(prob, 1, 0.01) {
		t.Errorf("i stride = %d prob %v ok %v, want -1/1", stride, prob, ok)
	}
	// Body size: body has 2 instrs + latch jmp + header cmp + br = 5.
	if bs := lp.BodySize(); !approx(bs, 5, 1.5) {
		t.Errorf("BodySize = %v, want ~5", bs)
	}
	// Reach probability of body instructions is 1.
	for _, id := range []int{5, 7} { // cmp (id 4?) — check via exec counts instead
		_ = id
	}
	for id, n := range lp.Exec {
		if n > lp.Iterations+1 {
			t.Errorf("instr %d executed %d times > iterations", id, n)
		}
	}
}

// buildCallLoop: x updated through a call (SVP pattern, Figure 5).
func buildCallLoop(n int64) *ir.Program {
	bar := ir.NewFuncBuilder("bar", 1)
	v := bar.NewReg()
	bar.Block("entry")
	bar.AddI(v, bar.Param(0), 2)
	bar.Ret(v)

	b := ir.NewFuncBuilder("main", 0)
	x, i, c, z := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(x, 10)
	b.MovI(i, n)
	b.MovI(z, 0)
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "body", "exit")
	b.Block("body")
	b.Call(x, "bar", x) // x = bar(x) == x + 2
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("exit")
	b.Ret(x)
	return ir.NewProgramBuilder("main").AddFunc(b.Done()).AddFunc(bar.Done()).Done()
}

func TestCallReturnValueProfiled(t *testing.T) {
	prof := collect(t, buildCallLoop(40))
	lp := prof.Loop(LoopKey{Func: "main", Header: "head"})
	if lp == nil {
		t.Fatal("loop not profiled")
	}
	// x (r0) is updated via the call: the shadow register file must see the
	// return value, so the value profile finds stride +2.
	stride, prob, ok := lp.Values[0].BestStride()
	if !ok || stride != 2 || !approx(prob, 1, 0.01) {
		t.Errorf("x stride = %d prob %v ok %v, want 2/1.0", stride, prob, ok)
	}
	// Inclusive body size includes the callee (call + 2 callee instrs + ...).
	if bs := lp.BodySize(); bs < 6 {
		t.Errorf("BodySize = %v, want >= 6 (inclusive of callee)", bs)
	}
}

// buildMemDepLoop: each iteration stores to a slot and loads the slot the
// previous iteration stored (carried memory dependence with probability 1).
func buildMemDepLoop(n int64) *ir.Program {
	b := ir.NewFuncBuilder("main", 0)
	i, c, z, g, v := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(i, n)
	b.MovI(z, 0)
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "body", "exit")
	b.Block("body")
	b.GAddr(g, "cell")
	b.Load(v, g, 0) // reads what the previous iteration stored
	b.AddI(v, v, 1)
	b.Store(g, 0, v) // feeds the next iteration
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("exit")
	b.Ret(v)
	return ir.NewProgramBuilder("main").AddFunc(b.Done()).AddGlobal("cell", 1).Done()
}

func TestMemDepProfiled(t *testing.T) {
	prof := collect(t, buildMemDepLoop(30))
	lp := prof.Loop(LoopKey{Func: "main", Header: "head"})
	if lp == nil {
		t.Fatal("loop not profiled")
	}
	if len(lp.MemDep) == 0 {
		t.Fatal("no carried memory dependences recorded")
	}
	var total int64
	for _, n := range lp.MemDep {
		total += n
	}
	// 29 of 30 iterations read the previous iteration's store.
	if total != 29 {
		t.Errorf("carried mem deps = %d, want 29", total)
	}
}

func TestSameIterationStoreNotCarried(t *testing.T) {
	// Store then load the same address within one iteration: no carried dep.
	b := ir.NewFuncBuilder("main", 0)
	i, c, z, g, v := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(i, 20)
	b.MovI(z, 0)
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "body", "exit")
	b.Block("body")
	b.GAddr(g, "cell")
	b.Store(g, 0, i) // same-iteration store first
	b.Load(v, g, 0)  // then load: intra dependence only
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("exit")
	b.Ret(v)
	p := ir.NewProgramBuilder("main").AddFunc(b.Done()).AddGlobal("cell", 1).Done()
	prof := collect(t, p)
	lp := prof.Loop(LoopKey{Func: "main", Header: "head"})
	if len(lp.MemDep) != 0 {
		t.Errorf("same-iteration dependence wrongly recorded as carried: %v", lp.MemDep)
	}
}

func TestGuardedUpdateProbability(t *testing.T) {
	// p is updated only when i is even: RegChangeProb(p) ~ 0.5.
	b := ir.NewFuncBuilder("main", 0)
	i, pr, c, z, one, t0 := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(i, 100)
	b.MovI(pr, 0)
	b.MovI(z, 0)
	b.MovI(one, 1)
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "body", "exit")
	b.Block("body")
	b.ALU(ir.And, t0, i, one)
	b.Br(t0, "skip", "upd")
	b.Block("upd")
	b.AddI(pr, pr, 7)
	b.Jmp("skip2")
	b.Block("skip")
	b.Jmp("skip2")
	b.Block("skip2")
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("exit")
	b.Ret(pr)
	p := ir.NewProgramBuilder("main").AddFunc(b.Done()).Done()
	prof := collect(t, p)
	lp := prof.Loop(LoopKey{Func: "main", Header: "head"})
	if got := lp.RegChangeProb(1); !approx(got, 0.5, 0.05) {
		t.Errorf("RegChangeProb(p) = %v, want ~0.5", got)
	}
	// Reach probability of the guarded update is ~0.5.
	f := p.EntryFunc()
	updBlk := f.BlockByLabel("upd")
	updID := updBlk.Instrs[0].ID
	if got := lp.ReachProb(updID); !approx(got, 0.5, 0.05) {
		t.Errorf("ReachProb(upd) = %v, want ~0.5", got)
	}
}

func TestNestedLoopCoverage(t *testing.T) {
	// Outer 10 x inner 20: inner's inclusive instrs ⊂ outer's.
	b := ir.NewFuncBuilder("main", 0)
	i, j, c, z, s := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(i, 10)
	b.MovI(z, 0)
	b.MovI(s, 0)
	b.Jmp("ohead")
	b.Block("ohead")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "obody", "exit")
	b.Block("obody")
	b.MovI(j, 20)
	b.Jmp("ihead")
	b.Block("ihead")
	b.ALU(ir.CmpGT, c, j, z)
	b.Br(c, "ibody", "olatch")
	b.Block("ibody")
	b.ALU(ir.Add, s, s, j)
	b.AddI(j, j, -1)
	b.Jmp("ihead")
	b.Block("olatch")
	b.AddI(i, i, -1)
	b.Jmp("ohead")
	b.Block("exit")
	b.Ret(s)
	p := ir.NewProgramBuilder("main").AddFunc(b.Done()).Done()
	prof := collect(t, p)
	outer := prof.Loop(LoopKey{Func: "main", Header: "ohead"})
	inner := prof.Loop(LoopKey{Func: "main", Header: "ihead"})
	if outer == nil || inner == nil {
		t.Fatal("loops not profiled")
	}
	if inner.Iterations != 200 {
		t.Errorf("inner iterations = %d, want 200", inner.Iterations)
	}
	if outer.Iterations != 10 {
		t.Errorf("outer iterations = %d, want 10", outer.Iterations)
	}
	if inner.Entries != 10 {
		t.Errorf("inner entries = %d, want 10", inner.Entries)
	}
	if inner.InclInstrs >= outer.InclInstrs {
		t.Errorf("inner inclusive (%d) should be < outer inclusive (%d)",
			inner.InclInstrs, outer.InclInstrs)
	}
	if outer.InclInstrs >= prof.TotalInstrs {
		t.Errorf("outer inclusive (%d) should be < program total (%d)",
			outer.InclInstrs, prof.TotalInstrs)
	}
}

func TestSingleBlockLoopIterations(t *testing.T) {
	// Rotated single-block loop: back edge re-enters the same block.
	b := ir.NewFuncBuilder("main", 0)
	i, c := b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(i, 25)
	b.Jmp("body")
	b.Block("body")
	b.AddI(i, i, -1)
	b.MovI(c, 0)
	b.ALU(ir.CmpGT, c, i, c)
	b.Br(c, "body", "exit")
	b.Block("exit")
	b.Ret(i)
	p := ir.NewProgramBuilder("main").AddFunc(b.Done()).Done()
	prof := collect(t, p)
	lp := prof.Loop(LoopKey{Func: "main", Header: "body"})
	if lp == nil {
		t.Fatal("loop not profiled")
	}
	if lp.Iterations != 25 {
		t.Errorf("iterations = %d, want 25", lp.Iterations)
	}
}

func TestValueStatsBestStride(t *testing.T) {
	vs := newValueStats()
	for i := 0; i < 90; i++ {
		vs.observe(4)
	}
	for i := 0; i < 10; i++ {
		vs.observe(-1)
	}
	stride, prob, ok := vs.BestStride()
	if !ok || stride != 4 || !approx(prob, 0.9, 0.001) {
		t.Errorf("BestStride = %d/%v/%v", stride, prob, ok)
	}
	var empty *ValueStats
	if _, _, ok := empty.BestStride(); ok {
		t.Error("nil stats should report !ok")
	}
}

func TestValueStatsCap(t *testing.T) {
	vs := newValueStats()
	for d := int64(0); d < 100; d++ {
		vs.observe(d)
	}
	vs.fill()
	if len(vs.Deltas) > maxDeltaClasses {
		t.Errorf("delta classes = %d, exceeds cap", len(vs.Deltas))
	}
	if vs.Samples != 100 {
		t.Errorf("samples = %d, want 100", vs.Samples)
	}
}

func TestCallSiteCycles(t *testing.T) {
	prof := collect(t, buildCallLoop(30))
	lp := prof.Loop(LoopKey{Func: "main", Header: "head"})
	if lp == nil {
		t.Fatal("loop missing")
	}
	// Find the call site (the Call instruction executes once per iteration).
	var callID int = -1
	for id := range lp.CalleeCycles {
		callID = id
	}
	if callID < 0 {
		t.Fatal("no callee cycles recorded")
	}
	// bar has 2 instructions (addi, ret): ~2 cycles of callee work per call.
	got := lp.CallSiteCycles(callID)
	if got < 1.5 || got > 3.5 {
		t.Errorf("CallSiteCycles = %v, want ~2", got)
	}
	if lp.CallSiteCycles(99999) != 0 {
		t.Error("unknown call site should report 0")
	}
}
