package arch

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ir"
	"repro/internal/trace"
)

// TestRunContextAlreadyCancelled: a cancelled context aborts the run before
// any cycle is simulated.
func TestRunContextAlreadyCancelled(t *testing.T) {
	cres := compileSPT(t, buildParallelLoop(200, 6))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewMachine(load(t, cres.Program), DefaultConfig()).RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCycleLimit: a tiny cycle budget stops the simulation with
// ErrCycleLimit instead of running to completion.
func TestCycleLimit(t *testing.T) {
	p := buildParallelLoop(500, 6)
	full := simulate(t, p, BaselineConfig())
	if full.Cycles < 100 {
		t.Fatalf("test program too small: %d cycles", full.Cycles)
	}
	cfg := BaselineConfig()
	cfg.CycleLimit = full.Cycles / 2
	_, err := NewMachine(load(t, p), cfg).Run()
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
	// The aborted engine cancels its feed: the interpreter stops within a
	// context-polling interval instead of running the program to the end.
	long := buildParallelLoop(20000, 6)
	cfg.CycleLimit = 1000
	m := NewMachine(load(t, long), cfg)
	var fed int64
	m.SetTraceMiddleware(func(h trace.Handler) trace.Handler {
		return trace.HandlerFunc(func(ev *trace.Event) {
			fed++
			h.Event(ev)
		})
	})
	if _, err := m.Run(); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("long run err = %v, want ErrCycleLimit", err)
	}
	if total := simulate(t, long, BaselineConfig()).Instrs; fed > total/2 {
		t.Fatalf("interpreter fed %d of %d events after the engine aborted", fed, total)
	}
	// SPT mode respects the budget too.
	cres := compileSPT(t, p)
	cfg = DefaultConfig()
	cfg.CycleLimit = 50
	_, err = NewMachine(load(t, cres.Program), cfg).Run()
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("SPT err = %v, want ErrCycleLimit", err)
	}
}

// TestCancelMidRun: cancelling the context from a trace middleware — a
// deterministic stand-in for an external deadline firing mid-simulation —
// stops the run with the context's error.
func TestCancelMidRun(t *testing.T) {
	cres := compileSPT(t, buildParallelLoop(400, 6))
	lp := load(t, cres.Program)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := NewMachine(lp, DefaultConfig())
	var n int64
	m.SetTraceMiddleware(func(h trace.Handler) trace.Handler {
		return trace.HandlerFunc(func(ev *trace.Event) {
			n++
			if n == 2000 {
				cancel()
			}
			h.Event(ev)
		})
	})
	_, err := m.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n < 2000 {
		t.Fatalf("middleware saw only %d events", n)
	}
}

// TestCorruptTraceEvent: events with unresolvable coordinates abort the
// simulation with ErrCorruptTrace instead of indexing out of bounds.
func TestCorruptTraceEvent(t *testing.T) {
	cres := compileSPT(t, buildParallelLoop(100, 4))
	for _, mut := range []func(ev *trace.Event){
		func(ev *trace.Event) { ev.Func = 99 },
		func(ev *trace.Event) { ev.Func = -1 },
		func(ev *trace.Event) { ev.ID = 1 << 20 },
		func(ev *trace.Event) { ev.ID = -7 },
	} {
		m := NewMachine(load(t, cres.Program), DefaultConfig())
		var n int64
		m.SetTraceMiddleware(func(h trace.Handler) trace.Handler {
			return trace.HandlerFunc(func(ev *trace.Event) {
				n++
				cp := *ev
				if n == 500 {
					mut(&cp)
				}
				h.Event(&cp)
			})
		})
		_, err := m.Run()
		if !errors.Is(err, ErrCorruptTrace) {
			t.Fatalf("err = %v, want ErrCorruptTrace", err)
		}
	}
}

// buildNestedCalls: main calls leaf, then mid, which calls leaf again, n
// times over — so a retired activation id lies below a live one whenever
// mid's callee opens.
func buildNestedCalls(n int64) *ir.Program {
	leaf := ir.NewFuncBuilder("leaf", 1)
	r := leaf.NewReg()
	leaf.Block("entry")
	leaf.MulI(r, leaf.Param(0), 3)
	leaf.Ret(r)

	mid := ir.NewFuncBuilder("mid", 1)
	m := mid.NewReg()
	mid.Block("entry")
	mid.Call(m, "leaf", mid.Param(0))
	mid.AddI(m, m, 1)
	mid.Ret(m)

	b := ir.NewFuncBuilder("main", 0)
	i, s, c, z, v := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(i, n)
	b.MovI(s, 0)
	b.MovI(z, 0)
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "body", "exit")
	b.Block("body")
	b.Call(v, "leaf", i)
	b.ALU(ir.Xor, s, s, v)
	b.Call(v, "mid", i)
	b.ALU(ir.Add, s, s, v)
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("exit")
	b.Ret(s)
	return ir.NewProgramBuilder("main").AddFunc(leaf.Done()).AddFunc(mid.Done()).AddFunc(b.Done()).Done()
}

// TestNonMonotonicFrameIsCorrupt: activations are numbered in call order,
// so an event that opens an activation with an id below the innermost
// live one cannot come from a real execution. A middleware renames the
// first such opportunity — a new callee — to a retired frame id under its
// live caller; the engine must fail with ErrCorruptTrace, not panic or
// simulate on.
func TestNonMonotonicFrameIsCorrupt(t *testing.T) {
	lp := load(t, buildNestedCalls(50))
	for _, cfg := range []Config{BaselineConfig(), DefaultConfig()} {
		m := NewMachine(lp, cfg)
		var live, retired []int64
		maxSeen, rewrites := int64(-1), 0
		m.SetTraceMiddleware(func(h trace.Handler) trace.Handler {
			return trace.HandlerFunc(func(ev *trace.Event) {
				cp := *ev
				if cp.Frame > maxSeen {
					maxSeen = cp.Frame
					if rewrites == 0 && len(retired) > 0 && len(live) > 0 && retired[0] < live[len(live)-1] {
						cp.Frame = retired[0]
						rewrites++
					}
					live = append(live, ev.Frame)
				}
				if lp.InstrAt(ev.Func, ev.ID).Op == ir.Ret {
					live = live[:len(live)-1]
					retired = append(retired, ev.Frame)
				}
				h.Event(&cp)
			})
		})
		_, err := m.Run()
		if rewrites != 1 {
			t.Fatalf("middleware rewrote %d frames; the program offers no retired id under a live caller", rewrites)
		}
		if !errors.Is(err, ErrCorruptTrace) {
			t.Fatalf("SPT=%v: err = %v, want ErrCorruptTrace", cfg.SPT, err)
		}
	}
}

// TestNegativeBudgetsRejected: Validate refuses negative budgets.
func TestNegativeBudgetsRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CycleLimit = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative CycleLimit must not validate")
	}
	cfg = DefaultConfig()
	cfg.StepLimit = -5
	if err := cfg.Validate(); err == nil {
		t.Error("negative StepLimit must not validate")
	}
}
