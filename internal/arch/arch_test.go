package arch

import (
	"slices"
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/multispec"
	"repro/internal/profiler"
)

func load(t *testing.T, p *ir.Program) *interp.Program {
	t.Helper()
	lp, err := interp.Load(p)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return lp
}

func simulate(t *testing.T, p *ir.Program, cfg Config) *RunStats {
	t.Helper()
	st, err := NewMachine(load(t, p), cfg).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return st
}

// compileSPT runs the full SPT compiler with defaults.
func compileSPT(t *testing.T, p *ir.Program) *compiler.Result {
	t.Helper()
	res, err := compiler.Compile(p, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return res
}

// emitChain appends a serial dependence chain of 2*depth operations
// starting from src into dst: realistic scalar code has little ILP, so one
// iteration occupies one in-order core regardless of width — which is what
// makes thread-level speculation worth having.
func emitChain(b *ir.FuncBuilder, dst, src ir.Reg, depth int) {
	b.MulI(dst, src, 3)
	for k := 0; k < depth; k++ {
		b.AddI(dst, dst, int64(k+1))
		b.MulI(dst, dst, 5)
	}
}

// buildParallelLoop: iterations are mutually independent (given the cheap
// induction update) but internally serial — the best case for SPT.
func buildParallelLoop(n int64, depth int) *ir.Program {
	b := ir.NewFuncBuilder("main", 0)
	i, s, c, z, v := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(i, n)
	b.MovI(s, 0)
	b.MovI(z, 0)
	b.MovI(v, 0)
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "body", "exit")
	b.Block("body")
	emitChain(b, v, i, depth)
	b.ALU(ir.Xor, s, s, v)
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("exit")
	b.Ret(s)
	return ir.NewProgramBuilder("main").AddFunc(b.Done()).Done()
}

// buildSerialLoop: every iteration's chain seeds from what the previous one
// stored — no exploitable parallelism at all.
func buildSerialLoop(n int64, depth int) *ir.Program {
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
	b.Load(v, g, 0)
	emitChain(b, v, v, depth)
	b.Store(g, 0, v)
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("exit")
	b.Ret(v)
	return ir.NewProgramBuilder("main").AddFunc(b.Done()).AddGlobal("cell", 1).Done()
}

// buildMostlyParallelLoop: a small serial seed through memory plus a large
// independent chain — selective re-execution commits the big valid part and
// re-executes only the seed-dependent tail.
func buildMostlyParallelLoop(n int64, depth int) *ir.Program {
	b := ir.NewFuncBuilder("main", 0)
	i, c, z, g, v, w := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(i, n)
	b.MovI(z, 0)
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "body", "exit")
	b.Block("body")
	emitChain(b, w, i, depth) // big independent part
	b.GAddr(g, "cell")
	b.Load(v, g, 0) // carried memory dependence (small part)
	b.AddI(v, v, 1)
	b.Store(g, 0, v)
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("exit")
	b.Ret(w)
	return ir.NewProgramBuilder("main").AddFunc(b.Done()).AddGlobal("cell", 1).Done()
}

func TestBaselineSanity(t *testing.T) {
	p := buildParallelLoop(300, 10)
	st := simulate(t, p, BaselineConfig())
	if st.Cycles <= 0 || st.Instrs <= 0 {
		t.Fatal("empty simulation")
	}
	if st.Windows != 0 || st.SpecInstrs != 0 {
		t.Error("baseline run must not speculate")
	}
	if st.Breakdown.Total() <= 0 {
		t.Error("empty breakdown")
	}
	if st.Cycles < st.Instrs/6 {
		t.Errorf("cycles %d impossibly low for %d instrs", st.Cycles, st.Instrs)
	}
	ls := st.PerLoop[profiler.LoopKey{Func: "main", Header: "head"}]
	if ls == nil || ls.Cycles <= 0 {
		t.Fatalf("hot loop not attributed: %+v", ls)
	}
	if ls.Cycles > st.Cycles {
		t.Errorf("loop cycles %d exceed program cycles %d", ls.Cycles, st.Cycles)
	}
	if ls.Iterations != 300 {
		t.Errorf("loop iterations = %d, want 300", ls.Iterations)
	}
}

func TestSPTSpeedsUpParallelLoop(t *testing.T) {
	p := buildParallelLoop(400, 12)
	cres := compileSPT(t, p)
	base := simulate(t, p, BaselineConfig())
	spt := simulate(t, cres.Program, DefaultConfig())

	if spt.Windows == 0 {
		t.Fatal("no speculative windows opened")
	}
	if spt.FastCommitRatio() < 0.8 {
		t.Errorf("fast-commit ratio = %v, want high for a parallel loop", spt.FastCommitRatio())
	}
	speedup := float64(base.Cycles) / float64(spt.Cycles)
	if speedup < 1.3 {
		t.Errorf("program speedup = %.3f (base %d, spt %d), want > 1.3",
			speedup, base.Cycles, spt.Cycles)
	}
	if speedup > 2.1 {
		t.Errorf("program speedup = %.3f — beyond the 2-core bound", speedup)
	}
	if spt.MisspecRatio() > 0.05 {
		t.Errorf("misspec ratio = %v, want tiny", spt.MisspecRatio())
	}
}

func TestSPTSerialLoopNoWin(t *testing.T) {
	p := buildSerialLoop(400, 10)
	opts := compiler.DefaultOptions()
	opts.MinSpeedup = 0 // force transformation despite the dependence
	opts.UnrollFactor = 0
	cres, err := compiler.Compile(p, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(cres.SelectedLoops()) == 0 {
		t.Skip("loop not transformable")
	}
	base := simulate(t, p, BaselineConfig())
	spt := simulate(t, cres.Program, DefaultConfig())
	if spt.Windows == 0 {
		t.Fatal("no windows")
	}
	if spt.MisspecInstrs == 0 {
		t.Error("no misspeculation on a fully serial loop")
	}
	slowdown := float64(spt.Cycles) / float64(base.Cycles)
	if slowdown > 2.0 {
		t.Errorf("serial loop slowdown %.2f — selective re-execution should bound the damage", slowdown)
	}
}

func TestSelectiveReplayBeatsSquash(t *testing.T) {
	// Mostly-parallel loop: most speculative results are correct even
	// though nearly every window has a violation — exactly the situation
	// the paper's SRX+FC design targets (Section 3, the parser example).
	p := buildMostlyParallelLoop(400, 14)
	opts := compiler.DefaultOptions()
	opts.MinSpeedup = 0
	opts.UnrollFactor = 0
	cres, err := compiler.Compile(p, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(cres.SelectedLoops()) == 0 {
		t.Skip("loop not transformable")
	}
	srx := simulate(t, cres.Program, DefaultConfig())
	sq := DefaultConfig()
	sq.Recovery = RecoverySquash
	squash := simulate(t, cres.Program, sq)
	if srx.MisspecInstrs == 0 {
		t.Skip("no violations: recovery never exercised")
	}
	if srx.Cycles >= squash.Cycles {
		t.Errorf("SRX+FC (%d cycles) not better than squash (%d cycles)", srx.Cycles, squash.Cycles)
	}
	// SRX commits the valid majority.
	if srx.CommittedInstr <= srx.MisspecInstrs {
		t.Errorf("SRX committed %d <= re-executed %d; expected mostly-correct windows",
			srx.CommittedInstr, srx.MisspecInstrs)
	}
}

func TestForkSuppressedAtLoopExit(t *testing.T) {
	// With an odd iteration count the last fork has no next iteration to
	// speculate into: the engine suppresses it (the real machine would fork
	// and kill, wasting only speculative-core cycles).
	p := buildParallelLoop(51, 10)
	cres := compileSPT(t, p)
	spt := simulate(t, cres.Program, DefaultConfig())
	if spt.NoForks == 0 && spt.Kills() == 0 {
		t.Errorf("expected a suppressed or killed fork at loop exit: %+v", spt)
	}
}

func TestSRBSizeLimitsSpeculation(t *testing.T) {
	p := buildParallelLoop(300, 12)
	cres := compileSPT(t, p)
	big := simulate(t, cres.Program, DefaultConfig())
	small := DefaultConfig()
	small.SRBSize = 8
	tiny := simulate(t, cres.Program, small)
	if tiny.SpecInstrs >= big.SpecInstrs {
		t.Errorf("SRB 8 committed %d spec instrs >= SRB 1024's %d",
			tiny.SpecInstrs, big.SpecInstrs)
	}
	if tiny.Cycles < big.Cycles {
		t.Errorf("smaller SRB should not be faster: %d < %d", tiny.Cycles, big.Cycles)
	}
}

// buildCheckerProgram hand-builds an already-transformed SPT loop in which
// the only unhoisted violation candidate is a register rewritten with the
// *same value* every iteration: value-based checking fast-commits, while
// update-based checking violates every window.
func buildCheckerProgram(n int64, depth int) *ir.Program {
	b := ir.NewFuncBuilder("main", 0)
	i, s, w, c, z, v := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	ti, ts := b.NewReg(), b.NewReg() // temp_i, temp_s
	b.Block("entry")
	b.MovI(i, n)
	b.MovI(s, 0)
	b.MovI(w, 5)
	b.MovI(z, 0)
	b.Mov(ti, i)
	b.Mov(ts, s)
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "start", "killblk")
	b.Block("start") // start-point: binds, pre-fork, fork
	b.Mov(i, ti)
	b.Mov(s, ts)
	b.AddI(ti, i, -1)       // temp_i = i - 1
	b.ALU(ir.Add, ts, s, w) // temp_s = s + w (reads w live-in pre-fork)
	b.SptFork("start")
	emitChain(b, v, i, depth)
	b.ALU(ir.Add, s, s, w) // original accumulator update
	b.MovI(w, 5)           // post-fork same-value rewrite of w
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("killblk")
	b.SptKill()
	b.Jmp("exit")
	b.Block("exit")
	b.Ret(s)
	return ir.NewProgramBuilder("main").AddFunc(b.Done()).Done()
}

func TestValueVsUpdateRegChecking(t *testing.T) {
	p := buildCheckerProgram(300, 10)
	if err := p.Validate(); err != nil {
		t.Fatalf("hand-built program invalid: %v", err)
	}
	// Sequential sanity first.
	lp := load(t, p)
	m := interp.New(lp)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 300*5 {
		t.Fatalf("hand-built loop computes %d, want 1500", res.Ret)
	}
	val := simulate(t, p, DefaultConfig())
	upd := DefaultConfig()
	upd.RegCheck = RegCheckUpdate
	updSt := simulate(t, p, upd)
	if val.FastCommitRatio() < 0.9 {
		t.Errorf("value-based fast-commit ratio = %.2f, want ~1", val.FastCommitRatio())
	}
	if updSt.FastCommitRatio() > 0.1 {
		t.Errorf("update-based fast-commit ratio = %.2f, want ~0", updSt.FastCommitRatio())
	}
	if val.Cycles > updSt.Cycles {
		t.Errorf("value-based (%d cycles) slower than update-based (%d)", val.Cycles, updSt.Cycles)
	}
}

func TestSimulationDeterminism(t *testing.T) {
	p := buildParallelLoop(200, 8)
	cres := compileSPT(t, p)
	a := simulate(t, cres.Program, DefaultConfig())
	b := simulate(t, cres.Program, DefaultConfig())
	if a.Cycles != b.Cycles || a.SpecInstrs != b.SpecInstrs || a.FastCommits != b.FastCommits {
		t.Errorf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestPerLoopStatsInSPTRun(t *testing.T) {
	p := buildParallelLoop(300, 10)
	cres := compileSPT(t, p)
	spt := simulate(t, cres.Program, DefaultConfig())
	ls := spt.PerLoop[profiler.LoopKey{Func: "main", Header: "head"}]
	if ls == nil {
		for k := range spt.PerLoop {
			t.Logf("have loop %v", k)
		}
		t.Fatal("transformed loop not attributed under its normalized key")
	}
	if ls.Windows == 0 || ls.FastCommits == 0 {
		t.Errorf("loop window stats empty: %+v", ls)
	}
	if ls.SpecInstrs == 0 {
		t.Error("no spec instrs attributed to the loop")
	}
	if r := ls.FastCommitRatio(); r < 0 || r > 1 {
		t.Errorf("fast-commit ratio %v out of range", r)
	}
	if r := ls.MisspecRatio(); r < 0 || r > 1 {
		t.Errorf("misspec ratio %v out of range", r)
	}
}

func TestBaselineVsSPTLoopCycles(t *testing.T) {
	p := buildParallelLoop(400, 12)
	cres := compileSPT(t, p)
	base := simulate(t, p, BaselineConfig())
	spt := simulate(t, cres.Program, DefaultConfig())
	key := profiler.LoopKey{Func: "main", Header: "head"}
	bl, sl := base.PerLoop[key], spt.PerLoop[key]
	if bl == nil || sl == nil {
		t.Fatal("missing per-loop stats")
	}
	if sl.Cycles >= bl.Cycles {
		t.Errorf("SPT loop cycles %d >= baseline %d", sl.Cycles, bl.Cycles)
	}
	speedup := float64(bl.Cycles) / float64(sl.Cycles)
	if speedup < 1.3 || speedup > 2.1 {
		t.Errorf("loop speedup %.2f outside (1.3, 2.1)", speedup)
	}
}

func TestCacheEffectsVisible(t *testing.T) {
	// A loop streaming over a large array must show d-cache stalls.
	b := ir.NewFuncBuilder("main", 0)
	i, c, z, g, v, s := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(i, 20000)
	b.MovI(z, 0)
	b.MovI(s, 0)
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "body", "exit")
	b.Block("body")
	b.GAddr(g, "arr")
	b.ALU(ir.Add, g, g, i)
	b.Load(v, g, 0)
	b.ALU(ir.Add, s, s, v) // consume the load: exposes the miss latency
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("exit")
	b.Ret(s)
	p := ir.NewProgramBuilder("main").AddFunc(b.Done()).AddGlobal("arr", 20001).Done()
	st := simulate(t, p, BaselineConfig())
	if st.Breakdown.DcacheStall == 0 {
		t.Error("streaming loop shows no d-cache stalls")
	}
	if st.Cache.L1D.Misses == 0 {
		t.Error("no L1D misses on a 160KB stream")
	}
}

func TestBranchMispredictsVisible(t *testing.T) {
	// Data-dependent unpredictable branches (xorshift PRNG parity).
	b := ir.NewFuncBuilder("main", 0)
	i, c, z, r, bit, s, one := b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg(), b.NewReg()
	t13, t7, t17 := b.NewReg(), b.NewReg(), b.NewReg()
	b.Block("entry")
	b.MovI(i, 4000)
	b.MovI(z, 0)
	b.MovI(s, 0)
	b.MovI(one, 1)
	b.MovI(r, 88172645463325252)
	b.Jmp("head")
	b.Block("head")
	b.ALU(ir.CmpGT, c, i, z)
	b.Br(c, "body", "exit")
	b.Block("body")
	b.MovI(t13, 13)
	b.ALU(ir.Shl, t13, r, t13)
	b.ALU(ir.Xor, r, r, t13)
	b.MovI(t7, 7)
	b.ALU(ir.Shr, t7, r, t7)
	b.ALU(ir.Xor, r, r, t7)
	b.MovI(t17, 17)
	b.ALU(ir.Shl, t17, r, t17)
	b.ALU(ir.Xor, r, r, t17)
	b.ALU(ir.And, bit, r, one)
	b.Br(bit, "odd", "even")
	b.Block("odd")
	b.AddI(s, s, 3)
	b.Jmp("join")
	b.Block("even")
	b.AddI(s, s, 1)
	b.Jmp("join")
	b.Block("join")
	b.AddI(i, i, -1)
	b.Jmp("head")
	b.Block("exit")
	b.Ret(s)
	p := ir.NewProgramBuilder("main").AddFunc(b.Done()).Done()
	st := simulate(t, p, BaselineConfig())
	if st.BranchMispredicts == 0 {
		t.Error("random branch never mispredicted")
	}
	rate := float64(st.BranchMispredicts) / float64(st.BranchLookups)
	if rate < 0.05 {
		t.Errorf("mispredict rate %.3f suspiciously low for random branches", rate)
	}
}

func TestNormalizeHeader(t *testing.T) {
	if NormalizeHeader("spt.start.head") != "head" {
		t.Error("prefix not stripped")
	}
	if NormalizeHeader("head") != "head" {
		t.Error("plain label mangled")
	}
}

func TestNoForksMeansBaselineTiming(t *testing.T) {
	// A program without spt_fork must time identically under the SPT and
	// baseline configurations (the speculative core never wakes up).
	p := buildParallelLoop(150, 8)
	a := simulate(t, p, BaselineConfig())
	b := simulate(t, p, DefaultConfig())
	if a.Cycles != b.Cycles {
		t.Errorf("fork-free program timed differently: %d vs %d", a.Cycles, b.Cycles)
	}
	if b.Windows != 0 {
		t.Errorf("windows on a fork-free program: %d", b.Windows)
	}
}

func TestIPCBounds(t *testing.T) {
	// In-order width-6 core: IPC must stay within (0, 6].
	for _, depth := range []int{0, 4, 16} {
		p := buildParallelLoop(200, depth)
		st := simulate(t, p, BaselineConfig())
		ipc := float64(st.Instrs) / float64(st.Cycles)
		if ipc <= 0 || ipc > 6.0 {
			t.Errorf("depth %d: IPC %.2f outside (0, 6]", depth, ipc)
		}
	}
}

func TestCacheStatsPlausible(t *testing.T) {
	p := buildParallelLoop(300, 10)
	st := simulate(t, p, BaselineConfig())
	// Instruction fetches hit the L1I for a tiny loop almost always.
	tot := st.Cache.L1I.Hits + st.Cache.L1I.Misses
	if tot == 0 {
		t.Fatal("no instruction fetches recorded")
	}
	if rate := float64(st.Cache.L1I.Hits) / float64(tot); rate < 0.99 {
		t.Errorf("L1I hit rate %.3f for a hot loop, want ~1", rate)
	}
}

// TestSquashCauseNames pins the squash causes' wire names and their order,
// which /metrics renders as the cause labels of sptd_spec_squashes_total.
func TestSquashCauseNames(t *testing.T) {
	var got []string
	for c := SquashCause(0); c < NumSquashCauses; c++ {
		got = append(got, c.String())
	}
	want := []string{"violation", "wrong_path", "empty", "loop_exit", "cascade", "eager"}
	if !slices.Equal(got, want) {
		t.Fatalf("squash causes %v; want %v", got, want)
	}
	if s := NumSquashCauses.String(); s != "squash(6)" {
		t.Errorf("out-of-range cause renders as %q", s)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.ReplayIssueWidth = -1 },
		func(c *Config) { c.SRBSize = 0 },
		func(c *Config) { c.Window = c.SRBSize },
		func(c *Config) { c.BranchPenalty = -1 },
		func(c *Config) { c.BPredEntries = 1 },
		func(c *Config) { c.RegCheck = 5 },
		func(c *Config) { c.Recovery = RecoverySquash + 1 },
		func(c *Config) { c.BranchPenalty = maxOverheadCycles + 1 },
		func(c *Config) { c.RFCopyCycles = maxOverheadCycles + 1 },
		func(c *Config) { n := 1 << 62; c.FastCommitCycles = n * 5 }, // wraps to 2^62
		func(c *Config) { c.Sched = multispec.SchedStride; c.SchedStride = multispec.MaxStride + 1 },
	}
	for i, mut := range bads {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// NewMachine surfaces the validation error at Run.
	p := buildParallelLoop(10, 2)
	lp := load(t, p)
	c := DefaultConfig()
	c.SRBSize = 0
	if _, err := NewMachine(lp, c).Run(); err == nil {
		t.Error("invalid config did not fail Run")
	}
}

func TestStepLimitStopsSimulation(t *testing.T) {
	p := buildParallelLoop(100000, 4)
	cfg := BaselineConfig()
	cfg.StepLimit = 5000
	lp := load(t, p)
	if _, err := NewMachine(lp, cfg).Run(); err == nil {
		t.Error("step limit not enforced")
	}
}

func TestSpecUtilization(t *testing.T) {
	p := buildParallelLoop(400, 12)
	cres := compileSPT(t, p)
	st := simulate(t, cres.Program, DefaultConfig())
	u := st.SpecUtilization()
	if u <= 0.2 || u > 1 {
		t.Errorf("speculative core utilization = %.2f, want substantial on a hot parallel loop", u)
	}
	base := simulate(t, p, BaselineConfig())
	if base.SpecUtilization() != 0 {
		t.Error("baseline reports speculative utilization")
	}
}
