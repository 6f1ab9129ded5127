package arch

// Tests for the N-core chained speculation machine (internal/multispec
// wired through Config.Cores / Config.Sched): the explicit 2-core
// configuration must be bit-identical to the classic zero-value machine,
// N-core runs must be deterministic and replay-stable, squashes must stay
// isolated to the offending suffix of the version chain, and the broadcast
// replay path must carry core-count variants unchanged.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/multispec"
)

// cores2Corners returns configuration corners whose explicit spelling
// (Cores=2, stride=1, any policy) must reduce to the classic zero-value
// machine bit for bit — the contract Canonical() relies on to share cached
// artifacts between the two spellings.
func cores2Corners() map[string]Config {
	mk := func(mut func(*Config)) Config {
		c := DefaultConfig()
		mut(&c)
		return c
	}
	return map[string]Config{
		"default":  mk(func(c *Config) {}),
		"squash":   mk(func(c *Config) { c.Recovery = RecoverySquash }),
		"update":   mk(func(c *Config) { c.RegCheck = RegCheckUpdate }),
		"srb=16":   mk(func(c *Config) { c.SRBSize = 16 }),
		"eager":    mk(func(c *Config) { c.Sched = multispec.SchedEager }),
		"stride=1": mk(func(c *Config) { c.Sched = multispec.SchedStride; c.SchedStride = 1 }),
		"slice":    mk(func(c *Config) { c.LiveIn = multispec.LiveInSlice }),
	}
}

// TestMultiSpecCores2Identity locks in that Cores=2 is the classic machine
// spelled explicitly: with a single speculative core the chain never holds
// two threads, so the spawn-in-walk, chain-SSB and inherited-violation
// paths are structurally unreachable and the stats must match the
// zero-value configuration exactly. Canonical() normalizes Cores 2 -> 0 on
// the strength of this test.
func TestMultiSpecCores2Identity(t *testing.T) {
	for _, pn := range []string{"parallel", "mostly-parallel"} {
		p := buildParallelLoop(200, 10)
		if pn == "mostly-parallel" {
			p = buildMostlyParallelLoop(200, 10)
		}
		lp := load(t, compileSPT(t, p).Program)
		for name, cfg := range cores2Corners() {
			t.Run(pn+"/"+name, func(t *testing.T) {
				want, err := NewMachine(lp, cfg).Run()
				if err != nil {
					t.Fatalf("classic run: %v", err)
				}
				explicit := cfg
				explicit.Cores = 2
				got, err := NewMachine(lp, explicit).Run()
				if err != nil {
					t.Fatalf("Cores=2 run: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Cores=2 diverges from the classic machine:\n got %+v\nwant %+v", got, want)
				}
				if got.ChainSpawns != 0 || got.ChainSquashes != 0 {
					t.Fatalf("chain engaged on the 2-core machine: spawns=%d squashes=%d",
						got.ChainSpawns, got.ChainSquashes)
				}
			})
		}
	}
}

// nCoreVariants is the N-core configuration matrix the determinism and
// replay contracts are checked against.
func nCoreVariants() map[string]Config {
	vs := map[string]Config{}
	for _, cores := range []int{4, 8} {
		for _, pol := range []multispec.PolicyKind{multispec.SchedInOrder, multispec.SchedEager} {
			cfg := DefaultConfig()
			cfg.Cores = cores
			cfg.Sched = pol
			vs[fmt.Sprintf("cores=%d/%s", cores, pol)] = cfg
		}
	}
	stride := DefaultConfig()
	stride.Cores = 4
	stride.Sched = multispec.SchedStride
	stride.SchedStride = 2
	vs["cores=4/stride=2"] = stride
	slice := DefaultConfig()
	slice.Cores = 4
	slice.LiveIn = multispec.LiveInSlice
	vs["cores=4/slice"] = slice
	squash := DefaultConfig()
	squash.Cores = 8
	squash.Recovery = RecoverySquash
	vs["cores=8/squash"] = squash
	return vs
}

// TestMultiSpecDeterminism runs every N-core variant twice fused and once
// through the recorded-trace replay: all three must agree bit for bit —
// the commit-arbitration analogue of TestReplayDeterminismAcrossVariants.
func TestMultiSpecDeterminism(t *testing.T) {
	lp := compileParallelLoop(t, 300, 10)
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatalf("RecordTrace: %v", err)
	}
	for name, cfg := range nCoreVariants() {
		t.Run(name, func(t *testing.T) {
			first, err := NewMachine(lp, cfg).Run()
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			second, err := NewMachine(lp, cfg).Run()
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("two fused runs diverge:\n got %+v\nwant %+v", second, first)
			}
			replayed, err := replayOne(lp, rec, cfg)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !reflect.DeepEqual(replayed, first) {
				t.Fatalf("replay diverges from fused run:\n got %+v\nwant %+v", replayed, first)
			}
		})
	}
}

// TestMultiSpecChainEngages checks the extra cores actually do something on
// a speculation-friendly loop: committing windows spawn successors early,
// and the added overlap never makes the machine slower than the classic
// two-core configuration.
func TestMultiSpecChainEngages(t *testing.T) {
	lp := load(t, compileSPT(t, buildParallelLoop(400, 14)).Program)
	classic, err := NewMachine(lp, DefaultConfig()).Run()
	if err != nil {
		t.Fatal(err)
	}
	quad := DefaultConfig()
	quad.Cores = 4
	st, err := NewMachine(lp, quad).Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.ChainSpawns == 0 {
		t.Fatal("4-core run spawned no chained threads on a parallel loop")
	}
	if st.Cycles > classic.Cycles {
		t.Fatalf("4 cores slower than 2: %d > %d cycles", st.Cycles, classic.Cycles)
	}
	if st.Windows <= classic.Windows/2 {
		t.Fatalf("4-core run opened suspiciously few windows: %d vs %d classic", st.Windows, classic.Windows)
	}
}

// TestMultiSpecSquashIsolation drives a loop with a carried memory
// dependence (every window misspeculates its seed) at 8 cores: squash
// recovery must retire chained successors through the version chain, yet
// the run keeps committing windows — a violation squashes the offender and
// its successors, never the whole machine.
func TestMultiSpecSquashIsolation(t *testing.T) {
	lp := load(t, compileSPT(t, buildMostlyParallelLoop(300, 10)).Program)
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.Recovery = RecoverySquash
	st, err := NewMachine(lp, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.ChainSpawns == 0 {
		t.Fatal("no chained spawns; squash isolation unexercised")
	}
	if st.ChainSquashes == 0 {
		t.Fatal("squash recovery retired no successors through the chain")
	}
	if st.ChainSquashes >= st.Windows {
		t.Fatalf("every window died by cascade (%d of %d): predecessors must survive",
			st.ChainSquashes, st.Windows)
	}
	if st.Windows == 0 || st.FastCommits+st.Replays == 0 {
		t.Fatalf("machine stopped committing: %+v", st)
	}

	// Eager restart squashes the remaining chain on any violation but the
	// machine must still make progress and stay deterministic.
	eager := DefaultConfig()
	eager.Cores = 8
	eager.Sched = multispec.SchedEager
	e1, err := NewMachine(lp, eager).Run()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewMachine(lp, eager).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatal("eager-restart runs diverge")
	}
	if e1.Replays == 0 || e1.ChainSquashes == 0 {
		t.Fatalf("eager policy never fired: %+v", e1)
	}
}

// TestRunRecordedMultiCores sends an N-core bank through the broadcast
// replay path: every variant must return exactly the stats of its own live
// run. Run under -race this also exercises the per-engine chain state
// for sharing bugs (the multispec outcome counters are process-global and
// atomic; everything else must be engine-private).
func TestRunRecordedMultiCores(t *testing.T) {
	lp := compileParallelLoop(t, 300, 10)
	rec, err := RecordTrace(context.Background(), lp, 0)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	var names []string
	for name, cfg := range nCoreVariants() {
		cfgs = append(cfgs, cfg)
		names = append(names, name)
	}
	cfgs = append(cfgs, DefaultConfig())
	names = append(names, "classic")
	stats, errs := RunRecordedMulti(context.Background(), lp, rec, cfgs)
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", names[i], errs[i])
		}
		want, err := NewMachine(lp, cfg).Run()
		if err != nil {
			t.Fatalf("%s live run: %v", names[i], err)
		}
		if !reflect.DeepEqual(stats[i], want) {
			t.Fatalf("%s diverges from its live run:\n got %+v\nwant %+v", names[i], stats[i], want)
		}
	}
}
