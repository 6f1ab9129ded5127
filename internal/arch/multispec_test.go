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

// cores2Corners returns configuration corners whose other spellings must
// run bit for bit like them — the contract Canonical() relies on to share
// cached artifacts between spellings. On two cores (Cores 0) that is
// Cores=2; on every corner it is the canonical machine, which runs a
// policy that cannot act (stride 1, eager restart on two cores) in order.
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
		"stride=0": mk(func(c *Config) { c.Sched = multispec.SchedStride }),
		"slice":    mk(func(c *Config) { c.LiveIn = multispec.LiveInSlice }),

		"cores=4/stride=1": mk(func(c *Config) { c.Cores = 4; c.Sched = multispec.SchedStride; c.SchedStride = 1 }),
		"cores=8/stride=0": mk(func(c *Config) { c.Cores = 8; c.Sched = multispec.SchedStride }),
	}
}

// TestMultiSpecCores2Identity locks in that Cores=2 is the classic machine
// spelled explicitly: with a single speculative core the chain never holds
// two threads, so the spawn-in-walk, chain-SSB and inherited-violation
// paths are structurally unreachable and the stats must match the
// zero-value configuration exactly. Canonical() normalizes Cores 2 -> 0,
// and a policy that cannot act to in-order, on the strength of this test.
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
					t.Fatalf("corner run: %v", err)
				}
				spellings := map[string]Config{"canonical": cfg.Canonical()}
				if cfg.Cores == 0 {
					explicit := cfg
					explicit.Cores = 2
					spellings["Cores=2"] = explicit
				}
				for spelling, c := range spellings {
					got, err := NewMachine(lp, c).Run()
					if err != nil {
						t.Fatalf("%s run: %v", spelling, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s diverges from the corner:\n got %+v\nwant %+v", spelling, got, want)
					}
				}
				if c := cfg.Canonical(); c.Sched == multispec.SchedEager && c.EffCores() == 2 ||
					c.Sched == multispec.SchedStride && c.SchedStride == 0 {
					t.Fatalf("canonical machine %+v keeps a policy that cannot act", c)
				}
				if chain := want.Squashes[SquashCascade] + want.Squashes[SquashEager]; cfg.Cores == 0 && (want.ChainSpawns != 0 || chain != 0) {
					t.Fatalf("chain engaged on the 2-core machine: spawns=%d squashes=%d",
						want.ChainSpawns, chain)
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
	chain := st.Squashes[SquashCascade] + st.Squashes[SquashEager]
	if chain == 0 {
		t.Fatal("squash recovery retired no successors through the chain")
	}
	if chain >= st.Windows {
		t.Fatalf("every window died by cascade (%d of %d): predecessors must survive",
			chain, st.Windows)
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
	if e1.Replays == 0 || e1.Squashes[SquashEager] == 0 {
		t.Fatalf("eager policy never fired: %+v", e1)
	}
}

// TestRunRecordedMultiCores sends an N-core bank through the broadcast
// replay path: every variant must return exactly the stats of its own live
// run. Run under -race this also exercises the per-engine chain state
// for sharing bugs: everything, outcome counts included, must be
// engine-private.
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
