// Package arch is the trace-driven simulator of the SPT machine (Section 3
// of the paper): a tightly-coupled asymmetric 2-core processor in which the
// main core executes the architectural thread and the speculative core runs
// one speculative thread at a time. It consumes the sequential execution
// trace of a program and simulates it on two in-order pipelines with
// separate cycle counters and a shared, timestamp-ordered cache hierarchy —
// exactly the methodology of Section 5.1.
//
// Implemented hardware structures: spt_fork/spt_kill with register-context
// copy, the speculative store buffer (speculative loads search it before
// the shared cache), the speculative load address buffer (address-based
// memory dependence checking honouring temporal order), value-based or
// update-based register dependence checking, the speculation result buffer
// (FIFO; the speculative thread stalls when it fills), and both recovery
// mechanisms: selective re-execution with fast commit (SRX+FC, the default)
// and full squash (ablation).
package arch

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/multispec"
	"repro/internal/profiler"
)

// RecoveryKind selects the misspeculation recovery mechanism.
type RecoveryKind int

const (
	// RecoverySRXFC is selective re-execution with fast-commit (default):
	// correct speculative results commit from the speculation result
	// buffer; only misspeculated instructions re-execute; a clean window
	// fast-commits in FastCommitCycles.
	RecoverySRXFC RecoveryKind = iota
	// RecoverySquash discards the entire speculative thread on any
	// violation and re-executes it on the main core (the conventional
	// TLS recovery most other architectures use).
	RecoverySquash
)

// RegCheckKind selects the register dependence checker.
type RegCheckKind int

const (
	// RegCheckValue compares fork-time and arrival-time register values;
	// only changed values violate (Table 1 default).
	RegCheckValue RegCheckKind = iota
	// RegCheckUpdate flags any post-fork write to a register the
	// speculative thread read (scoreboard style).
	RegCheckUpdate
)

// The enum tables, indexed by kind: each entry is the wire name (requests
// and sptsim flags) and the report name (Table 1 and sweep-row labels).
// Index 0 is the Table 1 default, which the empty wire name also selects.
var (
	recoveryNames = [...][2]string{
		RecoverySRXFC:  {"srxfc", "selective re-execution with fast-commit (SRX+FC)"},
		RecoverySquash: {"squash", "full squash"},
	}
	regCheckNames = [...][2]string{
		RegCheckValue:  {"value", "value-based"},
		RegCheckUpdate: {"update", "update-based"},
	}
)

// Valid reports whether k names a defined recovery mechanism.
func (k RecoveryKind) Valid() bool { return k >= 0 && int(k) < len(recoveryNames) }

// String returns the wire name of the mechanism.
func (k RecoveryKind) String() string { return enumName(recoveryNames[:], "recovery", int(k), 0) }

// Describe returns the report name of the mechanism.
func (k RecoveryKind) Describe() string { return enumName(recoveryNames[:], "recovery", int(k), 1) }

// ParseRecovery maps a wire name onto its RecoveryKind; the empty string
// is the SRX+FC default.
func ParseRecovery(s string) (RecoveryKind, error) {
	return parseEnum[RecoveryKind](recoveryNames[:], "recovery", s)
}

// Valid reports whether k names a defined register checker.
func (k RegCheckKind) Valid() bool { return k >= 0 && int(k) < len(regCheckNames) }

// String returns the wire name of the checker.
func (k RegCheckKind) String() string { return enumName(regCheckNames[:], "regcheck", int(k), 0) }

// Describe returns the report name of the checker.
func (k RegCheckKind) Describe() string { return enumName(regCheckNames[:], "regcheck", int(k), 1) }

// ParseRegCheck maps a wire name onto its RegCheckKind; the empty string
// is the value-based default.
func ParseRegCheck(s string) (RegCheckKind, error) {
	return parseEnum[RegCheckKind](regCheckNames[:], "regcheck", s)
}

func enumName(names [][2]string, what string, k, col int) string {
	if k < 0 || k >= len(names) {
		return fmt.Sprintf("%s(%d)", what, k)
	}
	return names[k][col]
}

func parseEnum[K ~int](names [][2]string, what, s string) (K, error) {
	if s == "" {
		return 0, nil
	}
	wire := make([]string, len(names))
	for k, n := range names {
		if n[0] == s {
			return K(k), nil
		}
		wire[k] = n[0]
	}
	return 0, fmt.Errorf("arch: bad %s %q (want %s)", what, s, strings.Join(wire, " | "))
}

// SquashCause says why a speculative thread died without committing.
type SquashCause int

const (
	SquashViolation SquashCause = iota // full-squash recovery discarded a violated window
	SquashWrongPath                    // window truncated at a misspeculated branch
	SquashEmpty                        // killed at arrival before issuing anything
	SquashLoopExit                     // spt_kill retired the chain at loop exit
	SquashCascade                      // successor squashed because its spawning window died
	SquashEager                        // successor squashed by the eager-restart policy
	NumSquashCauses
)

// squashNames are the wire names of the causes (the cause label of
// sptd_spec_squashes_total), indexed by cause.
var squashNames = [NumSquashCauses]string{
	SquashViolation: "violation",
	SquashWrongPath: "wrong_path",
	SquashEmpty:     "empty",
	SquashLoopExit:  "loop_exit",
	SquashCascade:   "cascade",
	SquashEager:     "eager",
}

// String returns the wire name of the cause.
func (c SquashCause) String() string {
	if c < 0 || c >= NumSquashCauses {
		return fmt.Sprintf("squash(%d)", int(c))
	}
	return squashNames[c]
}

// Config is the machine configuration (Table 1).
type Config struct {
	SPT bool // false = plain single-core run (the baseline)

	FetchWidth       int // normal / re-execution fetch width (6)
	IssueWidth       int // normal / re-execution issue width (6)
	ReplayFetchWidth int // replay fetch width (12)
	ReplayIssueWidth int // replay issue width (12)

	BranchPenalty    int // mispredicted branch penalty (5)
	RFCopyCycles     int // register-file copy overhead at fork (1 minimum)
	FastCommitCycles int // fast commit overhead (5 minimum)
	SRBSize          int // speculation result buffer entries (1024)

	Recovery RecoveryKind
	RegCheck RegCheckKind

	// Cores is the total CMP core count, main core included. 0 and 2 both
	// select the paper's classic machine (one speculative thread at a
	// time); 3..multispec.MaxCores enable Prophet-style chained
	// speculation where a committing window spawns its successor early on
	// the next free core.
	Cores int
	// Sched is the spec-thread scheduling policy (in-order, stride-K,
	// eager-restart); see multispec.PolicyKind.
	Sched multispec.PolicyKind
	// SchedStride is the iteration lookahead per spawn for SchedStride
	// (0 or 1 = next iteration, at most multispec.MaxStride). Ignored by
	// the other policies.
	SchedStride int
	// LiveIn selects how spawned threads receive their live-in registers:
	// the fork-time snapshot (SVP, default) or DDG backward-slice
	// pre-computation executed at spawn.
	LiveIn multispec.LiveInMode

	BPredEntries int // GAg pattern table entries (1024)

	Cache cache.Config

	// Window bounds how far the trace-driven engine looks ahead for the
	// speculative thread (events). It must exceed SRBSize comfortably.
	Window int

	// StepLimit bounds the simulated program's dynamic instructions
	// (0 = the interpreter's large default); runaway programs terminate
	// with an error instead of hanging the simulation.
	StepLimit int64

	// CycleLimit bounds the main pipeline's simulated cycles (0 =
	// unlimited). When exceeded the run stops with ErrCycleLimit, giving
	// sweeps a hard per-benchmark budget that is independent of host speed.
	CycleLimit int64
}

// maxOverheadCycles bounds the branch penalty and the fork and commit
// overheads, far above any modelled machine, so no sweep arithmetic on
// them can overflow into a value that validates.
const maxOverheadCycles = 1 << 16

// Validate reports configuration errors (non-positive widths or buffer
// sizes, out-of-range penalties, counts and strides, unknown kinds) before
// a simulation is constructed.
func (c Config) Validate() error {
	switch {
	case c.IssueWidth <= 0 || c.FetchWidth <= 0:
		return fmt.Errorf("arch: non-positive core width")
	case c.ReplayIssueWidth <= 0 || c.ReplayFetchWidth <= 0:
		return fmt.Errorf("arch: non-positive replay width")
	case c.SRBSize <= 0:
		return fmt.Errorf("arch: non-positive SRB size")
	case c.Window <= c.SRBSize:
		return fmt.Errorf("arch: lookahead window (%d) must exceed the SRB (%d)", c.Window, c.SRBSize)
	case c.BranchPenalty < 0 || c.RFCopyCycles < 0 || c.FastCommitCycles < 0:
		return fmt.Errorf("arch: negative overhead")
	case c.BranchPenalty > maxOverheadCycles || c.RFCopyCycles > maxOverheadCycles || c.FastCommitCycles > maxOverheadCycles:
		return fmt.Errorf("arch: overhead above %d cycles", maxOverheadCycles)
	case !c.Recovery.Valid():
		return fmt.Errorf("arch: unknown recovery mechanism %d", c.Recovery)
	case !c.RegCheck.Valid():
		return fmt.Errorf("arch: unknown register checker %d", c.RegCheck)
	case c.BPredEntries < 2:
		return fmt.Errorf("arch: branch predictor needs at least 2 entries")
	case c.StepLimit < 0 || c.CycleLimit < 0:
		return fmt.Errorf("arch: negative step/cycle budget")
	case c.Cores < 0 || c.Cores == 1 || c.Cores > multispec.MaxCores:
		return fmt.Errorf("arch: core count %d (want 0, or 2..%d)", c.Cores, multispec.MaxCores)
	case !c.Sched.Valid():
		return fmt.Errorf("arch: unknown scheduling policy %d", c.Sched)
	case c.SchedStride < 0 || c.SchedStride > multispec.MaxStride:
		return fmt.Errorf("arch: scheduling stride %d (want 0..%d)", c.SchedStride, multispec.MaxStride)
	case !c.LiveIn.Valid():
		return fmt.Errorf("arch: unknown live-in mode %d", c.LiveIn)
	}
	return nil
}

// EffCores returns the effective total core count (0 means the classic 2).
func (c Config) EffCores() int {
	if c.Cores == 0 {
		return 2
	}
	return c.Cores
}

// DefaultConfig returns the paper's default machine configuration
// (Table 1).
func DefaultConfig() Config {
	return Config{
		SPT:              true,
		FetchWidth:       6,
		IssueWidth:       6,
		ReplayFetchWidth: 12,
		ReplayIssueWidth: 12,
		BranchPenalty:    5,
		RFCopyCycles:     1,
		FastCommitCycles: 5,
		SRBSize:          1024,
		Recovery:         RecoverySRXFC,
		RegCheck:         RegCheckValue,
		BPredEntries:     1024,
		Cache:            cache.DefaultConfig(),
		Window:           1 << 14,
	}
}

// Canonical returns the configuration with every parameter that cannot
// influence the run's results normalized to its default. For baseline
// (SPT=false) configurations the speculation machinery never engages, so
// the SRB size, fork/commit overheads, recovery and checker kinds, replay
// widths and lookahead window are all irrelevant; normalizing them lets an
// artifact cache share one baseline simulation across a whole ablation
// sweep. Budget knobs (StepLimit, CycleLimit) are preserved — they change
// whether a run completes at all.
func (c Config) Canonical() Config {
	if c.SPT {
		// The machine runs the scheduler's normalized policy: Cores=2 is
		// the classic machine spelled explicitly, a stride of 1 is
		// next-iteration spawning, and a policy that cannot act is
		// in-order. Each reduces to the zero value's code path bit for bit
		// (locked by TestMultiSpecCores2Identity), so cached artifacts are
		// shared.
		s := multispec.NewScheduler(c.Sched, c.Cores, c.SchedStride)
		c.Sched = s.Kind
		if c.Cores == 2 {
			c.Cores = 0
		}
		if s.StrideN == 1 {
			c.SchedStride = 0
		}
		return c
	}
	d := DefaultConfig()
	c.ReplayFetchWidth = d.ReplayFetchWidth
	c.ReplayIssueWidth = d.ReplayIssueWidth
	c.RFCopyCycles = d.RFCopyCycles
	c.FastCommitCycles = d.FastCommitCycles
	c.SRBSize = d.SRBSize
	c.Recovery = d.Recovery
	c.RegCheck = d.RegCheck
	c.Window = d.Window
	c.Cores = 0
	c.Sched = multispec.SchedInOrder
	c.SchedStride = 0
	c.LiveIn = multispec.LiveInSVP
	return c
}

// BaselineConfig returns the single-core reference configuration: the same
// core and memory subsystem with thread-level speculation disabled.
func BaselineConfig() Config {
	c := DefaultConfig()
	c.SPT = false
	return c
}

// Breakdown decomposes main-pipeline time into the categories of Figure 9:
// execution (issue slots plus dependence waiting — the work an in-order
// pipeline spends computing), pipeline stalls (branch mispredictions and
// front-end redirects), and d-cache stalls (waiting on data-cache misses).
type Breakdown struct {
	Exec        int64 // execution cycles (issue + dependence chains)
	PipeStall   int64 // branch-misprediction / redirect stalls
	DcacheStall int64 // stalls waiting on data-cache misses

	// IssueSlots counts issued instructions before finalization; the engine
	// folds ceil(IssueSlots/width) into Exec when a run completes.
	IssueSlots int64
}

// Total returns the summed cycles of all categories.
func (b Breakdown) Total() int64 { return b.Exec + b.PipeStall + b.DcacheStall }

// LoopStats aggregates per-loop behaviour during a run.
type LoopStats struct {
	Key profiler.LoopKey

	Cycles     int64 // main-pipeline cycles attributed to the loop
	Iterations int64

	Windows     int64 // speculative windows opened by forks in this loop
	FastCommits int64 // windows committed without any violation
	Replays     int64 // windows committed through selective re-execution
	Kills       int64 // windows killed (loop exit / wrong path / empty)

	SpecInstrs     int64 // speculatively executed instructions
	MisspecInstrs  int64 // of those, misspeculated and re-executed
	CommittedInstr int64 // committed from the SRB without re-execution
}

// FastCommitRatio returns FastCommits / Windows.
func (ls *LoopStats) FastCommitRatio() float64 {
	if ls.Windows == 0 {
		return 0
	}
	return float64(ls.FastCommits) / float64(ls.Windows)
}

// MisspecRatio returns the fraction of speculatively executed instructions
// that were misspeculated and re-executed (Figure 8's right axis).
func (ls *LoopStats) MisspecRatio() float64 {
	if ls.SpecInstrs == 0 {
		return 0
	}
	return float64(ls.MisspecInstrs) / float64(ls.SpecInstrs)
}

// RunStats is the result of one simulation run.
type RunStats struct {
	Cycles    int64
	Instrs    int64
	Breakdown Breakdown

	BranchLookups     int64
	BranchMispredicts int64
	Cache             cache.Stats

	// SPT statistics (zero for baseline runs).
	Windows        int64
	FastCommits    int64
	Replays        int64
	Squashes       [NumSquashCauses]int64 // threads squashed, by cause
	NoForks        int64                  // forks suppressed (spec busy / start not found)
	SpecInstrs     int64
	MisspecInstrs  int64
	CommittedInstr int64
	SpecBusyCycles int64 // cycles the speculative cores spent executing

	// ChainSpawns counts threads spawned by an in-flight window rather than
	// by main (zero on the classic 2-core machine).
	ChainSpawns int64

	PerLoop map[profiler.LoopKey]*LoopStats
}

// Kills returns the number of speculative threads squashed, over every
// cause. A window truncated at a wrong-path branch also counts as a
// replay, so Windows == FastCommits + Replays + Kills() minus
// Squashes[SquashWrongPath].
func (rs *RunStats) Kills() int64 {
	var n int64
	for _, k := range rs.Squashes {
		n += k
	}
	return n
}

// FastCommitRatio returns the overall fraction of windows that committed
// clean.
func (rs *RunStats) FastCommitRatio() float64 {
	if rs.Windows == 0 {
		return 0
	}
	return float64(rs.FastCommits) / float64(rs.Windows)
}

// SpecUtilization returns the fraction of the run during which the
// speculative core was executing a thread.
func (rs *RunStats) SpecUtilization() float64 {
	if rs.Cycles == 0 {
		return 0
	}
	u := float64(rs.SpecBusyCycles) / float64(rs.Cycles)
	if u > 1 {
		u = 1
	}
	return u
}

// MisspecRatio returns the overall misspeculated fraction of speculative
// instructions.
func (rs *RunStats) MisspecRatio() float64 {
	if rs.SpecInstrs == 0 {
		return 0
	}
	return float64(rs.MisspecInstrs) / float64(rs.SpecInstrs)
}
