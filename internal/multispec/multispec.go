// Package multispec generalizes the paper's one-spec-thread machine to an
// N-core CMP running a chain of speculative threads, in the spirit of the
// Prophet architecture (PAPERS.md): up to N-1 speculative threads execute
// future loop iterations concurrently, each spawned at an iteration
// boundary by its predecessor, with live-ins fed either by the fork-time
// register snapshot (SVP-style) or by executing the backward slice of each
// live-in at spawn (slice pre-computation, see livein.go).
//
// The package owns the pieces that are independent of the trace-driven
// engine in internal/arch (which imports this package, never the reverse):
//
//   - Scheduler: the spawn policy — in-order next-iteration, stride-K
//     lookahead, or eager-restart-on-violation — and the derived knobs the
//     engine consults (iteration stride, successor squashing).
//   - Chain: the inter-thread version chain. Threads are numbered in spawn
//     order and must commit in exactly that order (deterministic commit
//     arbitration); a violation squashes only the offending thread and its
//     successors, never a predecessor.
//   - Planner/SlicePlan: DDG-backed live-in pre-computation (livein.go).
//
// How each speculative thread ends is counted per run, in arch.RunStats.
package multispec

import (
	"fmt"
	"strings"
)

// MaxCores bounds Config.Cores: beyond this the simulated commit chain
// stops resembling any buildable CMP and scan costs dominate.
const MaxCores = 64

// MaxStride bounds Config.SchedStride: larger strides never find their
// start-point inside a realistic lookahead window anyway.
const MaxStride = 64

// PolicyKind selects the spec-thread scheduling policy.
type PolicyKind uint8

const (
	// SchedInOrder spawns the immediately following iteration (the paper's
	// two-core machine generalized: each window forks its successor).
	SchedInOrder PolicyKind = iota
	// SchedStride spawns the iteration K ahead of the fork point; the
	// intervening iterations run on the spawner's core. Larger windows,
	// later detection of violations.
	SchedStride
	// SchedEager is in-order spawning with eager restart: any violation in
	// a committing window squashes every in-flight successor, restarting
	// speculation from the repaired architectural state.
	SchedEager
)

// LiveInMode selects how a spawned thread's live-in registers are fed.
type LiveInMode uint8

const (
	// LiveInSVP uses the fork-time register snapshot; post-fork redefinition
	// is caught by the register dependence checker (the paper's model).
	LiveInSVP LiveInMode = iota
	// LiveInSlice executes the backward hoist slice of each live-in at
	// thread spawn: covered registers are recomputed and never violate, at
	// the cost of the slice's latency added to the fork overhead.
	LiveInSlice
)

// The wire names, indexed by kind. Index 0 is the default, which the
// empty string also selects.
var (
	policyNames = [...]string{SchedInOrder: "inorder", SchedStride: "stride", SchedEager: "eager"}
	liveInNames = [...]string{LiveInSVP: "svp", LiveInSlice: "slice"}
)

// Valid reports whether k names a defined policy.
func (k PolicyKind) Valid() bool { return int(k) < len(policyNames) }

// String returns the wire name of the policy.
func (k PolicyKind) String() string { return wireName(policyNames[:], "policy", k) }

// ParsePolicy maps a wire name onto its PolicyKind. The empty string is
// the in-order default.
func ParsePolicy(s string) (PolicyKind, error) {
	return parseWire[PolicyKind](policyNames[:], "policy", s)
}

// Valid reports whether m names a defined mode.
func (m LiveInMode) Valid() bool { return int(m) < len(liveInNames) }

// String returns the wire name of the mode.
func (m LiveInMode) String() string { return wireName(liveInNames[:], "livein", m) }

// ParseLiveIn maps a wire name onto its LiveInMode. The empty string is
// the SVP default.
func ParseLiveIn(s string) (LiveInMode, error) {
	return parseWire[LiveInMode](liveInNames[:], "livein", s)
}

func wireName[K ~uint8](names []string, what string, k K) string {
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("%s(%d)", what, k)
}

func parseWire[K ~uint8](names []string, what, s string) (K, error) {
	if s == "" {
		return 0, nil
	}
	for k, n := range names {
		if n == s {
			return K(k), nil
		}
	}
	return 0, fmt.Errorf("multispec: bad %s %q (want %s)", what, s, strings.Join(names, " | "))
}

// Scheduler is the resolved spawn policy of one simulation: pure decision
// logic, no mutable state, so one value serves every window of a run.
type Scheduler struct {
	Kind    PolicyKind
	Cores   int // total cores including the main core (>= 2)
	StrideN int // normalized iteration lookahead (>= 1)
}

// NewScheduler normalizes the configured policy to the one the machine
// runs: zero cores mean the classic 2-core machine; the stride is the
// configured one under SchedStride and next-iteration (1) for a zero
// stride or any other policy; and a policy that cannot act is in-order,
// which is stride 1 under SchedStride and eager restart with no successor
// core to squash (2 cores). arch.Config.Canonical folds by it, so a
// machine's identity and its scheduler cannot disagree. Validation of
// out-of-range values happens in arch.Config.
func NewScheduler(kind PolicyKind, cores, stride int) Scheduler {
	if cores <= 0 {
		cores = 2
	}
	if stride < 1 || kind != SchedStride {
		stride = 1
	}
	if (kind == SchedStride && stride == 1) || (kind == SchedEager && cores == 2) {
		kind = SchedInOrder
	}
	return Scheduler{Kind: kind, Cores: cores, StrideN: stride}
}

// SpecCores returns the number of speculative cores (total minus main).
func (s Scheduler) SpecCores() int { return s.Cores - 1 }

// Stride returns how many iteration boundaries ahead a spawn targets.
func (s Scheduler) Stride() int { return s.StrideN }

// EagerSquash reports whether a violated commit squashes all successors.
func (s Scheduler) EagerSquash() bool { return s.Kind == SchedEager }

// Chain is the inter-thread version chain: every speculative thread gets a
// version number at spawn, and the arbiter admits commits strictly in
// version order. The engine keeps the thread payloads; Chain keeps only
// the order, making the arbitration invariant — the source of bit-identical
// commit behaviour across runs and replays — independently checkable.
type Chain struct {
	order []uint64 // in-flight versions, oldest first
	next  uint64
}

// Spawn registers a new thread and returns its version.
func (c *Chain) Spawn() uint64 {
	v := c.next
	c.next++
	c.order = append(c.order, v)
	return v
}

// Len returns the number of in-flight versions.
func (c *Chain) Len() int { return len(c.order) }

// Commit retires version v. It must be the oldest in-flight version: a
// younger thread can never commit past its predecessor.
func (c *Chain) Commit(v uint64) error {
	if len(c.order) == 0 || c.order[0] != v {
		return fmt.Errorf("multispec: out-of-order commit of version %d (chain %v)", v, c.order)
	}
	c.order = append(c.order[:0], c.order[1:]...)
	return nil
}

// Squash drops version v and every successor, returning how many versions
// (including v) were removed. Squashing an unknown version is a no-op.
func (c *Chain) Squash(v uint64) int {
	for i, o := range c.order {
		if o == v {
			n := len(c.order) - i
			c.order = c.order[:i]
			return n
		}
	}
	return 0
}

// Reset drops every in-flight version (loop exit kills the whole chain).
func (c *Chain) Reset() { c.order = c.order[:0] }
