package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the SWIM-style membership layer, the only way into a
// cluster: nodes join through any seed peer, piggyback the
// whole member table (alive/suspect/dead plus incarnation numbers) on every
// probe exchange, and escalate a silent peer through suspect before dead so
// one observer's bad network path never declares a live node gone. The
// discipline mirrors the paper's speculation contract: suspicion is a cheap
// misprediction that the suspected node refutes by bumping its incarnation,
// and only an unrefuted suspicion past the grace period commits to dead.

// MemberState is a member's liveness as known to one observer.
type MemberState uint8

// The three SWIM member states. Suspect members stay in the routing ring
// (they may merely be slow or partitioned from one observer); only dead
// members leave it.
const (
	StateAlive MemberState = iota
	StateSuspect
	StateDead
)

// String renders the state for the /v1/cluster view.
func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Member is one row of the gossiped membership table.
type Member struct {
	Name        string
	URL         string
	State       MemberState
	Incarnation uint64
}

// --- wire format ---
//
// Gossip messages are a compact length-prefixed binary table, not JSON:
// they ride on every probe at the heartbeat cadence, and the format is
// fuzzed (FuzzGossipDecode) so a torn, truncated, oversized or adversarial
// message can never panic the decoder or poison the member table.
//
//	magic "SPG1"  (4 bytes)
//	count uint16  (big endian)
//	entry ×count:
//	  nameLen uint8,  name bytes
//	  urlLen  uint16, url bytes
//	  state   uint8   (0 alive, 1 suspect, 2 dead)
//	  incarnation uint64 (big endian)

const (
	gossipMagic = "SPG1"
	// MaxGossipMessage bounds one wire message; HandleExchange reads no
	// more than this many bytes off an inbound request.
	MaxGossipMessage = 64 << 10
	maxGossipEntries = 1024
	maxMemberName    = 64
	maxMemberURL     = 512
)

// ErrBadGossip is wrapped by every DecodeMembers failure.
var ErrBadGossip = errors.New("cluster: bad gossip message")

// EncodeMembers renders a member table into the gossip wire format.
// Entries violating the format bounds are skipped rather than producing an
// undecodable message.
func EncodeMembers(members []Member) []byte {
	var buf bytes.Buffer
	buf.WriteString(gossipMagic)
	countAt := buf.Len()
	buf.Write([]byte{0, 0})
	n := 0
	for _, m := range members {
		if m.Name == "" || len(m.Name) > maxMemberName || len(m.URL) > maxMemberURL ||
			m.State > StateDead || n >= maxGossipEntries {
			continue
		}
		buf.WriteByte(byte(len(m.Name)))
		buf.WriteString(m.Name)
		var u16 [2]byte
		binary.BigEndian.PutUint16(u16[:], uint16(len(m.URL)))
		buf.Write(u16[:])
		buf.WriteString(m.URL)
		buf.WriteByte(byte(m.State))
		var u64 [8]byte
		binary.BigEndian.PutUint64(u64[:], m.Incarnation)
		buf.Write(u64[:])
		n++
	}
	out := buf.Bytes()
	binary.BigEndian.PutUint16(out[countAt:], uint16(n))
	return out
}

// DecodeMembers parses a gossip wire message. Every failure mode — wrong
// magic, truncation, oversize, out-of-range lengths or states, duplicate
// names — returns an error wrapping ErrBadGossip; it never panics and never
// returns a partially-valid table.
func DecodeMembers(data []byte) ([]Member, error) {
	fail := func(format string, args ...any) ([]Member, error) {
		return nil, fmt.Errorf("%w: "+format, append([]any{ErrBadGossip}, args...)...)
	}
	if len(data) > MaxGossipMessage {
		return fail("message %d bytes exceeds %d", len(data), MaxGossipMessage)
	}
	if len(data) < len(gossipMagic)+2 || string(data[:len(gossipMagic)]) != gossipMagic {
		return fail("missing magic")
	}
	count := int(binary.BigEndian.Uint16(data[len(gossipMagic):]))
	if count > maxGossipEntries {
		return fail("%d entries exceeds %d", count, maxGossipEntries)
	}
	p := data[len(gossipMagic)+2:]
	members := make([]Member, 0, count)
	seen := make(map[string]bool, count)
	for i := 0; i < count; i++ {
		if len(p) < 1 {
			return fail("truncated at entry %d", i)
		}
		nameLen := int(p[0])
		p = p[1:]
		if nameLen == 0 || nameLen > maxMemberName || len(p) < nameLen+2 {
			return fail("entry %d: bad name length %d", i, nameLen)
		}
		name := string(p[:nameLen])
		p = p[nameLen:]
		urlLen := int(binary.BigEndian.Uint16(p))
		p = p[2:]
		if urlLen > maxMemberURL || len(p) < urlLen+1+8 {
			return fail("entry %d: bad url length %d", i, urlLen)
		}
		url := string(p[:urlLen])
		p = p[urlLen:]
		state := MemberState(p[0])
		if state > StateDead {
			return fail("entry %d: unknown state %d", i, p[0])
		}
		inc := binary.BigEndian.Uint64(p[1:9])
		p = p[9:]
		if seen[name] {
			return fail("duplicate member %q", name)
		}
		seen[name] = true
		members = append(members, Member{Name: name, URL: url, State: state, Incarnation: inc})
	}
	if len(p) != 0 {
		return fail("%d trailing bytes", len(p))
	}
	return members, nil
}

// --- membership state machine ---

// GossipConfig wires one node's gossip instance.
type GossipConfig struct {
	// Self is this node's name; SelfURL its advertised base URL.
	Self    string
	SelfURL string
	// Seeds are base URLs to join through while the member table holds
	// nobody but self (the -join path). Ignored once peers are known.
	Seeds []string
	// Interval is the probe cadence (informational here; the owner drives
	// Tick). It sizes the per-exchange timeout.
	Interval time.Duration
	// SuspectAfter is the grace period between suspect and dead (default
	// 3×Interval). A suspicion the member refutes within it costs nothing.
	SuspectAfter time.Duration
	// MissThreshold is how many consecutive failed direct exchanges a peer
	// may accumulate before indirect probes run and suspicion starts
	// (default 3) — smoothing against one slow scheduler quantum.
	MissThreshold int
	// IndirectProbes is how many third-party members are asked to confirm
	// an unreachable peer before it is suspected (default 2).
	IndirectProbes int
	// HTTPClient performs exchanges (nil = a client with Interval timeout).
	HTTPClient *http.Client
	// OnJoin fires when a previously-unknown member is learned (any state).
	OnJoin func(m Member)
	// OnDead fires on a member's transition into StateDead.
	OnDead func(name string)
	// OnAlive fires on a member's transition out of StateDead.
	OnAlive func(name string)
}

type gossipMember struct {
	Member
	suspectSince time.Time // this observer's clock when it first saw suspect
	misses       int       // consecutive failed direct exchanges
}

// Gossip is one node's membership table plus the SWIM probe/merge machinery.
// It is driven by an owner calling Tick at the gossip interval and by the
// HTTP handlers the cluster manager mounts. Safe for concurrent use.
type Gossip struct {
	cfg  GossipConfig
	http *http.Client

	mu         sync.Mutex
	members    map[string]*gossipMember
	probeOrder []string // round-robin cursor state
	probeIdx   int
	seedIdx    int
	blockedIn  map[string]bool // test hook: refuse inbound from these peers
	blockedOut map[string]bool // test hook: fail outbound to these peers

	exchanges      atomic.Int64
	exchangeFails  atomic.Int64
	indirectProbes atomic.Int64
	suspects       atomic.Int64
	refutations    atomic.Int64
	joins          atomic.Int64
}

// NewGossip seeds the table with self (alive, incarnation 1); every other
// member arrives through Merge — a seed exchange, an inbound exchange, or a
// caller folding in a known table.
func NewGossip(cfg GossipConfig) *Gossip {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3 * cfg.Interval
	}
	if cfg.MissThreshold <= 0 {
		cfg.MissThreshold = 3
	}
	if cfg.IndirectProbes <= 0 {
		cfg.IndirectProbes = 2
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: cfg.Interval}
	}
	g := &Gossip{
		cfg:        cfg,
		http:       cfg.HTTPClient,
		members:    make(map[string]*gossipMember),
		blockedIn:  make(map[string]bool),
		blockedOut: make(map[string]bool),
	}
	g.members[cfg.Self] = &gossipMember{Member: Member{
		Name: cfg.Self, URL: cfg.SelfURL, State: StateAlive, Incarnation: 1,
	}}
	return g
}

// Snapshot returns the full member table sorted by name.
func (g *Gossip) Snapshot() []Member {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Member, 0, len(g.members))
	for _, m := range g.members {
		out = append(out, m.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// StateOf reports one member's state (ok false for unknown names).
func (g *Gossip) StateOf(name string) (Member, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.members[name]
	if !ok {
		return Member{}, false
	}
	return m.Member, true
}

// URLOf returns a member's advertised base URL.
func (g *Gossip) URLOf(name string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.members[name]
	if !ok {
		return "", false
	}
	return m.URL, true
}

// SetBlocked is the partition test hook: while blocked, inbound exchanges
// from peer are refused (503) and outbound exchanges to it fail without
// touching the network. Asymmetric partitions are modeled by blocking only
// one direction.
func (g *Gossip) SetBlocked(peer string, inbound, outbound bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.blockedIn[peer] = inbound
	g.blockedOut[peer] = outbound
}

// errBlocked marks an exchange suppressed by the partition test hook.
var errBlocked = errors.New("cluster: gossip blocked by test hook")

// Tick runs one gossip round: probe the next member (or a seed when nobody
// else is known), fall back to indirect probes through third parties before
// suspecting, and expire overdue suspects to dead. The owner calls it at
// the gossip interval; tests call it directly for determinism.
func (g *Gossip) Tick(ctx context.Context) {
	target, url, viaSeed := g.nextTarget()
	if target == "" && url == "" {
		g.expireSuspects()
		return
	}
	err := g.exchange(ctx, target, url)
	if viaSeed {
		// Seed exchanges bootstrap the table; reachability bookkeeping
		// applies only to named members.
		g.expireSuspects()
		return
	}
	g.mu.Lock()
	m, known := g.members[target]
	if known {
		if err == nil {
			m.misses = 0
			if m.State != StateAlive {
				// The peer answered this node directly: that is first-hand
				// proof of life, stronger than any second-hand rumor at the
				// same incarnation. Locally override to alive; if the peer
				// gossips (it is an sptd node), its own refutation with a
				// bumped incarnation follows and settles the cluster.
				g.setStateLocked(m, StateAlive)
			}
		} else {
			m.misses++
			if m.misses >= g.cfg.MissThreshold && m.State == StateAlive {
				// Before suspecting, ask third parties to vouch: a one-way
				// partition looks exactly like a death from this seat.
				g.mu.Unlock()
				confirmed := g.indirectConfirm(ctx, target, url)
				g.mu.Lock()
				if m, known = g.members[target]; known {
					if confirmed {
						m.misses = 0
					} else if m.State == StateAlive {
						g.suspects.Add(1)
						g.setStateLocked(m, StateSuspect)
					}
				}
			}
		}
	}
	g.mu.Unlock()
	g.expireSuspects()
}

// nextTarget picks the next probe target round-robin over every known
// member but self — dead members included, so a peer that restarts on the
// same address is noticed by direct probing even before its own gossip
// reaches us. With no members known it rotates through the seed URLs.
func (g *Gossip) nextTarget() (name, url string, viaSeed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var cands []string
	for n, m := range g.members {
		if n != g.cfg.Self && m.URL != "" {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		if len(g.cfg.Seeds) == 0 {
			return "", "", false
		}
		url := g.cfg.Seeds[g.seedIdx%len(g.cfg.Seeds)]
		g.seedIdx++
		return "", url, true
	}
	sort.Strings(cands)
	g.probeIdx++
	n := cands[g.probeIdx%len(cands)]
	return n, g.members[n].URL, false
}

// exchange POSTs this node's table to url and merges the response table.
// An HTTP response with an undecodable body still counts as success for
// liveness (the process demonstrably answered); only transport failure is
// a miss.
func (g *Gossip) exchange(ctx context.Context, peer, url string) error {
	g.mu.Lock()
	blocked := peer != "" && g.blockedOut[peer]
	g.mu.Unlock()
	if blocked {
		g.exchangeFails.Add(1)
		return errBlocked
	}
	g.exchanges.Add(1)
	body := EncodeMembers(g.Snapshot())
	cctx, cancel := context.WithTimeout(ctx, g.cfg.Interval)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, url+"/v1/gossip", bytes.NewReader(body))
	if err != nil {
		g.exchangeFails.Add(1)
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(gossipFromHeader, g.cfg.Self)
	resp, err := g.http.Do(req)
	if err != nil {
		g.exchangeFails.Add(1)
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxGossipMessage+1))
	if err != nil {
		g.exchangeFails.Add(1)
		return err
	}
	if resp.StatusCode != http.StatusOK {
		// The peer refused the exchange (blocked hook, draining proxy):
		// still an HTTP answer, but no table to merge. It proves liveness
		// only when the refusal came from the peer process itself; the
		// block hook uses 503 precisely so a partitioned exchange does NOT
		// count as contact.
		if resp.StatusCode == http.StatusServiceUnavailable {
			g.exchangeFails.Add(1)
			return fmt.Errorf("cluster: gossip exchange refused: %d", resp.StatusCode)
		}
		return nil
	}
	if remote, derr := DecodeMembers(data); derr == nil {
		g.Merge(remote)
	}
	return nil
}

// indirectConfirm asks up to IndirectProbes alive third parties to reach
// target on this node's behalf. One confirmation is enough: the target is
// alive, just unreachable from here — a one-way partition, not a death.
func (g *Gossip) indirectConfirm(ctx context.Context, target, targetURL string) bool {
	g.mu.Lock()
	var helpers []string
	for n, m := range g.members {
		if n != g.cfg.Self && n != target && m.State == StateAlive && !g.blockedOut[n] {
			helpers = append(helpers, n)
		}
	}
	sort.Strings(helpers)
	if len(helpers) > g.cfg.IndirectProbes {
		// Rotate which helpers carry the probes so one bad helper cannot
		// permanently starve confirmation.
		start := g.probeIdx % len(helpers)
		rot := append(append([]string(nil), helpers[start:]...), helpers[:start]...)
		helpers = rot[:g.cfg.IndirectProbes]
	}
	urls := make([]string, len(helpers))
	for i, h := range helpers {
		urls[i] = g.members[h].URL
	}
	g.mu.Unlock()

	payload := EncodeMembers([]Member{{Name: target, URL: targetURL, State: StateAlive}})
	for _, helper := range urls {
		g.indirectProbes.Add(1)
		cctx, cancel := context.WithTimeout(ctx, 2*g.cfg.Interval)
		req, err := http.NewRequestWithContext(cctx, http.MethodPost, helper+"/v1/gossip/probe", bytes.NewReader(payload))
		if err != nil {
			cancel()
			continue
		}
		req.Header.Set(gossipFromHeader, g.cfg.Self)
		resp, err := g.http.Do(req)
		if err != nil {
			cancel()
			continue
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, MaxGossipMessage+1))
		resp.Body.Close()
		cancel()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		if remote, derr := DecodeMembers(data); derr == nil {
			g.Merge(remote)
		}
		return true
	}
	return false
}

// expireSuspects commits overdue suspicions to dead.
func (g *Gossip) expireSuspects() {
	now := time.Now()
	g.mu.Lock()
	var dead []string
	for name, m := range g.members {
		if name == g.cfg.Self || m.State != StateSuspect {
			continue
		}
		if !m.suspectSince.IsZero() && now.Sub(m.suspectSince) >= g.cfg.SuspectAfter {
			m.State = StateDead
			m.suspectSince = time.Time{}
			dead = append(dead, name)
		}
	}
	g.mu.Unlock()
	sort.Strings(dead)
	for _, name := range dead {
		if g.cfg.OnDead != nil {
			g.cfg.OnDead(name)
		}
	}
}

// setStateLocked applies a state transition under g.mu and fires the
// dead-boundary callbacks after the lock is released via a goroutine-free
// deferred list — callers must hold g.mu; the callback fires synchronously
// once the caller releases it. To keep that simple, setStateLocked only
// mutates and records; callbacks for merge-driven transitions fire in
// Merge. For the two local call sites (probe success / suspicion) the
// transitions never cross the dead boundary except alive-override of a
// dead member, handled explicitly there.
func (g *Gossip) setStateLocked(m *gossipMember, s MemberState) {
	prev := m.State
	m.State = s
	switch {
	case s == StateSuspect && prev != StateSuspect:
		m.suspectSince = time.Now()
	case s != StateSuspect:
		m.suspectSince = time.Time{}
	}
	if prev == StateDead && s == StateAlive && g.cfg.OnAlive != nil {
		name := m.Name
		g.mu.Unlock()
		g.cfg.OnAlive(name)
		g.mu.Lock()
	}
}

// Merge folds a remote member table into the local one under the SWIM
// ordering: a higher incarnation always wins; at equal incarnations the
// more severe state wins (dead > suspect > alive). Entries about self that
// claim suspect or dead are refuted by bumping the local incarnation —
// subsequent exchanges carry the refutation cluster-wide. Unknown members
// are added (the join path). Transition callbacks fire after the table
// settles, outside the lock.
func (g *Gossip) Merge(remote []Member) {
	type transition struct {
		member Member
		kind   string // "join" | "dead" | "alive"
	}
	var fired []transition
	g.mu.Lock()
	for _, r := range remote {
		if r.Name == "" || r.State > StateDead {
			continue
		}
		if r.Name == g.cfg.Self {
			self := g.members[g.cfg.Self]
			if r.State != StateAlive && r.Incarnation >= self.Incarnation {
				// Someone suspects (or buried) this live node: refute with a
				// fresh incarnation that outranks the rumor.
				self.Incarnation = r.Incarnation + 1
				self.State = StateAlive
				g.refutations.Add(1)
			}
			continue
		}
		m, known := g.members[r.Name]
		if !known {
			if r.URL == "" {
				continue // a member we cannot ever reach is not a member
			}
			nm := &gossipMember{Member: r}
			if r.State == StateSuspect {
				nm.suspectSince = time.Now()
			}
			g.members[r.Name] = nm
			g.joins.Add(1)
			fired = append(fired, transition{member: r, kind: "join"})
			if r.State == StateDead {
				fired = append(fired, transition{member: r, kind: "dead"})
			}
			continue
		}
		apply := false
		switch {
		case r.Incarnation > m.Incarnation:
			apply = true
		case r.Incarnation == m.Incarnation && r.State > m.State:
			apply = true
		}
		if !apply {
			continue
		}
		prev := m.State
		m.Incarnation = r.Incarnation
		if r.URL != "" {
			m.URL = r.URL
		}
		m.State = r.State
		switch {
		case r.State == StateSuspect && prev != StateSuspect:
			m.suspectSince = time.Now()
		case r.State != StateSuspect:
			m.suspectSince = time.Time{}
		}
		if r.State == StateAlive {
			m.misses = 0
		}
		if prev != StateDead && r.State == StateDead {
			fired = append(fired, transition{member: m.Member, kind: "dead"})
		}
		if prev == StateDead && r.State != StateDead {
			fired = append(fired, transition{member: m.Member, kind: "alive"})
		}
	}
	g.mu.Unlock()
	for _, tr := range fired {
		switch tr.kind {
		case "join":
			if g.cfg.OnJoin != nil {
				g.cfg.OnJoin(tr.member)
			}
		case "dead":
			if g.cfg.OnDead != nil {
				g.cfg.OnDead(tr.member.Name)
			}
		case "alive":
			if g.cfg.OnAlive != nil {
				g.cfg.OnAlive(tr.member.Name)
			}
		}
	}
}

// gossipFromHeader names the sending node on gossip exchanges so the
// partition test hook can refuse inbound traffic per peer.
const gossipFromHeader = "X-Spt-Gossip-From"

// HandleExchange serves one inbound gossip exchange: merge the sender's
// table, answer with ours. The merge happens before the response is
// rendered, so a node that learns it is suspected refutes in the same
// round trip.
func (g *Gossip) HandleExchange(w http.ResponseWriter, r *http.Request) {
	from := r.Header.Get(gossipFromHeader)
	g.mu.Lock()
	refused := from != "" && g.blockedIn[from]
	g.mu.Unlock()
	if refused {
		http.Error(w, "gossip blocked by test hook", http.StatusServiceUnavailable)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxGossipMessage))
	if err != nil {
		http.Error(w, "gossip message too large or torn", http.StatusBadRequest)
		return
	}
	if remote, derr := DecodeMembers(data); derr == nil {
		g.Merge(remote)
	}
	// An undecodable body still gets our table back: the sender may be a
	// newer node speaking a format we skip; membership must not wedge on it.
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(EncodeMembers(g.Snapshot()))
}

// HandleProbe serves an indirect-probe request: the body names one target
// member; this node attempts a direct exchange with it and answers 200
// (with the merged table) on success, 502 on failure. This is the third
// observer that keeps a one-way partition from escalating into a death.
func (g *Gossip) HandleProbe(w http.ResponseWriter, r *http.Request) {
	from := r.Header.Get(gossipFromHeader)
	g.mu.Lock()
	refused := from != "" && g.blockedIn[from]
	g.mu.Unlock()
	if refused {
		http.Error(w, "gossip blocked by test hook", http.StatusServiceUnavailable)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxGossipMessage))
	if err != nil {
		http.Error(w, "probe request too large or torn", http.StatusBadRequest)
		return
	}
	targets, derr := DecodeMembers(data)
	if derr != nil || len(targets) != 1 || targets[0].URL == "" {
		http.Error(w, "probe wants exactly one target member", http.StatusBadRequest)
		return
	}
	t := targets[0]
	if err := g.exchange(r.Context(), t.Name, t.URL); err != nil {
		http.Error(w, "target unreachable from here too", http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(EncodeMembers(g.Snapshot()))
}

// Metrics renders the gossip counters as Prometheus text.
func (g *Gossip) Metrics(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("sptd_gossip_exchanges_total", "Direct gossip exchanges attempted.", g.exchanges.Load())
	counter("sptd_gossip_exchange_failures_total", "Gossip exchanges that got no usable answer.", g.exchangeFails.Load())
	counter("sptd_gossip_indirect_probes_total", "Indirect probes asked of third-party members.", g.indirectProbes.Load())
	counter("sptd_gossip_suspects_total", "Members this node marked suspect.", g.suspects.Load())
	counter("sptd_gossip_refutations_total", "Times this node refuted a rumor of its own death.", g.refutations.Load())
	counter("sptd_gossip_joins_total", "Previously-unknown members learned through gossip.", g.joins.Load())
	g.mu.Lock()
	states := map[MemberState]int{}
	for _, m := range g.members {
		states[m.State]++
	}
	g.mu.Unlock()
	fmt.Fprintf(w, "# HELP sptd_gossip_members Members known to this node by state.\n# TYPE sptd_gossip_members gauge\n")
	for _, s := range []MemberState{StateAlive, StateSuspect, StateDead} {
		fmt.Fprintf(w, "sptd_gossip_members{state=%q} %d\n", s.String(), states[s])
	}
}
