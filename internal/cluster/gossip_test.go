package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// gossipNode bundles a Gossip instance with an httptest server that mounts
// its exchange/probe handlers, so tests drive real HTTP round trips while
// controlling time by calling Tick directly.
type gossipNode struct {
	g   *Gossip
	srv *httptest.Server
}

func newGossipNode(t *testing.T, name string, cfg GossipConfig) *gossipNode {
	t.Helper()
	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	cfg.Self = name
	cfg.SelfURL = srv.URL
	if cfg.Interval == 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	g := NewGossip(cfg)
	mux.HandleFunc("POST /v1/gossip", g.HandleExchange)
	mux.HandleFunc("POST /v1/gossip/probe", g.HandleProbe)
	return &gossipNode{g: g, srv: srv}
}

// tickAll runs n gossip rounds on every node, in order, letting rumors
// propagate deterministically without real timers.
func tickAll(ctx context.Context, n int, nodes ...*gossipNode) {
	for i := 0; i < n; i++ {
		for _, nd := range nodes {
			nd.g.Tick(ctx)
		}
	}
}

func TestGossipJoinViaSeed(t *testing.T) {
	ctx := context.Background()
	a := newGossipNode(t, "a", GossipConfig{})
	b := newGossipNode(t, "b", GossipConfig{Seeds: []string{a.srv.URL}})

	// b knows nobody; its first tick must bootstrap through the seed and
	// leave both tables containing both members, alive.
	tickAll(ctx, 2, a, b)
	for _, nd := range []*gossipNode{a, b} {
		for _, name := range []string{"a", "b"} {
			m, ok := nd.g.StateOf(name)
			if !ok || m.State != StateAlive {
				t.Fatalf("node %s: member %s = %+v ok=%v, want alive", nd.g.cfg.Self, name, m, ok)
			}
		}
	}
	// b learned a's URL through the exchange, not configuration.
	if url, _ := b.g.URLOf("a"); url != a.srv.URL {
		t.Fatalf("b's URL for a = %q, want %q", url, a.srv.URL)
	}
}

func TestGossipSuspectThenDeadAfterGrace(t *testing.T) {
	ctx := context.Background()
	var deadNames []string
	a := newGossipNode(t, "a", GossipConfig{
		MissThreshold: 2,
		SuspectAfter:  50 * time.Millisecond,
		OnDead:        func(name string) { deadNames = append(deadNames, name) },
	})
	b := newGossipNode(t, "b", GossipConfig{Seeds: []string{a.srv.URL}})
	tickAll(ctx, 2, a, b)

	// Stop b entirely: transport failures, no third party to vouch for it.
	b.srv.Close()
	for i := 0; i < 4; i++ {
		a.g.Tick(ctx)
	}
	if m, _ := a.g.StateOf("b"); m.State != StateSuspect {
		t.Fatalf("b state after misses = %v, want suspect", m.State)
	}
	if len(deadNames) != 0 {
		t.Fatalf("OnDead fired during grace period: %v", deadNames)
	}
	time.Sleep(60 * time.Millisecond)
	a.g.Tick(ctx)
	if m, _ := a.g.StateOf("b"); m.State != StateDead {
		t.Fatalf("b state after grace = %v, want dead", m.State)
	}
	if len(deadNames) != 1 || deadNames[0] != "b" {
		t.Fatalf("OnDead calls = %v, want [b]", deadNames)
	}
}

// TestGossipAsymmetricPartition is the satellite-4 scenario: a can reach b
// but b cannot reach a. b accumulates misses against a, yet c (a third
// observer with clear paths to both) confirms a via an indirect probe, so
// a must never escalate past suspicion to dead — and therefore no journal
// steal is ever triggered by this one-way break.
func TestGossipAsymmetricPartition(t *testing.T) {
	ctx := context.Background()
	var deaths []string
	mk := func(name string, seeds []string, onDead func(string)) *gossipNode {
		return newGossipNode(t, name, GossipConfig{
			Seeds:         seeds,
			MissThreshold: 1,
			SuspectAfter:  10 * time.Second, // long grace: dead would only be reachable via a bug
			OnDead:        onDead,
		})
	}
	a := mk("a", nil, func(n string) { deaths = append(deaths, "a:"+n) })
	b := mk("b", []string{a.srv.URL}, func(n string) { deaths = append(deaths, "b:"+n) })
	c := mk("c", []string{a.srv.URL}, func(n string) { deaths = append(deaths, "c:"+n) })
	tickAll(ctx, 3, a, b, c)
	for _, nd := range []*gossipNode{a, b, c} {
		for _, name := range []string{"a", "b", "c"} {
			if m, ok := nd.g.StateOf(name); !ok || m.State != StateAlive {
				t.Fatalf("pre-partition: node %s sees %s = %+v ok=%v", nd.g.cfg.Self, name, m, ok)
			}
		}
	}

	// One-way break: b -> a fails, a -> b still works. (blockedOut on b,
	// blockedIn on a, so the break holds regardless of which side checks.)
	b.g.SetBlocked("a", false, true)
	a.g.SetBlocked("b", true, false)

	for i := 0; i < 12; i++ {
		tickAll(ctx, 1, a, b, c)
	}

	// b may suspect a (it can't reach it directly) but c's indirect path
	// must keep a from being declared dead anywhere.
	for _, nd := range []*gossipNode{a, b, c} {
		m, ok := nd.g.StateOf("a")
		if !ok {
			t.Fatalf("node %s lost member a", nd.g.cfg.Self)
		}
		if m.State == StateDead {
			t.Fatalf("node %s declared a dead across a one-way partition", nd.g.cfg.Self)
		}
	}
	if len(deaths) != 0 {
		t.Fatalf("OnDead fired during asymmetric partition: %v", deaths)
	}

	// Heal. a must converge back to alive on every node within a few rounds
	// (b's direct exchanges succeed again, and a refutes any suspicion).
	b.g.SetBlocked("a", false, false)
	a.g.SetBlocked("b", false, false)
	for i := 0; i < 8; i++ {
		tickAll(ctx, 1, a, b, c)
	}
	for _, nd := range []*gossipNode{a, b, c} {
		if m, _ := nd.g.StateOf("a"); m.State != StateAlive {
			t.Fatalf("after heal: node %s sees a = %v, want alive", nd.g.cfg.Self, m.State)
		}
	}
}

func TestGossipRefutationOutrunsRumor(t *testing.T) {
	ctx := context.Background()
	a := newGossipNode(t, "a", GossipConfig{})
	b := newGossipNode(t, "b", GossipConfig{Seeds: []string{a.srv.URL}})
	tickAll(ctx, 2, a, b)

	// Inject a rumor into b's table: a is dead at a's current incarnation.
	am, _ := b.g.StateOf("a")
	b.g.Merge([]Member{{Name: "a", URL: a.srv.URL, State: StateDead, Incarnation: am.Incarnation}})
	if m, _ := b.g.StateOf("a"); m.State != StateDead {
		t.Fatalf("rumor did not apply: %v", m.State)
	}

	// a's next exchange with b delivers the rumor back to a, which refutes
	// with a bumped incarnation in the same round trip; b's table flips back.
	tickAll(ctx, 3, a, b)
	m, _ := b.g.StateOf("a")
	if m.State != StateAlive {
		t.Fatalf("refutation failed: b sees a as %v", m.State)
	}
	if m.Incarnation <= am.Incarnation {
		t.Fatalf("refutation did not bump incarnation: %d <= %d", m.Incarnation, am.Incarnation)
	}
}

func TestGossipMergeOrdering(t *testing.T) {
	g := NewGossip(GossipConfig{Self: "self", SelfURL: "http://self"})
	g.Merge([]Member{{Name: "p", URL: "http://p", State: StateAlive}})

	// Same incarnation: more severe state wins.
	g.Merge([]Member{{Name: "p", URL: "http://p", State: StateSuspect, Incarnation: 0}})
	if m, _ := g.StateOf("p"); m.State != StateSuspect {
		t.Fatalf("severity ordering: got %v", m.State)
	}
	// Lower severity at the same incarnation is ignored.
	g.Merge([]Member{{Name: "p", URL: "http://p", State: StateAlive, Incarnation: 0}})
	if m, _ := g.StateOf("p"); m.State != StateSuspect {
		t.Fatalf("same-incarnation downgrade applied: %v", m.State)
	}
	// Higher incarnation always wins, even toward lower severity.
	g.Merge([]Member{{Name: "p", URL: "http://p", State: StateAlive, Incarnation: 1}})
	if m, _ := g.StateOf("p"); m.State != StateAlive || m.Incarnation != 1 {
		t.Fatalf("incarnation override: %+v", m)
	}
	// Stale incarnation is ignored outright.
	g.Merge([]Member{{Name: "p", URL: "http://p", State: StateDead, Incarnation: 0}})
	if m, _ := g.StateOf("p"); m.State != StateAlive {
		t.Fatalf("stale rumor applied: %v", m.State)
	}
	// Unknown member with no URL is unreachable garbage and must not join.
	g.Merge([]Member{{Name: "ghost", State: StateAlive, Incarnation: 9}})
	if _, ok := g.StateOf("ghost"); ok {
		t.Fatal("URL-less member joined the table")
	}
}

func TestGossipEncodeDecodeRoundTrip(t *testing.T) {
	in := []Member{
		{Name: "a", URL: "http://a:1", State: StateAlive, Incarnation: 1},
		{Name: "b", URL: "http://b:2", State: StateSuspect, Incarnation: 1 << 40},
		{Name: "c", URL: "", State: StateDead, Incarnation: 0},
	}
	out, err := DecodeMembers(EncodeMembers(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d != %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestGossipDecodeRejectsMalformed(t *testing.T) {
	valid := EncodeMembers([]Member{{Name: "a", URL: "http://a", State: StateAlive, Incarnation: 3}})
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   []byte("NOPE\x00\x01"),
		"truncated":   valid[:len(valid)-3],
		"trailing":    append(append([]byte{}, valid...), 0xFF),
		"oversized":   append(append([]byte{}, valid...), make([]byte, MaxGossipMessage)...),
		"dup members": EncodeMembers(nil), // patched below
	}
	// Duplicate names require hand-assembly since EncodeMembers dedups nothing
	// but tests should still prove the decoder rejects them.
	dup := EncodeMembers([]Member{
		{Name: "x", URL: "u", State: StateAlive},
		{Name: "x", URL: "u", State: StateDead},
	})
	cases["dup members"] = dup
	for name, data := range cases {
		if _, err := DecodeMembers(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

// FuzzGossipDecode is the satellite-4 fuzz target: arbitrary bytes must
// never panic the decoder, and anything that decodes must re-encode to a
// table that decodes identically and merges into a live Gossip without
// corrupting the self entry.
func FuzzGossipDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("SPG1"))
	f.Add(EncodeMembers([]Member{{Name: "n1", URL: "http://n1", State: StateAlive, Incarnation: 7}}))
	f.Add(EncodeMembers([]Member{
		{Name: "n1", URL: "http://n1", State: StateSuspect, Incarnation: 1},
		{Name: "n2", URL: "http://n2", State: StateDead, Incarnation: ^uint64(0)},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		members, err := DecodeMembers(data)
		if err != nil {
			return
		}
		// Round trip: decode(encode(decode(x))) is identity.
		again, err := DecodeMembers(EncodeMembers(members))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(members) {
			t.Fatalf("round trip length %d != %d", len(again), len(members))
		}
		for i := range members {
			if again[i] != members[i] {
				t.Fatalf("round trip entry %d: %+v != %+v", i, again[i], members[i])
			}
		}
		// Merging any decoded table must not poison the member table: the
		// self entry stays alive and its incarnation never decreases.
		g := NewGossip(GossipConfig{Self: "self", SelfURL: "http://self"})
		before, _ := g.StateOf("self")
		g.Merge(members)
		self, ok := g.StateOf("self")
		if !ok || self.State != StateAlive || self.Incarnation < before.Incarnation {
			t.Fatalf("merge poisoned self entry: %+v ok=%v", self, ok)
		}
		// Bounded growth: the table holds at most self + decoded entries.
		if got := len(g.Snapshot()); got > 1+len(members) {
			t.Fatalf("table grew to %d from %d entries", got, len(members))
		}
	})
}

func TestGossipHandleExchangeTornBody(t *testing.T) {
	g := NewGossip(GossipConfig{Self: "self", SelfURL: "http://self"})
	req := httptest.NewRequest(http.MethodPost, "/v1/gossip", bytes.NewReader([]byte("garbage")))
	rec := httptest.NewRecorder()
	g.HandleExchange(rec, req)
	// Garbage still gets our table back (liveness over strictness) and the
	// table is untouched.
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if members, err := DecodeMembers(rec.Body.Bytes()); err != nil || len(members) != 1 {
		t.Fatalf("response table: %v %v", members, err)
	}
}
