package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/service"
	"repro/spt/client"
)

// newClusterServer builds a daemon node for manager tests: stub pipeline,
// optional journal, cleaned up by drain. The journal is returned (nil
// without journalDir) so death-simulation tests can close it — a real
// SIGKILL releases the journal-dir flock via the kernel, and closing is
// the in-process equivalent.
func newClusterServer(t *testing.T, name, journalDir string) (*service.Server, *service.Journal) {
	t.Helper()
	cfg := service.Config{Pipeline: &countingPipeline{}, NodeName: name}
	var jn *service.Journal
	if journalDir != "" {
		var err error
		jn, err = service.OpenJournal(journalDir)
		if err != nil {
			t.Fatalf("OpenJournal(%s): %v", journalDir, err)
		}
		t.Cleanup(func() { _ = jn.Close() })
		cfg.Journal = jn
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New(%s): %v", name, err)
	}
	t.Cleanup(func() { _ = s.Drain(2 * time.Second) })
	return s, jn
}

// writeDeadNodeJournal runs a real daemon as `name`, pushes async jobs
// through it so its write-ahead journal fills, and shuts it down — leaving
// behind exactly what a SIGKILLed node leaves for the survivors.
func writeDeadNodeJournal(t *testing.T, root, name string, reqs []client.SimulateRequest) []string {
	t.Helper()
	s, jn := newClusterServer(t, name, filepath.Join(root, name))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var ids []string
	for _, req := range reqs {
		req.Async = true
		resp, err := c.Simulate(ctx, req)
		if err != nil {
			t.Fatalf("submit %s: %v", req.Benchmark, err)
		}
		ids = append(ids, resp.JobID)
	}
	for _, id := range ids {
		if _, err := c.Wait(ctx, id, 5*time.Millisecond); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
	if err := s.Drain(2 * time.Second); err != nil {
		t.Fatalf("drain dead node: %v", err)
	}
	// Release the journal-dir lock the way a SIGKILL would: until the
	// "dead" node's lock is gone, the steal fence (correctly) refuses to
	// touch its journal.
	_ = jn.Close()
	return ids
}

// joinManager builds a manager and folds peers (name → base URL, self
// included) into its table through Gossip().Merge — the same path a seed
// exchange takes in production.
func joinManager(cfg ManagerConfig, peers map[string]string) (*Manager, error) {
	cfg.SelfURL = peers[cfg.Self]
	m, err := NewManager(cfg)
	if err != nil {
		return nil, err
	}
	table := make([]Member, 0, len(peers))
	for name, url := range peers {
		table = append(table, Member{Name: name, URL: url, State: StateAlive})
	}
	m.Gossip().Merge(table)
	return m, nil
}

func TestStealExactlyOneSurvivorAdopts(t *testing.T) {
	root := t.TempDir()
	ids := writeDeadNodeJournal(t, root, "n3", []client.SimulateRequest{{Benchmark: "parser"}, {Benchmark: "mcf"}})

	members := map[string]string{
		"n1": "http://127.0.0.1:1",
		"n2": "http://127.0.0.1:2",
		"n3": "http://127.0.0.1:3",
	}
	mk := func(name string) (*service.Server, *Manager) {
		s, _ := newClusterServer(t, name, filepath.Join(root, name))
		m, err := joinManager(ManagerConfig{Self: name, JournalRoot: root, Server: s}, members)
		if err != nil {
			t.Fatalf("NewManager(%s): %v", name, err)
		}
		return s, m
	}
	s1, m1 := mk("n1")
	s2, m2 := mk("n2")

	// Both survivors notice the death at once and race for the journal.
	var wg sync.WaitGroup
	for _, m := range []*Manager{m1, m2} {
		wg.Add(1)
		go func(m *Manager) {
			defer wg.Done()
			m.steal("n3")
		}(m)
	}
	wg.Wait()

	if total := m1.StealsWon() + m2.StealsWon(); total != 1 {
		t.Fatalf("steals won = %d + %d, want exactly 1 (rename arbitration)", m1.StealsWon(), m2.StealsWon())
	}
	winner, loser := s1, s2
	if m2.StealsWon() == 1 {
		winner, loser = s2, s1
	}

	// Every dead-node job is pollable on the winner — and only there.
	tsW := httptest.NewServer(winner.Handler())
	defer tsW.Close()
	tsL := httptest.NewServer(loser.Handler())
	defer tsL.Close()
	cw := client.New(tsW.URL, tsW.Client())
	cl := client.New(tsL.URL, tsL.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, id := range ids {
		js, err := cw.Job(ctx, id)
		if err != nil {
			t.Fatalf("winner lost adopted job %s: %v", id, err)
		}
		if js.State != client.StateDone || js.Outcome != client.OutcomeOK {
			t.Fatalf("adopted job %s = %+v", id, js)
		}
		var ae *client.APIError
		if _, err := cl.Job(ctx, id); !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
			t.Fatalf("loser answered for %s: %v (want 404)", id, err)
		}
	}

	// A second detection round steals nothing new.
	m1.steal("n3")
	m2.steal("n3")
	if total := m1.StealsWon() + m2.StealsWon(); total != 1 {
		t.Fatalf("re-steal changed the count: %d", total)
	}
}

// TestStealFencedWhileVictimAlive: a peer that misses heartbeats but whose
// process is still running (slow, paused, partitioned) holds its
// journal-dir lock, so the steal must refuse to touch its journal — a
// premature rename would lose every record the live victim appends after
// the fold and let its next compaction run against a vanished path.
func TestStealFencedWhileVictimAlive(t *testing.T) {
	root := t.TempDir()
	victim, err := service.OpenJournal(filepath.Join(root, "n3"))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newClusterServer(t, "n1", filepath.Join(root, "n1"))
	members := map[string]string{"n1": "http://127.0.0.1:1", "n3": "http://127.0.0.1:3"}
	m, err := joinManager(ManagerConfig{Self: "n1", JournalRoot: root, Server: s}, members)
	if err != nil {
		t.Fatal(err)
	}

	m.steal("n3")
	if m.StealsWon() != 0 || m.StealsFenced() != 1 {
		t.Fatalf("steal of a live peer: won=%d fenced=%d, want won=0 fenced=1", m.StealsWon(), m.StealsFenced())
	}
	if _, err := os.Stat(filepath.Join(root, "n3", "jobs.journal")); err != nil {
		t.Fatalf("live peer's journal was touched: %v", err)
	}

	// Once the victim really dies the kernel releases its lock (Close is
	// the in-process stand-in for SIGKILL) and the steal goes through.
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	m.steal("n3")
	if m.StealsWon() != 1 {
		t.Fatalf("steal after lock release: won=%d, want 1", m.StealsWon())
	}
}

// TestForwardOutlivesHeartbeatTimeout: forwarding must not share the
// heartbeat probe client's timeout — an owner that needs longer than one
// heartbeat interval to compute would otherwise abort the proxy mid-flight
// and silently fall back to local execution, defeating routing locality.
func TestForwardOutlivesHeartbeatTimeout(t *testing.T) {
	hb := 10 * time.Millisecond
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(8 * hb) // far past the heartbeat-probe timeout
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"benchmark":"x","job_id":"slow-owner"}`)
	}))
	defer slow.Close()

	sa, _ := newClusterServer(t, "a", "")
	members := map[string]string{"a": "http://127.0.0.1:1", "b": slow.URL}
	ma, err := joinManager(ManagerConfig{Self: "a", Heartbeat: hb, Server: sa}, members)
	if err != nil {
		t.Fatal(err)
	}
	tsa := httptest.NewServer(ma.Middleware(sa.Handler()))
	defer tsa.Close()

	var bench string
	for _, cand := range []string{"parser", "mcf", "gzip", "twolf", "vortex", "vpr", "gcc", "gap"} {
		if owner, ok := ma.Ring().Owner(RouteKey(cand, 1)); ok && owner == "b" {
			bench = cand
			break
		}
	}
	if bench == "" {
		t.Fatal("no candidate benchmark routes to b")
	}
	resp, err := http.Post(tsa.URL+"/v1/simulate", "application/json",
		strings.NewReader(fmt.Sprintf(`{"benchmark":%q}`, bench)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "slow-owner") {
		t.Fatalf("slow owner's answer was not proxied (fell back to local): %s", body)
	}
	if ma.forwards.Load() != 1 {
		t.Fatalf("forwards = %d, want 1", ma.forwards.Load())
	}
}

// clusterNodePair wires two daemon nodes with manager middleware into
// httptest servers whose URLs the managers know.
func clusterNodePair(t *testing.T) (ma, mb *Manager, tsa, tsb *httptest.Server) {
	t.Helper()
	type handlerBox struct{ h http.Handler }
	mk := func(name string) (*service.Server, *httptest.Server, *atomic.Value) {
		s, _ := newClusterServer(t, name, "")
		var h atomic.Value
		h.Store(handlerBox{s.Handler()})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.Load().(handlerBox).h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return s, ts, &h
	}
	sa, tsa, ha := mk("a")
	sb, tsb, hb := mk("b")
	members := map[string]string{"a": tsa.URL, "b": tsb.URL}
	var err error
	if ma, err = joinManager(ManagerConfig{Self: "a", Server: sa}, members); err != nil {
		t.Fatal(err)
	}
	if mb, err = joinManager(ManagerConfig{Self: "b", Server: sb}, members); err != nil {
		t.Fatal(err)
	}
	ha.Store(handlerBox{ma.Middleware(sa.Handler())})
	hb.Store(handlerBox{mb.Middleware(sb.Handler())})
	return ma, mb, tsa, tsb
}

func TestMiddlewareForwardsToOwnerOneHop(t *testing.T) {
	ma, mb, tsa, _ := clusterNodePair(t)

	// Find a benchmark whose ring owner is b, then submit it to a.
	var bench string
	for _, cand := range []string{"parser", "mcf", "gzip", "twolf", "vortex", "vpr", "gcc", "gap"} {
		if owner, ok := ma.Ring().Owner(RouteKey(cand, 1)); ok && owner == "b" {
			bench = cand
			break
		}
	}
	if bench == "" {
		t.Fatal("no candidate benchmark routes to b")
	}

	submit := func(forwarded bool) *client.SimulateResponse {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, tsa.URL+"/v1/simulate",
			strings.NewReader(fmt.Sprintf(`{"benchmark":%q}`, bench)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if forwarded {
			req.Header.Set("X-Spt-Forwarded", "test")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit = %d", resp.StatusCode)
		}
		var sr client.SimulateResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return &sr
	}

	// Mis-routed submit: a proxies it to b, whose node name stamps the id.
	if sr := submit(false); !strings.HasPrefix(sr.JobID, "b-") {
		t.Fatalf("job id %q, want b-* (served by the ring owner)", sr.JobID)
	}
	if ma.forwards.Load() != 1 || mb.forwards.Load() != 0 {
		t.Fatalf("forwards = a:%d b:%d, want exactly one hop a→b", ma.forwards.Load(), mb.forwards.Load())
	}

	// An already-forwarded request is served locally even though a's ring
	// view says b owns it — the one-hop bound under disagreeing views.
	if sr := submit(true); !strings.HasPrefix(sr.JobID, "a-") {
		t.Fatalf("forwarded-marked job id %q, want a-* (no second hop)", sr.JobID)
	}
	if ma.forwards.Load() != 1 {
		t.Fatalf("forwards = %d after marked request, want still 1", ma.forwards.Load())
	}
}

func TestMiddlewareStoreAndClusterView(t *testing.T) {
	s, _ := newClusterServer(t, "a", "")
	st, err := NewStore(StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	key := Key("simulate", "gcc", "1")
	payload := []byte(`{"benchmark":"gcc"}`)
	st.Put(key, payload)
	m, err := NewManager(ManagerConfig{
		Self:    "a",
		SelfURL: "http://127.0.0.1:1",
		Server:  s,
		Store:   st,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Middleware(s.Handler()))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/store/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body.Bytes(), payload) {
		t.Fatalf("GET /v1/store = %d %q", resp.StatusCode, body.String())
	}
	if resp.Header.Get("X-Spt-Store-Sha256") == "" {
		t.Fatal("peer-fetch response missing the checksum header")
	}
	if resp, _ := http.Get(ts.URL + "/v1/store/" + Key("missing")); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing key = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view client.ClusterView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Self != "a" || len(view.Gossip) != 1 || view.Gossip[0].Name != "a" || view.Gossip[0].State != "alive" {
		t.Fatalf("cluster view = %+v", view)
	}
}

func TestGossipDeclaresDeadThenRevives(t *testing.T) {
	// b answers with a non-gossip body while up; when "down", the handler
	// aborts the connection without a response — the in-process equivalent
	// of a crashed process (transport failure, not an HTTP answer).
	var down atomic.Bool
	tsb := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			panic(http.ErrAbortHandler)
		}
		_, _ = io.WriteString(w, "not a gossip table, but an answer is an answer")
	}))
	defer tsb.Close()

	sa, _ := newClusterServer(t, "a", "")
	m, err := joinManager(ManagerConfig{
		Self:          "a",
		Heartbeat:     10 * time.Millisecond,
		MissThreshold: 2,
		SuspectAfter:  30 * time.Millisecond,
		Server:        sa,
	}, map[string]string{"a": "http://127.0.0.1:1", "b": tsb.URL})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		m.Tick()
	}
	if !m.Ring().IsAlive("b") {
		t.Fatal("answering peer declared dead")
	}

	down.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for m.Ring().IsAlive("b") && time.Now().Before(deadline) {
		m.Tick() // misses accumulate, suspicion starts, the grace expires
		time.Sleep(5 * time.Millisecond)
	}
	if m.Ring().IsAlive("b") {
		t.Fatal("unreachable peer still alive after misses + suspect grace")
	}
	if st, _ := m.Gossip().StateOf("b"); st.State != StateDead {
		t.Fatalf("gossip state of b = %v, want dead", st.State)
	}
	if m.AlivePeerURLs() != nil {
		t.Fatalf("AlivePeerURLs = %v, want none", m.AlivePeerURLs())
	}

	// b answers again at the same URL: the next direct probe revives it —
	// first-hand contact outranks the local death verdict.
	down.Store(false)
	for i := 0; i < 3 && !m.Ring().IsAlive("b"); i++ {
		m.Tick()
	}
	if !m.Ring().IsAlive("b") {
		t.Fatal("revived peer not returned to the ring")
	}
	if urls := m.AlivePeerURLs(); len(urls) != 1 || urls[0] != tsb.URL {
		t.Fatalf("AlivePeerURLs = %v", urls)
	}
}

// TestStopCancelsInflightProbe is the satellite-1 regression test: a gossip
// exchange against a stalled peer must not outlive Stop — the manager
// lifecycle context created in NewManager is the probe's parent, so
// cancelling it aborts the in-flight request immediately.
func TestStopCancelsInflightProbe(t *testing.T) {
	probeStarted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(probeStarted) })
		// Hold the probe open until the test ends. A test-owned channel
		// rather than r.Context(): the handler never drains the POST body,
		// so net/http would not notice the client disconnect and Close
		// would hang waiting for this handler.
		<-release
	}))
	defer stall.Close()
	defer close(release)

	sa, _ := newClusterServer(t, "a", "")
	m, err := joinManager(ManagerConfig{
		Self: "a",
		// A long heartbeat makes the per-exchange timeout far longer than
		// the Stop deadline below, and the client has no timeout of its
		// own: only lifecycle cancellation can end this probe early.
		Heartbeat:  10 * time.Second,
		HTTPClient: &http.Client{},
		Server:     sa,
	}, map[string]string{"a": "http://127.0.0.1:1", "b": stall.URL})
	if err != nil {
		t.Fatal(err)
	}

	tickDone := make(chan struct{})
	go func() {
		m.Tick() // blocks inside the exchange against the stalled peer
		close(tickDone)
	}()
	<-probeStarted
	stopDone := make(chan struct{})
	go func() {
		m.Stop()
		close(stopDone)
	}()
	for _, step := range []struct {
		name string
		ch   <-chan struct{}
	}{{"Stop", stopDone}, {"Tick", tickDone}} {
		select {
		case <-step.ch:
		case <-time.After(3 * time.Second):
			t.Fatalf("%s did not return promptly with a probe stalled mid-flight", step.name)
		}
	}
}

// TestStealRestoresResultsToStore: adopting a dead peer's journal also
// restores its computed results into the tiered store — the journal is the
// durable record when the dead node's replica pushes raced its crash — so
// a later request for the same work is a store hit, not a recompute. The
// restored key is the canonical machine's, so parser journaled as
// {"cores":2,"srb":1024} serves a later plain {} request.
func TestStealRestoresResultsToStore(t *testing.T) {
	root := t.TempDir()
	writeDeadNodeJournal(t, root, "n3", []client.SimulateRequest{
		{Benchmark: "parser", Cores: 2, SRB: 1024},
		{Benchmark: "mcf"},
	})

	s, _ := newClusterServer(t, "n1", filepath.Join(root, "n1"))
	st, err := NewStore(StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := joinManager(ManagerConfig{
		Self:        "n1",
		JournalRoot: root,
		Server:      s,
		Store:       st,
	}, map[string]string{"n1": "http://127.0.0.1:1", "n3": "http://127.0.0.1:3"})
	if err != nil {
		t.Fatal(err)
	}
	m.steal("n3")
	if m.StealsWon() != 1 {
		t.Fatalf("steals won = %d, want 1", m.StealsWon())
	}
	if m.StoreRestores() != 2 {
		t.Fatalf("store restores = %d, want 2", m.StoreRestores())
	}
	for _, bench := range []string{"parser", "mcf"} {
		if !st.Has(SimulateKey(client.SimulateRequest{Benchmark: bench})) {
			t.Fatalf("restored store missing %s", bench)
		}
	}

	// The zero-recompute guarantee: a read-through pipeline over the
	// restored store answers without computing, and the payload decodes
	// with no job-id stamp (the pre-stamp computation bytes).
	cp := &countingPipeline{}
	p := NewPipeline(cp, st)
	resp, err := p.Simulate(context.Background(), client.SimulateRequest{Benchmark: "parser"}, guard.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if cp.simulates.Load() != 0 {
		t.Fatalf("restored result recomputed %d times, want 0", cp.simulates.Load())
	}
	if resp.JobID != "" || resp.Benchmark != "parser" {
		t.Fatalf("restored payload = %+v, want pre-stamp bytes", resp)
	}

	// Re-stealing is idempotent: nothing doubles.
	m.steal("n3")
	if m.StoreRestores() != 2 {
		t.Fatalf("re-steal duplicated restores: %d", m.StoreRestores())
	}
}

// TestClusterViewExtendedAndLagCondition: GET /v1/cluster (read through the
// typed client) carries the gossip table, store health and replication lag;
// a pending-push backlog past the high-water mark raises the readyz
// replication-lag condition, which clears only when the queue drains dry.
func TestClusterViewExtendedAndLagCondition(t *testing.T) {
	s, _ := newClusterServer(t, "a", "")
	st, err := NewStore(StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ManagerConfig{
		Self:    "a",
		SelfURL: "http://127.0.0.1:1",
		Server:  s,
		Store:   st,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Middleware(s.Handler()))
	defer ts.Close()

	// Fill the push queue past the high-water mark; no peers are alive so
	// nothing drains on its own.
	for i := 0; i < replicationLagHighWater; i++ {
		st.Put(Key("simulate", "bench", fmt.Sprint(i)), []byte(`{"i":1}`))
	}
	view, err := client.New(ts.URL, ts.Client()).ClusterView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if view.Self != "a" || view.ReplicationPending != replicationLagHighWater {
		t.Fatalf("view = %+v, want pending %d", view, replicationLagHighWater)
	}
	if len(view.Gossip) != 1 || view.Gossip[0].Name != "a" || view.Gossip[0].State != "alive" || view.Gossip[0].Incarnation == 0 {
		t.Fatalf("gossip rows = %+v", view.Gossip)
	}
	if view.StoreDegraded {
		t.Fatal("healthy store reported degraded")
	}
	if ready, conds := s.ReadyState(); ready || len(conds) == 0 || conds[0] != service.CondReplicationLag {
		t.Fatalf("readyz = (%v, %v), want replication-lag raised", ready, conds)
	}

	// Draining to zero clears the condition (hysteresis: only zero does).
	m.repl.DrainPushes(context.Background())
	view, err = client.New(ts.URL, ts.Client()).ClusterView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if view.ReplicationPending != 0 {
		t.Fatalf("pending after drain = %d", view.ReplicationPending)
	}
	if ready, conds := s.ReadyState(); !ready {
		t.Fatalf("readyz still failing after drain: %v", conds)
	}
}

// TestBlockHookGated: the partition test hook must not exist unless
// explicitly enabled — a production daemon exposes no endpoint that can
// partition its own gossip.
func TestBlockHookGated(t *testing.T) {
	body := `{"peer":"b","inbound":true,"outbound":true}`
	mk := func(hooks bool) *httptest.Server {
		s, _ := newClusterServer(t, "a", "")
		m, err := joinManager(ManagerConfig{
			Self:            "a",
			Server:          s,
			EnableTestHooks: hooks,
		}, map[string]string{"a": "http://127.0.0.1:1", "b": "http://127.0.0.1:2"})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(m.Middleware(s.Handler()))
		t.Cleanup(ts.Close)
		return ts
	}
	resp, err := http.Post(mk(false).URL+"/v1/gossip/block", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled hook answered %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(mk(true).URL+"/v1/gossip/block", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enabled hook answered %d, want 200", resp.StatusCode)
	}
}
