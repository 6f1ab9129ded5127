package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/spt/client"
)

// ManagerConfig wires one node into the cluster.
type ManagerConfig struct {
	// Self is this node's name; SelfURL the base URL peers reach it at.
	Self    string
	SelfURL string
	// Seeds are base URLs of existing cluster members to join through.
	// Empty makes this node a bare seed: it knows only itself until a
	// joining peer's first gossip exchange reaches it.
	Seeds []string
	// JournalRoot is the directory holding one journal dir per node
	// (<root>/<name>/jobs.journal). Work stealing first acquires the dead
	// peer's journal-dir lock (held by a live daemon until process death,
	// so a slow-but-alive node fences the steal), then claims the journal
	// by atomically renaming it into this node's dir; every member must
	// see the same filesystem. Empty disables stealing.
	JournalRoot string
	// Heartbeat is the gossip round interval (default 500ms).
	Heartbeat time.Duration
	// MissThreshold is how many consecutive failed direct exchanges a peer
	// accumulates before indirect probes run and suspicion starts
	// (default 3).
	MissThreshold int
	// SuspectAfter is the grace period between suspect and dead (default
	// 3×Heartbeat). Within it a live peer refutes the suspicion for free.
	SuspectAfter time.Duration
	// Replicas is the store replication factor RF — copies per object
	// including the owner (default 2; 1 disables replication).
	Replicas int
	// AntiEntropyInterval is the digest-exchange cadence (default 2s).
	AntiEntropyInterval time.Duration
	// EnableTestHooks mounts POST /v1/gossip/block, the netem-free
	// partition hook used by the soak harness. Never enable in production.
	EnableTestHooks bool
	// HTTPClient probes peers (nil = a client with the heartbeat interval
	// as timeout).
	HTTPClient *http.Client
	// ForwardHTTPClient proxies mis-routed submissions to their ring owner
	// (nil = a client with no overall timeout, so the inbound request's
	// context bounds the proxy call). It must not share the probe client's
	// heartbeat-sized timeout: a compile that takes longer than one
	// heartbeat would abort the forward mid-flight and fall back to local
	// execution, silently degrading routing locality to compute-everywhere.
	ForwardHTTPClient *http.Client
	// Store, when non-nil, is served at GET /v1/store/{key} (local tiers
	// only), fed the alive-peer list for its peer-fetch tier, and
	// replicated at RF=Replicas.
	Store *Store
	// Server is the local daemon — the adoption target for stolen jobs and
	// the source of readiness conditions.
	Server *service.Server
	// RingReplicas overrides the virtual-node count (0 = default).
	RingReplicas int
}

// replicationLagHighWater is the pending-push backlog that raises the
// replication-lag readyz condition; it clears only at zero (hysteresis, so
// the condition does not flap around the threshold).
const replicationLagHighWater = 8

// Manager runs one node's cluster duties: gossiping membership, maintaining
// the consistent-hash ring view, forwarding mis-routed requests to their
// owner, serving the store's peer-fetch and replication endpoints, pushing
// replicas and reconciling them by anti-entropy, and stealing a dead peer's
// journal.
type Manager struct {
	cfg    ManagerConfig
	ring   *Ring
	gossip *Gossip
	repl   *Replicator
	http   *http.Client // gossip exchanges (short timeout)
	fwd    *http.Client // request forwarding (inbound ctx bounds it)

	// ctx is the manager lifecycle: created in NewManager, cancelled in
	// Stop, parent of every probe, steal, push and anti-entropy context —
	// Stop cannot wait on an in-flight exchange against a stalled peer.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	stolen  map[string]bool // peers whose journal this node already adopted
	lagCond bool            // replication-lag condition currently raised

	stop    chan struct{}
	stopped sync.WaitGroup

	peersDied     atomic.Int64
	peersRevived  atomic.Int64
	stealsWon     atomic.Int64
	stealsLost    atomic.Int64
	stealsFenced  atomic.Int64
	forwards      atomic.Int64
	storeRestores atomic.Int64
	joinsObserved atomic.Int64
}

// NewManager validates the wiring, builds the ring (self only: every other
// member joins it through gossip) and the gossip and replication layers.
// Call Start to begin gossiping.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: manager needs a node name")
	}
	if cfg.Server == nil {
		return nil, fmt.Errorf("cluster: manager needs the local server")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.MissThreshold <= 0 {
		cfg.MissThreshold = 3
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3 * cfg.Heartbeat
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.AntiEntropyInterval <= 0 {
		cfg.AntiEntropyInterval = 2 * time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: cfg.Heartbeat}
	}
	if cfg.ForwardHTTPClient == nil {
		cfg.ForwardHTTPClient = &http.Client{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:    cfg,
		ring:   NewRing([]string{cfg.Self}, cfg.RingReplicas),
		http:   cfg.HTTPClient,
		fwd:    cfg.ForwardHTTPClient,
		ctx:    ctx,
		cancel: cancel,
		stolen: make(map[string]bool),
		stop:   make(chan struct{}),
	}
	m.gossip = NewGossip(GossipConfig{
		Self:          cfg.Self,
		SelfURL:       cfg.SelfURL,
		Seeds:         cfg.Seeds,
		Interval:      cfg.Heartbeat,
		SuspectAfter:  cfg.SuspectAfter,
		MissThreshold: cfg.MissThreshold,
		HTTPClient:    cfg.HTTPClient,
		OnJoin:        m.onJoin,
		OnDead:        m.onDead,
		OnAlive:       m.onAlive,
	})
	if cfg.Store != nil {
		cfg.Store.SetPeerSource(m.AlivePeerURLs)
		m.repl = NewReplicator(ReplicatorConfig{
			Self:       cfg.Self,
			RF:         cfg.Replicas,
			Interval:   cfg.AntiEntropyInterval,
			Store:      cfg.Store,
			ReplicaSet: func(key string) []string { return m.ring.Successors(key, cfg.Replicas) },
			Peers:      m.alivePeers,
			HTTPClient: &http.Client{Timeout: 2 * cfg.AntiEntropyInterval},
			OnLag:      m.onReplicationLag,
		})
		cfg.Store.SetOnPut(m.repl.Enqueue)
	}
	return m, nil
}

// --- gossip transition callbacks ---

// onJoin adds a gossip-discovered member to the routing ring. Ring point
// positions depend only on the name, so every node that learns of the join
// converges on the identical ring without coordination.
func (m *Manager) onJoin(mem Member) {
	m.joinsObserved.Add(1)
	m.ring.Add(mem.Name)
}

// onDead reshards a confirmed-dead member's arcs to its successors and
// attempts to steal its journal (the PR-6 lock fence stays the final
// arbiter — gossip consensus is still just a rumor compared to a held
// flock).
func (m *Manager) onDead(name string) {
	if name == m.cfg.Self {
		return
	}
	m.ring.SetAlive(name, false)
	m.peersDied.Add(1)
	m.steal(name)
}

// onAlive returns a revived member to the ring; a node that died and came
// back may be re-stolen if it dies again.
func (m *Manager) onAlive(name string) {
	if name == m.cfg.Self {
		return
	}
	m.ring.SetAlive(name, true)
	m.peersRevived.Add(1)
	m.mu.Lock()
	delete(m.stolen, name)
	m.mu.Unlock()
}

// onReplicationLag raises the replication-lag readyz condition past the
// high-water backlog and clears it only when the queue fully drains.
func (m *Manager) onReplicationLag(pending int) {
	m.mu.Lock()
	raise := !m.lagCond && pending >= replicationLagHighWater
	clear := m.lagCond && pending == 0
	if raise {
		m.lagCond = true
	}
	if clear {
		m.lagCond = false
	}
	m.mu.Unlock()
	if raise {
		m.cfg.Server.SetCondition(service.CondReplicationLag, true)
	}
	if clear {
		m.cfg.Server.SetCondition(service.CondReplicationLag, false)
	}
}

// Ring exposes this node's ring view (tests, debug endpoint).
func (m *Manager) Ring() *Ring { return m.ring }

// Gossip exposes the membership layer (tests, sptd wiring).
func (m *Manager) Gossip() *Gossip { return m.gossip }

// Replicator exposes the replication layer (tests; nil without a store).
func (m *Manager) Replicator() *Replicator { return m.repl }

// alivePeers lists every non-dead member other than self with a known URL.
// Suspect members are included: a node one observer cannot reach can still
// receive replicas pushed by others, and excluding it would thrash the
// replica placement during every transient partition.
func (m *Manager) alivePeers() []Peer {
	var out []Peer
	for _, mem := range m.gossip.Snapshot() {
		if mem.Name == m.cfg.Self || mem.State == StateDead || mem.URL == "" {
			continue
		}
		out = append(out, Peer{Name: mem.Name, URL: mem.URL})
	}
	return out
}

// AlivePeerURLs returns the base URLs of every non-dead member except self
// — the store's peer-fetch tier.
func (m *Manager) AlivePeerURLs() []string {
	var urls []string
	for _, p := range m.alivePeers() {
		urls = append(urls, p.URL)
	}
	return urls
}

// Start launches the gossip loop and (with a store) the replication loop.
func (m *Manager) Start() {
	m.stopped.Add(1)
	go func() {
		defer m.stopped.Done()
		t := time.NewTicker(m.cfg.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.gossip.Tick(m.ctx)
			}
		}
	}()
	if m.repl != nil {
		m.stopped.Add(1)
		go func() {
			defer m.stopped.Done()
			m.repl.Run(m.ctx)
		}()
	}
}

// Stop cancels the manager lifecycle context — aborting any in-flight
// exchange, push or pull, even one stalled on an unresponsive peer — and
// waits for the loops to exit.
func (m *Manager) Stop() {
	m.cancel()
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.stopped.Wait()
}

// Tick runs one deterministic gossip round (tests drive this directly
// instead of waiting on the Start ticker).
func (m *Manager) Tick() { m.gossip.Tick(m.ctx) }

// steal claims the dead peer's journal. It is fenced: a running daemon
// holds an exclusive flock on its journal dir for its whole lifetime, and
// the kernel releases that lock only at process death (SIGKILL included).
// A gossip-confirmed death can still be a slow, paused or partitioned peer
// that is still appending; acquiring its lock proves the process is really
// gone before the file is touched — stealing a live node's journal would
// lose every record it appends after the fold and fork the job history.
// Past the fence, every survivor attempts an atomic rename of
// <root>/<dead>/jobs.journal into its own directory, and the filesystem
// arbitrates — exactly one rename succeeds, so exactly one node adopts.
// The claimed file is folded read-only and handed to the server, which
// re-journals unfinished jobs into its own write-ahead log (the adoption
// itself is crash-durable) and skips ids it already holds (idempotent
// against double delivery). Done jobs' results are additionally restored
// into the store and re-replicated, so artifacts whose replica push raced
// the crash still end up at RF copies.
func (m *Manager) steal(dead string) {
	if m.cfg.JournalRoot == "" || m.ctx.Err() != nil {
		return
	}
	m.mu.Lock()
	already := m.stolen[dead]
	m.mu.Unlock()
	if already {
		return
	}
	release, err := service.TryLockJournalDir(filepath.Join(m.cfg.JournalRoot, dead))
	if err != nil {
		if errors.Is(err, service.ErrJournalLocked) {
			// The peer's daemon still holds its journal lock: it is alive,
			// however dead it looks over the network. Leave its journal
			// alone; a later gossip round either revives it or finds the
			// lock released.
			m.stealsFenced.Add(1)
		} else {
			// No journal dir to lock — the peer never journaled here.
			m.stealsLost.Add(1)
		}
		return
	}
	defer release()
	src := filepath.Join(m.cfg.JournalRoot, dead, "jobs.journal")
	dst := filepath.Join(m.cfg.JournalRoot, m.cfg.Self, "stolen-"+dead+".journal")
	if err := os.Rename(src, dst); err != nil {
		// Lost the race (another survivor renamed first) or the peer never
		// journaled; either way there is nothing to adopt here.
		m.stealsLost.Add(1)
		return
	}
	m.stealsWon.Add(1)
	m.mu.Lock()
	m.stolen[dead] = true
	m.mu.Unlock()
	jobs, err := service.FoldJournalFile(dst)
	if err != nil {
		return
	}
	m.restoreResultsToStore(jobs)
	m.cfg.Server.Adopt(jobs, dead)
}

// restoreResultsToStore writes the adopted done jobs' results back into the
// tiered store under their computation keys. The dead node's async pushes
// may have raced its crash; restoring from the journal makes "zero
// recomputes after permanent node loss" hold deterministically — the
// journal is the durable record, the store Put re-triggers replication.
// The journaled Result carries the stamped job_id; the store holds the
// pre-stamp computation bytes, so the id is stripped and the value
// re-marshaled before the Put (struct field order makes the encoding
// deterministic — bit-identical to what the dead node stored).
func (m *Manager) restoreResultsToStore(jobs []service.ReplayedJob) {
	if m.cfg.Store == nil {
		return
	}
	for _, rj := range jobs {
		if rj.State != client.StateDone || rj.Outcome != client.OutcomeOK || len(rj.Result) == 0 {
			continue
		}
		key, payload, ok := storeEntryFor(rj.Submit.Kind, rj.Submit.Req, rj.Result)
		if !ok || m.cfg.Store.Has(key) {
			continue
		}
		m.cfg.Store.Put(key, payload)
		m.storeRestores.Add(1)
	}
}

// storeEntryFor recovers (store key, pre-stamp payload) from a journaled
// job's request and result.
func storeEntryFor(kind string, req, result json.RawMessage) (string, []byte, bool) {
	switch kind {
	case service.KindCompile:
		var cr client.CompileRequest
		var resp client.CompileResponse
		if json.Unmarshal(req, &cr) != nil || json.Unmarshal(result, &resp) != nil {
			return "", nil, false
		}
		resp.JobID = ""
		payload, err := json.Marshal(&resp)
		if err != nil {
			return "", nil, false
		}
		return CompileKey(cr), payload, true
	case service.KindSimulate:
		var sr client.SimulateRequest
		var resp client.SimulateResponse
		if json.Unmarshal(req, &sr) != nil || json.Unmarshal(result, &resp) != nil {
			return "", nil, false
		}
		resp.JobID = ""
		payload, err := json.Marshal(&resp)
		if err != nil {
			return "", nil, false
		}
		return SimulateKey(sr), payload, true
	case service.KindSweep:
		var wr client.SweepRequest
		var resp client.SweepResponse
		if json.Unmarshal(req, &wr) != nil || json.Unmarshal(result, &resp) != nil {
			return "", nil, false
		}
		resp.JobID = ""
		payload, err := json.Marshal(&resp)
		if err != nil {
			return "", nil, false
		}
		return SweepKey(wr), payload, true
	}
	return "", nil, false
}

// StealsWon reports how many dead-peer journals this node claimed (tests).
func (m *Manager) StealsWon() int64 { return m.stealsWon.Load() }

// StealsFenced reports how many steal attempts were aborted because the
// peer's journal lock was still held — the peer was alive, not dead (tests).
func (m *Manager) StealsFenced() int64 { return m.stealsFenced.Load() }

// StoreRestores reports journal-adopted results restored into the store
// (tests).
func (m *Manager) StoreRestores() int64 { return m.storeRestores.Load() }

// --- HTTP middleware ---

// routedRequest is the minimal decode of a submit body needed for routing.
type routedRequest struct {
	Benchmark string `json:"benchmark"`
	Scale     int    `json:"scale"`
}

// forwardedHeader marks an already-forwarded request; a node receiving one
// serves it locally no matter what its ring view says, bounding forwarding
// to one hop even when views disagree during a reshard.
const forwardedHeader = "X-Spt-Forwarded"

// Middleware wraps the daemon handler with the cluster duties:
//
//	GET  /v1/store/{key}         — serve the local store tiers to peers
//	POST /v1/store/{key}         — accept a checksummed replica push
//	GET  /v1/cluster             — membership, replication and steal state
//	POST /v1/cluster/antientropy — digest exchange (responder side)
//	POST /v1/gossip              — membership exchange
//	POST /v1/gossip/probe        — indirect probe on a third node's behalf
//	POST /v1/gossip/block        — partition test hook (EnableTestHooks only)
//	POST /v1/compile|simulate|sweep — forward to the ring owner when
//	     another node owns the job (one hop, marked by header)
//
// Everything else passes through.
func (m *Manager) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/store/"):
			key := strings.TrimPrefix(r.URL.Path, "/v1/store/")
			switch {
			case m.cfg.Store == nil:
				http.Error(w, "no store configured", http.StatusNotFound)
			case r.Method == http.MethodGet:
				m.cfg.Store.ServeKey(w, key)
			case r.Method == http.MethodPost && m.repl != nil:
				m.repl.HandlePut(w, r, key)
			default:
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			}
			return
		case r.Method == http.MethodGet && r.URL.Path == "/v1/cluster":
			m.serveClusterView(w)
			return
		case r.Method == http.MethodPost && r.URL.Path == "/v1/cluster/antientropy":
			if m.repl == nil {
				http.Error(w, "no store configured", http.StatusNotFound)
				return
			}
			m.repl.HandleAntiEntropy(w, r)
			return
		case r.Method == http.MethodPost && r.URL.Path == "/v1/gossip":
			m.gossip.HandleExchange(w, r)
			return
		case r.Method == http.MethodPost && r.URL.Path == "/v1/gossip/probe":
			m.gossip.HandleProbe(w, r)
			return
		case r.Method == http.MethodPost && r.URL.Path == "/v1/gossip/block":
			if !m.cfg.EnableTestHooks {
				http.Error(w, "test hooks disabled", http.StatusNotFound)
				return
			}
			m.serveBlockHook(w, r)
			return
		case r.Method == http.MethodPost && isSubmitPath(r.URL.Path):
			if m.maybeForward(w, r) {
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

func isSubmitPath(p string) bool {
	return p == "/v1/compile" || p == "/v1/simulate" || p == "/v1/sweep"
}

// serveBlockHook applies a partition rule to the gossip layer: {"peer":
// "n2", "inbound": true, "outbound": false} refuses n2's inbound exchanges
// while still sending ours — an asymmetric partition with no netem.
func (m *Manager) serveBlockHook(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Peer     string `json:"peer"`
		Inbound  bool   `json:"inbound"`
		Outbound bool   `json:"outbound"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.Peer == "" {
		http.Error(w, "want {peer, inbound, outbound}", http.StatusBadRequest)
		return
	}
	m.gossip.SetBlocked(req.Peer, req.Inbound, req.Outbound)
	w.WriteHeader(http.StatusOK)
}

// maybeForward proxies a submit to its ring owner when that owner is an
// alive peer and the request has not been forwarded already. Reports true
// when it wrote the response. Forwarding keeps the store's locality: all
// requests for one program land on one node, so its trace recording is
// captured once cluster-wide.
func (m *Manager) maybeForward(w http.ResponseWriter, r *http.Request) bool {
	if r.Header.Get(forwardedHeader) != "" {
		return false // one hop max: serve locally even if our view disagrees
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		// Answer as a standalone node does: 413 for a size violation, 400
		// for anything else (a client disconnect or transport error
		// mid-body), each with a JSON client.ErrorBody.
		status := http.StatusBadRequest
		if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(client.ErrorBody{Error: "bad request body: " + err.Error()})
		return true
	}
	// Hand the handler a replayable body whether or not we forward.
	r.Body = io.NopCloser(bytes.NewReader(body))
	var rr routedRequest
	if json.Unmarshal(body, &rr) != nil || rr.Benchmark == "" {
		return false // let the handler produce its structured 400
	}
	owner, ok := m.ring.Owner(RouteKey(rr.Benchmark, rr.Scale))
	if !ok || owner == m.cfg.Self || !m.ring.IsAlive(owner) {
		return false
	}
	base, _ := m.gossip.URLOf(owner)
	if base == "" {
		return false
	}
	m.forwards.Add(1)
	ctx := r.Context()
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(forwardedHeader, m.cfg.Self)
	resp, err := m.fwd.Do(preq)
	if err != nil {
		// The owner just died under us: serve locally rather than failing
		// the client while the ring catches up.
		return false
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// clusterView is the GET /v1/cluster body (mirrored by client.ClusterView).
type clusterView struct {
	Self   string   `json:"self"`
	Stolen []string `json:"stolen,omitempty"`

	Gossip             []memberView `json:"gossip,omitempty"`
	StoreDegraded      bool         `json:"store_degraded,omitempty"`
	QuarantineBytes    int64        `json:"quarantine_bytes,omitempty"`
	ReplicationPending int          `json:"replication_pending"`
}

type memberView struct {
	Name        string `json:"name"`
	URL         string `json:"url,omitempty"`
	State       string `json:"state"`
	Incarnation uint64 `json:"incarnation"`
}

func (m *Manager) serveClusterView(w http.ResponseWriter) {
	m.mu.Lock()
	stolen := make([]string, 0, len(m.stolen))
	for name := range m.stolen {
		stolen = append(stolen, name)
	}
	m.mu.Unlock()
	sort.Strings(stolen)
	snapshot := m.gossip.Snapshot()
	gossip := make([]memberView, 0, len(snapshot))
	for _, mem := range snapshot {
		gossip = append(gossip, memberView{
			Name:        mem.Name,
			URL:         mem.URL,
			State:       mem.State.String(),
			Incarnation: mem.Incarnation,
		})
	}
	view := clusterView{
		Self:   m.cfg.Self,
		Stolen: stolen,
		Gossip: gossip,
	}
	if m.cfg.Store != nil {
		view.StoreDegraded = m.cfg.Store.Degraded()
		view.QuarantineBytes = m.cfg.Store.QuarantineBytes()
	}
	if m.repl != nil {
		view.ReplicationPending = m.repl.Pending()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(view)
}

// Metrics renders the cluster counters as Prometheus text (chained into
// the daemon's /metrics via service.Config.ExtraMetrics), including the
// gossip and replication layers' counters.
func (m *Manager) Metrics(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("sptd_cluster_heartbeat_probes_total", "Direct gossip exchanges attempted (the heartbeat).", m.gossip.exchanges.Load())
	counter("sptd_cluster_heartbeat_misses_total", "Gossip exchanges that got no usable answer.", m.gossip.exchangeFails.Load())
	counter("sptd_cluster_peers_died_total", "Peers confirmed dead after the suspect grace period.", m.peersDied.Load())
	counter("sptd_cluster_peers_revived_total", "Dead peers that answered again and rejoined the ring.", m.peersRevived.Load())
	counter("sptd_cluster_peers_joined_total", "Members learned through gossip at runtime.", m.joinsObserved.Load())
	counter("sptd_cluster_steals_won_total", "Dead-peer journals this node claimed and adopted.", m.stealsWon.Load())
	counter("sptd_cluster_steals_lost_total", "Steal attempts another survivor won (or nothing to steal).", m.stealsLost.Load())
	counter("sptd_cluster_steals_fenced_total", "Steal attempts aborted because the peer's journal lock was still held (peer alive, not dead).", m.stealsFenced.Load())
	counter("sptd_cluster_forwards_total", "Mis-routed submissions proxied to their ring owner.", m.forwards.Load())
	counter("sptd_cluster_store_restores_total", "Adopted journal results restored into the store for re-replication.", m.storeRestores.Load())
	fmt.Fprintf(w, "# HELP sptd_cluster_alive_peers Alive members in this node's ring view (self included).\n# TYPE sptd_cluster_alive_peers gauge\nsptd_cluster_alive_peers %d\n", len(m.ring.Alive()))
	m.gossip.Metrics(w)
	if m.repl != nil {
		m.repl.Metrics(w)
	}
}
