package main

// The cluster-soak mode is the node-killing endurance run of the sharded
// serving stack: it starts THREE sptd nodes sharing a journal root and
// per-node tiered stores (n1 a bare gossip seed, the others -join it),
// submits durable async jobs round-robin to every node — the servers
// forward each to its ring owner — SIGKILLs one node mid-run and leaves it
// dead — the survivors must detect the death, steal the victim's journal,
// adopt its jobs, and every accepted job must still converge to a result
// bit-identical to the fault-free local pipeline, with zero lost and zero
// divergent duplicates. Three more phases then exercise the replication
// and membership layers: the victim's store dir is DELETED and the two
// survivors alone must serve every result from RF=2 replicas with zero
// recomputations; a fourth node -joins by gossip and must take traffic
// within two gossip intervals; and a full two-way partition between the
// survivors must heal with zero false deaths (the joined node vouches for
// both sides via indirect probes).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/spt/client"
)

// clusterSoakBenches spreads route keys over the ring: the route key is
// (benchmark, scale), so using several benchmarks shards the work across
// nodes instead of funneling everything to one owner.
var clusterSoakBenches = []string{"parser", "mcf", "gzip"}

// clusterSoakGossipInterval is the soak's gossip round cadence: fast enough
// that a kill is detected well inside the soak's polling, slow enough that
// an instrumented build's handler latency does not fake a death.
const clusterSoakGossipInterval = 250 * time.Millisecond

// clusterNode manages one member daemon of the soak cluster.
type clusterNode struct {
	name, addr, bin string
	join            string // -join seed URL ("" starts a bare seed)
	journalRoot     string
	storeDir        string
	cmd             *exec.Cmd
	dead            bool
}

func (n *clusterNode) url() string { return "http://" + n.addr }

func (n *clusterNode) start(ctx context.Context) error {
	args := []string{
		"-addr", n.addr,
		"-node-id", n.name,
		"-advertise", n.url(),
		"-cluster-journal-root", n.journalRoot,
		"-store-dir", n.storeDir,
		"-gossip-interval", clusterSoakGossipInterval.String(),
		"-heartbeat-misses", "3",
		"-anti-entropy-interval", "250ms",
		// The partition-heal phase drives POST /v1/gossip/block; the hook is
		// compiled out of routing unless explicitly enabled.
		"-cluster-test-hooks",
		"-workers", "2",
		"-max-attempts", "8",
		"-drain-timeout", "30s",
	}
	if n.join != "" {
		args = append(args, "-join", n.join)
	}
	cmd := exec.Command(n.bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start node %s: %w", n.name, err)
	}
	n.cmd = cmd
	n.dead = false
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		resp, err := http.Get(n.url() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("node %s on %s did not become ready", n.name, n.addr)
}

// kill SIGKILLs the node — the failure mode the stealing protocol exists
// for. The node is NOT restarted; the survivors must absorb its work.
func (n *clusterNode) kill() {
	if n.cmd != nil && n.cmd.Process != nil {
		_ = n.cmd.Process.Signal(syscall.SIGKILL)
		_, _ = n.cmd.Process.Wait()
	}
	n.dead = true
}

// stop SIGTERMs for a graceful drain at phase end.
func (n *clusterNode) stop() {
	if n.dead || n.cmd == nil || n.cmd.Process == nil {
		return
	}
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _, _ = n.cmd.Process.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(45 * time.Second):
		_ = n.cmd.Process.Kill()
		<-done
	}
	n.dead = true
}

// scrape fetches the node's /metrics text.
func (n *clusterNode) scrape() (string, error) {
	resp, err := http.Get(n.url() + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// soakClusterView is the slice of GET /v1/cluster the soak asserts on.
type soakClusterView struct {
	Self               string   `json:"self"`
	Stolen             []string `json:"stolen"`
	StoreDegraded      bool     `json:"store_degraded"`
	ReplicationPending int      `json:"replication_pending"`
	Gossip             []struct {
		Name        string `json:"name"`
		State       string `json:"state"`
		Incarnation uint64 `json:"incarnation"`
	} `json:"gossip"`
}

// view fetches and decodes the node's /v1/cluster membership view.
func (n *clusterNode) view() (*soakClusterView, error) {
	resp, err := http.Get(n.url() + "/v1/cluster")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v soakClusterView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

// stolenPeers returns which dead peers' journals the node has adopted.
func (n *clusterNode) stolenPeers() ([]string, error) {
	v, err := n.view()
	if err != nil {
		return nil, err
	}
	return v.Stolen, nil
}

// gossipState returns the state the node's view assigns to member name
// ("" when the member is unknown to it).
func (v *soakClusterView) gossipState(name string) string {
	for _, g := range v.Gossip {
		if g.Name == name {
			return g.State
		}
	}
	return ""
}

// setBlocked drives the node's partition test hook against one peer.
func (n *clusterNode) setBlocked(peer string, inbound, outbound bool) error {
	body := fmt.Sprintf(`{"peer":%q,"inbound":%v,"outbound":%v}`, peer, inbound, outbound)
	resp, err := http.Post(n.url()+"/v1/gossip/block", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("block hook on %s: status %d", n.name, resp.StatusCode)
	}
	return nil
}

// snapshotMetrics writes every live node's /metrics to the work dir (the
// CI uploads these, plus the journals, on failure).
func snapshotMetrics(nodes []*clusterNode, workDir, phase string) {
	for _, n := range nodes {
		if n.dead {
			continue
		}
		m, err := n.scrape()
		if err != nil {
			continue
		}
		path := filepath.Join(workDir, fmt.Sprintf("%s-%s-metrics.txt", phase, n.name))
		_ = os.WriteFile(path, []byte(m), 0o644)
	}
}

// waitAlive polls every node's /v1/cluster until each lists all of nodes
// alive: gossip has converged and every ring agrees on the owners.
func waitAlive(nodes []*clusterNode, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		converged := true
		for _, n := range nodes {
			v, err := n.view()
			if err != nil {
				return fmt.Errorf("view %s: %w", n.name, err)
			}
			for _, peer := range nodes {
				if v.gossipState(peer.name) != "alive" {
					converged = false
				}
			}
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("membership of %d nodes not all-alive after %v", len(nodes), timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// nodeClient is one node's resilient client. The soak submits round-robin
// through them and polls by scattering over all of them, the killed node
// included, so its failing polls retry and open its breaker.
type nodeClient struct {
	name string
	r    *client.Resilient
}

func nodeClients(nodes []*clusterNode, seed int64) []nodeClient {
	out := make([]nodeClient, len(nodes))
	for i, n := range nodes {
		out[i] = nodeClient{n.name, client.NewResilient(client.New(n.url(), nil), client.ResilientConfig{
			MaxAttempts: 6,
			Seed:        seed + int64(i),
			Backoff:     client.Backoff{Base: 20 * time.Millisecond, Max: 250 * time.Millisecond},
		})}
	}
	return out
}

// jobHolder is one node that knows a job, with the status it reported.
type jobHolder struct {
	node string
	js   *client.JobStatus
}

// findJob asks every node for job id. A node that is down, or answers 404
// because another survivor adopted the job, is simply not a holder; the
// per-node deadline lets an open breaker fail fast instead of waiting out
// its cool-down.
func findJob(ctx context.Context, ncs []nodeClient, id string) []jobHolder {
	var holders []jobHolder
	for _, nc := range ncs {
		cctx, cancel := context.WithTimeout(ctx, time.Second)
		js, err := nc.r.Job(cctx, id)
		cancel()
		if err == nil {
			holders = append(holders, jobHolder{nc.name, js})
		}
	}
	return holders
}

// waitJob polls findJob until some node reports the job done, riding out
// the kill, the journal steal and the adoption.
func waitJob(ctx context.Context, ncs []nodeClient, id string) (*client.JobStatus, error) {
	for {
		for _, h := range findJob(ctx, ncs, id) {
			if h.js.State == client.StateDone {
				return h.js, nil
			}
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("job %s did not converge: %w", id, ctx.Err())
		case <-time.After(40 * time.Millisecond):
		}
	}
}

// clusterSoakJob is one unit of soak work with its precomputed expectation.
type clusterSoakJob struct {
	req  client.SimulateRequest
	want *client.SimulateResponse
	id   string
	node string // node that accepted the job: the ring owner that stamped its id
}

// runClusterSoak is the -cluster-soak entry point; returns the exit code.
func runClusterSoak(bin string, scale, requests int, workDir string) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "sptbench: cluster-soak: "+format+"\n", args...)
		return 1
	}
	if bin == "" {
		return fail("-sptd-bin is required")
	}
	if workDir == "" {
		dir, err := os.MkdirTemp("", "cluster-soak-")
		if err != nil {
			return fail("temp dir: %v", err)
		}
		workDir = dir
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fail("work dir: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()

	// Work set: distinct (benchmark, SRB) simulate points. Distinct SRBs
	// keep every job a distinct simulation (no cache hit can hide a lost
	// job); the benchmark rotation spreads route keys over the ring.
	jobs := make([]*clusterSoakJob, requests)
	expErrs := make([]error, requests)
	fmt.Fprintf(os.Stderr, "cluster-soak: computing %d fault-free expectations locally...\n", requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		req := client.SimulateRequest{
			Benchmark:  clusterSoakBenches[i%len(clusterSoakBenches)],
			Scale:      scale,
			SRB:        soakSRB(i),
			JobRequest: client.JobRequest{Async: true},
		}
		jobs[i] = &clusterSoakJob{req: req}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i].want, expErrs[i] = soakExpectation(jobs[i].req)
		}(i)
	}
	wg.Wait()
	for i, err := range expErrs {
		if err != nil {
			return fail("local expectation (%s srb=%d): %v", jobs[i].req.Benchmark, jobs[i].req.SRB, err)
		}
	}

	// Three nodes, one shared journal root, per-node store dirs: n1 starts
	// as a bare seed and the others -join it.
	nodes := make([]*clusterNode, 3)
	journalRoot := filepath.Join(workDir, "journals")
	for i := range nodes {
		addr, err := soakFreeAddr()
		if err != nil {
			return fail("listen: %v", err)
		}
		name := fmt.Sprintf("n%d", i+1)
		nodes[i] = &clusterNode{
			name: name, addr: addr, bin: bin,
			journalRoot: journalRoot,
			storeDir:    filepath.Join(workDir, "store", name),
		}
		if i > 0 {
			nodes[i].join = nodes[0].url()
		}
	}
	stopAll := func() {
		for _, n := range nodes {
			n.stop()
		}
	}

	fmt.Fprintf(os.Stderr, "cluster-soak: phase kill: 3 nodes, %d jobs, SIGKILL mid-run\n", requests)
	for _, n := range nodes {
		if err := n.start(ctx); err != nil {
			stopAll()
			return fail("%v", err)
		}
	}
	if err := waitAlive(nodes, 20*time.Second); err != nil {
		snapshotMetrics(nodes, workDir, "bootstrap")
		stopAll()
		return fail("bootstrap: %v", err)
	}
	ncs := nodeClients(nodes, 1)

	killBegin := time.Now()
	latencies := make([]time.Duration, requests)
	accepted := map[string]int{}
	for i, job := range jobs {
		sub, err := ncs[i%len(ncs)].r.Simulate(ctx, job.req)
		if err != nil {
			stopAll()
			return fail("submit job %d: %v", i, err)
		}
		if sub.JobID == "" {
			stopAll()
			return fail("submit job %d: no id", i)
		}
		job.id = sub.JobID
		job.node, _, _ = strings.Cut(sub.JobID, "-j")
		accepted[job.node]++
	}

	// Pick the victim: the node that accepted the most jobs — the one
	// whose journal the survivors must steal.
	victim, victimClient := nodes[0], ncs[0].r
	for i, n := range nodes {
		if accepted[n.name] > accepted[victim.name] {
			victim, victimClient = n, ncs[i].r
		}
	}

	var done atomic.Int64
	finished := make([]*client.JobStatus, requests)
	waitErrs := make([]error, requests)
	submitted := time.Now()
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job *clusterSoakJob) {
			defer wg.Done()
			finished[i], waitErrs[i] = waitJob(ctx, ncs, job.id)
			latencies[i] = time.Since(submitted)
			done.Add(1)
		}(i, job)
	}

	// Let a few jobs finish (their journaled results must survive the
	// kill), then SIGKILL the victim and leave it dead.
	killDeadline := time.Now().Add(2 * time.Minute)
	for done.Load() < 2 && time.Now().Before(killDeadline) {
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "cluster-soak: SIGKILL %s (accepted %d/%d jobs) after %d done\n",
		victim.name, accepted[victim.name], requests, done.Load())
	victim.kill()
	wg.Wait()
	killWall := time.Since(killBegin)

	// Zero lost: every job converged OK and bit-identical to the fault-free
	// pipeline.
	for i, err := range waitErrs {
		if err != nil {
			snapshotMetrics(nodes, workDir, "kill")
			stopAll()
			return fail("job %s (%s srb=%d) did not converge: %v", jobs[i].id, jobs[i].req.Benchmark, jobs[i].req.SRB, err)
		}
		js := finished[i]
		if js.Outcome != client.OutcomeOK {
			snapshotMetrics(nodes, workDir, "kill")
			stopAll()
			return fail("job %s outcome %q (err %+v)", jobs[i].id, js.Outcome, js.Error)
		}
		var got client.SimulateResponse
		if err := js.DecodeResult(&got); err != nil {
			stopAll()
			return fail("decode job %s: %v", jobs[i].id, err)
		}
		if !sameSim(&got, jobs[i].want) {
			snapshotMetrics(nodes, workDir, "kill")
			stopAll()
			return fail("job %s (%s srb=%d) diverged from fault-free pipeline:\n  got  %+v\n  want %+v",
				jobs[i].id, jobs[i].req.Benchmark, jobs[i].req.SRB, got, *jobs[i].want)
		}
	}

	// Zero divergent duplicates: a job adopted after the kill may be
	// pollable on several nodes (the adopter serves the dead node's ids);
	// every holder must report byte-identical results.
	for _, job := range jobs {
		holders := findJob(ctx, ncs, job.id)
		if len(holders) == 0 {
			stopAll()
			return fail("job %s vanished after convergence", job.id)
		}
		for _, h := range holders[1:] {
			if !bytes.Equal(holders[0].js.Result, h.js.Result) {
				stopAll()
				return fail("job %s duplicated with divergent results on %s and %s", job.id, holders[0].node, h.node)
			}
		}
	}

	// The machinery must demonstrably have engaged: exactly one survivor
	// stole the victim's journal, and the client-side breaker opened on
	// the dead node (asserted through the exported Prometheus text —
	// satellite coverage for the client metrics exporter).
	snapshotMetrics(nodes, workDir, "kill")
	var stealsWon, adopted float64
	victimSteals := 0
	for _, n := range nodes {
		if n.dead {
			continue
		}
		m, err := n.scrape()
		if err != nil {
			stopAll()
			return fail("scrape %s: %v", n.name, err)
		}
		stealsWon += metricTotal(m, "sptd_cluster_steals_won_total")
		adopted += metricTotal(m, "sptd_steal_adopted_total")
		stolen, err := n.stolenPeers()
		if err != nil {
			stopAll()
			return fail("cluster view %s: %v", n.name, err)
		}
		for _, name := range stolen {
			if name == victim.name {
				victimSteals++
			}
		}
	}
	// The victim's journal must have been claimed by exactly one survivor —
	// the rename arbitration at work. (A heavily instrumented build can
	// additionally false-positive a slow-but-alive peer and steal its
	// journal too; that is a tolerated inefficiency, not a correctness
	// failure, so the assertion is per-victim, not global.)
	if victimSteals != 1 {
		stopAll()
		return fail("expected exactly one survivor to steal %s's journal, got %d (total steals %g)",
			victim.name, victimSteals, stealsWon)
	}
	var clientMetrics bytes.Buffer
	victimClient.WriteMetrics(&clientMetrics)
	if opens := metricTotal(clientMetrics.String(), "spt_client_breaker_opens_total"); opens < 1 {
		stopAll()
		return fail("client breaker never opened against the killed node (opens=%g)\n%s", opens, clientMetrics.String())
	}
	var retries int64
	for _, nc := range ncs {
		retries += nc.r.Stats().Retries
	}
	if retries < 1 {
		stopAll()
		return fail("node clients never retried across the kill")
	}
	fmt.Fprintf(os.Stderr, "cluster-soak: kill phase ok: victim steals=1 (total %g) adopted=%g client retries=%d breaker opens present\n",
		stealsWon, adopted, retries)

	// Before tearing the survivors down, wait for replication to settle:
	// every survivor's push queue must drain so each artifact lives on two
	// nodes — the victim's disk is about to be destroyed for good.
	settleDeadline := time.Now().Add(60 * time.Second)
	for {
		pending := 0
		for _, n := range nodes {
			if n.dead {
				continue
			}
			v, err := n.view()
			if err != nil {
				stopAll()
				return fail("replication settle view %s: %v", n.name, err)
			}
			pending += v.ReplicationPending
		}
		if pending == 0 {
			break
		}
		if time.Now().After(settleDeadline) {
			snapshotMetrics(nodes, workDir, "settle")
			stopAll()
			return fail("replication never settled: %d pushes still pending", pending)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// A few anti-entropy rounds mop up keys whose only push had landed on
	// the victim before the kill.
	time.Sleep(750 * time.Millisecond)
	stopAll()

	// Phase 2: replication. The victim's store dir is DELETED — permanent
	// disk loss, not a warm restart — and only the two survivors come back,
	// each joined to the other. The same work must still be served
	// entirely from the replicated store: zero recomputations,
	// bit-identical results.
	if err := os.RemoveAll(victim.storeDir); err != nil {
		return fail("destroy victim store: %v", err)
	}
	fmt.Fprintf(os.Stderr, "cluster-soak: phase replication: %s's store deleted; same %d jobs against the two survivors\n",
		victim.name, requests)
	var survivors []*clusterNode
	for _, n := range nodes {
		if n != victim {
			survivors = append(survivors, n)
		}
	}
	s1, s2 := survivors[0], survivors[1]
	s1.join, s2.join = s2.url(), s1.url()
	replBegin := time.Now()
	for _, n := range survivors {
		if err := n.start(ctx); err != nil {
			return fail("replication restart: %v", err)
		}
	}
	defer stopAll()
	// Until the survivors see each other, a store miss has no peer tier to
	// fall back on; the zero-recompute check would fail for the wrong
	// reason.
	if err := waitAlive(survivors, 20*time.Second); err != nil {
		snapshotMetrics(nodes, workDir, "replication")
		return fail("replication restart: %v", err)
	}
	ncs2 := nodeClients(survivors, 2)
	replLatencies := make([]time.Duration, requests)
	for i, job := range jobs {
		req := job.req
		req.Async = false
		t0 := time.Now()
		got, err := ncs2[i%len(ncs2)].r.Simulate(ctx, req)
		replLatencies[i] = time.Since(t0)
		if err != nil {
			return fail("replication job %d: %v", i, err)
		}
		got.JobID = ""
		if !sameSim(got, job.want) {
			return fail("replication job %d (%s srb=%d) diverged:\n  got  %+v\n  want %+v",
				i, job.req.Benchmark, job.req.SRB, *got, *job.want)
		}
	}
	replWall := time.Since(replBegin)
	snapshotMetrics(nodes, workDir, "replication")
	var misses, memHits, diskHits, peerHits float64
	for _, n := range survivors {
		m, err := n.scrape()
		if err != nil {
			return fail("replication scrape %s: %v", n.name, err)
		}
		misses += metricTotal(m, "sptd_store_misses_total")
		memHits += metricTotal(m, "sptd_store_mem_hits_total")
		diskHits += metricTotal(m, "sptd_store_disk_hits_total")
		peerHits += metricTotal(m, "sptd_store_peer_hits_total")
	}
	if misses != 0 {
		return fail("replication phase recomputed %g jobs after the victim's disk loss (mem=%g disk=%g peer=%g)",
			misses, memHits, diskHits, peerHits)
	}
	if memHits+diskHits+peerHits < float64(requests) {
		return fail("replication phase served %g store hits for %d jobs", memHits+diskHits+peerHits, requests)
	}
	fmt.Fprintf(os.Stderr, "cluster-soak: replication phase ok: 0 recomputes after permanent disk loss (mem=%g disk=%g peer=%g hits)\n",
		memHits, diskHits, peerHits)

	// Phase 3: join. A brand-new node enters with -join <survivor> — no
	// restarts anywhere — and must show up alive in a survivor's view
	// within two gossip intervals, then take traffic for the ring arcs it
	// now owns.
	fmt.Fprintf(os.Stderr, "cluster-soak: phase join: n4 joins via gossip seed %s\n", s1.name)
	addr4, err := soakFreeAddr()
	if err != nil {
		return fail("listen: %v", err)
	}
	n4 := &clusterNode{
		name: "n4", addr: addr4, bin: bin,
		join:        s1.url(),
		journalRoot: journalRoot,
		storeDir:    filepath.Join(workDir, "store", "n4"),
	}
	nodes = append(nodes, n4)
	if err := n4.start(ctx); err != nil {
		return fail("join: %v", err)
	}
	joinStart := time.Now()
	joinDeadline := joinStart.Add(2 * clusterSoakGossipInterval)
	var joinView *soakClusterView
	for joinView == nil && time.Now().Before(joinDeadline) {
		v, err := s1.view()
		if err == nil && v.gossipState("n4") == "alive" {
			joinView = v
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	joinVisible := time.Since(joinStart)
	if joinView == nil {
		snapshotMetrics(nodes, workDir, "join")
		return fail("n4 not alive in %s's view within 2 gossip intervals (%v)", s1.name, 2*clusterSoakGossipInterval)
	}
	// Find a route key n4 owns in s1's converged view, then submit it
	// through s1: the server's ring must forward it to n4.
	var names []string
	for _, g := range joinView.Gossip {
		names = append(names, g.Name)
	}
	ring := cluster.NewRing(names, 0)
	for _, g := range joinView.Gossip {
		ring.SetAlive(g.Name, g.State != "dead")
	}
	var joinReq client.SimulateRequest
	for sc := scale; sc < scale+8 && joinReq.Benchmark == ""; sc++ {
		for _, bench := range clusterSoakBenches {
			if owner, ok := ring.Owner(cluster.RouteKey(bench, sc)); ok && owner == "n4" {
				joinReq = client.SimulateRequest{Benchmark: bench, Scale: sc, SRB: soakSRB(requests)}
				break
			}
		}
	}
	if joinReq.Benchmark == "" {
		return fail("ring assigned no candidate key to n4 (members %v)", names)
	}
	joinWant, err := soakExpectation(joinReq)
	if err != nil {
		return fail("join expectation: %v", err)
	}
	joinGot, err := ncs2[0].r.Simulate(ctx, joinReq)
	if err != nil {
		return fail("join job: %v", err)
	}
	if !strings.HasPrefix(joinGot.JobID, "n4-") {
		return fail("join job submitted to %s got id %q, want n4-* (forwarded to the new owner)", s1.name, joinGot.JobID)
	}
	joinGot.JobID = ""
	if !sameSim(joinGot, joinWant) {
		return fail("join job diverged:\n  got  %+v\n  want %+v", *joinGot, *joinWant)
	}
	fmt.Fprintf(os.Stderr, "cluster-soak: join phase ok: n4 alive in view after %v, served %s scale=%d itself\n",
		joinVisible, joinReq.Benchmark, joinReq.Scale)

	// Phase 4: partition-heal. A full two-way partition between the two
	// survivors (test hook, no netem) must NOT kill either of them — n4
	// vouches for both via indirect probes — and healing must leave every
	// member alive with zero deaths declared.
	fmt.Fprintf(os.Stderr, "cluster-soak: phase partition-heal: %s <-/-> %s, %s must vouch\n", s1.name, s2.name, n4.name)
	live := []*clusterNode{s1, s2, n4}
	// The restarted survivors joined each other and never learn the victim
	// again unless a rumor of it survives somewhere; any such rumor must
	// settle to dead everywhere, so the peers-died counters are quiescent
	// before the partition's delta is measured.
	convergeDeadline := time.Now().Add(20 * time.Second)
	for {
		converged := true
		for _, n := range live {
			v, err := n.view()
			if err != nil {
				return fail("pre-partition view %s: %v", n.name, err)
			}
			if st := v.gossipState(victim.name); st != "dead" && st != "" {
				converged = false
			}
		}
		if converged {
			break
		}
		if time.Now().After(convergeDeadline) {
			snapshotMetrics(nodes, workDir, "partition")
			return fail("victim %s was neither dead nor absent in every view before the partition", victim.name)
		}
		time.Sleep(50 * time.Millisecond)
	}
	diedBefore := 0.0
	for _, n := range live {
		m, err := n.scrape()
		if err != nil {
			return fail("partition scrape %s: %v", n.name, err)
		}
		diedBefore += metricTotal(m, "sptd_cluster_peers_died_total")
	}
	if err := s1.setBlocked(s2.name, true, true); err != nil {
		return fail("%v", err)
	}
	// The blocked pair needs MissThreshold failed probes each before
	// indirect confirmation engages; with 3 probe targets in rotation that
	// is ~2.5s. Hold the partition well past that and watch for false
	// deaths the whole time.
	partitionUntil := time.Now().Add(5 * time.Second)
	for time.Now().Before(partitionUntil) {
		for _, n := range live {
			v, err := n.view()
			if err != nil {
				return fail("partition view %s: %v", n.name, err)
			}
			for _, g := range v.Gossip {
				if g.State == "dead" && g.Name != victim.name {
					snapshotMetrics(nodes, workDir, "partition")
					return fail("partition falsely killed %s in %s's view", g.Name, n.name)
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	indirect := 0.0
	for _, n := range []*clusterNode{s1, s2} {
		m, err := n.scrape()
		if err != nil {
			return fail("partition scrape %s: %v", n.name, err)
		}
		indirect += metricTotal(m, "sptd_gossip_indirect_probes_total")
	}
	if indirect < 1 {
		snapshotMetrics(nodes, workDir, "partition")
		return fail("partition never triggered an indirect probe (the hook did not bite?)")
	}
	if err := s1.setBlocked(s2.name, false, false); err != nil {
		return fail("heal: %v", err)
	}
	if err := waitAlive(live, 10*time.Second); err != nil {
		snapshotMetrics(nodes, workDir, "heal")
		return fail("membership did not settle all-alive after heal: %v", err)
	}
	diedAfter := 0.0
	for _, n := range live {
		m, err := n.scrape()
		if err != nil {
			return fail("heal scrape %s: %v", n.name, err)
		}
		diedAfter += metricTotal(m, "sptd_cluster_peers_died_total")
	}
	if diedAfter != diedBefore {
		return fail("partition-heal declared %g deaths (had %g before)", diedAfter, diedBefore)
	}
	snapshotMetrics(nodes, workDir, "heal")
	fmt.Fprintf(os.Stderr, "cluster-soak: partition-heal phase ok: %g indirect probes, zero false deaths, all alive after heal\n", indirect)

	killRes := &phaseResult{latencies: latencies, wall: killWall}
	replRes := &phaseResult{latencies: replLatencies, wall: replWall}
	fmt.Printf("BenchmarkClusterSoak/kill %d %d ns/op %.1f p99-ms %.3f jobs/s\n",
		len(killRes.latencies), killRes.meanNS(),
		float64(killRes.p99().Microseconds())/1000, killRes.jobsPerSec())
	fmt.Printf("BenchmarkClusterSoak/replication %d %d ns/op %.1f p99-ms %.3f jobs/s\n",
		len(replRes.latencies), replRes.meanNS(),
		float64(replRes.p99().Microseconds())/1000, replRes.jobsPerSec())
	fmt.Println("cluster-soak: PASS (node killed and disk destroyed, journal stolen, replicas served everything, gossip join took traffic, partition healed with zero false deaths)")
	return 0
}
