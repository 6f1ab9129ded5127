package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/multispec"
	"repro/spt/client"
)

// deployment is the set of daemons a workload drives, plus the answers it
// served while being set up (warm-up traffic, checked like any other).
type deployment struct {
	daemons []*daemon
	warm    []outcome
	points  []*request // routed-mix: the points warmed for reads
}

func (d *deployment) stop() {
	for _, dm := range d.daemons {
		dm.stop()
	}
}

// workload is one traffic mix. setup starts and warms a fresh deployment;
// drive runs the timed window against it; guard rejects a run whose
// /metrics deltas show it did not exercise what the workload is for.
type workload struct {
	name string
	// tailP is the tail percentile reported as tail_ms; the closed loop
	// keeps sending until it has tailSamples(tailP) answers.
	tailP float64
	// setupReps is how many times a run sets up (setup_s is their median).
	// The warm workloads set up once: each set-up builds twenty native
	// modules (~7-9 s), and the run budget has no room for a second.
	setupReps int
	// cacheBytes is the daemon's -cache-bytes (0 = the shipped default).
	cacheBytes int64
	setup      func(ctx context.Context, b *benchRun) (*deployment, error)
	drive      func(ctx context.Context, b *benchRun, dep *deployment) ([]outcome, time.Duration)
	guard      func(b *benchRun, before, after sample, outs []outcome) error
}

var workloads = map[string]*workload{
	"cold-programs": {
		name: "cold-programs", tailP: 50, setupReps: 5,
		setup: func(ctx context.Context, b *benchRun) (*deployment, error) {
			return b.single(ctx, nil, nil)
		},
		drive: func(ctx context.Context, b *benchRun, dep *deployment) ([]outcome, time.Duration) {
			seq := coldSequence(b.rng)
			return closedLoop(ctx, dep.daemons, b.nproc, b.window, tailSamples(b.w.tailP), func(i int) *request {
				if i >= len(seq) {
					return nil
				}
				return seq[i]
			})
		},
		guard: func(b *benchRun, before, after sample, outs []outcome) error {
			// Every request is a new (benchmark, scale): it must miss the
			// program and the compilation, besides its simulations and
			// recordings.
			sims := 0
			for _, o := range outs {
				sims += 1 + len(sptConfigs(o.req))
			}
			nonRec := delta(before, after, "sptd_cache_misses_total") - delta(before, after, "sptd_trace_cache_misses_total")
			if got := nonRec - float64(sims); got < float64(2*len(outs)) {
				return fmt.Errorf("%w: %v program+compile misses for %d cold requests", errInvalid, got, len(outs))
			}
			return nil
		},
	},
	"sweep-fanout": {
		name: "sweep-fanout", tailP: 85, setupReps: 1,
		setup: func(ctx context.Context, b *benchRun) (*deployment, error) {
			return b.single(ctx, nil, defaultPoints())
		},
		drive: func(ctx context.Context, b *benchRun, dep *deployment) ([]outcome, time.Duration) {
			return closedLoop(ctx, dep.daemons, b.nproc, b.window, tailSamples(b.w.tailP), sequence(newPicker(b.rng), fanoutRequest))
		},
		guard: func(b *benchRun, before, after sample, outs []outcome) error {
			// Each distinct (benchmark, configuration) not warmed is one
			// simulation miss; nothing else may miss.
			seen := map[string]bool{}
			for _, p := range defaultPoints() {
				seen[configKey(p, sptConfigs(p)[0])] = true
			}
			fresh := 0
			for _, o := range outs {
				for _, c := range sptConfigs(o.req) {
					if k := configKey(o.req, c); !seen[k] {
						seen[k] = true
						fresh++
					}
				}
			}
			traceMiss := delta(before, after, "sptd_trace_cache_misses_total")
			nonRec := delta(before, after, "sptd_cache_misses_total") - traceMiss
			if traceMiss != 0 || nonRec != float64(fresh) {
				return fmt.Errorf("%w: %v trace misses (want 0), %v non-recording misses for %d fresh simulations (want equal)", errInvalid, traceMiss, nonRec, fresh)
			}
			return nil
		},
	},
	"recapture": {
		name: "recapture", tailP: 85, setupReps: 1, cacheBytes: recaptureCacheBytes,
		setup: func(ctx context.Context, b *benchRun) (*deployment, error) {
			return b.single(ctx, []string{"-cache-bytes", fmt.Sprint(recaptureCacheBytes)}, defaultPoints())
		},
		drive: func(ctx context.Context, b *benchRun, dep *deployment) ([]outcome, time.Duration) {
			return closedLoop(ctx, dep.daemons, b.nproc, b.window, tailSamples(b.w.tailP), sequence(newPicker(b.rng), recaptureRequest))
		},
		guard: func(b *benchRun, before, after sample, outs []outcome) error {
			if miss := delta(before, after, "sptd_trace_cache_misses_total"); miss < float64(len(outs)) {
				return fmt.Errorf("%w: %v trace misses for %d requests", errInvalid, miss, len(outs))
			}
			return nil
		},
	},
	"routed-mix": {
		name: "routed-mix", tailP: 98, setupReps: 1,
		setup: func(ctx context.Context, b *benchRun) (*deployment, error) { return b.cluster(ctx) },
		drive: func(ctx context.Context, b *benchRun, dep *deployment) ([]outcome, time.Duration) {
			p := newPicker(b.rng)
			for _, pt := range dep.points {
				p.used[fmt.Sprintf("%s srb=%d", pt.sim.Benchmark, pt.sim.SRB)] = true
			}
			return closedLoop(ctx, dep.daemons, b.nproc, b.window, tailSamples(b.w.tailP), func(i int) *request {
				return routedRequest(p, dep.points, len(dep.daemons), i)
			})
		},
		guard: func(b *benchRun, before, after sample, outs []outcome) error {
			fw := delta(before, after, "sptd_cluster_forwards_total")
			push := delta(before, after, "sptd_replica_pushes_total")
			hits := storeHits(before, after)
			fail := delta(before, after, "sptd_replica_push_failures_total")
			if fw <= 0 || push <= 0 || hits <= 0 || fail != 0 {
				return fmt.Errorf("%w: forwards %v, replica pushes %v, store hits %v (want all > 0), replica failures %v (want 0)", errInvalid, fw, push, hits, fail)
			}
			return nil
		},
	},
}

// recaptureCacheBytes bounds the recapture daemon's recording cache well
// below the ten programs' recordings (~280 MB at scale 1), so cycling over
// every program evicts each recording before it is asked for again.
const recaptureCacheBytes = 32 << 20

func configKey(r *request, c arch.Config) string {
	name, scale := r.program()
	return fmt.Sprintf("%s/%d %+v", name, scale, c)
}

func storeHits(before, after sample) float64 {
	return delta(before, after, "sptd_store_mem_hits_total") + delta(before, after, "sptd_store_disk_hits_total") + delta(before, after, "sptd_store_peer_hits_total")
}

// defaultPoints is the Table 1 default simulate of every benchmark at
// scale 1: the warm-up of the warm workloads and the fig-9 sample.
func defaultPoints() []*request {
	var rs []*request
	for _, n := range bench.Names() {
		rs = append(rs, &request{sim: &client.SimulateRequest{Benchmark: n}})
	}
	return rs
}

// single starts one daemon with extra flags and warms it with warm.
func (b *benchRun) single(ctx context.Context, extra []string, warm []*request) (*deployment, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d, err := b.env.newDaemon("n1", port, extra...)
	if err != nil {
		return nil, err
	}
	dep := &deployment{daemons: []*daemon{d}}
	if err := d.start(); err != nil {
		return nil, err
	}
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := d.waitReady(rctx); err != nil {
		dep.stop()
		return nil, err
	}
	if err := b.warmUp(ctx, dep, warm); err != nil {
		dep.stop()
		return nil, err
	}
	return dep, nil
}

// warmUp serves reqs with nproc closed-loop clients and keeps the answers.
func (b *benchRun) warmUp(ctx context.Context, dep *deployment, reqs []*request) error {
	if len(reqs) == 0 {
		return nil
	}
	outs, _ := closedLoop(ctx, dep.daemons, b.nproc, 0, len(reqs), func(i int) *request {
		if i >= len(reqs) {
			return nil
		}
		return reqs[i]
	})
	for _, o := range outs {
		if o.err != nil {
			return fmt.Errorf("warm-up %s: %w", describe(o.req), o.err)
		}
	}
	dep.warm = append(dep.warm, outs...)
	return nil
}

// cluster starts a three-node gossip cluster (each node joins through
// another), waits until every node sees all three alive, warms the read
// points through it, and waits until every stored result is replicated.
func (b *benchRun) cluster(ctx context.Context) (*deployment, error) {
	const n = 3
	ports := make([]int, n)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	dep := &deployment{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i+1)
		seed := fmt.Sprintf("http://127.0.0.1:%d", ports[(i+1)%n])
		if i > 0 {
			seed = fmt.Sprintf("http://127.0.0.1:%d", ports[0])
		}
		d, err := b.env.newDaemon(name, ports[i], "-node-id", name, "-join", seed)
		if err != nil {
			dep.stop()
			return nil, err
		}
		dep.daemons = append(dep.daemons, d)
	}
	for _, d := range dep.daemons {
		if err := d.start(); err != nil {
			dep.stop()
			return nil, err
		}
	}
	rctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for _, d := range dep.daemons {
		if err := d.waitReady(rctx); err != nil {
			dep.stop()
			return nil, err
		}
	}
	if err := waitCluster(rctx, dep.daemons, func(v *client.ClusterView) bool {
		alive := 0
		for _, m := range v.Gossip {
			if m.State == "alive" {
				alive++
			}
		}
		return alive == n
	}); err != nil {
		dep.stop()
		return nil, fmt.Errorf("cluster never converged: %w", err)
	}
	dep.points = routedPoints()
	warm := make([]*request, len(dep.points))
	for i, p := range dep.points {
		c := *p
		c.node = i % n
		warm[i] = &c
	}
	if err := b.warmUp(ctx, dep, warm); err != nil {
		dep.stop()
		return nil, err
	}
	if err := waitCluster(rctx, dep.daemons, func(v *client.ClusterView) bool { return v.ReplicationPending == 0 }); err != nil {
		dep.stop()
		return nil, fmt.Errorf("replication never settled: %w", err)
	}
	return dep, nil
}

// waitCluster polls every node's /v1/cluster until ok holds on all of them.
func waitCluster(ctx context.Context, ds []*daemon, ok func(*client.ClusterView) bool) error {
	for {
		all := true
		for _, d := range ds {
			v, err := d.cl.ClusterView(ctx)
			if err != nil || !ok(v) {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// routedPoints are the points routed-mix warms and then reads: every
// benchmark at scale 1 under the default machine and two SRB sizes.
func routedPoints() []*request {
	var rs []*request
	for _, srb := range []int{0, 256, 4096} {
		for _, n := range bench.Names() {
			rs = append(rs, &request{sim: &client.SimulateRequest{Benchmark: n, SRB: srb}})
		}
	}
	return rs
}

// coldSequence is cold-programs' request order: the ten benchmarks at
// scale 1 as simulates, in seeded order, then every benchmark at scales 2,
// 3, ... in the fixed benchmark order, a seeded half of each scale as
// two-point SRB sweeps and the rest as default simulates. No (benchmark,
// scale) repeats.
func coldSequence(rng *rand.Rand) []*request {
	names := bench.Names()
	var seq []*request
	for _, i := range rng.Perm(len(names)) {
		seq = append(seq, &request{sim: &client.SimulateRequest{Benchmark: names[i]}})
	}
	for scale := 2; scale <= 6; scale++ {
		sweeps := rng.Perm(len(names))[:len(names)/2]
		for i, n := range names {
			if !slices.Contains(sweeps, i) {
				seq = append(seq, &request{sim: &client.SimulateRequest{Benchmark: n, Scale: scale}})
				continue
			}
			a := 512 + rng.Intn(768)
			seq = append(seq, &request{sweep: &client.SweepRequest{Benchmark: n, Scale: scale, Sweep: "srb", Points: []int{a, a + 1 + rng.Intn(768)}}})
		}
	}
	return seq
}

// picker draws fresh configuration values: each "<bench> <label>=<v>" it
// hands out is marked used, so no two requests simulate the same point.
type picker struct {
	rng  *rand.Rand
	used map[string]bool
}

func newPicker(rng *rand.Rand) *picker {
	p := &picker{rng: rng, used: map[string]bool{}}
	for _, n := range bench.Names() {
		// The warm-up simulated the default machine (SRB 1024).
		p.used[n+" srb=1024"] = true
	}
	return p
}

// pick draws up to k unused values from [lo, hi], giving up after a
// bounded number of draws and returning fewer.
func (p *picker) pick(name, label string, lo, hi, k int) []int {
	var out []int
	for tries := 0; len(out) < k && tries < 1000; tries++ {
		v := lo + p.rng.Intn(hi-lo+1)
		key := fmt.Sprintf("%s %s=%d", name, label, v)
		if p.used[key] {
			continue
		}
		p.used[key] = true
		out = append(out, v)
	}
	return out
}

// fanoutBenches are the benchmarks sweep-fanout sweeps: five whose
// four-point sweeps take 0.1-0.4 s on a shared 2-vCPU x86-64 VM. mcf (1.2-1.8 s) and vpr (~0.55 s)
// would make the work in a 10 s window depend on where it cuts their
// sweeps, and gap and vortex (<0.1 s) are nearly free. An odd count puts
// the median latency inside one benchmark's cluster rather than between
// two.
var fanoutBenches = []string{"bzip2", "crafty", "gcc", "gzip", "parser"}

// fanoutRequest builds sweep-fanout's request for a slot: benchmark
// slot%5, and on that benchmark's v-th visit the family srb, overhead,
// cores, sched in turn, so every seed sends the same mix of work. Seeds
// choose the SRB sizes (512..2048), overhead cycles (2..64) and strides
// (2..64). Core counts go up four per cores visit (5-8, 9-12, ...) whatever
// the seed; sched runs at 4 cores, whose in-order and eager points are
// fresh on the first sched visit only. A family that has run out of fresh
// points falls back to srb.
func fanoutRequest(p *picker, slot int) *request {
	name, visit := fanoutBenches[slot%len(fanoutBenches)], slot/len(fanoutBenches)
	switch visit % 4 {
	case 1:
		if pts := p.pick(name, "overhead", 2, 64, 4); len(pts) == 4 {
			return &request{sweep: &client.SweepRequest{Benchmark: name, Sweep: "overhead", Points: pts}}
		}
	case 2:
		if lo := 5 + 4*(visit/4); lo+3 <= multispec.MaxCores {
			return &request{sweep: &client.SweepRequest{Benchmark: name, Sweep: "cores", Points: []int{lo, lo + 1, lo + 2, lo + 3}}}
		}
	case 3:
		if pts := p.pick(name, "stride", 2, 64, 2); len(pts) == 2 {
			return &request{sweep: &client.SweepRequest{Benchmark: name, Sweep: "sched", Cores: 4, Points: pts}}
		}
	}
	return &request{sweep: &client.SweepRequest{Benchmark: name, Sweep: "srb", Points: p.pick(name, "srb", 512, 2048, 4)}}
}

// recaptureRequest builds recapture's request for a slot: every benchmark
// in fixed rotation, a default-machine simulate with a seeded SRB size
// (512..2048) that benchmark has not been simulated with before.
func recaptureRequest(p *picker, slot int) *request {
	names := bench.Names()
	n := names[slot%len(names)]
	return &request{sim: &client.SimulateRequest{Benchmark: n, SRB: p.pick(n, "srb", 512, 2048, 1)[0]}}
}

// sequence memoizes a generator's requests by slot, so request i is the
// same whichever client asks for it first. Callers serialize next.
func sequence(p *picker, make func(*picker, int) *request) func(i int) *request {
	var seq []*request
	return func(i int) *request {
		for len(seq) <= i {
			seq = append(seq, make(p, len(seq)))
		}
		return seq[i]
	}
}

// routedRequest builds routed-mix's request i, sent to a seeded node. One
// in routedReadEvery is a synchronous read of a seeded warmed point; the
// rest are synchronous simulates at a fresh seeded SRB size (512..2048) over
// fanoutBenches in fixed rotation, so every seed computes the same mix.
func routedRequest(p *picker, points []*request, nodes, i int) *request {
	if i%routedReadEvery == routedReadEvery-1 {
		r := *points[p.rng.Intn(len(points))]
		r.node = p.rng.Intn(nodes)
		return &r
	}
	n := fanoutBenches[i%len(fanoutBenches)]
	return &request{node: p.rng.Intn(nodes), sim: &client.SimulateRequest{Benchmark: n, SRB: p.pick(n, "srb", 512, 2048, 1)[0]}}
}

// routedReadEvery sets routed-mix's share of reads of warmed points.
const routedReadEvery = 4
