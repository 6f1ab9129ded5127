// Command perfbench is the repository's benchmark: a single-process,
// seeded load generator that drives sptd built from this checkout through
// one of four workloads, checks every answer against an in-process
// expectation, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced in-process replay) as the last line of its
// output. See perfbench/README.md for the workloads and metrics.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash perfbench/run.sh --workload sweep-fanout --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/spt/client"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchRun is one invocation: a workload, a seed and its scratch space.
type benchRun struct {
	w      *workload
	env    *runEnv
	rng    *rand.Rand
	nproc  int
	window time.Duration
	seed   int64
	trace  bool
	out    string
}

// paperFig9SpeedupPct is the paper's mean Figure 9 program speedup.
const paperFig9SpeedupPct = 15.6

func main() {
	var (
		root     = flag.String("root", ".", "repository root (the checkout being measured)")
		sptd     = flag.String("sptd", "", "sptd binary built from the checkout")
		name     = flag.String("workload", "", "cold-programs | sweep-fanout | recapture | routed-mix")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "length of the timed window")
		traceArg = flag.Int("trace", 0, "1 = report per-layer metrics from a traced replay")
	)
	flag.Parse()
	w := workloads[*name]
	if w == nil || *sptd == "" || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -sptd, -seconds > 0 and -workload in %v\n", workloadNames())
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// A closed output pipe must not kill the run before it stops its daemons.
	signal.Ignore(syscall.SIGPIPE)
	out := filepath.Join(*root, ".bench_build")
	env, err := newRunEnv(out, *sptd, w.name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	h := fnv.New64a()
	h.Write([]byte(w.name))
	b := &benchRun{
		w: w, env: env, seed: *seed, trace: *traceArg == 1, out: out,
		rng:    rand.New(rand.NewSource(*seed ^ int64(h.Sum64()))),
		nproc:  runtime.NumCPU(),
		window: time.Duration(*seconds * float64(time.Second)),
	}
	rep, err := b.run(ctx)
	env.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if rep == nil {
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if err != nil || !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// run sets up (setupReps times, keeping the last deployment), drives the
// timed window, checks every answer, and computes the metrics. A broken
// validity guard returns the report with Correct false and an error.
func (b *benchRun) run(ctx context.Context) (*report, error) {
	reps := b.w.setupReps
	if b.trace {
		reps = 1 // set-up time is an end-to-end metric; traced runs skip the repeats
	}
	var setups []float64
	var dep *deployment
	for i := 0; i < reps; i++ {
		d, err := b.w.setup(ctx, b)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// From the first daemon's launch: preparing its directories and
		// build-cache copy is the benchmark's work, not the daemon's.
		setups = append(setups, time.Since(d.daemons[0].started).Seconds())
		if i < reps-1 {
			d.stop()
		} else {
			dep = d
		}
	}
	defer dep.stop()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: set-up %.2fs x%d\n", b.w.name, b.seed, median(setups), reps)

	before, err := scrapeAll(ctx, dep.daemons)
	if err != nil {
		return nil, err
	}
	var qmax float64
	stopSampler := func() {}
	if b.trace {
		stopSampler = sampleQueueDepth(ctx, dep.daemons, &qmax)
	}
	outs, elapsed := b.w.drive(ctx, b, dep)
	stopSampler()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].req.seq < outs[j].req.seq })
	after, err := scrapeAll(ctx, dep.daemons)
	if err != nil {
		return nil, err
	}
	guardErr := b.w.guard(b, before, after, outs)
	dep.stop()
	peak := 0.0
	for _, d := range dep.daemons {
		peak = math.Max(peak, d.hwm)
	}

	// Answers: warm-up and timed, each against its in-process expectation
	// (computed now, outside the window and the set-up time).
	checkStart := time.Now()
	exp := newExpecter()
	all := append(append([]outcome(nil), dep.warm...), outs...)
	reqs := make([]*request, 0, len(all))
	for _, o := range all {
		if o.err == nil {
			reqs = append(reqs, o.req)
		}
	}
	exp.prepare(reqs, b.nproc)
	rep := &report{Attempted: len(all), Metrics: map[string]metric{}}
	var instrs int64
	ok := 0
	for i, o := range all {
		err := o.err
		var n int64
		if err == nil {
			n, err = exp.check(o)
		}
		if err != nil {
			rep.Failed++
			if rep.Failed <= 5 {
				fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
			}
			continue
		}
		if i >= len(dep.warm) {
			instrs += n
			ok++
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: answers checked in %.2fs\n", time.Since(checkStart).Seconds())
	gap, fig9Err := fig9Gap(all)
	rep.Correct = rep.Failed == 0 && guardErr == nil && fig9Err == nil
	fmt.Fprintf(os.Stderr, "perfbench: %d timed requests in %.2fs (%d failed), guard: %v\n", len(outs), elapsed.Seconds(), rep.Failed, guardErr)

	if b.trace {
		if err := b.layerReport(ctx, rep, dep, outs, before, after, qmax); err != nil {
			return rep, err
		}
	} else {
		lat := latenciesMS(outs)
		jobs := float64(ok) / elapsed.Seconds()
		m := rep.Metrics
		m["setup_s"] = metric{median(setups), "s"}
		m["p50_ms"] = metric{percentile(lat, 50), "ms"}
		m["tail_ms"] = metric{percentile(lat, b.w.tailP), "ms"}
		m["jobs_per_s"] = metric{jobs, "1/s"}
		m["sim_minstr_per_s"] = metric{float64(instrs) / 1e6 / elapsed.Seconds(), "Minstr/s"}
		m["max_ok_rps"] = metric{jobs, "1/s"}
		m["ok_ratio"] = metric{1 - float64(rep.Failed)/float64(rep.Attempted), "ratio"}
		m["peak_rss_mb"] = metric{peak, "MB"}
		m["fig9_gap_pp"] = metric{gap, "pp"}
	}
	switch {
	case guardErr != nil:
		return rep, guardErr
	case fig9Err != nil:
		return rep, fig9Err
	}
	return rep, nil
}

// fig9Gap is the distance in percentage points between the mean speedup
// served for the ten benchmarks' default scale-1 simulates and the paper's.
func fig9Gap(all []outcome) (float64, error) {
	speedup := map[string]float64{}
	for _, o := range all {
		r := o.req.sim
		if o.err != nil || o.sim == nil || r == nil || *r != (client.SimulateRequest{Benchmark: r.Benchmark}) {
			continue
		}
		speedup[r.Benchmark] = o.sim.Speedup
	}
	sum := 0.0
	for _, n := range bench.Names() {
		s, ok := speedup[n]
		if !ok {
			return 0, fmt.Errorf("no default scale-1 answer for %s: fig9_gap_pp needs all ten", n)
		}
		sum += s
	}
	mean := (sum/float64(len(bench.Names())) - 1) * 100
	return math.Abs(mean - paperFig9SpeedupPct), nil
}

// sampleQueueDepth polls every daemon's queue depth until the returned
// stop function is called, keeping the maximum in *max.
func sampleQueueDepth(ctx context.Context, ds []*daemon, max *float64) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, d := range ds {
				if s, err := scrape(ctx, d); err == nil && s["sptd_queue_depth"] > *max {
					*max = s["sptd_queue_depth"]
				}
			}
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// layerReport fills the per-layer metrics: the daemon's /metrics deltas
// over the timed window, then a traced in-process replay of the run.
func (b *benchRun) layerReport(ctx context.Context, rep *report, dep *deployment, outs []outcome, before, after sample, qmax float64) error {
	m := rep.Metrics
	d := func(s string) float64 { return delta(before, after, s) }
	hits, misses := d("sptd_cache_hits_total"), d("sptd_cache_misses_total")
	m["artifact.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["artifact.trace_hits"] = metric{d("sptd_trace_cache_hits_total"), "count"}
	m["artifact.trace_misses"] = metric{d("sptd_trace_cache_misses_total"), "count"}
	m["artifact.evictions"] = metric{d("sptd_cache_evictions_total"), "count"}
	m["artifact.trace_mb"] = metric{after["sptd_trace_cache_bytes"] / 1e6, "MB"}

	jobSum := d(`sptd_stage_latency_seconds_sum{stage="simulate"}`) + d(`sptd_stage_latency_seconds_sum{stage="sweep"}`)
	jobN := d(`sptd_stage_latency_seconds_count{stage="simulate"}`) + d(`sptd_stage_latency_seconds_count{stage="sweep"}`)
	jobMS := 1e3 * ratio(jobSum, jobN)
	var lags []float64
	for _, o := range outs {
		lags = append(lags, ms(o.lag))
	}
	m["service.job_ms"] = metric{jobMS, "ms"}
	m["service.overhead_ms"] = metric{mean(latenciesMS(outs)) - jobMS, "ms"}
	m["service.rejected"] = metric{d(`sptd_jobs_total{outcome="rejected"}`), "count"}
	m["service.queue_depth_max"] = metric{qmax, "count"}

	sh, sm := storeHits(before, after), d("sptd_store_misses_total")
	m["cluster.forward_share"] = metric{ratio(d("sptd_cluster_forwards_total"), float64(len(outs))), "ratio"}
	m["cluster.store_hit_ratio"] = metric{ratio(sh, sh+sm), "ratio"}
	m["cluster.peer_hits"] = metric{d("sptd_store_peer_hits_total"), "count"}
	m["cluster.replica_pushes"] = metric{d("sptd_replica_pushes_total"), "count"}
	m["cluster.replica_failures"] = metric{d("sptd_replica_push_failures_total"), "count"}
	m["loadgen.lag_p99_ms"] = metric{percentile(lags, 99), "ms"}

	tr, n, err := b.traceRun(dep, outs, b.w.name == "cold-programs", b.window)
	if err != nil {
		return err
	}
	layerMetrics(tr, m)
	var reqMS []float64
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Name == "request" && s.Req >= 0 {
			reqMS = append(reqMS, s.ms())
		}
	}
	m["tracing.overhead_ratio"] = metric{ratio(mean(reqMS), jobMS), "ratio"}
	path := filepath.Join(b.out, "traces", fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))
	fmt.Fprintf(os.Stderr, "perfbench: traced replay of %d/%d requests, %d spans in %s\n", n, len(outs), len(tr.spans), path)
	return writeSpans(path, tr)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
