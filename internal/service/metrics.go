package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/artifact"
)

// latencyBuckets are the upper bounds (seconds) of the per-stage latency
// histograms. They span sub-millisecond cache hits up to minute-long sweeps.
var latencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// histogram is a fixed-bucket latency histogram. Observations are cheap
// (one mutex, no allocation); rendering walks the buckets cumulatively in
// Prometheus style.
type histogram struct {
	mu     sync.Mutex
	counts []int64 // one per bucket plus +Inf
	sum    float64
	count  int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(latencyBuckets, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// snapshot returns cumulative bucket counts, the sum and the total count.
func (h *histogram) snapshot() (cum []int64, sum float64, count int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]int64, len(h.counts))
	var acc int64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return cum, h.sum, h.count
}

// metrics aggregates the daemon's counters. Gauges (queue depth, in-flight
// workers, cache state) are read live from the server at scrape time.
type metrics struct {
	jobsOK       atomic.Int64
	jobsFailed   atomic.Int64
	jobsCanceled atomic.Int64
	jobsRejected atomic.Int64

	jobsRetried           atomic.Int64 // failed durable jobs re-enqueued
	replayedQueued        atomic.Int64 // journal replay: jobs restored still queued
	replayedInterrupted   atomic.Int64 // journal replay: running jobs marked retryable
	journalErrors         atomic.Int64 // journal appends that failed (durability degraded)
	journalTruncatedBytes atomic.Int64 // torn-tail bytes dropped at replay
	adoptedPending        atomic.Int64 // work stealing: unfinished peer jobs re-enqueued here
	adoptedDone           atomic.Int64 // work stealing: finished peer jobs made pollable here

	stages map[string]*histogram // keyed by job kind; fixed at construction
}

func newMetrics(kinds ...string) *metrics {
	m := &metrics{stages: make(map[string]*histogram, len(kinds))}
	for _, k := range kinds {
		m.stages[k] = newHistogram()
	}
	return m
}

func (m *metrics) observeStage(kind string, seconds float64) {
	if h := m.stages[kind]; h != nil {
		h.observe(seconds)
	}
}

// meanStageSeconds is the observed mean service time of kind, falling back
// to the mean across all kinds, then to 1s before any traffic — the input
// of the queue-depth-derived Retry-After.
func (m *metrics) meanStageSeconds(kind string) float64 {
	if h := m.stages[kind]; h != nil {
		if _, sum, count := h.snapshot(); count > 0 {
			return sum / float64(count)
		}
	}
	var sum float64
	var count int64
	for _, h := range m.stages {
		_, s, c := h.snapshot()
		sum += s
		count += c
	}
	if count > 0 {
		return sum / float64(count)
	}
	return 1
}

func (m *metrics) countOutcome(outcome string) {
	switch outcome {
	case "ok":
		m.jobsOK.Add(1)
	case "failed":
		m.jobsFailed.Add(1)
	case "canceled":
		m.jobsCanceled.Add(1)
	case "rejected":
		m.jobsRejected.Add(1)
	}
}

// gauges is the live server state rendered alongside the counters.
type gauges struct {
	uptimeSeconds float64
	queueDepth    int
	queueCapacity int
	workers       int
	inflight      int64
	draining      bool
	retryAfter    int
	gcCycles      int64 // completed GC cycles since start

	// cache is the artifact cache's snapshot: its traffic, the recordings
	// it holds, and the simulation work it computed.
	cache artifact.Stats

	journalBytes       int64 // current journal file length (0 when no journal)
	journalCompactions int64 // lifetime journal compactions
}

// render writes the Prometheus text exposition of every metric.
func (m *metrics) render(w io.Writer, g gauges) {
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counterHead := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}

	gauge("sptd_uptime_seconds", "Seconds since the daemon started.", g.uptimeSeconds)
	gauge("sptd_queue_depth", "Jobs waiting in the admission queue.", float64(g.queueDepth))
	gauge("sptd_queue_capacity", "Admission queue bound; pushes beyond it are rejected with 429.", float64(g.queueCapacity))
	gauge("sptd_workers", "Size of the worker pool.", float64(g.workers))
	gauge("sptd_inflight_workers", "Workers currently executing a job.", float64(g.inflight))
	draining := 0.0
	if g.draining {
		draining = 1
	}
	gauge("sptd_draining", "1 while the daemon is draining (new jobs rejected with 503).", draining)
	gauge("sptd_retry_after_seconds", "Backpressure hint shed requests receive: queue drain estimate from depth and observed service time.", float64(g.retryAfter))

	counterHead("sptd_jobs_total", "Finished jobs by outcome (rejected = refused at admission).")
	for _, oc := range []struct {
		name string
		v    int64
	}{
		{"ok", m.jobsOK.Load()},
		{"failed", m.jobsFailed.Load()},
		{"canceled", m.jobsCanceled.Load()},
		{"rejected", m.jobsRejected.Load()},
	} {
		fmt.Fprintf(w, "sptd_jobs_total{outcome=%q} %d\n", oc.name, oc.v)
	}

	counterHead("sptd_jobs_retried_total", "Failed durable jobs re-enqueued for another attempt.")
	fmt.Fprintf(w, "sptd_jobs_retried_total %d\n", m.jobsRetried.Load())
	counterHead("sptd_journal_replayed_total", "Jobs restored from the journal at boot, by disposition.")
	fmt.Fprintf(w, "sptd_journal_replayed_total{disposition=%q} %d\n", "queued", m.replayedQueued.Load())
	fmt.Fprintf(w, "sptd_journal_replayed_total{disposition=%q} %d\n", "interrupted", m.replayedInterrupted.Load())
	counterHead("sptd_journal_errors_total", "Journal appends that failed; durability is degraded while this grows.")
	fmt.Fprintf(w, "sptd_journal_errors_total %d\n", m.journalErrors.Load())
	counterHead("sptd_journal_truncated_bytes_total", "Torn-tail bytes dropped by journal replay after a crash.")
	fmt.Fprintf(w, "sptd_journal_truncated_bytes_total %d\n", m.journalTruncatedBytes.Load())
	gauge("sptd_journal_bytes", "Current length of the job journal file.", float64(g.journalBytes))
	counterHead("sptd_journal_compactions_total", "Times the journal was folded down to the live job set (boot and append-triggered).")
	fmt.Fprintf(w, "sptd_journal_compactions_total %d\n", g.journalCompactions)
	counterHead("sptd_steal_adopted_total", "Jobs adopted from dead peers' journals, by disposition.")
	fmt.Fprintf(w, "sptd_steal_adopted_total{disposition=%q} %d\n", "pending", m.adoptedPending.Load())
	fmt.Fprintf(w, "sptd_steal_adopted_total{disposition=%q} %d\n", "done", m.adoptedDone.Load())

	c := g.cache
	counterHead("sptd_cache_hits_total", "Artifact-cache lookups served from a completed or in-flight computation.")
	fmt.Fprintf(w, "sptd_cache_hits_total %d\n", c.Hits)
	counterHead("sptd_cache_misses_total", "Artifact-cache lookups that had to compute.")
	fmt.Fprintf(w, "sptd_cache_misses_total %d\n", c.Misses)
	counterHead("sptd_cache_evictions_total", "Artifacts dropped by the cache's LRU bound.")
	fmt.Fprintf(w, "sptd_cache_evictions_total %d\n", c.Evictions)
	counterHead("sptd_cache_integrity_evictions_total", "Artifacts whose checksum no longer matched at lookup; evicted and recomputed, never served.")
	fmt.Fprintf(w, "sptd_cache_integrity_evictions_total %d\n", c.IntegrityEvictions)
	gauge("sptd_cache_entries", "Artifacts currently resident in the cache.", float64(c.Entries))
	gauge("sptd_cache_hit_ratio", "hits / (hits + misses) since start.", c.HitRatio())

	counterHead("sptd_trace_cache_hits_total", "Simulations that replayed a shared trace recording instead of re-interpreting, joins included.")
	fmt.Fprintf(w, "sptd_trace_cache_hits_total %d\n", c.RecordingHits)
	counterHead("sptd_trace_cache_joins_total", "Trace cache hits that joined a capture still in flight, counted in sptd_trace_cache_hits_total.")
	fmt.Fprintf(w, "sptd_trace_cache_joins_total %d\n", c.RecordingJoins)
	counterHead("sptd_trace_cache_misses_total", "Trace recordings that had to interpret the program.")
	fmt.Fprintf(w, "sptd_trace_cache_misses_total %d\n", c.RecordingMisses)
	gauge("sptd_trace_cache_bytes", "Resident bytes of cached trace recordings and running captures (LRU-bounded by -cache-bytes).", float64(c.Bytes))
	gauge("sptd_trace_capture_bytes", "Bytes of recording chunks that running captures hold, counted in sptd_trace_cache_bytes.", float64(c.CaptureBytes))
	counterHead("sptd_trace_chunks_allocated_total", "Recording chunks (about 1 MiB each) allocated fresh by captures.")
	fmt.Fprintf(w, "sptd_trace_chunks_allocated_total %d\n", c.ChunksAllocated)
	counterHead("sptd_trace_chunks_reused_total", "Recording chunks captures took recycled from evicted recordings instead of allocating.")
	fmt.Fprintf(w, "sptd_trace_chunks_reused_total %d\n", c.ChunksReused)
	counterHead("sptd_go_gc_cycles_total", "Completed garbage collection cycles of the daemon process.")
	fmt.Fprintf(w, "sptd_go_gc_cycles_total %d\n", g.gcCycles)

	counterHead("sptd_spec_commits_total", "Speculative windows committed by the simulations this daemon completed, by commit kind.")
	fmt.Fprintf(w, "sptd_spec_commits_total{kind=%q} %d\n", "fast", c.FastCommits)
	fmt.Fprintf(w, "sptd_spec_commits_total{kind=%q} %d\n", "replay", c.Replays)
	counterHead("sptd_spec_squashes_total", "Speculative threads squashed in the simulations this daemon completed, by cause.")
	for cause, n := range c.Squashes {
		fmt.Fprintf(w, "sptd_spec_squashes_total{cause=%q} %d\n", arch.SquashCause(cause), n)
	}

	counterHead("sptd_sweep_broadcast_passes_total", "Single trace passes (live, capturing or recorded) that fed a batch of two or more variant engines.")
	fmt.Fprintf(w, "sptd_sweep_broadcast_passes_total %d\n", c.BroadcastPasses)
	counterHead("sptd_sweep_batched_variants_total", "Variant engines fed by shared trace passes instead of passes of their own.")
	fmt.Fprintf(w, "sptd_sweep_batched_variants_total %d\n", c.BatchedVariants)

	fmt.Fprintf(w, "# HELP sptd_stage_latency_seconds Wall-clock latency of finished jobs by stage.\n")
	fmt.Fprintf(w, "# TYPE sptd_stage_latency_seconds histogram\n")
	kinds := make([]string, 0, len(m.stages))
	for k := range m.stages {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		cum, sum, count := m.stages[kind].snapshot()
		for i, ub := range latencyBuckets {
			fmt.Fprintf(w, "sptd_stage_latency_seconds_bucket{stage=%q,le=%q} %d\n", kind, trimFloat(ub), cum[i])
		}
		fmt.Fprintf(w, "sptd_stage_latency_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", kind, cum[len(cum)-1])
		fmt.Fprintf(w, "sptd_stage_latency_seconds_sum{stage=%q} %g\n", kind, sum)
		fmt.Fprintf(w, "sptd_stage_latency_seconds_count{stage=%q} %d\n", kind, count)
	}
}

// trimFloat renders a bucket bound the way Prometheus expects (no
// exponent, no trailing zeros).
func trimFloat(f float64) string {
	if f == math.Trunc(f) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}
