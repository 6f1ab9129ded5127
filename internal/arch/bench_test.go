package arch

// Micro-benchmarks for the trace-driven engine's hot paths. The central
// invariant locked in here: once warm, simulating speculation episodes
// allocates nothing — the SRB entries, speculative pipeline, thread
// records, snapshots and frame-linkage records are all pooled per engine.

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/trace"
)

// traceRecorder captures a program's full value-annotated trace with
// deep-copied snapshots so it can be replayed through an engine repeatedly.
type traceRecorder struct{ evs []trace.Event }

func (r *traceRecorder) Event(ev *trace.Event) {
	cp := *ev
	if ev.Snapshot != nil {
		cp.Snapshot = append([]int64(nil), ev.Snapshot...)
	}
	r.evs = append(r.evs, cp)
}

// recordSPTTrace compiles the mostly-parallel loop with the SPT compiler
// and records one sequential execution's trace. The loop mixes fast
// commits with selective re-execution replays, covering both commit paths.
func recordSPTTrace(tb testing.TB, n int64, depth int) (*interp.Program, []trace.Event) {
	tb.Helper()
	res, err := compiler.Compile(buildMostlyParallelLoop(n, depth), compiler.DefaultOptions())
	if err != nil {
		tb.Fatalf("Compile: %v", err)
	}
	lp, err := interp.Load(res.Program)
	if err != nil {
		tb.Fatalf("Load: %v", err)
	}
	rec := &traceRecorder{}
	m := interp.New(lp)
	m.SetHandler(rec)
	if _, err := m.Run(); err != nil {
		tb.Fatalf("Run: %v", err)
	}
	if len(rec.evs) == 0 {
		tb.Fatal("empty trace")
	}
	return lp, rec.evs
}

// newFeed returns a live feed into a bank of one engine under cfg: events
// appended to it reach the engine in bank bursts, and its window keeps only
// the chunks the engine can still read, exactly as on a live pass.
func newFeed(lp *interp.Program, cfg Config) (*liveFeed, *engine) {
	rec := trace.NewWindow()
	b := newBank(lp, []Config{cfg}, rec.Recording(), nil)
	return &liveFeed{b: b, rec: rec}, b.engines[0]
}

// replay feeds one captured execution through the feed. Replaying the same
// capture again is coherent: every frame dies at its Ret, so repeated
// frame ids always refer to fresh activations.
func replay(f *liveFeed, evs []trace.Event) {
	for i := range evs {
		f.Event(&evs[i])
	}
}

// warm replays evs until the window has cycled through several chunks, so
// the feed's recycled chunks, the engine's pools, caches and scratch
// buffers have all reached their steady capacity.
func warm(f *liveFeed, evs []trace.Event) {
	for f.n < 4*trace.ChunkEvents {
		replay(f, evs)
	}
}

// BenchmarkSpeculationEpisodes measures the steady-state cost of the
// speculation path — fork arming, speculative execution, dependence
// checking, and fast-commit/replay — with a warm engine. Expected:
// 0 allocs/op.
func BenchmarkSpeculationEpisodes(b *testing.B) {
	lp, evs := recordSPTTrace(b, 600, 24)
	f, e := newFeed(lp, DefaultConfig())
	replay(f, evs)
	episodes := e.stats.Windows
	if episodes == 0 {
		b.Fatal("trace opens no speculative windows")
	}
	warm(f, evs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay(f, evs)
	}
	b.StopTimer()
	if e.failure != nil {
		b.Fatal(e.failure)
	}
	b.ReportMetric(float64(episodes), "episodes/op")
}

// BenchmarkBaselineEvents measures the plain single-core event path.
func BenchmarkBaselineEvents(b *testing.B) {
	lp, evs := recordSPTTrace(b, 600, 24)
	f, e := newFeed(lp, BaselineConfig())
	warm(f, evs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay(f, evs)
	}
	b.StopTimer()
	if e.failure != nil {
		b.Fatal(e.failure)
	}
	b.ReportMetric(float64(len(evs)), "events/op")
}

// TestSpeculationSteadyStateAllocs locks in the zero-allocation steady
// state of the speculation episode path, window included.
func TestSpeculationSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	lp, evs := recordSPTTrace(t, 400, 24)
	f, e := newFeed(lp, DefaultConfig())
	warm(f, evs)
	if e.stats.Windows == 0 || e.stats.FastCommits+e.stats.Replays == 0 {
		t.Fatal("trace exercises no speculation commits")
	}
	allocs := testing.AllocsPerRun(3, func() { replay(f, evs) })
	if e.failure != nil {
		t.Fatal(e.failure)
	}
	if allocs > 0 {
		t.Fatalf("steady-state replay allocates %.1f times per execution; want 0", allocs)
	}
}
