package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/nativecap"
	"repro/internal/opt"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/spt/client"
)

// span is one timed call into a layer. Spans of one request share Req
// (-1 for set-up traffic); Parent is the enclosing span's ID (0 = none).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Req      int    `json:"req"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Instrs   int64  `json:"instrs,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Variants int    `json:"variants,omitempty"`
	Loops    int    `json:"loops,omitempty"`
	Native   bool   `json:"native,omitempty"`
	Fallback int64  `json:"fallbacks,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; the replay is sequential, so it needs no
// locking.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) *span {
	s := &t.spans[id-1]
	s.End = t.now()
	return s
}

// pollClock is a context that timestamps every Done call. The interpreter
// polls its context once per 1024 executed instructions, and inside
// compiler.CompileContext only the profiling runs execute instructions, so
// the polls mark out each profiling pass from outside the compiler.
type pollClock struct {
	context.Context
	polls []time.Time
}

func (p *pollClock) Done() <-chan struct{} {
	p.polls = append(p.polls, time.Now())
	return p.Context.Done()
}

const instrsPerPoll = 1024

// replayer re-serves a workload's requests in this process through the
// same layers the daemon's pipeline calls, timing each call: program
// build and opt, compile (with its profiling passes), capture, replay
// decode, the engine bank, and for routed-mix the cluster store. Its
// artifact cache is bounded like the daemon's, so hits and misses fall
// where the daemon's did.
type replayer struct {
	ctx   context.Context
	tr    *tracer
	cache *artifact.Cache
	nc    *nativecap.Capturer
	ncDir string
	store *cluster.Store
	built map[string]bool // module directories already seen
}

func (r *replayer) serve(k int, q *request) error {
	root := r.tr.begin("request", 0, k)
	defer r.tr.end(root)
	if r.store == nil {
		_, err := r.compute(k, root, q)
		return err
	}
	// The cluster pipeline: read through the store, compute on a miss and
	// write the result back.
	key := cluster.SimulateKey(*q.sim)
	g := r.tr.begin("cluster.store_get", root, k)
	_, hit := r.store.Get(key)
	r.tr.end(g)
	if hit {
		return nil
	}
	resp, err := r.compute(k, root, q)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	p := r.tr.begin("cluster.store_put", root, k)
	r.store.Put(key, payload)
	r.tr.end(p)
	return nil
}

func (r *replayer) compute(k, parent int, q *request) (*client.SimulateResponse, error) {
	name, scale := q.program()
	orig, err := r.cache.Program(name, scale, "opt", func() (*ir.Program, error) {
		s := r.tr.begin("program.build", parent, k)
		defer r.tr.end(s)
		b, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		return opt.Optimize(b.Build(scale)), nil
	})
	if err != nil {
		return nil, err
	}
	o := bench.CompilerOptions(name)
	cres, err := r.cache.CompileResult(orig, fmt.Sprintf("%+v", o), func() (*compiler.Result, error) {
		return r.compile(k, parent, orig, o)
	})
	if err != nil {
		return nil, err
	}
	var cfgs []arch.Config
	if q.sim != nil {
		cfg, err := service.ConfigFromRequest(*q.sim)
		if err != nil {
			return nil, err
		}
		cfgs = []arch.Config{cfg}
	} else {
		vs, err := sweepVariants(*q.sweep)
		if err != nil {
			return nil, err
		}
		for _, v := range vs {
			cfgs = append(cfgs, v.Config)
		}
	}
	base := cfgs[0]
	base.SPT = false
	bs, err := r.bank(k, parent, orig, []arch.Config{base})
	if err != nil {
		return nil, err
	}
	ss, err := r.bank(k, parent, cres.Program, cfgs)
	if err != nil {
		return nil, err
	}
	return &client.SimulateResponse{Benchmark: name, Scale: scale,
		Baseline: service.Summarize(bs[0]), SPT: service.Summarize(ss[0])}, nil
}

// compile times one compilation and recovers its profiling passes as
// child spans from the context polls.
func (r *replayer) compile(k, parent int, orig *ir.Program, o compiler.Options) (*compiler.Result, error) {
	pc := &pollClock{Context: r.ctx}
	id := r.tr.begin("compiler.compile", parent, k)
	res, err := compiler.CompileContext(pc, orig, o)
	s := r.tr.end(id)
	if err != nil {
		return nil, err
	}
	s.Loops = len(res.SelectedLoops())
	passes := 1
	for _, l := range res.Loops {
		if l.Unrolled > 0 {
			passes = 2 // the compiler re-profiles after unrolling
			break
		}
	}
	for _, b := range bursts(pc.polls, passes) {
		r.tr.spans = append(r.tr.spans, span{ID: len(r.tr.spans) + 1, Parent: id, Req: k, Name: "profiler.collect",
			Start: int64(b[0].Sub(r.tr.t0)), End: int64(b[len(b)-1].Sub(r.tr.t0)), Instrs: int64(len(b)) * instrsPerPoll})
	}
	return res, nil
}

// bursts splits poll times into n runs at the n-1 widest gaps.
func bursts(ts []time.Time, n int) [][]time.Time {
	if len(ts) == 0 {
		return nil
	}
	if n > len(ts) {
		n = len(ts)
	}
	gaps := make([]int, 0, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		gaps = append(gaps, i)
	}
	sort.Slice(gaps, func(a, b int) bool { return ts[gaps[a]].Sub(ts[gaps[a]-1]) > ts[gaps[b]].Sub(ts[gaps[b]-1]) })
	cuts := append([]int(nil), gaps[:n-1]...)
	sort.Ints(cuts)
	var out [][]time.Time
	prev := 0
	for _, c := range append(cuts, len(ts)) {
		out = append(out, ts[prev:c])
		prev = c
	}
	return out
}

// bank simulates p under cfgs through the artifact cache; missing
// configurations share one recording, timed as a standalone decode pass
// and an engine bank (arch.RunRecordedMulti).
func (r *replayer) bank(k, parent int, p *ir.Program, cfgs []arch.Config) ([]*arch.RunStats, error) {
	stats, errs := r.cache.SimulateBatch(p, cfgs, func(miss []int) ([]*arch.RunStats, []error) {
		fail := func(err error) ([]*arch.RunStats, []error) {
			es := make([]error, len(miss))
			for i := range es {
				es[i] = err
			}
			return make([]*arch.RunStats, len(miss)), es
		}
		lp, err := interp.Load(p)
		if err != nil {
			return fail(err)
		}
		rec, err := r.cache.Recording(p, 0, func() (*trace.Recording, error) { return r.capture(k, parent, p, lp) })
		if err != nil {
			return fail(err)
		}
		d := r.tr.begin("trace.decode", parent, k)
		err = rec.Replay(r.ctx, trace.HandlerFunc(func(*trace.Event) {}))
		s := r.tr.end(d)
		s.Bytes, s.Instrs = rec.Bytes(), rec.Steps()
		if err != nil {
			return fail(err)
		}
		mcfgs := make([]arch.Config, len(miss))
		for j, m := range miss {
			mcfgs[j] = cfgs[m]
		}
		e := r.tr.begin("arch.engine", parent, k)
		st, es := arch.RunRecordedMulti(r.ctx, lp, rec, mcfgs)
		s = r.tr.end(e)
		s.Variants, s.Instrs = len(mcfgs), rec.Steps()*int64(len(mcfgs))
		return st, es
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// capture times one trace capture. A module built during it is recorded as
// a child span from its directory's file times: main.go is written just
// before `go build` starts and bin is its output.
func (r *replayer) capture(k, parent int, p *ir.Program, lp *interp.Program) (*trace.Recording, error) {
	before := r.nc.Stats()
	id := r.tr.begin("capture", parent, k)
	rec, err := r.nc.Capture(r.ctx, p, lp, 0)
	s := r.tr.end(id)
	after := r.nc.Stats()
	if err != nil {
		return nil, err
	}
	s.Bytes = rec.Bytes()
	s.Native = after.Native > before.Native
	s.Fallback = fallbacks(after) - fallbacks(before)
	mods, _ := filepath.Glob(filepath.Join(r.ncDir, "m-*"))
	for _, m := range mods {
		if r.built[m] {
			continue
		}
		r.built[m] = true
		src, err1 := os.Stat(filepath.Join(m, "main.go"))
		bin, err2 := os.Stat(filepath.Join(m, "bin"))
		if err1 != nil || err2 != nil {
			continue
		}
		r.tr.spans = append(r.tr.spans, span{ID: len(r.tr.spans) + 1, Parent: id, Req: k, Name: "capture.module_build",
			Start: int64(src.ModTime().Sub(r.tr.t0)), End: int64(bin.ModTime().Sub(r.tr.t0))})
	}
	return rec, nil
}

func fallbacks(s nativecap.Stats) int64 {
	return s.FallbackNoToolchain + s.FallbackBuildError + s.FallbackRunError + s.FallbackMismatch
}

// traceRun replays the set-up traffic and then as much of the timed
// sequence as fits in budget, and returns the spans. Modules the daemons
// built are adopted (linked) unless fresh is set, in which case the replay
// builds its own under a fresh build-cache copy, as the daemon did.
func (b *benchRun) traceRun(dep *deployment, outs []outcome, fresh bool, budget time.Duration) (*tracer, int, error) {
	ncDir, err := b.env.fresh("nativecap-traced")
	if err != nil {
		return nil, 0, err
	}
	if fresh {
		gc, err := b.env.freshGoCache()
		if err != nil {
			return nil, 0, err
		}
		os.Setenv("GOCACHE", gc)
	} else {
		for _, d := range dep.daemons {
			if err := linkTree(d.ncDir, ncDir, "m-"); err != nil {
				return nil, 0, err
			}
		}
	}
	nc, err := nativecap.New(nativecap.Options{Dir: ncDir})
	if err != nil {
		return nil, 0, err
	}
	defer nc.Close()
	limit := b.w.cacheBytes
	if limit == 0 {
		limit = 1 << 30
	}
	r := &replayer{ctx: context.Background(), tr: &tracer{t0: time.Now()}, cache: artifact.NewBoundedBytes(4096, limit),
		nc: nc, ncDir: ncDir, built: map[string]bool{}}
	r.cache.EnableIntegrity()
	mods, _ := filepath.Glob(filepath.Join(ncDir, "m-*"))
	for _, m := range mods {
		r.built[m] = true
	}
	if len(dep.daemons) > 1 {
		// Memory tier only, like the cluster's daemons.
		st, err := cluster.NewStore(cluster.StoreConfig{})
		if err != nil {
			return nil, 0, err
		}
		r.store = st
	}
	for _, o := range dep.warm {
		if err := r.serve(-1, o.req); err != nil {
			return nil, 0, fmt.Errorf("traced set-up %s: %w", describe(o.req), err)
		}
	}
	start := time.Now()
	n := 0
	for i, o := range outs {
		if time.Since(start) > budget {
			break
		}
		if err := r.serve(i, o.req); err != nil {
			return nil, 0, fmt.Errorf("traced %s: %w", describe(o.req), err)
		}
		n++
	}
	return r.tr, n, nil
}

// linkTree hardlinks every regular file below src into dst, restricted to
// top-level entries whose name has the given prefix ("" = all). Linking
// is safe for the go command's build cache and for built capture modules:
// both only ever add files (write to a temporary name, then rename).
func linkTree(src, dst, prefix string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if top, _, _ := strings.Cut(rel, string(os.PathSeparator)); rel != "." && !strings.HasPrefix(top, prefix) {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return os.Link(p, target)
	})
}

// layerMetrics aggregates the replayed spans of timed requests (Req >= 0).
func layerMetrics(tr *tracer, m map[string]metric) {
	type agg struct {
		n                int
		ms               float64
		instrs, bytes    int64
		variants, loops  int
		native, fallback int64
	}
	by := map[string]*agg{}
	children := map[int]float64{} // parent id -> ms covered by profiler children
	decodeMS := 0.0
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Req < 0 {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.ms += s.ms()
		a.instrs += s.Instrs
		a.bytes += s.Bytes
		a.variants += s.Variants
		a.loops += s.Loops
		if s.Native {
			a.native++
		}
		a.fallback += s.Fallback
		if s.Name == "profiler.collect" {
			children[s.Parent] += s.ms()
		}
		if s.Name == "trace.decode" {
			decodeMS += s.ms()
		}
	}
	get := func(name string) *agg {
		if a := by[name]; a != nil {
			return a
		}
		return &agg{}
	}
	mean := func(a *agg) float64 {
		if a.n == 0 {
			return 0
		}
		return a.ms / float64(a.n)
	}
	rate := func(num float64, msec float64) float64 {
		if msec <= 0 {
			return 0
		}
		return num / (msec / 1e3)
	}
	prog, prof, comp := get("program.build"), get("profiler.collect"), get("compiler.compile")
	capt, build, dec, eng := get("capture"), get("capture.module_build"), get("trace.decode"), get("arch.engine")
	m["program.build_ms"] = metric{mean(prog), "ms"}
	m["profiler.collect_ms"] = metric{mean(prof), "ms"}
	m["profiler.minstr_per_s"] = metric{rate(float64(prof.instrs)/1e6, prof.ms), "Minstr/s"}
	m["compiler.compile_ms"] = metric{mean(comp), "ms"}
	self := 0.0
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Req >= 0 && s.Name == "compiler.compile" {
			self += s.ms() - children[s.ID]
		}
	}
	if comp.n > 0 {
		self /= float64(comp.n)
		m["compiler.loops_selected"] = metric{float64(comp.loops) / float64(comp.n), "count"}
	} else {
		m["compiler.loops_selected"] = metric{0, "count"}
	}
	m["compiler.self_ms"] = metric{self, "ms"}
	m["capture.ms"] = metric{mean(capt), "ms"}
	m["capture.module_build_ms"] = metric{mean(build), "ms"}
	share, mb := 0.0, 0.0
	if capt.n > 0 {
		share = float64(capt.native) / float64(capt.n)
		mb = float64(capt.bytes) / 1e6 / float64(capt.n)
	}
	m["capture.mb"] = metric{mb, "MB"}
	m["capture.native_share"] = metric{share, "ratio"}
	m["capture.fallbacks"] = metric{float64(capt.fallback), "count"}
	m["trace.decode_gb_per_s"] = metric{rate(float64(dec.bytes)/1e9, dec.ms), "GB/s"}
	engSelf := 0.0
	if eng.n > 0 {
		engSelf = (eng.ms - decodeMS) / float64(eng.n)
	}
	m["arch.engine_ms"] = metric{engSelf, "ms"}
	perVariant := 0.0
	if eng.variants > 0 {
		perVariant = eng.ms / float64(eng.variants)
	}
	m["arch.bank_ms_per_variant"] = metric{perVariant, "ms"}
	m["arch.minstr_per_s"] = metric{rate(float64(eng.instrs)/1e6, eng.ms), "Minstr/s"}
	m["cluster.store_get_ms"] = metric{mean(get("cluster.store_get")), "ms"}
	m["cluster.store_put_ms"] = metric{mean(get("cluster.store_put")), "ms"}
}

// writeSpans stores the spans of a traced run as JSON.
func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
