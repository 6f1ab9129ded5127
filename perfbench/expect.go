package main

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/artifact"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/spt/client"
)

// expecter computes, in this process, the answer every served request must
// match: harness.RunBenchmarkCached for a simulate and harness.Sweep for a
// sweep, through a private artifact cache and interpreter capture — never
// the daemon's native modules, shared cache or store. The private cache
// shares the program build, compilation, baseline and recording between
// requests for one program; the harness guarantees results bit-identical
// to an uncached one-shot run.
type expecter struct {
	cache *artifact.Cache
	mu    sync.Mutex
	memo  map[string]*expected
}

// expected is one request's answer: a simulate response or sweep rows, plus
// the instruction count of the simulations it reports.
type expected struct {
	sim    *client.SimulateResponse
	rows   []client.SweepRow
	instrs int64 // SPT-simulated instructions the answer delivers
	err    error
	done   chan struct{}
}

func newExpecter() *expecter {
	return &expecter{cache: artifact.NewBoundedBytes(0, 512<<20), memo: map[string]*expected{}}
}

// get computes (once) the expectation of r.
func (e *expecter) get(r *request) *expected {
	k := r.key()
	e.mu.Lock()
	x, ok := e.memo[k]
	if !ok {
		x = &expected{done: make(chan struct{})}
		e.memo[k] = x
	}
	e.mu.Unlock()
	if ok {
		<-x.done
		return x
	}
	defer close(x.done)
	name, scale := r.program()
	if r.sim != nil {
		cfg, err := service.ConfigFromRequest(*r.sim)
		if err != nil {
			x.err = err
			return x
		}
		run, err := harness.RunBenchmarkCached(name, scale, cfg, e.cache)
		if err != nil {
			x.err = err
			return x
		}
		x.sim = &client.SimulateResponse{
			Benchmark: name, Scale: scale,
			Baseline: service.Summarize(run.Baseline),
			SPT:      service.Summarize(run.SPT),
			Speedup:  run.Speedup(),
		}
		x.instrs = run.SPT.Instrs
		return x
	}
	variants, err := sweepVariants(*r.sweep)
	if err != nil {
		x.err = err
		return x
	}
	rows, err := harness.Sweep(context.Background(), name, scale, variants, harness.GuardOptions{Artifacts: e.cache})
	if err != nil {
		x.err = err
		return x
	}
	// A sweep row carries no instruction count, but a program's dynamic
	// instruction count does not depend on the machine configuration.
	run, err := harness.RunBenchmarkCached(name, scale, arch.DefaultConfig(), e.cache)
	if err != nil {
		x.err = err
		return x
	}
	for _, row := range rows {
		x.rows = append(x.rows, client.SweepRow{Variant: row.Variant, Speedup: row.Speedup})
	}
	x.instrs = run.SPT.Instrs * int64(len(rows))
	return x
}

// prepare computes the expectations of rs with `workers` goroutines.
func (e *expecter) prepare(rs []*request, workers int) {
	ch := make(chan *request)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				e.get(r)
			}
		}()
	}
	for _, r := range rs {
		ch <- r
	}
	close(ch)
	wg.Wait()
}

// sweepVariants mirrors the daemon's resolution of the sweep families the
// workloads send.
func sweepVariants(req client.SweepRequest) ([]harness.Variant, error) {
	switch req.Sweep {
	case "srb":
		return harness.SRBVariants(req.Points), nil
	case "overhead":
		return harness.OverheadVariants(req.Points), nil
	case "cores":
		return harness.CoresVariants(req.Points), nil
	case "sched":
		return harness.SchedVariants(req.Cores, req.Points), nil
	}
	return nil, fmt.Errorf("perfbench: sweep family %q is not generated", req.Sweep)
}

// check compares a served answer with its expectation. It returns the
// SPT-simulated instructions the answer delivered.
func (e *expecter) check(o outcome) (int64, error) {
	x := e.get(o.req)
	if x.err != nil {
		return 0, fmt.Errorf("expectation for %s: %w", describe(o.req), x.err)
	}
	if o.sim != nil {
		got := *o.sim
		got.JobID = ""
		if got != *x.sim {
			return 0, fmt.Errorf("%s: served %+v, expected %+v", describe(o.req), got, *x.sim)
		}
		return x.instrs, nil
	}
	if len(o.sweep.Rows) != len(x.rows) {
		return 0, fmt.Errorf("%s: %d rows served, %d expected", describe(o.req), len(o.sweep.Rows), len(x.rows))
	}
	for i, row := range o.sweep.Rows {
		if row != x.rows[i] {
			return 0, fmt.Errorf("%s: row %d served %+v, expected %+v", describe(o.req), i, row, x.rows[i])
		}
	}
	return x.instrs, nil
}

// sptConfigs lists the machine configurations r simulates beyond the
// baseline (one for a simulate, one per variant for a sweep), in the
// canonical form the daemon's cache keys them by.
func sptConfigs(r *request) []arch.Config {
	if r.sim != nil {
		cfg, _ := service.ConfigFromRequest(*r.sim)
		return []arch.Config{cfg.Canonical()}
	}
	vs, _ := sweepVariants(*r.sweep)
	out := make([]arch.Config, len(vs))
	for i, v := range vs {
		out[i] = v.Config.Canonical()
	}
	return out
}
