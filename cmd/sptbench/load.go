package main

// The serve-load and serve-smoke modes turn sptbench into the load
// generator of the sptd daemon: they drive the HTTP API through the typed
// spt/client package and verify that served results are bit-identical to
// the one-shot local pipeline, that duplicate requests coalesce into one
// underlying simulation (cache-hit metric), and that a full queue answers
// with correct 429 backpressure.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/spt/client"
)

// localExpectation runs the benchmark through the local (one-shot) pipeline
// and flattens it exactly the way the daemon does: the comparison below is
// therefore field-by-field over the same RunStats shape.
func localExpectation(benchName string, scale int) (*client.SimulateResponse, error) {
	run, err := harness.RunBenchmarkCached(benchName, scale, arch.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	return &client.SimulateResponse{
		Benchmark: benchName,
		Scale:     scale,
		Baseline:  service.Summarize(run.Baseline),
		SPT:       service.Summarize(run.SPT),
		Speedup:   run.Speedup(),
	}, nil
}

// sameSim compares a served response against the local expectation,
// ignoring the job id (every response carries a fresh one).
func sameSim(got, want *client.SimulateResponse) bool {
	return got.Benchmark == want.Benchmark &&
		got.Scale == want.Scale &&
		got.Baseline == want.Baseline &&
		got.SPT == want.SPT &&
		got.Speedup == want.Speedup
}

// cacheCounters extracts the coalescing-relevant samples from a /metrics
// scrape.
func cacheCounters(metrics string) (hits, misses float64) {
	hits, _ = client.MetricValue(metrics, "sptd_cache_hits_total")
	misses, _ = client.MetricValue(metrics, "sptd_cache_misses_total")
	return hits, misses
}

// runServeLoad drives `requests` identical simulate requests at
// `concurrency` against the daemon at url. 429s are retried after the
// server's Retry-After (that is the backpressure contract); any other
// failure, any panicked 500 and any non-identical result is fatal.
// It returns the process exit code.
func runServeLoad(url, benchName string, scale, requests, concurrency int) int {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cl := client.New(url, nil)

	if _, err := cl.Health(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "sptbench: serve-load: daemon not healthy: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "serve-load: computing local expectation for %s scale %d...\n", benchName, scale)
	want, err := localExpectation(benchName, scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sptbench: serve-load: local pipeline: %v\n", err)
		return 1
	}
	m0, err := cl.Metrics(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sptbench: serve-load: metrics: %v\n", err)
		return 1
	}
	hits0, misses0 := cacheCounters(m0)

	req := client.SimulateRequest{Benchmark: benchName, Scale: scale}
	var (
		ok, rejected, mismatches, panicked, hardErrors atomic.Int64
		firstErr                                       atomic.Value
	)
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			for {
				resp, err := cl.Simulate(ctx, req)
				if err == nil {
					if sameSim(resp, want) {
						ok.Add(1)
					} else {
						mismatches.Add(1)
						firstErr.CompareAndSwap(nil, fmt.Sprintf("result mismatch: got %+v want %+v", resp, want))
					}
					return
				}
				var ae *client.APIError
				if errors.As(err, &ae) && ae.Body.Panicked {
					panicked.Add(1)
					firstErr.CompareAndSwap(nil, "panicked response: "+ae.Error())
					return
				}
				if client.IsBackpressure(err) {
					// The contract: a 429/503 carries Retry-After; back off
					// and resubmit. Count each shed request once.
					rejected.Add(1)
					delay := time.Second
					if errors.As(err, &ae) && ae.RetryAfterSeconds > 0 {
						delay = time.Duration(ae.RetryAfterSeconds) * time.Second
					}
					select {
					case <-ctx.Done():
						hardErrors.Add(1)
						firstErr.CompareAndSwap(nil, "timed out retrying backpressure")
						return
					case <-time.After(delay):
						continue
					}
				}
				hardErrors.Add(1)
				firstErr.CompareAndSwap(nil, err.Error())
				return
			}
		}()
	}
	wg.Wait()

	m1, err := cl.Metrics(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sptbench: serve-load: metrics after: %v\n", err)
		return 1
	}
	hits1, misses1 := cacheCounters(m1)
	hitsDelta, missesDelta := hits1-hits0, misses1-misses0

	fmt.Printf("serve-load: %d requests (%d concurrent) against %s\n", requests, concurrency, url)
	fmt.Printf("  ok %d  backpressure-retries %d  mismatches %d  panics %d  errors %d\n",
		ok.Load(), rejected.Load(), mismatches.Load(), panicked.Load(), hardErrors.Load())
	fmt.Printf("  cache: +%g hits, +%g misses (coalesced %d identical requests into %g computations)\n",
		hitsDelta, missesDelta, ok.Load(), missesDelta)

	failed := false
	if ok.Load() != int64(requests) {
		failed = true
	}
	// One (program, config) point means a handful of artifact computations
	// no matter how many clients asked: anything more means coalescing is
	// broken. (program + compile + baseline + SPT simulation, plus slack.)
	if missesDelta > 8 {
		failed = true
		fmt.Fprintf(os.Stderr, "sptbench: serve-load: %g cache misses for one request point; duplicates were not coalesced\n", missesDelta)
	}
	if hitsDelta <= 0 {
		failed = true
		fmt.Fprintln(os.Stderr, "sptbench: serve-load: no cache hits recorded; duplicates were not coalesced")
	}
	if msg := firstErr.Load(); msg != nil {
		fmt.Fprintf(os.Stderr, "sptbench: serve-load: first failure: %s\n", msg)
	}
	if failed {
		return 1
	}
	fmt.Println("serve-load: PASS (all responses bit-identical to the local pipeline)")
	return 0
}

// runServeSmoke is the CI smoke: one compile, one simulate (verified
// bit-identical to the local pipeline), a concurrent duplicate pair
// (verified coalesced via the cache-hit counter), and one async job driven
// through the polling API. It returns the process exit code.
func runServeSmoke(url, benchName string, scale int) int {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cl := client.New(url, nil)
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "sptbench: serve-smoke: "+format+"\n", args...)
		return 1
	}

	h, err := cl.Health(ctx)
	if err != nil {
		return fail("daemon not healthy: %v", err)
	}
	fmt.Printf("serve-smoke: daemon up (%d workers, queue depth %d)\n", h.Workers, h.QueueDepth)

	// 1. Compile.
	cres, err := cl.Compile(ctx, client.CompileRequest{Benchmark: benchName, Scale: scale})
	if err != nil {
		return fail("compile: %v", err)
	}
	if cres.Fingerprint == "" || len(cres.Loops) == 0 {
		return fail("compile response incomplete: %+v", cres)
	}
	fmt.Printf("serve-smoke: compile ok (job %s, %d loops, %d selected)\n", cres.JobID, len(cres.Loops), cres.SelectedLoops)

	// 2. Simulate, verified bit-identical against the local pipeline.
	want, err := localExpectation(benchName, scale)
	if err != nil {
		return fail("local pipeline: %v", err)
	}
	sres, err := cl.Simulate(ctx, client.SimulateRequest{Benchmark: benchName, Scale: scale})
	if err != nil {
		return fail("simulate: %v", err)
	}
	if !sameSim(sres, want) {
		return fail("simulate result differs from local pipeline:\n  got  %+v\n  want %+v", sres, want)
	}
	fmt.Printf("serve-smoke: simulate ok (speedup %.3fx, bit-identical to local run)\n", sres.Speedup)

	// 3. Concurrent duplicate pair: both must succeed with identical
	// results, and the cache-hit counter must rise (the second request was
	// served from the first's computation).
	m0, err := cl.Metrics(ctx)
	if err != nil {
		return fail("metrics: %v", err)
	}
	hits0, _ := cacheCounters(m0)
	var pair [2]*client.SimulateResponse
	var perr [2]error
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pair[i], perr[i] = cl.Simulate(ctx, client.SimulateRequest{Benchmark: benchName, Scale: scale})
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if perr[i] != nil {
			return fail("duplicate request %d: %v", i, perr[i])
		}
		if !sameSim(pair[i], want) {
			return fail("duplicate request %d differs from local pipeline", i)
		}
	}
	m1, err := cl.Metrics(ctx)
	if err != nil {
		return fail("metrics after pair: %v", err)
	}
	hits1, _ := cacheCounters(m1)
	if hits1 <= hits0 {
		return fail("cache hits did not rise across the duplicate pair (%g -> %g); coalescing broken", hits0, hits1)
	}
	fmt.Printf("serve-smoke: duplicate pair coalesced (cache hits %g -> %g)\n", hits0, hits1)

	// 4. Async submission through the polling API.
	ares, err := cl.Simulate(ctx, client.SimulateRequest{
		Benchmark:  benchName,
		Scale:      scale,
		JobRequest: client.JobRequest{Async: true, Priority: client.PriorityHigh},
	})
	if err != nil {
		return fail("async submit: %v", err)
	}
	js, err := cl.Wait(ctx, ares.JobID, 0)
	if err != nil {
		return fail("async wait: %v", err)
	}
	if js.Outcome != client.OutcomeOK {
		return fail("async job outcome %q: %+v", js.Outcome, js.Error)
	}
	var async client.SimulateResponse
	if err := js.DecodeResult(&async); err != nil {
		return fail("async decode: %v", err)
	}
	if !sameSim(&async, want) {
		return fail("async result differs from local pipeline")
	}
	fmt.Printf("serve-smoke: async job %s ok\n", ares.JobID)
	fmt.Println("serve-smoke: PASS")
	return 0
}
