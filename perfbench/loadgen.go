package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/spt/client"
)

// request is one generated submission. Exactly one of sim and sweep is set.
type request struct {
	sim   *client.SimulateRequest
	sweep *client.SweepRequest
	node  int // daemon index the request is sent to
	seq   int // position in the workload's request sequence
}

// key identifies the answer a request must get (budgets are not part of
// it).
func (r *request) key() string {
	var b []byte
	if r.sim != nil {
		s := *r.sim
		s.JobRequest = client.JobRequest{}
		b, _ = json.Marshal(s)
		return "sim" + string(b)
	}
	s := *r.sweep
	s.JobRequest = client.JobRequest{}
	b, _ = json.Marshal(s)
	return "sweep" + string(b)
}

func (r *request) program() (string, int) {
	if r.sim != nil {
		return r.sim.Benchmark, scaleOf(r.sim.Scale)
	}
	return r.sweep.Benchmark, scaleOf(r.sweep.Scale)
}

func scaleOf(s int) int {
	if s <= 0 {
		return 1
	}
	return s
}

// outcome is what the generator observed for one request.
type outcome struct {
	req     *request
	latency time.Duration // from send to answer
	lag     time.Duration // generator overhead: a client's idle time between an answer and its next send
	err     error
	sim     *client.SimulateResponse
	sweep   *client.SweepResponse
}

// send performs one request against d.
func send(ctx context.Context, d *daemon, r *request) outcome {
	o := outcome{req: r}
	if r.sim != nil {
		o.sim, o.err = d.cl.Simulate(ctx, *r.sim)
	} else {
		o.sweep, o.err = d.cl.Sweep(ctx, *r.sweep)
	}
	return o
}

// closedLoop runs `clients` senders, each sending its next request only
// after the previous one answered, until the window has passed and at
// least minSamples requests have answered. Requests come from next in
// sequence order; next is never called concurrently. The window starts
// when closedLoop is called.
func closedLoop(ctx context.Context, ds []*daemon, clients int, window time.Duration, minSamples int, next func(i int) *request) (outs []outcome, elapsed time.Duration) {
	start := time.Now()
	var idx int
	var done atomic.Int64
	var mu, nextMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for ctx.Err() == nil {
				if time.Since(start) >= window && done.Load() >= int64(minSamples) {
					return
				}
				nextMu.Lock()
				i := idx
				idx++
				r := next(i)
				nextMu.Unlock()
				if r == nil {
					return
				}
				r.seq = i
				t := time.Now()
				o := send(ctx, ds[r.node], r)
				o.latency = time.Since(t)
				o.lag = t.Sub(prev)
				prev = time.Now()
				done.Add(1)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank method; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func latenciesMS(outs []outcome) []float64 {
	xs := make([]float64, 0, len(outs))
	for _, o := range outs {
		xs = append(xs, ms(o.latency))
	}
	return xs
}

// tailSamples is the sample count the tail percentile needs: at least ten
// samples beyond it.
func tailSamples(p float64) int { return int(math.Ceil(10 / (1 - p/100))) }

func describe(r *request) string {
	name, scale := r.program()
	if r.sim != nil {
		return fmt.Sprintf("simulate %s/%d srb=%d", name, scale, r.sim.SRB)
	}
	pts := make([]string, len(r.sweep.Points))
	for i, p := range r.sweep.Points {
		pts[i] = fmt.Sprint(p)
	}
	return fmt.Sprintf("sweep %s/%d %s[%s] cores=%d", name, scale, r.sweep.Sweep, strings.Join(pts, ","), r.sweep.Cores)
}
