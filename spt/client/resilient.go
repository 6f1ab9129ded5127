package client

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ResilientConfig tunes the Resilient wrapper. Zero values take the
// defaults.
type ResilientConfig struct {
	// MaxAttempts bounds the tries per call, the first included (default 5).
	MaxAttempts int
	// Backoff shapes the inter-attempt sleep.
	Backoff Backoff
	// Breaker tunes the per-endpoint circuit breakers.
	Breaker BreakerConfig
	// HedgeAfter, when positive, hedges idempotent GETs (Job, Health,
	// Metrics): if the first request has not answered within this window, a
	// second identical request races it and the first response wins. POSTs
	// are never hedged — they consume queue slots.
	HedgeAfter time.Duration
	// Seed makes the jitter deterministic for tests (0 = time-seeded).
	Seed int64
}

func (c ResilientConfig) withDefaults() ResilientConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	return c
}

// ResilientStats are lifetime counters of a Resilient wrapper.
type ResilientStats struct {
	Attempts          int64 // requests sent (including retries and probes)
	Retries           int64 // attempts beyond each call's first
	Hedges            int64 // hedge requests launched
	HedgeWins         int64 // hedges that answered before the primary request
	BreakerOpens      int64 // circuit transitions into open, across endpoints
	BreakerRecoveries int64 // half-open probes that closed a circuit
	BreakerWaits      int64 // attempts delayed because a circuit was open
}

// Resilient wraps a Client with retries (capped exponential backoff, full
// jitter, Retry-After honored), a per-endpoint circuit breaker and optional
// hedged reads. It is safe for concurrent use. Construct with NewResilient.
//
// Retry classification is context-deadline-aware: when the remaining
// deadline cannot absorb the computed backoff (or an open breaker's
// cool-down), the call fails immediately with the last real error instead
// of sleeping into a guaranteed context timeout.
type Resilient struct {
	c   *Client
	cfg ResilientConfig

	mu  sync.Mutex
	rnd *rand.Rand

	bmu      sync.Mutex
	breakers map[string]*breaker

	attempts     atomic.Int64
	retries      atomic.Int64
	hedges       atomic.Int64
	hedgeWins    atomic.Int64
	breakerWaits atomic.Int64

	// sleep is swapped by tests; the default honors ctx.
	sleep func(ctx context.Context, d time.Duration) error
}

// NewResilient wraps c. A nil cfg field set takes the documented defaults.
func NewResilient(c *Client, cfg ResilientConfig) *Resilient {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Resilient{
		c:        c,
		cfg:      cfg,
		rnd:      rand.New(rand.NewSource(seed)),
		breakers: make(map[string]*breaker),
		sleep: func(ctx context.Context, d time.Duration) error {
			if d <= 0 {
				return ctx.Err()
			}
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	}
}

// Client returns the wrapped raw client.
func (r *Resilient) Client() *Client { return r.c }

// Stats snapshots the wrapper's lifetime counters.
func (r *Resilient) Stats() ResilientStats {
	st := ResilientStats{
		Attempts:     r.attempts.Load(),
		Retries:      r.retries.Load(),
		Hedges:       r.hedges.Load(),
		HedgeWins:    r.hedgeWins.Load(),
		BreakerWaits: r.breakerWaits.Load(),
	}
	r.bmu.Lock()
	defer r.bmu.Unlock()
	for _, b := range r.breakers {
		o, rec, _ := b.snapshot()
		st.BreakerOpens += o
		st.BreakerRecoveries += rec
	}
	return st
}

func (r *Resilient) breakerFor(endpoint string) *breaker {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	b, ok := r.breakers[endpoint]
	if !ok {
		b = newBreaker(r.cfg.Breaker)
		r.breakers[endpoint] = b
	}
	return b
}

func (r *Resilient) jitterDelay(attempt int, retryAfter time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.Backoff.delay(attempt, retryAfter, r.rnd)
}

// fitsDeadline reports whether ctx can absorb sleeping d and still leave
// room for one more attempt.
func fitsDeadline(ctx context.Context, d time.Duration) bool {
	dl, ok := ctx.Deadline()
	if !ok {
		return true
	}
	return time.Until(dl) > d
}

// call runs one endpoint operation under the retry + breaker policy.
func call[T any](r *Resilient, ctx context.Context, endpoint string, fn func(context.Context) (T, error)) (T, error) {
	var zero T
	var lastErr error
	br := r.breakerFor(endpoint)
	for attempt := 0; attempt < r.cfg.MaxAttempts; attempt++ {
		// Admission: wait out an open circuit, bounded by the context.
		for {
			ok, wait := br.allow(time.Now())
			if ok {
				break
			}
			r.breakerWaits.Add(1)
			if !fitsDeadline(ctx, wait) {
				return zero, fmt.Errorf("%s: %w (last error: %v)", endpoint, ErrCircuitOpen, lastErr)
			}
			if err := r.sleep(ctx, wait); err != nil {
				return zero, fmt.Errorf("%s: %w (last error: %v)", endpoint, ErrCircuitOpen, lastErr)
			}
		}

		r.attempts.Add(1)
		if attempt > 0 {
			r.retries.Add(1)
		}
		v, err := fn(ctx)
		// Backpressure is the server working as designed — it must not trip
		// the breaker; everything else retryable (transport, 5xx) does.
		br.report(err == nil || !IsRetryable(err) || IsBackpressure(err), time.Now())
		if err == nil {
			return v, nil
		}
		if !IsRetryable(err) {
			return zero, err
		}
		lastErr = err
		if attempt+1 >= r.cfg.MaxAttempts {
			break
		}
		d := r.jitterDelay(attempt, retryAfterOf(err))
		if !fitsDeadline(ctx, d) {
			return zero, fmt.Errorf("%s: retry abandoned, context deadline cannot absorb %s backoff: %w", endpoint, d, err)
		}
		if serr := r.sleep(ctx, d); serr != nil {
			return zero, fmt.Errorf("%s: retry interrupted: %w (last error: %v)", endpoint, serr, err)
		}
	}
	return zero, fmt.Errorf("%s: giving up after %d attempts: %w", endpoint, r.cfg.MaxAttempts, lastErr)
}

// hedge races a duplicate request after cfg.HedgeAfter of silence. Only
// used for idempotent GETs.
func hedge[T any](r *Resilient, ctx context.Context, fn func(context.Context) (T, error)) (T, error) {
	if r.cfg.HedgeAfter <= 0 {
		return fn(ctx)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		v      T
		err    error
		hedged bool
	}
	resc := make(chan res, 2)
	launch := func(hedged bool) {
		go func() {
			v, err := fn(hctx)
			resc <- res{v, err, hedged}
		}()
	}
	launch(false)
	launched := 1
	t := time.NewTimer(r.cfg.HedgeAfter)
	defer t.Stop()
	var firstErr error
	for settled := 0; settled < launched; {
		select {
		case <-t.C:
			if launched == 1 {
				r.hedges.Add(1)
				r.attempts.Add(1)
				launch(true)
				launched = 2
			}
		case rr := <-resc:
			settled++
			if rr.err == nil {
				if rr.hedged {
					r.hedgeWins.Add(1)
				}
				return rr.v, nil // first success wins; cancel() reaps the loser
			}
			if firstErr == nil {
				firstErr = rr.err
			}
		case <-ctx.Done():
			var zero T
			if firstErr != nil {
				return zero, firstErr
			}
			return zero, ctx.Err()
		}
	}
	var zero T
	return zero, firstErr
}

// Compile submits a compile job with retries.
func (r *Resilient) Compile(ctx context.Context, req CompileRequest) (*CompileResponse, error) {
	return call(r, ctx, "/v1/compile", func(ctx context.Context) (*CompileResponse, error) {
		return r.c.Compile(ctx, req)
	})
}

// Simulate submits a simulate job with retries.
func (r *Resilient) Simulate(ctx context.Context, req SimulateRequest) (*SimulateResponse, error) {
	return call(r, ctx, "/v1/simulate", func(ctx context.Context) (*SimulateResponse, error) {
		return r.c.Simulate(ctx, req)
	})
}

// Sweep submits a sweep job with retries.
func (r *Resilient) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	return call(r, ctx, "/v1/sweep", func(ctx context.Context) (*SweepResponse, error) {
		return r.c.Sweep(ctx, req)
	})
}

// Job polls an async job with retries and (when configured) hedging.
func (r *Resilient) Job(ctx context.Context, id string) (*JobStatus, error) {
	return call(r, ctx, "/v1/jobs", func(ctx context.Context) (*JobStatus, error) {
		return hedge(r, ctx, func(ctx context.Context) (*JobStatus, error) {
			return r.c.Job(ctx, id)
		})
	})
}

// Health fetches /readyz with retries and (when configured) hedging.
func (r *Resilient) Health(ctx context.Context) (*Health, error) {
	return call(r, ctx, "/readyz", func(ctx context.Context) (*Health, error) {
		return hedge(r, ctx, func(ctx context.Context) (*Health, error) {
			return r.c.Health(ctx)
		})
	})
}

// Metrics fetches /metrics with retries.
func (r *Resilient) Metrics(ctx context.Context) (string, error) {
	return call(r, ctx, "/metrics", func(ctx context.Context) (string, error) {
		return r.c.Metrics(ctx)
	})
}

// Wait polls an async job until it reaches StateDone (or ctx ends),
// sleeping poll between requests (0 means 50ms). Unlike Client.Wait it
// rides out daemon restarts: transient poll failures retry under the
// wrapper's policy.
func (r *Resilient) Wait(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		js, err := r.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if js.State == StateDone {
			return js, nil
		}
		select {
		case <-ctx.Done():
			return js, ctx.Err()
		case <-t.C:
		}
	}
}
