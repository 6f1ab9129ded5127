package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// truncatingServer answers /readyz; the first truncate responses declare a
// full Content-Length but write only half the body, so the client's body
// read fails with io.ErrUnexpectedEOF.
func truncatingServer(truncate int) (*httptest.Server, *atomic.Int64) {
	var calls atomic.Int64
	body := []byte(`{"status":"ok","draining":false,"queue_depth":0,"in_flight":0,"workers":1,"uptime_ms":1}`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if int(n) <= truncate {
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			_, _ = w.Write(body[:len(body)/2]) // handler returns early: connection dies mid-body
			return
		}
		_, _ = w.Write(body)
	}))
	return ts, &calls
}

func TestTruncatedBodyIsClassifiedRetryable(t *testing.T) {
	ts, _ := truncatingServer(1)
	defer ts.Close()
	cl := New(ts.URL, ts.Client())
	_, err := cl.Health(context.Background())
	if err == nil {
		t.Fatal("truncated response returned nil error")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated-body error = %v; want io.ErrUnexpectedEOF in the chain", err)
	}
	if !IsRetryable(err) {
		t.Errorf("IsRetryable(%v) = false; a mid-body truncation must be retryable", err)
	}
}

func TestResilientRetriesTruncatedBody(t *testing.T) {
	ts, calls := truncatingServer(1)
	defer ts.Close()
	r := NewResilient(New(ts.URL, ts.Client()), ResilientConfig{Seed: 1, Backoff: Backoff{Base: time.Millisecond, Max: time.Millisecond}})
	h, err := r.Health(context.Background())
	if err != nil {
		t.Fatalf("Health after truncation: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("health = %+v; want ok", h)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d calls; want 2 (truncated + retried)", got)
	}
	if st := r.Stats(); st.Retries != 1 {
		t.Errorf("stats = %+v; want exactly 1 retry", st)
	}
}

func TestRetryClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("wrap: %w", io.ErrUnexpectedEOF), true},
		{&APIError{StatusCode: 429}, true},
		{&APIError{StatusCode: 500}, true},
		{&APIError{StatusCode: 503}, true},
		{&APIError{StatusCode: 504}, true},
		{&APIError{StatusCode: 400}, false},
		{&APIError{StatusCode: 404}, false},
		{errors.New("opaque"), false},
	}
	for _, tc := range cases {
		if got := IsRetryable(tc.err); got != tc.want {
			t.Errorf("IsRetryable(%v) = %v; want %v", tc.err, got, tc.want)
		}
	}
}

func TestBackoffHonorsRetryAfterAsFloor(t *testing.T) {
	var backpressured atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if backpressured.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer ts.Close()

	r := NewResilient(New(ts.URL, ts.Client()), ResilientConfig{Seed: 1})
	var slept []time.Duration
	r.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil // don't actually wait in the test
	}
	if _, err := r.Health(context.Background()); err != nil {
		t.Fatalf("Health: %v", err)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %v; want exactly one backoff", slept)
	}
	if slept[0] < 7*time.Second {
		t.Errorf("backoff %v shorter than the server's Retry-After of 7s", slept[0])
	}
}

func TestRetryAbandonedWhenDeadlineCannotAbsorbBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	defer ts.Close()

	r := NewResilient(New(ts.URL, ts.Client()), ResilientConfig{Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.Health(ctx)
	if err == nil {
		t.Fatal("Health succeeded against a permanently draining server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("call took %v; the 30s Retry-After must not be slept when the deadline is 100ms", elapsed)
	}
	// The original backpressure error stays visible through the wrap.
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != 503 {
		t.Errorf("error %v; want the underlying 503 preserved in the chain", err)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"boom"}`)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer ts.Close()

	r := NewResilient(New(ts.URL, ts.Client()), ResilientConfig{
		Seed:        1,
		MaxAttempts: 2,
		Backoff:     Backoff{Base: time.Millisecond, Max: time.Millisecond},
		Breaker:     BreakerConfig{FailureThreshold: 3, OpenFor: 50 * time.Millisecond},
	})

	// Two failing calls = 4 failed attempts: the breaker (threshold 3) trips.
	for i := 0; i < 2; i++ {
		if _, err := r.Health(context.Background()); err == nil {
			t.Fatal("Health succeeded against a failing server")
		}
	}
	st := r.Stats()
	if st.BreakerOpens < 1 {
		t.Fatalf("stats = %+v; breaker should have opened", st)
	}

	// While open, a short-deadline call fast-fails with ErrCircuitOpen
	// instead of burning its deadline on a doomed request.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	_, err := r.Health(ctx)
	cancel()
	if !errors.Is(err, ErrCircuitOpen) {
		t.Errorf("call while open: %v; want ErrCircuitOpen", err)
	}

	// Server heals; after the cool-down a probe closes the circuit.
	healthy.Store(true)
	time.Sleep(60 * time.Millisecond)
	if _, err := r.Health(context.Background()); err != nil {
		t.Fatalf("Health after recovery: %v", err)
	}
	if st := r.Stats(); st.BreakerRecoveries < 1 {
		t.Errorf("stats = %+v; breaker should have recovered", st)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(BreakerConfig{FailureThreshold: 2, OpenFor: time.Second, HalfOpenProbes: 1})
	t0 := time.Unix(1000, 0)
	if ok, _ := b.allow(t0); !ok {
		t.Fatal("closed breaker refused a call")
	}
	b.report(false, t0)
	b.report(false, t0) // second consecutive failure: opens
	if ok, wait := b.allow(t0); ok || wait != time.Second {
		t.Fatalf("allow right after open = %v wait %v; want refusal for 1s", ok, wait)
	}
	// Cool-down passed: exactly one probe is admitted.
	t1 := t0.Add(2 * time.Second)
	if ok, _ := b.allow(t1); !ok {
		t.Fatal("half-open breaker refused the probe")
	}
	if ok, _ := b.allow(t1); ok {
		t.Fatal("half-open breaker admitted a second probe beyond the budget")
	}
	// Probe failure re-opens; probe success after the next cool-down closes.
	b.report(false, t1)
	if ok, _ := b.allow(t1.Add(10 * time.Millisecond)); ok {
		t.Fatal("breaker admitted a call immediately after a failed probe")
	}
	t2 := t1.Add(2 * time.Second)
	if ok, _ := b.allow(t2); !ok {
		t.Fatal("breaker refused the second probe")
	}
	b.report(true, t2)
	if ok, _ := b.allow(t2); !ok {
		t.Fatal("breaker not closed after a successful probe")
	}
	opens, recoveries, _ := b.snapshot()
	if opens != 2 || recoveries != 1 {
		t.Errorf("opens=%d recoveries=%d; want 2 and 1", opens, recoveries)
	}
}

func TestHedgedReadRacesASecondRequest(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// First request stalls well past the hedge window.
			select {
			case <-r.Context().Done():
				return
			case <-time.After(2 * time.Second):
			}
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer ts.Close()

	r := NewResilient(New(ts.URL, ts.Client()), ResilientConfig{Seed: 1, HedgeAfter: 20 * time.Millisecond})
	start := time.Now()
	h, err := r.Health(context.Background())
	if err != nil {
		t.Fatalf("hedged Health: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("health = %+v", h)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hedged read took %v; the hedge should have answered in ~20ms", elapsed)
	}
	if st := r.Stats(); st.Hedges != 1 {
		t.Errorf("stats = %+v; want 1 hedge", st)
	}
}

func TestBackpressureDoesNotTripBreaker(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"queue full"}`)
	}))
	defer ts.Close()
	r := NewResilient(New(ts.URL, ts.Client()), ResilientConfig{
		Seed:        1,
		MaxAttempts: 6,
		Breaker:     BreakerConfig{FailureThreshold: 2},
	})
	r.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	if _, err := r.Health(context.Background()); err == nil {
		t.Fatal("Health succeeded against a permanently full queue")
	}
	if st := r.Stats(); st.BreakerOpens != 0 {
		t.Errorf("stats = %+v; 429s must never open the circuit", st)
	}
}
