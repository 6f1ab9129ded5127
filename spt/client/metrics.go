package client

import (
	"fmt"
	"io"
	"net/http"
	"sort"
)

// breakerStateValue renders a breaker state as a numeric gauge:
// 0 closed, 1 open, 2 half-open.
func breakerStateValue(state int) int {
	switch state {
	case breakerOpen:
		return 1
	case breakerHalfOpen:
		return 2
	default:
		return 0
	}
}

// WriteMetrics renders the wrapper's lifetime counters as Prometheus text:
// attempts, retries, hedge launches and wins, breaker waits, and the
// per-endpoint breaker transition counters and live state. Soak harnesses
// and operators scrape this instead of grepping logs to assert, e.g., that
// a circuit opened during an outage and recovered after the restart.
func (r *Resilient) WriteMetrics(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("spt_client_attempts_total", "Requests sent, retries and hedge probes included.", r.attempts.Load())
	counter("spt_client_retries_total", "Attempts beyond each call's first.", r.retries.Load())
	counter("spt_client_hedges_total", "Hedge requests launched for idempotent GETs.", r.hedges.Load())
	counter("spt_client_hedge_wins_total", "Hedge requests that answered before the primary.", r.hedgeWins.Load())
	counter("spt_client_breaker_waits_total", "Attempts delayed because a circuit was open.", r.breakerWaits.Load())

	r.bmu.Lock()
	endpoints := make([]string, 0, len(r.breakers))
	for ep := range r.breakers {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	type bsnap struct {
		endpoint          string
		opens, recoveries int64
		state             int
	}
	snaps := make([]bsnap, 0, len(endpoints))
	for _, ep := range endpoints {
		o, rec, st := r.breakers[ep].snapshot()
		snaps = append(snaps, bsnap{ep, o, rec, st})
	}
	r.bmu.Unlock()

	fmt.Fprintf(w, "# HELP spt_client_breaker_opens_total Circuit transitions into open, per endpoint.\n# TYPE spt_client_breaker_opens_total counter\n")
	for _, s := range snaps {
		fmt.Fprintf(w, "spt_client_breaker_opens_total{endpoint=%q} %d\n", s.endpoint, s.opens)
	}
	fmt.Fprintf(w, "# HELP spt_client_breaker_recoveries_total Half-open probes that closed a circuit, per endpoint.\n# TYPE spt_client_breaker_recoveries_total counter\n")
	for _, s := range snaps {
		fmt.Fprintf(w, "spt_client_breaker_recoveries_total{endpoint=%q} %d\n", s.endpoint, s.recoveries)
	}
	fmt.Fprintf(w, "# HELP spt_client_breaker_state Current breaker state per endpoint: 0 closed, 1 open, 2 half-open.\n# TYPE spt_client_breaker_state gauge\n")
	for _, s := range snaps {
		fmt.Fprintf(w, "spt_client_breaker_state{endpoint=%q} %d\n", s.endpoint, breakerStateValue(s.state))
	}
}

// MetricsHandler serves WriteMetrics over HTTP, so a load generator or
// sidecar can expose its client-side view (breaker flaps, hedge rates) to
// the same Prometheus that scrapes the daemons.
func (r *Resilient) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteMetrics(w)
	})
}
