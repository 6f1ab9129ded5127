package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/service"
)

// TestGossipOnlyBootstrap: three managers that know only their own URL and
// their -join seeds, wired in the benchmark's topology (n1 joins n2; n2 and
// n3 join n1), must reach a full alive table and agree on the owner of
// every benchmark route key within a fixed number of gossip rounds.
func TestGossipOnlyBootstrap(t *testing.T) {
	type handlerBox struct{ h http.Handler }
	names := []string{"n1", "n2", "n3"}
	servers := make([]*service.Server, len(names))
	handlers := make([]*atomic.Value, len(names))
	urls := make([]string, len(names))
	for i, name := range names {
		s, _ := newClusterServer(t, name, "")
		h := &atomic.Value{}
		h.Store(handlerBox{s.Handler()})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.Load().(handlerBox).h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		servers[i], handlers[i], urls[i] = s, h, ts.URL
	}
	seeds := [][]string{{urls[1]}, {urls[0]}, {urls[0]}}
	managers := make([]*Manager, len(names))
	for i, name := range names {
		m, err := NewManager(ManagerConfig{Self: name, SelfURL: urls[i], Seeds: seeds[i], Server: servers[i]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		handlers[i].Store(handlerBox{m.Middleware(servers[i].Handler())})
		managers[i] = m
	}

	converged := func() bool {
		for _, m := range managers {
			table := m.Gossip().Snapshot()
			if len(table) != len(names) {
				return false
			}
			for _, mem := range table {
				if mem.State != StateAlive || !m.Ring().IsAlive(mem.Name) {
					return false
				}
			}
		}
		return true
	}
	const maxRounds = 6
	rounds := 0
	for ; rounds < maxRounds && !converged(); rounds++ {
		for _, m := range managers {
			m.Tick()
		}
	}
	if !converged() {
		for _, m := range managers {
			t.Logf("%s: %+v", m.cfg.Self, m.Gossip().Snapshot())
		}
		t.Fatalf("membership not all-alive after %d gossip rounds", maxRounds)
	}
	for _, b := range bench.Names() {
		for scale := 1; scale <= 3; scale++ {
			key := RouteKey(b, scale)
			want, ok := managers[0].Ring().Owner(key)
			if !ok {
				t.Fatalf("no owner for %s", key)
			}
			for _, m := range managers[1:] {
				if got, _ := m.Ring().Owner(key); got != want {
					t.Fatalf("owner of %s: %s says %s, %s says %s", key, managers[0].cfg.Self, want, m.cfg.Self, got)
				}
			}
		}
	}
	t.Logf("converged in %d rounds", rounds)
}

// forwardedCall is one request the fuzz peer received.
type forwardedCall struct {
	path, header string
	body         []byte
}

// FuzzRoutedSubmit drives arbitrary bodies through the routed submit
// boundary — Manager.Middleware over the daemon handler — in a two-member
// table whose peer is a stub that records what it is forwarded. The
// invariants: no panic; every answer is 200, 202, 400, 413 or 429; a
// forwarded body is byte-identical to the input, goes to the same path and
// carries the forwarded header; and a request that already carries that
// header is never forwarded again. The oversize flag pads the body past
// the 1 MiB submit bound with trailing whitespace, so oversized requests
// are exercised without megabyte corpus entries (which the fuzzer would
// spend its whole budget minimizing).
func FuzzRoutedSubmit(f *testing.F) {
	var mu sync.Mutex
	var calls []forwardedCall
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		calls = append(calls, forwardedCall{r.URL.Path, r.Header.Get(forwardedHeader), body})
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"job_id":"b-j000001"}`)
	}))
	f.Cleanup(peer.Close)
	s, err := service.New(service.Config{Pipeline: &countingPipeline{}, NodeName: "a"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Drain(2 * time.Second) })
	m, err := joinManager(ManagerConfig{Self: "a", Server: s},
		map[string]string{"a": "http://127.0.0.1:1", "b": peer.URL})
	if err != nil {
		f.Fatal(err)
	}
	h := m.Middleware(s.Handler())
	paths := []string{"/v1/compile", "/v1/simulate", "/v1/sweep"}

	owners := map[string]bool{}
	for _, b := range bench.Names() {
		owner, _ := m.Ring().Owner(RouteKey(b, 1))
		if owners[owner] {
			continue
		}
		owners[owner] = true
		for p := range paths {
			f.Add(uint8(p), false, false, []byte(fmt.Sprintf(`{"benchmark":%q}`, b)))
			f.Add(uint8(p), true, false, []byte(fmt.Sprintf(`{"benchmark":%q,"async":true}`, b)))
		}
		f.Add(uint8(2), false, false, []byte(fmt.Sprintf(`{"benchmark":%q,"sweep":"srb","points":[16,64]}`, b)))
		f.Add(uint8(0), false, false, []byte(fmt.Sprintf(`{"benchmark":%q`, b)))
		f.Add(uint8(1), false, true, []byte(fmt.Sprintf(`{"benchmark":%q}`, b)))
	}
	if len(owners) != 2 {
		f.Fatalf("benchmarks route to %d owners, want both members", len(owners))
	}
	f.Add(uint8(1), false, false, []byte(`{"bench`))
	pad := bytes.Repeat([]byte(" "), 1<<20)

	f.Fuzz(func(t *testing.T, p uint8, marked, oversize bool, body []byte) {
		if oversize {
			body = append(body[:len(body):len(body)], pad...)
		}
		mu.Lock()
		calls = nil
		mu.Unlock()
		path := paths[int(p)%len(paths)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if marked {
			req.Header.Set(forwardedHeader, "fuzz")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("%s %.200q: status %d (%s)", path, body, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		if oversize && !marked && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body answered %d, want 413", path, rec.Code)
		}
		mu.Lock()
		got := calls
		mu.Unlock()
		if marked && len(got) != 0 {
			t.Fatalf("already-forwarded request was forwarded again: %+v", got)
		}
		if len(got) > 1 {
			t.Fatalf("one request forwarded %d times", len(got))
		}
		for _, c := range got {
			if c.path != path || c.header != "a" || !bytes.Equal(c.body, body) {
				t.Fatalf("forwarded %s (header %q, %d bytes), want %s from a with the %d input bytes",
					c.path, c.header, len(c.body), path, len(body))
			}
		}
	})
}
