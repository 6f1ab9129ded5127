package service

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/spt/client"
)

func TestReadyStateConditionOrdering(t *testing.T) {
	s, _, _ := startServer(t, Config{Pipeline: &stubPipeline{}})
	if ready, conds := s.ReadyState(); !ready || len(conds) != 0 {
		t.Fatalf("fresh server not ready: ready=%v conds=%v", ready, conds)
	}
	s.SetCondition("zeta", true)
	s.SetCondition(CondStoreDegraded, true)
	s.SetCondition("alpha", true)
	s.SetCondition(CondJournalReplay, true)
	ready, conds := s.ReadyState()
	if ready {
		t.Fatal("ready with four active conditions")
	}
	want := []string{CondJournalReplay, CondStoreDegraded, "alpha", "zeta"}
	if len(conds) != len(want) {
		t.Fatalf("conditions = %v, want %v", conds, want)
	}
	for i := range want {
		if conds[i] != want[i] {
			t.Fatalf("conditions = %v, want %v (dominant-first, rest alphabetical)", conds, want)
		}
	}
	s.BeginDrain()
	if _, conds = s.ReadyState(); len(conds) != 5 || conds[0] != CondDraining {
		t.Fatalf("draining must lead the conditions, got %v", conds)
	}
	// Clearing a condition removes exactly it.
	s.SetCondition(CondStoreDegraded, false)
	if _, conds = s.ReadyState(); len(conds) != 4 || conds[1] != CondJournalReplay {
		t.Fatalf("after clearing store-degraded: %v", conds)
	}
}

func TestLivezReadyzEndpoints(t *testing.T) {
	s, ts, _ := startServer(t, Config{Pipeline: &stubPipeline{}, NodeName: "n1"})
	get := func(path string) (*http.Response, client.Health) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var h client.Health
		_ = json.NewDecoder(resp.Body).Decode(&h)
		return resp, h
	}

	if resp, _ := get("/livez"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/livez = %d, want 200", resp.StatusCode)
	}
	if resp, h := get("/readyz"); resp.StatusCode != http.StatusOK || !h.Ready {
		t.Fatalf("/readyz on a healthy node = %d ready=%v", resp.StatusCode, h.Ready)
	}

	s.SetCondition(CondStoreDegraded, true)
	resp, h := get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while store-degraded = %d, want 503", resp.StatusCode)
	}
	if h.Ready || h.Status != CondStoreDegraded || len(h.Conditions) != 1 || h.Conditions[0] != CondStoreDegraded {
		t.Fatalf("/readyz body = %+v, want store-degraded condition", h)
	}
	if h.Node != "n1" {
		t.Fatalf("/readyz node = %q, want n1", h.Node)
	}
	// Liveness stays 200: a degraded node must not be restarted, only
	// drained of new work.
	if resp, _ := get("/livez"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/livez while degraded = %d, want 200", resp.StatusCode)
	}

	s.SetCondition(CondStoreDegraded, false)
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d, want 200", resp.StatusCode)
	}
}

func TestJournalAutoCompactKeepsFileBounded(t *testing.T) {
	dir := t.TempDir()
	jn := openTestJournal(t, dir)
	jn.SetAutoCompact(8)
	req, _ := json.Marshal(client.SimulateRequest{Benchmark: "parser"})
	if err := jn.Append(journalRecord{Type: recSubmit, ID: "j000001", Kind: KindSimulate, Req: req}); err != nil {
		t.Fatalf("Append submit: %v", err)
	}
	// A long retry storm: without compaction the file would grow one line
	// per transition; auto-compaction folds it back to submit + last state.
	for i := 1; i <= 100; i++ {
		state := client.StateRunning
		if i%2 == 0 {
			state = client.StateRetryable
		}
		if err := jn.Append(journalRecord{Type: recState, ID: "j000001", State: state, Attempts: i}); err != nil {
			t.Fatalf("Append state %d: %v", i, err)
		}
	}
	if c := jn.Compactions(); c < 10 {
		t.Fatalf("Compactions = %d, want >= 10 after 101 appends at every-8", c)
	}
	if sz := jn.SizeBytes(); sz > 2048 {
		t.Fatalf("SizeBytes = %d after compactions, want a bounded file", sz)
	}
	jobs, err := FoldJournalFile(jn.Path())
	if err != nil {
		t.Fatalf("FoldJournalFile: %v", err)
	}
	if len(jobs) != 1 || jobs[0].Submit.ID != "j000001" {
		t.Fatalf("compacted journal folds to %+v, want the single live job", jobs)
	}
	if jobs[0].Attempts != 100 {
		t.Fatalf("compaction lost the attempt count: %d, want 100", jobs[0].Attempts)
	}
}

func TestAdoptIsIdempotentAndDurable(t *testing.T) {
	req, _ := json.Marshal(client.SimulateRequest{Benchmark: "parser"})
	result := json.RawMessage(`{"benchmark":"parser","speedup":1.5}`)
	stolen := []ReplayedJob{
		{
			Submit: journalRecord{Type: recSubmit, ID: "a-j000001", Kind: KindSimulate, Req: req},
			State:  client.StateDone, Outcome: client.OutcomeOK, Attempts: 1, Result: result,
		},
		{
			Submit: journalRecord{Type: recSubmit, ID: "a-j000002", Kind: KindSimulate, Req: req},
			State:  client.StateRunning, Attempts: 1,
		},
	}

	jn := openTestJournal(t, t.TempDir())
	s, _, c := startServer(t, Config{Pipeline: &stubPipeline{}, Journal: jn, NodeName: "b"})
	pending, done := s.Adopt(stolen, "a")
	if pending != 1 || done != 1 {
		t.Fatalf("Adopt = (%d pending, %d done), want (1, 1)", pending, done)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The finished job is pollable here with the journaled result bytes.
	js, err := c.Job(ctx, "a-j000001")
	if err != nil {
		t.Fatalf("Job(adopted done): %v", err)
	}
	if js.State != client.StateDone || js.Outcome != client.OutcomeOK {
		t.Fatalf("adopted done job = %+v", js)
	}
	// The transport may re-indent the JSON; the value must survive exactly.
	var want, got map[string]any
	if err := json.Unmarshal(result, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(js.Result, &got); err != nil {
		t.Fatalf("adopted result is not JSON: %v", err)
	}
	if got["benchmark"] != want["benchmark"] || got["speedup"] != want["speedup"] {
		t.Fatalf("adopted result = %v, want %v", got, want)
	}
	// The interrupted job runs to completion on the adopter.
	js, err = c.Wait(ctx, "a-j000002", 5*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait(adopted pending): %v", err)
	}
	if js.State != client.StateDone || js.Outcome != client.OutcomeOK {
		t.Fatalf("adopted pending job settled as %+v", js)
	}

	// Re-delivery (a second steal of the same records) adopts nothing.
	if p, d := s.Adopt(stolen, "a"); p != 0 || d != 0 {
		t.Fatalf("second Adopt = (%d, %d), want (0, 0)", p, d)
	}

	// The adoption is crash-durable: the adopter's own journal folds to
	// both jobs, so a crash here loses nothing.
	folded, err := FoldJournalFile(jn.Path())
	if err != nil {
		t.Fatalf("FoldJournalFile: %v", err)
	}
	byID := map[string]ReplayedJob{}
	for _, rj := range folded {
		byID[rj.Submit.ID] = rj
	}
	if rj, ok := byID["a-j000001"]; !ok || rj.State != client.StateDone {
		t.Fatalf("adopter journal missing done job: %+v", byID)
	}
	if _, ok := byID["a-j000002"]; !ok {
		t.Fatalf("adopter journal missing pending job: %+v", byID)
	}
}
