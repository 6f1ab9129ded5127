package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/spt/client"
)

// buildSptd compiles the daemon binary once per test run.
func buildSptd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sptd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build sptd: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startDaemon launches sptd with the given extra flags and waits for
// /readyz.
func startDaemon(t *testing.T, bin, addr string, extra ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-workers", "1"}, extra...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start sptd: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("sptd did not become ready")
	return nil
}

// TestRestartRecoversDurableJobs is satellite (c): submit async jobs
// against a journaled daemon, SIGKILL it mid-flight, restart it on the
// same journal, and require every job to reach done with results identical
// to a fault-free synchronous run.
func TestRestartRecoversDurableJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: builds and kills a daemon")
	}
	bin := buildSptd(t)
	addr := freeAddr(t)
	journalDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	daemon := startDaemon(t, bin, addr, "-journal-dir", journalDir)
	cl := client.New("http://"+addr, http.DefaultClient)

	// Distinct SRB sizes make each job a distinct simulation — no artifact
	// cache hit can paper over a lost job.
	reqs := []client.SimulateRequest{
		{Benchmark: "parser", SRB: 16, JobRequest: client.JobRequest{Async: true}},
		{Benchmark: "parser", SRB: 32, JobRequest: client.JobRequest{Async: true}},
		{Benchmark: "parser", SRB: 64, JobRequest: client.JobRequest{Async: true}},
		{Benchmark: "parser", SRB: 128, JobRequest: client.JobRequest{Async: true}},
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		sub, err := cl.Simulate(ctx, req)
		if err != nil {
			t.Fatalf("submit job %d: %v", i, err)
		}
		if sub.JobID == "" {
			t.Fatalf("job %d: no id", i)
		}
		ids[i] = sub.JobID
	}

	// Wait until the single worker is actually executing something, then
	// SIGKILL: at least one job dies mid-run, the rest die queued.
	waitUntil(t, ctx, func() bool {
		for _, id := range ids {
			js, err := cl.Job(ctx, id)
			if err == nil && js.State == client.StateRunning {
				return true
			}
		}
		return false
	}, "a job to enter running state")
	if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_, _ = daemon.Process.Wait()

	// Restart on the same journal; every job must converge to done/ok.
	startDaemon(t, bin, addr, "-journal-dir", journalDir)
	results := make([]*client.SimulateResponse, len(ids))
	for i, id := range ids {
		js, err := cl.Wait(ctx, id, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s after restart: %v", id, err)
		}
		if js.Outcome != client.OutcomeOK {
			t.Fatalf("job %s outcome = %s (err %+v), want ok", id, js.Outcome, js.Error)
		}
		var resp client.SimulateResponse
		if err := jsonUnmarshal(js.Result, &resp); err != nil {
			t.Fatalf("decode %s result: %v", id, err)
		}
		results[i] = &resp
	}

	// Correctness: the recovered results are bit-identical to a fault-free
	// synchronous run of the same request (the simulator is deterministic
	// and the restarted daemon is healthy).
	for i, req := range reqs {
		req.Async = false
		fresh, err := cl.Simulate(ctx, req)
		if err != nil {
			t.Fatalf("fresh sync run %d: %v", i, err)
		}
		got, want := results[i], fresh
		if got.Baseline != want.Baseline || got.SPT != want.SPT || got.Speedup != want.Speedup {
			t.Fatalf("job %s diverged from fault-free run:\nrecovered %+v\nfresh     %+v", ids[i], got, want)
		}
	}
}

// TestNodeIDAloneIsASeed: -node-id alone turns on cluster mode — the first
// node of a cluster is a bare seed that others -join — and its
// /v1/cluster view lists itself alive.
func TestNodeIDAloneIsASeed(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: builds and starts a daemon")
	}
	bin := buildSptd(t)
	addr := freeAddr(t)
	startDaemon(t, bin, addr, "-node-id", "n1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	view, err := client.New("http://"+addr, http.DefaultClient).ClusterView(ctx)
	if err != nil {
		t.Fatalf("GET /v1/cluster: %v", err)
	}
	if view.Self != "n1" || len(view.Gossip) != 1 {
		t.Fatalf("cluster view = %+v, want self n1 and one member", view)
	}
	if m := view.Gossip[0]; m.Name != "n1" || m.State != "alive" || m.URL != "http://"+addr {
		t.Fatalf("self row = %+v, want n1 alive at http://%s", m, addr)
	}
}

func waitUntil(t *testing.T, ctx context.Context, cond func() bool, what string) {
	t.Helper()
	for {
		if cond() {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func jsonUnmarshal(data []byte, v any) error {
	if len(data) == 0 {
		return fmt.Errorf("empty result payload")
	}
	return json.Unmarshal(data, v)
}
