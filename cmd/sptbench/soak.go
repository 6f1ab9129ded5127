package main

// The chaos-soak mode is the fault-injection endurance run of the serving
// stack: it starts sptd itself (journaled, with the seeded chaos plan),
// drives async jobs through the resilient client, SIGKILLs and restarts
// the daemon mid-run, and requires every accepted job to converge to a
// result bit-identical to the fault-free local pipeline. A fault-free
// phase runs first so the printed benchmark lines compare soak throughput
// and p99 latency with and without chaos.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/spt/client"
)

// soakSRB gives every job a distinct SRB size, so every job is a distinct
// simulation: no artifact-cache hit can paper over a lost or corrupted
// job, and the worker queue stays busy long enough for the mid-run
// SIGKILL to land while work is still journaled as pending.
func soakSRB(i int) int { return 16 + 8*i }

// soakDaemon manages one sptd process across kills and restarts.
type soakDaemon struct {
	bin, addr, journalDir string
	chaosSeed             int64
	cmd                   *exec.Cmd
}

func (d *soakDaemon) args() []string {
	a := []string{
		"-addr", d.addr,
		"-journal-dir", d.journalDir,
		"-workers", "2",
		"-max-attempts", "8",
		"-drain-timeout", "30s",
	}
	if d.chaosSeed != 0 {
		a = append(a, "-chaos-seed", strconv.FormatInt(d.chaosSeed, 10))
	}
	return a
}

func (d *soakDaemon) start(ctx context.Context) error {
	cmd := exec.Command(d.bin, d.args()...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start sptd: %w", err)
	}
	d.cmd = cmd
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		resp, err := http.Get("http://" + d.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("sptd on %s did not become ready", d.addr)
}

// kill SIGKILLs the daemon — the crash the journal exists for.
func (d *soakDaemon) kill() {
	if d.cmd != nil && d.cmd.Process != nil {
		_ = d.cmd.Process.Signal(syscall.SIGKILL)
		_, _ = d.cmd.Process.Wait()
	}
}

// stop SIGTERMs the daemon for a graceful drain at phase end.
func (d *soakDaemon) stop() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _, _ = d.cmd.Process.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(45 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

func soakFreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// soakExpectation computes the fault-free local pipeline result for req,
// derived through the same config translation the daemon uses.
func soakExpectation(req client.SimulateRequest) (*client.SimulateResponse, error) {
	cfg, err := service.ConfigFromRequest(req)
	if err != nil {
		return nil, err
	}
	scale := service.ScaleOf(req.Scale)
	run, err := harness.RunBenchmarkCached(req.Benchmark, scale, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &client.SimulateResponse{
		Benchmark: req.Benchmark,
		Scale:     scale,
		Baseline:  service.Summarize(run.Baseline),
		SPT:       service.Summarize(run.SPT),
		Speedup:   run.Speedup(),
	}, nil
}

// phaseResult aggregates one soak phase.
type phaseResult struct {
	latencies []time.Duration
	wall      time.Duration
	stats     client.ResilientStats
	metrics   string
}

func (p *phaseResult) p99() time.Duration {
	if len(p.latencies) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), p.latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := (99*len(s) + 99) / 100
	if i > len(s) {
		i = len(s)
	}
	return s[i-1]
}

func (p *phaseResult) meanNS() int64 {
	if len(p.latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range p.latencies {
		sum += l
	}
	return int64(sum) / int64(len(p.latencies))
}

func (p *phaseResult) jobsPerSec() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(len(p.latencies)) / p.wall.Seconds()
}

// waitConverged rides out daemon downtime: Resilient.Wait gives up once a
// poll exhausts its retries, so the soak re-enters it until the job lands
// or the phase deadline passes. The failing polls underneath are what trip
// (and, after the restart, recover) the circuit breaker.
func waitConverged(ctx context.Context, r *client.Resilient, id string) (*client.JobStatus, error) {
	for {
		js, err := r.Wait(ctx, id, 40*time.Millisecond)
		if err == nil {
			return js, nil
		}
		if ctx.Err() != nil {
			return js, fmt.Errorf("job %s did not converge: %w", id, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runSoakPhase submits `requests` async jobs, optionally SIGKILLing and
// restarting the daemon once a few have finished, waits for every job to
// converge, and verifies each result bit-identical to its expectation.
func runSoakPhase(ctx context.Context, d *soakDaemon, reqs []client.SimulateRequest, want []*client.SimulateResponse, killMidRun bool) (*phaseResult, error) {
	if err := d.start(ctx); err != nil {
		return nil, err
	}
	defer d.stop()

	r := client.NewResilient(client.New("http://"+d.addr, nil), client.ResilientConfig{
		MaxAttempts: 6,
		HedgeAfter:  150 * time.Millisecond,
		Seed:        1,
	})

	begin := time.Now()
	ids := make([]string, len(reqs))
	submitted := make([]time.Time, len(reqs))
	for i, req := range reqs {
		sub, err := r.Simulate(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("submit job %d: %w", i, err)
		}
		if sub.JobID == "" {
			return nil, fmt.Errorf("submit job %d: no id", i)
		}
		ids[i] = sub.JobID
		submitted[i] = time.Now()
	}

	res := &phaseResult{latencies: make([]time.Duration, len(reqs))}
	finished := make([]*client.JobStatus, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			js, err := waitConverged(ctx, r, ids[i])
			finished[i], errs[i] = js, err
			res.latencies[i] = time.Since(submitted[i])
		}(i)
	}

	if killMidRun {
		// Let a few jobs finish (their journaled results must survive the
		// crash), then SIGKILL while the rest are queued or running. The
		// downtime window is long enough for poll failures to trip the
		// circuit breaker before the restart recovers it.
		waitDeadline := time.Now().Add(2 * time.Minute)
		for countDone(finished) < 2 && time.Now().Before(waitDeadline) {
			time.Sleep(2 * time.Millisecond)
		}
		fmt.Fprintf(os.Stderr, "chaos-soak: SIGKILL after %d jobs done\n", countDone(finished))
		d.kill()
		time.Sleep(1500 * time.Millisecond)
		if err := d.start(ctx); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
	}
	wg.Wait()
	res.wall = time.Since(begin)

	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		js := finished[i]
		if js.Outcome != client.OutcomeOK {
			return nil, fmt.Errorf("job %s outcome %q (err %+v)", ids[i], js.Outcome, js.Error)
		}
		var got client.SimulateResponse
		if err := js.DecodeResult(&got); err != nil {
			return nil, fmt.Errorf("decode job %s result: %w", ids[i], err)
		}
		if !sameSim(&got, want[i]) {
			return nil, fmt.Errorf("job %s (srb=%d) diverged from fault-free pipeline:\n  got  %+v\n  want %+v",
				ids[i], reqs[i].SRB, got, want[i])
		}
	}

	m, err := r.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("final metrics scrape: %w", err)
	}
	res.metrics = m
	res.stats = r.Stats()
	return res, nil
}

func countDone(js []*client.JobStatus) int {
	n := 0
	for _, j := range js {
		if j != nil {
			n++
		}
	}
	return n
}

// metricTotal sums every sample of a (possibly labeled) metric family.
func metricTotal(metrics, family string) float64 {
	var sum float64
	for _, line := range strings.Split(metrics, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, family) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue // longer family name sharing the prefix
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// runChaosSoak is the -chaos-soak entry point; it returns the process exit
// code.
func runChaosSoak(bin, benchName string, scale, requests int, seed int64, workDir string) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "sptbench: chaos-soak: "+format+"\n", args...)
		return 1
	}
	if bin == "" {
		return fail("-sptd-bin is required")
	}
	if workDir == "" {
		dir, err := os.MkdirTemp("", "chaos-soak-")
		if err != nil {
			return fail("temp dir: %v", err)
		}
		workDir = dir
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fail("work dir: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()

	// Request mix: `requests` async jobs, every one a distinct simulate
	// point; expectations computed locally up front, concurrently.
	reqs := make([]client.SimulateRequest, requests)
	want := make([]*client.SimulateResponse, requests)
	expErrs := make([]error, requests)
	fmt.Fprintf(os.Stderr, "chaos-soak: computing %d fault-free expectations locally...\n", requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		reqs[i] = client.SimulateRequest{
			Benchmark:  benchName,
			Scale:      scale,
			SRB:        soakSRB(i),
			JobRequest: client.JobRequest{Async: true},
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want[i], expErrs[i] = soakExpectation(reqs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range expErrs {
		if err != nil {
			return fail("local expectation (srb=%d): %v", reqs[i].SRB, err)
		}
	}

	runPhase := func(name string, chaosSeed int64, kill bool) (*phaseResult, int) {
		addr, err := soakFreeAddr()
		if err != nil {
			return nil, fail("listen: %v", err)
		}
		d := &soakDaemon{
			bin: bin, addr: addr,
			journalDir: filepath.Join(workDir, name),
			chaosSeed:  chaosSeed,
		}
		fmt.Fprintf(os.Stderr, "chaos-soak: phase %s: %d jobs against %s\n", name, requests, addr)
		res, err := runSoakPhase(ctx, d, reqs, want, kill)
		if err != nil {
			return nil, fail("phase %s: %v", name, err)
		}
		snap := filepath.Join(workDir, name+"-metrics.txt")
		if werr := os.WriteFile(snap, []byte(res.metrics), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "chaos-soak: write %s: %v\n", snap, werr)
		}
		return res, 0
	}

	faultfree, code := runPhase("faultfree", 0, false)
	if code != 0 {
		return code
	}
	chaos, code := runPhase("chaos", seed, true)
	if code != 0 {
		return code
	}

	// The run only counts if the resilience machinery demonstrably engaged:
	// faults fired, the journal replayed interrupted work, and the circuit
	// breaker opened during the outage and recovered after the restart.
	if n := metricTotal(chaos.metrics, "chaos_faults_injected_total"); n <= 0 {
		return fail("no chaos faults injected (plan seed %d)", seed)
	}
	if n := metricTotal(chaos.metrics, "sptd_journal_replayed_total"); n <= 0 {
		return fail("daemon restart replayed no journaled jobs")
	}
	if chaos.stats.Retries <= 0 {
		return fail("resilient client never retried under chaos")
	}
	if chaos.stats.BreakerOpens < 1 || chaos.stats.BreakerRecoveries < 1 {
		return fail("circuit breaker did not open and recover (opens=%d recoveries=%d)",
			chaos.stats.BreakerOpens, chaos.stats.BreakerRecoveries)
	}

	fmt.Fprintf(os.Stderr, "chaos-soak: faultfree %s wall, chaos %s wall; chaos client: %d retries, %d hedges, breaker opens=%d recoveries=%d; journal replayed %g, faults %g\n",
		faultfree.wall.Round(time.Millisecond), chaos.wall.Round(time.Millisecond),
		chaos.stats.Retries, chaos.stats.Hedges, chaos.stats.BreakerOpens, chaos.stats.BreakerRecoveries,
		metricTotal(chaos.metrics, "sptd_journal_replayed_total"),
		metricTotal(chaos.metrics, "chaos_faults_injected_total"))

	// Benchmark-format lines for cmd/benchjson (BENCH_pr4.json).
	fmt.Printf("BenchmarkChaosSoak/faultfree %d %d ns/op %.1f p99-ms %.3f jobs/s\n",
		len(faultfree.latencies), faultfree.meanNS(),
		float64(faultfree.p99().Microseconds())/1000, faultfree.jobsPerSec())
	fmt.Printf("BenchmarkChaosSoak/chaos %d %d ns/op %.1f p99-ms %.3f jobs/s\n",
		len(chaos.latencies), chaos.meanNS(),
		float64(chaos.p99().Microseconds())/1000, chaos.jobsPerSec())
	fmt.Println("chaos-soak: PASS (every accepted job converged bit-identical under faults, crash and restart)")
	return 0
}
