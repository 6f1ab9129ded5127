package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/service"
	"repro/spt/client"
)

// runMainArg, as the first argument of the test binary, makes it run the
// command's main with the remaining arguments instead of the tests.
const runMainArg = "-sptsim.main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		return // main exits on every path
	}
	os.Exit(m.Run())
}

// sptsim runs the command in a subprocess and returns its stdout, stderr
// and exit code.
func sptsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runMainArg}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("sptsim %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

var cyclesLine = regexp.MustCompile(`(?m)^\s+(baseline|SPT):\s+(\d+) cycles\s+(\d+) instrs`)

// summaries reads the baseline and SPT cycle and instruction counts from
// sptsim's report.
func summaries(t *testing.T, stdout string) map[string][2]int64 {
	t.Helper()
	got := map[string][2]int64{}
	for _, m := range cyclesLine.FindAllStringSubmatch(stdout, -1) {
		cycles, _ := strconv.ParseInt(m[2], 10, 64)
		instrs, _ := strconv.ParseInt(m[3], 10, 64)
		got[m[1]] = [2]int64{cycles, instrs}
	}
	if len(got) != 2 {
		t.Fatalf("no baseline and SPT lines in sptsim output:\n%s", stdout)
	}
	return got
}

// TestSimulateMatchesDaemon: sptsim builds its machine from the same
// request as the daemon, so both report the same baseline and SPT runs.
func TestSimulateMatchesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	stdout, stderr, code := sptsim(t, "-bench", "parser", "-scale", "1", "-cores", "4",
		"-sched", "stride", "-stride", "2", "-recovery", "squash", "-srb", "64")
	if code != 0 {
		t.Fatalf("sptsim exit %d\nstderr:\n%s", code, stderr)
	}
	got := summaries(t, stdout)

	s := service.MustNew(service.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		_ = s.Drain(5 * time.Second)
		ts.Close()
	}()
	resp, err := client.New(ts.URL, ts.Client()).Simulate(context.Background(), client.SimulateRequest{
		Benchmark: "parser", Scale: 1, Cores: 4, Sched: "stride", Stride: 2, Recovery: "squash", SRB: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]client.SimSummary{"baseline": resp.Baseline, "SPT": resp.SPT} {
		if g := got[name]; g != [2]int64{want.Cycles, want.Instrs} {
			t.Errorf("%s: sptsim %d cycles %d instrs, daemon %d cycles %d instrs",
				name, g[0], g[1], want.Cycles, want.Instrs)
		}
	}
}

// TestZeroFlagIsTheDefault: a zero knob is the Table 1 value, as in a
// request, so -srb 0 runs the machine -srb 1024 spells out.
func TestZeroFlagIsTheDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("real pipeline in -short mode")
	}
	zero, stderr, code := sptsim(t, "-bench", "parser", "-srb", "0")
	if code != 0 {
		t.Fatalf("sptsim -srb 0: exit %d\nstderr:\n%s", code, stderr)
	}
	spelled, _, _ := sptsim(t, "-bench", "parser", "-srb", "1024")
	if zero != spelled {
		t.Errorf("-srb 0 and -srb 1024 differ:\n%s\n---\n%s", zero, spelled)
	}
}

// TestBadKnobExitsTwo: a knob the request vocabulary rejects is a usage
// error, reported before any compilation.
func TestBadKnobExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-recovery", "bogus"},
		{"-srb", "-3"},
		{"-sched", "stride", "-cores", "4", "-stride", "100"},
	} {
		if _, stderr, code := sptsim(t, args...); code != 2 {
			t.Errorf("sptsim %v: exit %d, want 2\nstderr:\n%s", args, code, stderr)
		}
	}
}
