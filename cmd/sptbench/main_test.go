package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// runMainArg, as the first argument of the test binary, makes it run the
// command's main with the remaining arguments instead of the tests.
const runMainArg = "-sptbench.main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		return // main exits on every path
	}
	os.Exit(m.Run())
}

// TestAllGolden runs `sptbench -all` at scale 1 in a subprocess and
// compares its stdout byte for byte with testdata/all_scale1.golden: every
// table, figure and ablation of the evaluation must stay bit-identical
// across refactors of the simulation pipeline.
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	want, err := os.ReadFile("testdata/all_scale1.golden")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], runMainArg, "-all", "-scale", "1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("sptbench -all: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("sptbench -all stdout diverges from testdata/all_scale1.golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
