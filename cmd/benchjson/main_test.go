package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestParseBenchMixedFormats(t *testing.T) {
	cases := []struct {
		name string
		line string
		want Benchmark
		ok   bool
	}{
		{
			name: "full benchmem line",
			line: "BenchmarkSim-8  10  123456 ns/op  512 B/op  7 allocs/op",
			want: Benchmark{Name: "BenchmarkSim", Iterations: 10, Metrics: map[string]float64{
				"ns/op": 123456, "B/op": 512, "allocs/op": 7,
			}},
			ok: true,
		},
		{
			name: "no allocs column",
			line: "BenchmarkCompile-4  200  98765 ns/op",
			want: Benchmark{Name: "BenchmarkCompile", Iterations: 200, Metrics: map[string]float64{
				"ns/op": 98765,
			}},
			ok: true,
		},
		{
			name: "custom ReportMetric units",
			line: "BenchmarkSweep  3  1.5 cycles/instr  2000 ns/op",
			want: Benchmark{Name: "BenchmarkSweep", Iterations: 3, Metrics: map[string]float64{
				"cycles/instr": 1.5, "ns/op": 2000,
			}},
			ok: true,
		},
		{
			name: "trailing free-form note keeps parsed metrics",
			line: "BenchmarkLoad-2  50  42 ns/op  some trailing note",
			want: Benchmark{Name: "BenchmarkLoad", Iterations: 50, Metrics: map[string]float64{
				"ns/op": 42,
			}},
			ok: true,
		},
		{
			name: "no numeric metrics at all",
			line: "BenchmarkBroken-2  50  oops ns/op",
			ok:   false,
		},
		{
			name: "not a benchmark line",
			line: "ok  \trepro/internal/arch\t1.234s",
			ok:   false,
		},
		{
			name: "header line",
			line: "goos: linux",
			ok:   false,
		},
		{
			name: "non-numeric iteration count",
			line: "BenchmarkX-8  fast  1 ns/op",
			ok:   false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseBench(tc.line)
			if ok != tc.ok {
				t.Fatalf("parseBench(%q) ok = %v; want %v", tc.line, ok, tc.ok)
			}
			if ok && !reflect.DeepEqual(got, tc.want) {
				t.Errorf("parseBench(%q) = %+v; want %+v", tc.line, got, tc.want)
			}
		})
	}
}

func report(pairs map[string]float64) Report {
	rep := Report{Packages: map[string]float64{}}
	for name, ns := range pairs {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{
			Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": ns},
		})
	}
	return rep
}

func TestCompareReports(t *testing.T) {
	oldRep := report(map[string]float64{
		"BenchmarkAblationSRB":      100,
		"BenchmarkAblationRecovery": 200,
		"BenchmarkOnlyOld":          50,
	})
	newRep := report(map[string]float64{
		"BenchmarkAblationSRB":      300, // +200%
		"BenchmarkAblationRecovery": 150, // -25%
		"BenchmarkOnlyNew":          10,
	})

	ds, unbased := compareReports(oldRep, newRep, nil)
	if len(ds) != 2 {
		t.Fatalf("compared %d benchmarks; want 2 (the common set)", len(ds))
	}
	if !reflect.DeepEqual(unbased, []string{"BenchmarkOnlyNew"}) {
		t.Errorf("unbased = %v; want [BenchmarkOnlyNew]", unbased)
	}
	// Sorted worst-first.
	if ds[0].name != "BenchmarkAblationSRB" || ds[0].pct != 200 {
		t.Errorf("worst delta = %+v; want BenchmarkAblationSRB +200%%", ds[0])
	}
	if ds[1].name != "BenchmarkAblationRecovery" || ds[1].pct != -25 {
		t.Errorf("second delta = %+v; want BenchmarkAblationRecovery -25%%", ds[1])
	}

	re := regexp.MustCompile("Recovery$")
	if ds, _ := compareReports(oldRep, newRep, re); len(ds) != 1 || ds[0].name != "BenchmarkAblationRecovery" {
		t.Errorf("filtered compare = %+v; want just BenchmarkAblationRecovery", ds)
	}
}

func writeReport(t *testing.T, dir, name string, rep Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCompareGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", report(map[string]float64{
		"BenchmarkA": 100, "BenchmarkB": 100,
	}))
	okPath := writeReport(t, dir, "ok.json", report(map[string]float64{
		"BenchmarkA": 110, "BenchmarkB": 90,
	}))
	badPath := writeReport(t, dir, "bad.json", report(map[string]float64{
		"BenchmarkA": 110, "BenchmarkB": 200,
	}))
	disjointPath := writeReport(t, dir, "disjoint.json", report(map[string]float64{
		"BenchmarkZ": 1,
	}))

	if code := runCompare(oldPath, okPath, "", 25); code != 0 {
		t.Errorf("within-threshold compare exited %d; want 0", code)
	}
	if code := runCompare(oldPath, badPath, "", 25); code != 1 {
		t.Errorf("+100%% regression exited %d; want 1", code)
	}
	// The regressed benchmark filtered out by -match: gate passes.
	if code := runCompare(oldPath, badPath, "^BenchmarkA$", 25); code != 0 {
		t.Errorf("filtered compare exited %d; want 0", code)
	}
	// An empty common set must fail, not silently pass.
	if code := runCompare(oldPath, disjointPath, "", 25); code != 1 {
		t.Errorf("disjoint compare exited %d; want 1", code)
	}
	if code := runCompare(oldPath, okPath, "NoSuchBenchmark", 25); code != 1 {
		t.Errorf("unmatched -match exited %d; want 1", code)
	}
	if code := runCompare(oldPath, okPath, "(", 25); code != 1 {
		t.Errorf("invalid -match regexp exited %d; want 1", code)
	}
	if code := runCompare(filepath.Join(dir, "missing.json"), okPath, "", 25); code != 1 {
		t.Errorf("missing old report exited %d; want 1", code)
	}
}

// TestFoldCountSamples: -count=N lines of one benchmark fold into a row of
// medians and interquartile ranges; single lines pass through unchanged.
func TestFoldCountSamples(t *testing.T) {
	text := `BenchmarkA-2  1  100 ns/op  10 allocs/op
BenchmarkB-2  1  7 ns/op
BenchmarkA-2  1  300 ns/op  10 allocs/op
BenchmarkA-2  1  110 ns/op  10 allocs/op
BenchmarkA-2  1  120 ns/op  10 allocs/op
ok  	repro	1.5s
`
	rep, err := readReport(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Name != "BenchmarkA" || rep.Benchmarks[1].Name != "BenchmarkB" {
		t.Fatalf("benchmarks = %+v; want BenchmarkA then BenchmarkB", rep.Benchmarks)
	}
	a := rep.Benchmarks[0]
	// Sorted ns/op 100 110 120 300: median 115, Q1 107.5, Q3 165.
	if a.Runs != 4 || a.Metrics["ns/op"] != 115 || a.IQR["ns/op"] != 57.5 {
		t.Errorf("BenchmarkA = %+v; want 4 runs, median 115, IQR 57.5", a)
	}
	if a.Metrics["allocs/op"] != 10 || a.IQR["allocs/op"] != 0 {
		t.Errorf("BenchmarkA allocs = %v ± %v; want 10 ± 0", a.Metrics["allocs/op"], a.IQR["allocs/op"])
	}
	if b := rep.Benchmarks[1]; b.Runs != 0 || b.IQR != nil || b.Metrics["ns/op"] != 7 {
		t.Errorf("single-sample BenchmarkB = %+v; want it unchanged", b)
	}

	// The folded row survives the JSON round trip that -o and -compare use.
	path := writeReport(t, t.TempDir(), "rep.json", rep)
	back, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Benchmarks, rep.Benchmarks) {
		t.Errorf("round trip = %+v; want %+v", back.Benchmarks, rep.Benchmarks)
	}
}

// TestCompareGatesMedian: the gate judges the median of -count samples, so
// one slow outlier passes while a regressed median fails at the same
// threshold, and the printed spread comes from the new samples.
func TestCompareGatesMedian(t *testing.T) {
	oldRep := report(map[string]float64{"BenchmarkA": 100})
	samples := func(ns ...float64) Report {
		var bs []Benchmark
		for _, v := range ns {
			bs = append(bs, Benchmark{Name: "BenchmarkA", Iterations: 1, Metrics: map[string]float64{"ns/op": v}})
		}
		return Report{Benchmarks: fold(bs)}
	}
	ds, _ := compareReports(oldRep, samples(105, 400, 110), nil)
	if len(ds) != 1 || ds[0].new != 110 || ds[0].pct != 10 {
		t.Fatalf("outlier compare = %+v; want median 110, +10%%", ds)
	}
	// IQR of 105 110 400 is 255-107.5 = 147.5, i.e. 134% of the median.
	if got := ds[0].spread; got < 134 || got > 134.2 {
		t.Errorf("spread = %v%%; want ~134.1%%", got)
	}

	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", oldRep)
	outlier := writeReport(t, dir, "outlier.json", samples(105, 400, 110))
	regressed := writeReport(t, dir, "regressed.json", samples(130, 140, 90))
	if code := runCompare(oldPath, outlier, "", 25); code != 0 {
		t.Errorf("median +10%% with one outlier exited %d; want 0", code)
	}
	if code := runCompare(oldPath, regressed, "", 25); code != 1 {
		t.Errorf("median +30%% exited %d; want 1", code)
	}
}

func TestParseOK(t *testing.T) {
	pkg, secs, ok := parseOK("ok  \trepro/internal/arch\t1.234s")
	if !ok || pkg != "repro/internal/arch" || secs != 1.234 {
		t.Errorf("parseOK = %q %v %v; want repro/internal/arch 1.234 true", pkg, secs, ok)
	}
	if _, _, ok := parseOK("FAIL\trepro/internal/arch\t0.1s"); ok {
		t.Error("parseOK accepted a FAIL line")
	}
	if _, _, ok := parseOK("ok  \trepro/internal/arch\t(cached)"); ok {
		t.Error("parseOK accepted a cached line without seconds")
	}
}
