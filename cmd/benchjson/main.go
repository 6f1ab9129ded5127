// benchjson converts `go test -bench` output on stdin into a small JSON
// document recording per-benchmark metrics (ns/op, allocs/op, custom
// ReportMetric units) and per-package plus total wall-clock. CI pipes the
// benchmark smoke run through it to emit BENCH_pr<N>.json so the perf
// trajectory of the reproduction is tracked across PRs. Repeated lines of
// one benchmark (go test -count=N) fold into a single row: each metric is
// the median of the samples, with the interquartile range beside it.
//
// Usage: go test -run=NONE -bench=. -benchtime=1x -benchmem ./... | benchjson -o BENCH.json
//
// With -compare it becomes a regression gate instead: it diffs a new
// report (positional JSON file, or bench text on stdin) against an old
// one and exits non-zero when any selected benchmark's median ns/op
// regressed past -threshold percent, printing each row's spread so a
// reader can tell a regression from noise:
//
//	go test -run=NONE -bench='^BenchmarkAblation' -benchtime=1x -count=3 . |
//		benchjson -compare BENCH_pr2.json -match '^BenchmarkAblation'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's result: a parsed line, or the fold of
// several -count samples, whose Metrics are then medians.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	Runs       int                `json:"runs,omitempty"` // samples folded in, when more than one
	IQR        map[string]float64 `json:"iqr,omitempty"`  // per-metric interquartile range across the runs
}

// Report is the emitted document.
type Report struct {
	SuiteSeconds float64            `json:"suite_seconds"`
	Packages     map[string]float64 `json:"package_seconds"`
	Benchmarks   []Benchmark        `json:"benchmarks"`
}

// parseBench parses a `BenchmarkX-8  10  123 ns/op  4 B/op  0 allocs/op`
// line; ok is false for lines that are not benchmark results.
func parseBench(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	// Strip the -GOMAXPROCS suffix so names are stable across machines.
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			// Not every line carries the full value/unit pair list: without
			// -benchmem there is no allocs column, and some harnesses append
			// free-form notes. Keep the metrics parsed so far rather than
			// rejecting the whole line.
			break
		}
		b.Metrics[f[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}

// parseOK parses an `ok  <pkg>  1.234s` package-summary line.
func parseOK(line string) (pkg string, secs float64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 3 || f[0] != "ok" || !strings.HasSuffix(f[2], "s") {
		return "", 0, false
	}
	secs, err := strconv.ParseFloat(strings.TrimSuffix(f[2], "s"), 64)
	if err != nil {
		return "", 0, false
	}
	return f[1], secs, true
}

// readReport parses `go test -bench` text from r into a Report.
func readReport(r io.Reader) (Report, error) {
	rep := Report{Packages: map[string]float64{}, Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseBench(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		} else if pkg, secs, ok := parseOK(line); ok {
			rep.Packages[pkg] = secs
			rep.SuiteSeconds += secs
		}
	}
	rep.Benchmarks = fold(rep.Benchmarks)
	return rep, sc.Err()
}

// fold merges the samples of each benchmark that appears more than once,
// in order of first appearance, into one row of per-metric medians and
// interquartile ranges. Rows that appear once are kept as they are.
func fold(bs []Benchmark) []Benchmark {
	idx := map[string]int{}
	var groups [][]Benchmark
	for _, b := range bs {
		i, ok := idx[b.Name]
		if !ok {
			i = len(groups)
			idx[b.Name] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], b)
	}
	out := make([]Benchmark, 0, len(groups))
	for _, g := range groups {
		if len(g) == 1 {
			out = append(out, g[0])
			continue
		}
		samples := map[string][]float64{}
		for _, b := range g {
			for unit, v := range b.Metrics {
				samples[unit] = append(samples[unit], v)
			}
		}
		b := Benchmark{Name: g[0].Name, Iterations: g[0].Iterations, Runs: len(g),
			Metrics: map[string]float64{}, IQR: map[string]float64{}}
		for unit, vs := range samples {
			sort.Float64s(vs)
			b.Metrics[unit] = quantile(vs, 0.5)
			b.IQR[unit] = quantile(vs, 0.75) - quantile(vs, 0.25)
		}
		out = append(out, b)
	}
	return out
}

// quantile returns the q-quantile of sorted, interpolating linearly
// between the two nearest samples.
func quantile(sorted []float64, q float64) float64 {
	h := q * float64(len(sorted)-1)
	lo := int(h)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// loadReport reads a previously emitted JSON report.
func loadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	rep.Benchmarks = fold(rep.Benchmarks)
	return rep, nil
}

// delta is one compared benchmark: the relative change of the median
// ns/op from old to new, positive when the new run is slower.
type delta struct {
	name     string
	old, new float64 // median ns/op
	spread   float64 // new ns/op interquartile range, percent of its median (0: one sample)
	pct      float64 // 100 * (new-old)/old
}

// compareReports matches benchmarks by name (optionally filtered by re)
// and computes the ns/op delta for every benchmark present in both
// reports. Benchmarks that exist on only one side are skipped: the gate
// judges the common set, and an empty common set is the caller's error.
// unbased names the selected new benchmarks the old report lacks.
func compareReports(oldRep, newRep Report, re *regexp.Regexp) (ds []delta, unbased []string) {
	oldNs := make(map[string]float64, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		if ns, ok := b.Metrics["ns/op"]; ok {
			oldNs[b.Name] = ns
		}
	}
	for _, b := range newRep.Benchmarks {
		if re != nil && !re.MatchString(b.Name) {
			continue
		}
		newNs, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		old, ok := oldNs[b.Name]
		if !ok || old <= 0 {
			unbased = append(unbased, b.Name)
			continue
		}
		d := delta{name: b.Name, old: old, new: newNs, pct: 100 * (newNs - old) / old}
		if newNs > 0 {
			d.spread = 100 * b.IQR["ns/op"] / newNs
		}
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].pct > ds[j].pct })
	return ds, unbased
}

// runCompare diffs the new report (JSON file at newPath, or bench text on
// stdin when empty) against the old JSON report and returns the process
// exit code: 1 when any selected benchmark regressed past threshold
// percent, or when the comparison matched nothing at all.
func runCompare(oldPath, newPath, match string, threshold float64) int {
	var re *regexp.Regexp
	if match != "" {
		var err error
		if re, err = regexp.Compile(match); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -match:", err)
			return 1
		}
	}
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	var newRep Report
	if newPath != "" {
		newRep, err = loadReport(newPath)
	} else {
		newRep, err = readReport(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}

	ds, unbased := compareReports(oldRep, newRep, re)
	for _, name := range unbased {
		fmt.Fprintf(os.Stderr, "benchjson: %s has no baseline in %s; not gated\n", name, oldPath)
	}
	if len(ds) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmarks in common between %s and the new report (match %q) — refusing to pass an empty gate\n", oldPath, match)
		return 1
	}
	failed := 0
	fmt.Printf("%-40s %14s %14s %8s %8s\n", "benchmark", "old ns/op", "new ns/op", "new IQR", "delta")
	for _, d := range ds {
		mark := ""
		if d.pct > threshold {
			mark = "  REGRESSION"
			failed++
		}
		fmt.Printf("%-40s %14.0f %14.0f %7.1f%% %+7.1f%%%s\n", d.name, d.old, d.new, d.spread, d.pct, mark)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d of %d benchmarks regressed more than %g%%\n", failed, len(ds), threshold)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks within %g%% of %s\n", len(ds), threshold, oldPath)
	return 0
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.String("compare", "", "old JSON report to gate against: print median ns/op deltas and spreads, exit 1 past -threshold")
	threshold := flag.Float64("threshold", 25, "compare: maximum tolerated regression of the median ns/op in percent")
	match := flag.String("match", "", "compare: regexp selecting benchmark names to gate (empty = all common)")
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, flag.Arg(0), *match, *threshold))
	}

	rep, err := readReport(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
