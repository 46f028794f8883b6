// Command benchreport runs the repository's canonical benchmarks and
// writes a machine-readable JSON report, starting the bench trajectory
// the ROADMAP calls for: every PR can regenerate the same numbers
// and diff them against a committed baseline.
//
// The canonical benches:
//
//	BenchmarkShapleyAllBatch        (repro, the 94-endo-fact mode=all batch + ExoShap variant)
//	BenchmarkPlanApplyDelta         (repro/internal/core, top-level single-fact Apply vs fresh Prepare)
//	BenchmarkPlanApplyDeepDelta     (repro/internal/core, deep-delta spine reuse)
//	BenchmarkPrepareWorkload        (repro/internal/core, fresh Prepare on generator-scaled instances)
//	BenchmarkShapleyAllWorkload     (repro/internal/core, mode=all on generator-scaled instances)
//	BenchmarkServerRepeatedQuery    (repro/internal/server, cold/warm serving paths)
//	BenchmarkClusterSingleFact      (repro/internal/cluster, routed vs direct single-fact throughput)
//
// Usage:
//
//	go run ./cmd/benchreport                      # run, print JSON to stdout
//	go run ./cmd/benchreport -out BENCH.json      # run, write report
//	go run ./cmd/benchreport -baseline old.json -out BENCH_PR5.json
//	                                              # run, embed old.json as "before"
//	go run ./cmd/benchreport -benchtime 20x       # override iteration count
//	go run ./cmd/benchreport -cpu 1,2,4,8         # additionally record scaling curves
//	go run ./cmd/benchreport -baseline BENCH.json -gate 'BenchmarkPrepareWorkload/exoshap=0.85'
//	                                              # exit 1 on a >15% latency regression
//
// With -baseline, the report has the shape {"before": …, "after": …,
// "speedup": {bench: before_ns/after_ns}}; without it, a flat run report.
// Benches measured with -benchmem on both sides additionally get a
// "bench#allocs" speedup key (before_allocs/after_allocs), so allocation
// regressions on the pooled hot paths are visible in the same artifact
// as the latency ones.
// With -cpu, the workload benchmarks (the scaling subset) are re-run once
// per GOMAXPROCS value and the per-cpu results land in "scaling":
// {bench: {"4": {…, "cpus": 4}}}; scaling entries diff against a baseline
// under "speedup" keys of the form "bench@4". Every result records the
// GOMAXPROCS suffix go test printed ("cpus"), so a regression that only
// shows at one parallelism level is visible in the artifact.
// With -gate (requires -baseline), the tool becomes a CI regression
// guard: each comma-separated prefix=min entry asserts that every
// ns-based speedup key starting with the prefix stays at or above min
// (allocation "#…" keys are informational and never gated); a prefix
// that matches no key fails too, so a renamed benchmark cannot silently
// disable its gate.
// The tool shells out to `go test -run ^$ -bench …` (the Go toolchain is
// a build-time dependency of this repository anyway) and parses the
// standard benchmark output lines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// target is one benchmark invocation.
type target struct {
	Pkg   string
	Bench string
}

var targets = []target{
	{Pkg: ".", Bench: "BenchmarkShapleyAllBatch"}, // also matches the ExoShap variant
	{Pkg: "./internal/core/", Bench: "BenchmarkPlanApplyDelta"},
	{Pkg: "./internal/core/", Bench: "BenchmarkPlanApplyDeepDelta"},
	{Pkg: "./internal/core/", Bench: "BenchmarkPrepareWorkload"},
	{Pkg: "./internal/core/", Bench: "BenchmarkShapleyAllWorkload"},
	{Pkg: "./internal/server/", Bench: "BenchmarkServerRepeatedQuery"},
	{Pkg: "./internal/cluster/", Bench: "BenchmarkClusterSingleFact"},
}

// scalingTargets is the -cpu subset: benchmarks whose parallelism follows
// GOMAXPROCS (builder fan-out via WithPrepareParallelism(-1), worker
// pools via Workers: 0), so varying -cpu traces a real scaling curve.
var scalingTargets = []target{
	{Pkg: "./internal/core/", Bench: "BenchmarkPrepareWorkload"},
	{Pkg: "./internal/core/", Bench: "BenchmarkShapleyAllWorkload"},
}

// Result is the parsed measurement of one benchmark (sub)test.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Iterations  int64   `json:"iterations"`
	// Cpus is the GOMAXPROCS the benchmark ran at — the "-N" name suffix
	// go test prints (absent when N was 1, recorded as 1).
	Cpus int `json:"cpus,omitempty"`
}

// Run is one full benchmark sweep.
type Run struct {
	GoVersion string            `json:"go_version"`
	GOOS      string            `json:"goos"`
	GOARCH    string            `json:"goarch"`
	NumCPU    int               `json:"num_cpu"`
	Benchtime string            `json:"benchtime"`
	Date      string            `json:"date,omitempty"`
	Benches   map[string]Result `json:"benches"`
	// Scaling holds the -cpu sweep: bench name -> GOMAXPROCS (as a
	// string, for JSON-map stability) -> measurement at that width.
	Scaling map[string]map[string]Result `json:"scaling,omitempty"`
}

// Report is the committed artifact: a plain run, or a before/after pair.
type Report struct {
	Before  *Run               `json:"before,omitempty"`
	After   *Run               `json:"after,omitempty"`
	Speedup map[string]float64 `json:"speedup,omitempty"`
	*Run    `json:",omitempty"`
}

// benchLine matches e.g.
// "BenchmarkPlanApplyDelta/apply-delta-8  100  133082 ns/op  134105 B/op  666 allocs/op"
// capturing the GOMAXPROCS suffix ("-8") that older revisions discarded.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

// parsedBench is one parsed output line. A -cpu sweep emits the same
// benchmark name several times with different GOMAXPROCS suffixes, so
// lines must stay distinct until the caller decides the map key.
type parsedBench struct {
	Name string
	R    Result
}

// parseBenchLines extracts the benchmark lines from go test -bench output.
func parseBenchLines(out string) []parsedBench {
	var res []parsedBench
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		cpus := 1
		if m[2] != "" {
			cpus, _ = strconv.Atoi(m[2])
		}
		iters, _ := strconv.ParseInt(m[3], 10, 64)
		ns, _ := strconv.ParseFloat(m[4], 64)
		r := Result{NsPerOp: ns, Iterations: iters, Cpus: cpus}
		if m[5] != "" {
			r.BytesPerOp, _ = strconv.ParseFloat(m[5], 64)
		}
		if m[6] != "" {
			r.AllocsPerOp, _ = strconv.ParseFloat(m[6], 64)
		}
		res = append(res, parsedBench{Name: m[1], R: r})
	}
	return res
}

// benchOut runs one go test -bench invocation and returns its output.
func benchOut(tg target, benchtime, cpu string, verbose bool) (string, error) {
	pattern := tg.Bench + "$"
	if tg.Bench == "BenchmarkShapleyAllBatch" {
		// Prefix match on purpose: picks up the ExoShap variant too.
		pattern = tg.Bench
	}
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchtime", benchtime, "-benchmem"}
	if cpu != "" {
		args = append(args, "-cpu", cpu)
	}
	args = append(args, tg.Pkg)
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	if verbose {
		fmt.Fprint(os.Stderr, string(out))
	}
	return string(out), nil
}

func runTargets(benchtime, cpus string, verbose bool) (*Run, error) {
	run := &Run{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Benchtime: benchtime,
		Date:      time.Now().UTC().Format(time.RFC3339),
		Benches:   map[string]Result{},
	}
	for _, tg := range targets {
		out, err := benchOut(tg, benchtime, "", verbose)
		if err != nil {
			return nil, err
		}
		for _, p := range parseBenchLines(out) {
			run.Benches[p.Name] = p.R
		}
	}
	if len(run.Benches) == 0 {
		return nil, fmt.Errorf("no benchmark lines parsed")
	}
	if cpus == "" {
		return run, nil
	}
	run.Scaling = map[string]map[string]Result{}
	for _, tg := range scalingTargets {
		out, err := benchOut(tg, benchtime, cpus, verbose)
		if err != nil {
			return nil, err
		}
		for _, p := range parseBenchLines(out) {
			if run.Scaling[p.Name] == nil {
				run.Scaling[p.Name] = map[string]Result{}
			}
			run.Scaling[p.Name][strconv.Itoa(p.R.Cpus)] = p.R
		}
	}
	return run, nil
}

// speedups diffs the current run against a baseline: canonical benches
// under their names, scaling entries under "name@cpus", and allocation
// ratios under "name#allocs" / "name@cpus#allocs" when both runs carried
// -benchmem counts.
func speedups(before, cur *Run) map[string]float64 {
	out := map[string]float64{}
	diff := func(key string, b, after Result) {
		if after.NsPerOp > 0 {
			out[key] = b.NsPerOp / after.NsPerOp
		}
		if after.AllocsPerOp > 0 && b.AllocsPerOp > 0 {
			out[key+"#allocs"] = b.AllocsPerOp / after.AllocsPerOp
		}
	}
	for name, after := range cur.Benches {
		if b, ok := before.Benches[name]; ok {
			diff(name, b, after)
		}
	}
	for name, curve := range cur.Scaling {
		base, ok := before.Scaling[name]
		if !ok {
			continue
		}
		for cpus, after := range curve {
			if b, ok := base[cpus]; ok {
				diff(name+"@"+cpus, b, after)
			}
		}
	}
	return out
}

// gateEntry is one parsed -gate requirement.
type gateEntry struct {
	Prefix string
	Min    float64
}

// parseGates parses the -gate flag: comma-separated prefix=min entries.
func parseGates(spec string) ([]gateEntry, error) {
	var gates []gateEntry
	for _, part := range strings.Split(spec, ",") {
		prefix, minStr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || prefix == "" {
			return nil, fmt.Errorf("bad -gate entry %q (want prefix=min)", part)
		}
		min, err := strconv.ParseFloat(minStr, 64)
		if err != nil || min <= 0 {
			return nil, fmt.Errorf("bad -gate minimum in %q (want a positive speedup ratio)", part)
		}
		gates = append(gates, gateEntry{Prefix: prefix, Min: min})
	}
	return gates, nil
}

// checkGates returns one violation message per failed gate, in sorted
// key order. Only ns-based keys are gated: allocation "#…" keys stay
// informational.
func checkGates(gates []gateEntry, speedup map[string]float64) []string {
	keys := make([]string, 0, len(speedup))
	for key := range speedup {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var violations []string
	for _, g := range gates {
		matched := false
		for _, key := range keys {
			if strings.Contains(key, "#") || !strings.HasPrefix(key, g.Prefix) {
				continue
			}
			matched = true
			if v := speedup[key]; v < g.Min {
				violations = append(violations,
					fmt.Sprintf("%s: speedup %.3f below gate %.3f (a %.0f%% regression fails)",
						key, v, g.Min, (1-g.Min)*100))
			}
		}
		if !matched {
			violations = append(violations,
				fmt.Sprintf("gate %q matched no benchmark (renamed or missing from the baseline?)", g.Prefix))
		}
	}
	return violations
}

func main() {
	var (
		out       = flag.String("out", "", "write the JSON report here (default: stdout)")
		baseline  = flag.String("baseline", "", "prior report to embed as \"before\" (a flat run or a before/after report, whose \"after\" is used)")
		benchtime = flag.String("benchtime", "10x", "benchtime passed to go test")
		cpu       = flag.String("cpu", "", "comma-separated GOMAXPROCS values (e.g. 1,2,4,8); when set, the workload benchmarks are re-run per value and recorded under \"scaling\"")
		gate      = flag.String("gate", "", "regression gates as prefix=min,…: fail (exit 1) when any ns-based speedup key starting with prefix is below min; requires -baseline")
		verbose   = flag.Bool("v", false, "stream go test output to stderr")
	)
	flag.Parse()

	var gates []gateEntry
	if *gate != "" {
		var err error
		if gates, err = parseGates(*gate); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(2)
		}
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "benchreport: -gate requires -baseline")
			os.Exit(2)
		}
	}

	cur, err := runTargets(*benchtime, *cpu, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}

	var report any = &Report{Run: cur}
	var speedup map[string]float64
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		var prior Report
		if err := json.Unmarshal(raw, &prior); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport: parse baseline:", err)
			os.Exit(1)
		}
		before := prior.Run
		if prior.After != nil {
			before = prior.After
		}
		if before == nil || before.Benches == nil {
			fmt.Fprintln(os.Stderr, "benchreport: baseline has no benches")
			os.Exit(1)
		}
		speedup = speedups(before, cur)
		report = &Report{Before: before, After: cur, Speedup: speedup}
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchreport: wrote %s (%d benches)\n", *out, len(cur.Benches))
	}

	// Gates run after the report is written, so a failing CI job still
	// uploads the artifact that explains the failure.
	if violations := checkGates(gates, speedup); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchreport: gate:", v)
		}
		os.Exit(1)
	}
}
