// Command e2ebench is the end-to-end benchmark of shapleyd. It starts real
// shapleyd processes built from the same checkout, drives them over
// loopback HTTP with seeded traffic, checks every answer, and prints the
// workload's metrics; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Usage (run.sh builds both binaries first):
//
//	e2ebench -shapleyd <binary> --workload hot-read --seed 1 --seconds 12 --trace 0
//
// Workloads: hot-read, evolving, ingest and routed-read (see
// WORKLOADS.md). With --trace 0 it reports the end-to-end metrics,
// measured untraced; with --trace 1 it runs the same seeded traffic with
// ?trace=1, times this repository's layers in process, and reports the
// per-layer metrics instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		opts  options
		trace int
	)
	flag.StringVar(&opts.workload, "workload", "hot-read", "workload: hot-read, evolving, ingest or routed-read")
	flag.Int64Var(&opts.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&opts.seconds, "seconds", 12, "length of the timed phases in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the untraced end-to-end run")
	flag.StringVar(&opts.bin, "shapleyd", "", "path of the shapleyd binary to benchmark")
	flag.StringVar(&opts.outDir, "out", ".bench_build/runs", "directory for server logs and span dumps")
	flag.Parse()
	opts.trace = trace == 1
	if !slices.Contains(workloads, opts.workload) || opts.bin == "" || opts.seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		warnf("%v", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := &run{opts: opts, conns: runtime.GOMAXPROCS(0), path: "/v1/databases/" + dbID + "/shapley"}
	var (
		rep *report
		err error
	)
	if opts.trace {
		rep, err = r.traceRun(ctx)
	} else {
		rep, err = r.measure(ctx)
	}
	if r.cl != nil {
		r.cl.close()
	}
	if r.fleet != nil {
		r.fleet.stop()
	}
	if err != nil {
		warnf("%s: %v", opts.workload, err)
		return 1
	}
	for _, name := range slices.Sorted(maps.Keys(rep.Metrics)) {
		m := rep.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN: a metric the run could not measure fails it.
			warnf("%s could not be measured", name)
			rep.Metrics[name] = metric{0, m.Unit}
			rep.Correct = false
		}
		fmt.Printf("%-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		warnf("%v", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// measure is the untraced run: set up, the open-loop latency phase, the
// closed-loop saturation phase, the correctness checks, and the
// end-to-end metrics.
func (r *run) measure(ctx context.Context) (*report, error) {
	if err := r.prepareInputs(ctx); err != nil {
		return nil, err
	}
	setupS, err := r.setup(ctx, setupRounds)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	before, err := r.scrape(ctx)
	if err != nil {
		return nil, err
	}
	openDur := time.Duration(r.opts.seconds * float64(time.Second) * 2 / 3)
	satDur := time.Duration(r.opts.seconds*float64(time.Second)) - openDur
	open := r.openPhase(ctx, openDur)
	// Peak memory covers set-up and the open-loop phase. The saturation
	// phase is left out: how its concurrent requests overlap is left to
	// chance, which would make the peak a draw. Peak memory and set-up time
	// are reported even when a check below fails, so a start-up or memory
	// regression shows next to the failure.
	rss, err := r.fleet.peakRSSMB()
	if err != nil {
		return nil, err
	}
	sat := r.saturate(ctx, satDur)
	after, err := r.scrape(ctx)
	if err != nil {
		return nil, err
	}
	r.cl.close()
	r.fleet.stop()
	r.fleet = nil

	total := newPhaseResult(3)
	total.merge(open)
	total.merge(sat)
	rep := &report{Metrics: map[string]metric{
		"setup_s":        {setupS, "s"},
		"peak_rss_mb":    {rss, "MB"},
		"throughput_rps": {r.throughput(sat, satDur), "1/s"},
	}}
	r.latencyMetrics(rep, open)

	d := scrapeDelta(before, after)
	if n := r.unexpectedPrepares(d); n > 0 {
		warnf("%d plan preparations during the timed phases", n)
		total.attempted += n
		total.failed += n
	}
	if err := r.verify(ctx, total); err != nil {
		return nil, err
	}
	lagP99 := percentile(millis(open.lag), 99)
	valid := lagP99 <= float64(maxLagP99)/float64(time.Millisecond)
	if !valid {
		warnf("invalid run: the generator itself lagged %.2f ms at p99 (limit %s)", lagP99, maxLagP99)
	}
	rep.Attempted, rep.Failed = total.attempted, total.failed
	rep.Correct = valid && total.failed == 0
	warnf("%s seed %d: %d attempted, %d failed (%d wrong), error rate %.6f, generator lag p99 %.3f ms",
		r.opts.workload, r.opts.seed, total.attempted, total.failed, total.wrong,
		float64(total.failed)/float64(max(total.attempted, 1)), lagP99)
	return rep, nil
}

// latencyMetrics reports the primary and side streams of the open phase.
// The primary stream is the single-fact reads, or on ingest the upload
// cycles; the side stream is the q2 reads on hot-read and routed-read,
// the PATCHes on evolving, and the cold mode=all requests within the
// cycles on ingest. Tails are p90: on a shared 2-CPU host the read p99
// moved by 2x between runs of the same seed, p90 by a few percent. The
// read p99 is still printed on standard error. The side stream's centre
// is its mean, not its median: a PATCH either races a read's
// re-preparation of the plan or does not, and the median of the few
// PATCHes of a run flips between those two modes.
func (r *run) latencyMetrics(rep *report, open *phaseResult) {
	var main, side []float64
	switch r.opts.workload {
	case "ingest":
		main, side = millis(open.lat[0]), millis(r.sideLat[:min(len(r.sideLat), len(open.lat[0]))])
	case "evolving":
		main = append(millis(open.lat[streamQ1]), millis(open.lat[streamQ2])...)
		side = millis(open.lat[streamWrite])
	default:
		main = append(millis(open.lat[streamQ1]), millis(open.lat[streamQ2])...)
		side = millis(open.lat[streamQ2])
	}
	rep.Metrics["p50_ms"] = metric{median(main), "ms"}
	rep.Metrics["tail_ms"] = metric{percentile(main, 90), "ms"}
	rep.Metrics["side_mean_ms"] = metric{mean(side), "ms"}
	rep.Metrics["side_tail_ms"] = metric{percentile(side, 90), "ms"}
	warnf("samples: primary %d (p99 %.3f ms), side %d", len(main), percentile(main, 99), len(side))
}

// throughput is the saturation phase's completed requests per second: a
// trimmed mean over half-second windows for reads, and for ingest, whose cycles
// are too few to window, each client's completed cycles over the time
// its last one finished, summed.
func (r *run) throughput(sat *phaseResult, dur time.Duration) float64 {
	if r.reading() {
		return windowRate(sat, dur, 500*time.Millisecond)
	}
	return sat.throughput
}

// unexpectedPrepares counts plan preparations the timed phases must not
// do: any at all on hot-read and routed-read, and cold ones (cache
// misses) on evolving. A read that races a PATCH sweep may re-prepare
// from the stale plan (a partial hit); that is the server's designed
// path and is reported by the traced run, not counted as a failure.
func (r *run) unexpectedPrepares(d series) int64 {
	switch r.opts.workload {
	case "ingest":
		return 0
	case "evolving":
		return int64(d["shapleyd_plan_cache_misses_total"])
	}
	return int64(d["shapleyd_plans_prepared_total"])
}

// verify runs the checks that happen after timing: the evolving replay
// and the exact re-derivation of sampled ingest cycles. Every value it
// checks counts as attempted, every mismatch as failed and wrong.
func (r *run) verify(ctx context.Context, total *phaseResult) error {
	switch r.opts.workload {
	case "evolving":
		checked, wrong, err := r.replay(ctx)
		if err != nil {
			return err
		}
		total.attempted += checked
		total.failed += wrong
		total.wrong += wrong
	case "ingest":
		for _, k := range slices.Sorted(maps.Keys(r.kept)) {
			total.attempted++
			if err := rederive(ctx, r.uploads[k], r.kept[k]); err != nil {
				warnf("%v", err)
				total.failed++
				total.wrong++
			}
		}
	}
	return nil
}

// traceDump writes the recorded spans to the output directory.
func (r *run) traceDump(v any) error {
	path := filepath.Join(r.opts.outDir, fmt.Sprintf("trace-%s-seed%d.json", r.opts.workload, r.opts.seed))
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
