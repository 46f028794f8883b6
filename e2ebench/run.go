package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/workload"
)

// Open-loop read rates, fixed from the closed-loop capacity measured with
// two clients on a 2-CPU host (3000 to 4000 reads/s direct, about 600
// through the router, whose 2 ms coalescing window holds each request) at
// a third to a quarter of it: at half capacity the host's own noise
// pushed some runs into a backlog that doubled the tails. WORKLOADS.md
// records them.
var readRates = map[string]float64{"hot-read": 1000, "evolving": 1000, "routed-read": 200}

// writeRate is the PATCH rate on evolving, per second. A PATCH holds the
// reads back while a read that raced its plan sweep re-prepares the plan
// from the stale one; at this rate most reads stay out of that shadow and
// a run still sees a dozen PATCHes.
const writeRate = 1.0

// Run shape.
const (
	setupRounds   = 3                     // set-ups per run; setup_s is their median
	readPool      = 1 << 16               // length of each query's read sequence
	maxLagP99     = 10 * time.Millisecond // a run whose generator lagged more is invalid
	rederiveEvery = 10                    // ingest cycles re-derived exactly after timing: every 10th
	dbID          = "uni"
)

// Streams of the read workloads' schedules.
const (
	streamQ1 = iota
	streamQ2
	streamWrite
)

// workloads lists the benchmark's workloads by name.
var workloads = []string{"hot-read", "evolving", "ingest", "routed-read"}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // the shapleyd binary
	outDir   string // logs and traces
}

// run is the state of one benchmark run.
type run struct {
	opts  options
	conns int

	// Inputs, all made from the seed before anything is timed.
	d       *db.Database // the read workloads' database
	regBody []byte
	reads   [2]readSeq
	want    oracle // hot-read and routed-read
	chain   []patch
	uploads []upload // ingest; the first one warms the server up

	fleet     *fleet
	cl        *client
	path      string // the read path
	openReads int    // reads per query in the open phase

	// Evolving: reads recorded with their version, and which chain entry
	// produced each version.
	mu        sync.Mutex
	seen      []versionedRead
	applied   map[int64]int
	writeMu   sync.Mutex
	nextPatch int
	// plansDropped counts cached plans PATCH sweeps dropped instead of
	// patching; reads then prepare them again.
	plansDropped int

	// Ingest.
	nextUpload atomic.Int64
	sideLat    []time.Duration
	kept       map[int][]valueJSON // values of the cycles re-derived after timing

	// Traced runs collect the span trees the server returns.
	traced bool
	traces []*spanJSON
}

// versionedRead is one evolving read as answered.
type versionedRead struct {
	version int64
	fact    string
	value   string
}

// nthRead maps the j-th read of a mixed sequence to its query and its
// position in that query's sequence: q1 and q2 alternate, except on
// evolving, which reads q1 only. A q2 read that races a PATCH re-prepares
// the ExoShap plan for about 0.4 s and, on two connections, holds every
// read behind it; with the few PATCHes of a run that made evolving's read
// tail swing by 2x between seeds. PATCHes still maintain both plans.
func (r *run) nthRead(j int) (q, i int) {
	if r.opts.workload == "evolving" {
		return 0, j
	}
	return j % 2, j / 2
}

// reading reports whether the workload is one of the single-fact read
// workloads.
func (r *run) reading() bool { return r.opts.workload != "ingest" }

// prepareInputs makes every input of the workload from the seed.
func (r *run) prepareInputs(ctx context.Context) error {
	rng := rand.New(rand.NewSource(r.opts.seed))
	if !r.reading() {
		// Enough fresh databases for faster cycles than observed (about
		// 0.5 s per cycle alone, 0.8 s for two concurrent clients), plus
		// the warm-up upload.
		n := int(r.opts.seconds*2.5) + 6
		r.uploads = newUploads(r.opts.seed, n)
		r.kept = map[int][]valueJSON{}
		r.nextUpload.Store(1)
		return nil
	}
	r.d = workload.University(universityConfig(readDBSeed))
	r.regBody = registerBody(dbID, r.d.String())
	pool := r.d.EndoFacts()
	if r.opts.workload == "evolving" {
		var removed map[string]bool
		r.chain, removed = deltaChain(rng, r.d, 64)
		stable := pool[:0:0]
		for _, f := range pool {
			if !removed[f.Key()] {
				stable = append(stable, f)
			}
		}
		pool = stable
		r.applied = map[int64]int{}
	}
	for q := range r.reads {
		r.reads[q] = newReadSeq(rng, q, pool, readPool)
	}
	if r.opts.workload != "evolving" {
		var err error
		if r.want, err = newOracle(ctx, r.d); err != nil {
			return err
		}
	}
	return nil
}

// startFleet launches the workload's server processes.
func (r *run) startFleet(ctx context.Context) (*fleet, error) {
	if r.opts.workload != "routed-read" {
		p, err := startProc(ctx, r.opts.bin, r.opts.outDir, "shapleyd")
		if err != nil {
			return nil, err
		}
		return &fleet{procs: []*proc{p}, front: p}, nil
	}
	f := &fleet{}
	var list []string
	for _, name := range []string{"w1", "w2"} {
		p, err := startProc(ctx, r.opts.bin, r.opts.outDir, name)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		list = append(list, name+"="+p.url)
	}
	p, err := startProc(ctx, r.opts.bin, r.opts.outDir, "router", "-mode=router", "-shard-workers", strings.Join(list, ","))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.procs = append(f.procs, p)
	f.front = p
	return f, nil
}

// warm registers the workload's database and warms its plans, or, on
// ingest, runs one untimed upload cycle.
func (r *run) warm(ctx context.Context) error {
	if !r.reading() {
		return r.cycle(ctx, 0)
	}
	if _, err := r.cl.expect(ctx, http.MethodPost, "/v1/databases", r.regBody, http.StatusCreated); err != nil {
		return err
	}
	for q := range r.reads {
		if err := r.read(ctx, q, 0); err != nil {
			return fmt.Errorf("warm q%d: %w", q+1, err)
		}
	}
	return nil
}

// setup starts the fleet and warms it, setupRounds times, keeping the
// last fleet running. It returns the median set-up time.
func (r *run) setup(ctx context.Context, rounds int) (float64, error) {
	var times []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		f, err := r.startFleet(ctx)
		if err != nil {
			return 0, err
		}
		r.fleet, r.cl = f, newClient(f.front.url, r.conns)
		if err := r.warm(ctx); err != nil {
			return 0, err // the caller stops r.fleet
		}
		times = append(times, time.Since(t0).Seconds())
		if i < rounds-1 {
			r.cl.close()
			f.stop()
			r.fleet = nil
		}
	}
	return median(times), nil
}

// read sends the i-th read of query q and checks the answer: against the
// oracle on hot-read and routed-read, or, on evolving, records it for the
// replay after timing.
func (r *run) read(ctx context.Context, q, i int) error {
	path := r.path
	if r.traced {
		path += "?trace=1"
	}
	i %= readPool
	resp, err := r.cl.read(ctx, path, r.reads[q].bodies[i])
	if err != nil {
		return err
	}
	fact := r.reads[q].facts[i]
	if resp.Value.Fact != fact {
		return fmt.Errorf("%w: asked for %s, answered %s", errWrong, fact, resp.Value.Fact)
	}
	if r.traced && resp.Trace != nil {
		r.mu.Lock()
		r.traces = append(r.traces, resp.Trace.Root)
		r.mu.Unlock()
	}
	if r.opts.workload == "evolving" {
		r.mu.Lock()
		r.seen = append(r.seen, versionedRead{resp.Version, fact, resp.Value.Shapley})
		r.mu.Unlock()
		return nil
	}
	if want := r.want[q][fact]; resp.Value.Shapley != want || resp.Version != 1 {
		return fmt.Errorf("%w: q%d %s = %s at version %d, want %s at version 1", errWrong, q+1, fact, resp.Value.Shapley, resp.Version, want)
	}
	return nil
}

// write sends the next PATCH of the chain. Writes go out one at a time:
// two PATCH sweeps that overlap may drop each other's plans by design,
// and the chain must apply in a known order. A write that waits for the
// previous one is late, which its latency shows.
func (r *run) write(ctx context.Context) error {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	k := r.nextPatch
	if k >= len(r.chain) {
		return errors.New("delta chain exhausted")
	}
	r.nextPatch++
	path := "/v1/databases/" + dbID
	if r.traced {
		path += "?trace=1"
	}
	out, err := r.cl.expect(ctx, http.MethodPatch, path, r.chain[k].body, http.StatusOK)
	if err != nil {
		return err
	}
	var resp patchResp
	if err := json.Unmarshal(out, &resp); err != nil {
		return fmt.Errorf("decode PATCH response: %w", err)
	}
	r.mu.Lock()
	r.applied[resp.Version] = k
	r.plansDropped += resp.PlansDropped
	r.mu.Unlock()
	return nil
}

// cycle runs one ingest cycle over upload k: register the database,
// stream a cold mode=all of q2, check it and delete the database. It
// records the mode=all latency as the side stream.
func (r *run) cycle(ctx context.Context, k int) error {
	u := r.uploads[k]
	if _, err := r.cl.expect(ctx, http.MethodPost, "/v1/databases", u.body, http.StatusCreated); err != nil {
		return err
	}
	path := "/v1/databases/" + u.id + "/shapley"
	if r.traced {
		path += "?trace=1"
	}
	t0 := time.Now()
	s, err := r.cl.streamAll(ctx, path, allBody)
	side := time.Since(t0)
	if err == nil {
		err = checkStream(u, s)
	}
	if _, derr := r.cl.expect(ctx, http.MethodDelete, "/v1/databases/"+u.id, nil, http.StatusNoContent); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if k > 0 {
		r.sideLat = append(r.sideLat, side)
	}
	if k%rederiveEvery == 1 {
		r.kept[k] = s.values
	}
	if r.traced && s.trace != nil {
		r.traces = append(r.traces, s.trace.Root)
	}
	return nil
}

// checkStream checks a cold mode=all answer: one value per endogenous
// fact, computed cold, summing to q(D) − q(Dx) (the efficiency axiom).
func checkStream(u upload, s *stream) error {
	switch {
	case s.cache != "miss":
		return fmt.Errorf("%w: %s: mode=all answered from cache %q, want a cold miss", errWrong, u.id, s.cache)
	case len(s.values) != u.endo:
		return fmt.Errorf("%w: %s: %d values, want %d", errWrong, u.id, len(s.values), u.endo)
	case s.sum.Cmp(u.total) != 0:
		return fmt.Errorf("%w: %s: values sum to %s, want q(D) − q(Dx) = %s", errWrong, u.id, s.sum.RatString(), u.total.RatString())
	}
	return nil
}

// takeUpload hands out the next ingest database, or -1 when none is left.
func (r *run) takeUpload() int {
	k := int(r.nextUpload.Add(1) - 1)
	if k >= len(r.uploads) {
		return -1
	}
	return k
}

// openPhase runs the workload's latency phase: the open-loop schedule of
// the read workloads, or one closed-loop client on ingest.
func (r *run) openPhase(ctx context.Context, dur time.Duration) *phaseResult {
	if !r.reading() {
		return runClosedLoop(ctx, 1, 1, dur, func(ctx context.Context, _, _ int) (int, error) {
			k := r.takeUpload()
			if k < 0 {
				return 0, errStop
			}
			return 0, r.cycle(ctx, k)
		})
	}
	rate := readRates[r.opts.workload]
	rates := []float64{rate / 2, rate / 2}
	if r.opts.workload == "evolving" {
		rates = []float64{rate, 0, writeRate}
	}
	ops := schedule(dur, rates...)
	for _, o := range ops {
		if o.stream != streamWrite {
			r.openReads = max(r.openReads, o.index+1)
		}
	}
	return runOpenLoop(ctx, ops, r.conns, len(rates), func(ctx context.Context, o op) error {
		if o.stream == streamWrite {
			return r.write(ctx)
		}
		return r.read(ctx, o.stream, o.index)
	})
}

// saturate runs the closed-loop saturation phase with one client per
// connection: the same request mix, each client sending its next request
// as soon as the previous one returns.
func (r *run) saturate(ctx context.Context, dur time.Duration) *phaseResult {
	if !r.reading() {
		return runClosedLoop(ctx, r.conns, 1, dur, func(ctx context.Context, _, _ int) (int, error) {
			k := r.takeUpload()
			if k < 0 {
				return 0, errStop
			}
			return 0, r.cycle(ctx, k)
		})
	}
	writeEvery := int(readRates[r.opts.workload] / writeRate)
	offset := r.openReads // continue each read sequence past the open phase
	return runClosedLoop(ctx, r.conns, 3, dur, func(ctx context.Context, c, k int) (int, error) {
		j := k*r.conns + c
		if r.opts.workload == "evolving" && j%writeEvery == writeEvery-1 {
			return streamWrite, r.write(ctx)
		}
		q, i := r.nthRead(j)
		return q, r.read(ctx, q, offset+i)
	})
}

// scrape reads /metrics of every process of the fleet, keyed by process.
func (r *run) scrape(ctx context.Context) (map[string]series, error) {
	out := map[string]series{}
	for _, p := range r.fleet.procs {
		c := newClient(p.url, 1)
		s, err := c.scrape(ctx)
		c.close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", p.name, err)
		}
		out[p.name] = s
	}
	return out, nil
}

// scrapeDelta sums after − before over every process.
func scrapeDelta(before, after map[string]series) series {
	sum := series{}
	for name, a := range after {
		sum.add(a.delta(before[name]))
	}
	return sum
}

// warnf prints a diagnostic line on standard error.
func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}
