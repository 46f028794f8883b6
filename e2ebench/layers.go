package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/query"
	"repro/internal/server"
)

// In-process sample sizes of the traced run.
const (
	layerReads   = 400 // single-fact requests replayed through the handler
	layerCycles  = 3   // ingest cycles replayed through the handler
	layerReps    = 3   // repetitions of each parse, prepare and mode=all
	layerApplies = 5   // deltas of the apply chain
	hopPairs     = 200 // routed and direct requests of the hop probe
)

// traceRun is the traced run. It sends the same seeded traffic as the
// untraced run, first untraced for a third of the time (the baseline of
// the tracing overhead), then with ?trace=1, and keeps the span trees the
// server returns. It then probes the router hop and, with the servers
// stopped, times the calls into each layer's public functions in process
// over the same inputs. It reports the per-layer metrics.
func (r *run) traceRun(ctx context.Context) (*report, error) {
	if err := r.prepareInputs(ctx); err != nil {
		return nil, err
	}
	if _, err := r.setup(ctx, 1); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s0, err := r.scrape(ctx)
	if err != nil {
		return nil, err
	}
	dur := time.Duration(r.opts.seconds * float64(time.Second))
	base := r.openPhase(ctx, dur/3)
	s1, err := r.scrape(ctx)
	if err != nil {
		return nil, err
	}
	r.traced = true
	traced := r.openPhase(ctx, dur-dur/3)
	r.traced = false
	s2, err := r.scrape(ctx)
	if err != nil {
		return nil, err
	}
	total := newPhaseResult(3)
	total.merge(base)
	total.merge(traced)
	m := map[string]metric{}
	r.liveMetrics(m, base, traced, scrapeDelta(s0, s2))
	if err := r.hopProbe(ctx, m, s1["router"].delta(s0["router"]), s2, base.attempted); err != nil {
		return nil, err
	}
	if n := r.unexpectedPrepares(scrapeDelta(s0, s2)); n > 0 {
		warnf("%d plan preparations during the timed phases", n)
		total.attempted += n
		total.failed += n
	}
	r.cl.close()
	r.fleet.stop()
	r.fleet = nil
	if err := r.verify(ctx, total); err != nil {
		return nil, err
	}

	tr := newTracer()
	for _, root := range r.traces {
		tr.graft(0, tr.request(), root)
	}
	if err := r.inProcess(ctx, tr, m); err != nil {
		return nil, err
	}
	if err := r.traceDump(tr.spans); err != nil {
		return nil, err
	}
	return &report{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: m}, nil
}

// liveMetrics derives the metrics of the live phases: the generator lag,
// the tracing overhead, the self times of the server's own spans, and
// the /metrics counts.
func (r *run) liveMetrics(m map[string]metric, base, traced *phaseResult, d series) {
	primary := func(p *phaseResult) []float64 { return append(millis(p.lat[0]), millis(p.lat[1])...) }
	if !r.reading() {
		primary = func(p *phaseResult) []float64 { return millis(p.lat[0]) }
	}
	m["loadgen.lag_p99_ms"] = metric{percentile(millis(base.lag), 99), "ms"}
	m["trace.overhead_ratio"] = metric{median(primary(traced)) / median(primary(base)), "ratio"}
	m["core.tree.toggle_us"] = metric{median(perCall(r.traces, "tree.toggle", time.Microsecond)), "us"}
	m["core.weight_us"] = metric{median(perCall(r.traces, "weight", time.Microsecond)), "us"}
	m["core.batch.worker_ms"] = metric{median(perCall(r.traces, "batch.worker", time.Millisecond)), "ms"}

	hits, partial, miss := d["shapleyd_plan_cache_hits_total"], d["shapleyd_plan_cache_partial_hits_total"], d["shapleyd_plan_cache_misses_total"]
	m["servercache.hit_ratio"] = metric{hits / max(hits+partial+miss, 1), "ratio"}
	for name, s := range map[string]string{
		"servercache.hits":              "shapleyd_plan_cache_hits_total",
		"servercache.partial_hits":      "shapleyd_plan_cache_partial_hits_total",
		"servercache.misses":            "shapleyd_plan_cache_misses_total",
		"servercache.evictions":         "shapleyd_plan_cache_evictions_total",
		"server.plans_prepared":         "shapleyd_plans_prepared_total",
		"server.plans_patched":          "shapleyd_plans_patched_total",
		"server.coalesced_singleflight": `shapleyd_coalesced_requests_total{kind="singleflight"}`,
		"cluster.coalesced_window":      `shapleyd_coalesced_requests_total{kind="window"}`,
		"cluster.coalesced_patch":       `shapleyd_coalesced_requests_total{kind="patch"}`,
		"core.tree_memo_hits":           "shapleyd_tree_memo_hits_total",
		"core.tree_memo_misses":         "shapleyd_tree_memo_misses_total",
	} {
		m[name] = metric{d[s], "count"}
	}
	m["server.plans_dropped"] = metric{float64(r.plansDropped), "count"}
}

// hopProbe measures the router hop: the median latency of a single-fact
// request sent through `shapleyd -mode=router` minus that of the same
// request sent straight to the worker that serves it, over sequential
// pairs in alternating order. On routed-read it probes the workload's own
// cluster and reports the coalesced share of the untraced phase. The
// other workloads have no router, so a default-flag router is started in
// front of the workload's worker for the probe, over the paper's running
// example registered through it.
func (r *run) hopProbe(ctx context.Context, m map[string]metric, routerBase series, s2 map[string]series, baseReads int64) error {
	var (
		router, direct *proc
		path           = r.path
		bodies         = r.reads[0].bodies
	)
	if r.opts.workload == "routed-read" {
		router = r.fleet.front
		for _, p := range r.fleet.procs[:2] {
			if s2[p.name]["shapleyd_plans_prepared_total"] > 0 {
				direct = p
			}
		}
		if direct == nil {
			return fmt.Errorf("hop probe: no worker prepared the plans")
		}
		m["cluster.coalesced_ratio"] = metric{routerBase[`shapleyd_coalesced_requests_total{kind="window"}`] / float64(max(baseReads, 1)), "ratio"}
	} else {
		direct = r.fleet.front
		p, err := startProc(ctx, r.opts.bin, r.opts.outDir, "hop-router", "-mode=router", "-shard-workers", "w1="+direct.url)
		if err != nil {
			return fmt.Errorf("hop probe: %w", err)
		}
		defer p.stop()
		router = p
		const id = "hop-probe"
		rc := newClient(router.url, 1)
		defer rc.close()
		if _, err := rc.expect(ctx, http.MethodPost, "/v1/databases", registerBody(id, paperex.RunningExample().String()), http.StatusCreated); err != nil {
			return fmt.Errorf("hop probe: %w", err)
		}
		path = "/v1/databases/" + id + "/shapley"
		bodies = nil
		for _, f := range paperex.RunningExample().EndoFacts() {
			bodies = append(bodies, readBody(0, f.Key()))
		}
	}
	rc, dc := newClient(router.url, 1), newClient(direct.url, 1)
	defer rc.close()
	defer dc.close()
	before, err := rc.scrape(ctx)
	if err != nil {
		return err
	}
	var routed, straight []float64
	for i := 0; i < hopPairs; i++ {
		body := bodies[i%len(bodies)]
		var got [2]string
		for j := 0; j < 2; j++ {
			c, lat := rc, &routed
			if (i+j)%2 == 1 {
				c, lat = dc, &straight
			}
			t0 := time.Now()
			resp, err := c.read(ctx, path, body)
			if err != nil {
				return fmt.Errorf("hop probe: %w", err)
			}
			*lat = append(*lat, float64(time.Since(t0))/float64(time.Microsecond))
			got[j] = resp.Value.Shapley
		}
		if got[0] != got[1] {
			return fmt.Errorf("hop probe: routed and direct answers differ: %s and %s", got[0], got[1])
		}
	}
	m["cluster.hop_us"] = metric{median(routed) - median(straight), "us"}
	if r.opts.workload != "routed-read" {
		after, err := rc.scrape(ctx)
		if err != nil {
			return err
		}
		m["cluster.coalesced_ratio"] = metric{after.delta(before)[`shapleyd_coalesced_requests_total{kind="window"}`] / hopPairs, "ratio"}
	}
	return nil
}

// inProcess times calls into the layers' public functions over the
// workload's own inputs, with the benchmark's spans around each call. The
// untraced handler replay runs first, while the in-process server's state
// is the only large heap of the process, so its GC share resembles a
// server's.
func (r *run) inProcess(ctx context.Context, tr *tracer, m map[string]metric) error {
	srv, err := r.serverSetup(m)
	if err != nil {
		return err
	}
	if err := r.untracedReplay(tr, m, srv); err != nil {
		return err
	}
	texts, err := r.texts()
	if err != nil {
		return err
	}
	var (
		parse, hier, exo, extra []float64
		plans                   [2]*core.Plan
		d                       *db.Database
	)
	for _, text := range texts {
		req := tr.request()
		dur := tr.timed("db.parse", 0, req, func() { d, err = db.Parse(text) })
		if err != nil {
			return fmt.Errorf("db.Parse: %w", err)
		}
		parse = append(parse, ms(dur))
		var prep [2]time.Duration
		for q, name := range []string{"core.prepare_hier", "core.prepare_exoshap"} {
			prep[q] = tr.timed(name, 0, req, func() {
				plans[q], err = engineFor(q).Prepare(ctx, d, query.MustParse(queryTexts[q]))
			})
			if err != nil {
				return fmt.Errorf("Engine.Prepare q%d: %w", q+1, err)
			}
		}
		hier, exo = append(hier, ms(prep[0])), append(exo, ms(prep[1]))
		extra = append(extra, ms(prep[1]-prep[0]))
	}
	m["db.parse_ms"] = metric{median(parse), "ms"}
	m["core.prepare_hier_ms"] = metric{median(hier), "ms"}
	m["core.prepare_exoshap_ms"] = metric{median(exo), "ms"}
	m["core.exoshap_extra_ms"] = metric{median(extra), "ms"}
	var nodes, big int
	for q, p := range plans {
		if q == 0 && !r.reading() {
			continue // ingest serves q2 only
		}
		ts := p.TreeStats()
		nodes, big = nodes+ts.Nodes, big+ts.BigNodes
	}
	m["core.tree_nodes"] = metric{float64(nodes), "count"}
	m["core.big_nodes"] = metric{float64(big), "count"}

	if err := r.tracedReplay(ctx, tr, m, srv, plans); err != nil {
		return err
	}

	var all []float64
	for i := 0; i < layerReps; i++ {
		dur := tr.timed("core.shapley_all", 0, tr.request(), func() {
			_, err = plans[1].View().ShapleyAll(ctx, core.BatchOptions{})
		})
		if err != nil {
			return fmt.Errorf("PlanView.ShapleyAll: %w", err)
		}
		all = append(all, ms(dur))
	}
	m["core.shapley_all_ms"] = metric{median(all), "ms"}
	// Spans the server returns only for mode=all fall back to an
	// in-process recording of the same call on workloads that send none.
	if math.IsNaN(m["core.batch.worker_ms"].Value) {
		root, err := recorded(ctx, func(ctx context.Context) error {
			_, err := plans[1].View().ShapleyAll(ctx, core.BatchOptions{})
			return err
		})
		if err != nil {
			return err
		}
		tr.graft(0, tr.request(), root)
		m["core.batch.worker_ms"] = metric{median(perCall([]*spanJSON{root}, "batch.worker", time.Millisecond)), "ms"}
	}
	return r.applyChain(ctx, tr, m, d, plans)
}

// serverSetup builds an in-process server.Server with shapleyd's default
// options in the workload's warm state, and reports the live heap that
// state holds.
func (r *run) serverSetup(m map[string]metric) (*server.Server, error) {
	srv := server.New(server.Options{})
	heap0 := liveHeapMB()
	if r.reading() {
		if err := serveExpect(srv, http.MethodPost, "/v1/databases", r.regBody, http.StatusCreated); err != nil {
			return nil, err
		}
		for q := range r.reads {
			if err := serveExpect(srv, http.MethodPost, r.path, r.reads[q].bodies[0], http.StatusOK); err != nil {
				return nil, err
			}
		}
		m["runtime.heap_live_mb"] = metric{liveHeapMB() - heap0, "MB"}
		return srv, nil
	}
	// The state an ingest server holds between a register and its delete:
	// one database and its cached plan.
	u := r.uploads[1]
	if err := serveExpect(srv, http.MethodPost, "/v1/databases", u.body, http.StatusCreated); err != nil {
		return nil, err
	}
	if err := serveExpect(srv, http.MethodPost, "/v1/databases/"+u.id+"/shapley", allBody, http.StatusOK); err != nil {
		return nil, err
	}
	m["runtime.heap_live_mb"] = metric{liveHeapMB() - heap0, "MB"}
	if err := serveExpect(srv, http.MethodDelete, "/v1/databases/"+u.id, nil, http.StatusNoContent); err != nil {
		return nil, err
	}
	return srv, nil
}

// untracedReplay replays the workload's requests, untraced, through the
// in-process handler: single-fact reads in the workload's order, with a
// PATCH of the chain every readRate/writeRate reads on evolving, or
// upload cycles on ingest. It reports the handler time, and per request
// the numeric promotions and the bytes allocated, and the GC share of the
// CPU the process used. The runtime's CPU counters move only when a GC
// cycle ends, so the replay runs until it has seen two whole cycles after
// the first one, or hits its limits.
func (r *run) untracedReplay(tr *tracer, m map[string]metric, srv *server.Server) error {
	maxOps, limit := 20*layerReads, 6*time.Second
	if !r.reading() {
		maxOps = layerCycles
	}
	writeEvery := int(readRates[r.opts.workload] / writeRate)
	var (
		handler        []float64
		win0, win1     runtimeSample
		ops0, ops1     = -1, -1
		cycles0        = gcCycles()
		start          = time.Now()
		ks0            = numeric.Stats()
		reads, patches int
	)
	for i := 0; i < maxOps && time.Since(start) < limit; i++ {
		req := tr.request()
		if r.opts.workload == "evolving" && i%writeEvery == writeEvery-1 {
			var err error
			tr.timed("server.patch", 0, req, func() {
				err = serveExpect(srv, http.MethodPatch, "/v1/databases/"+dbID, r.chain[patches].body, http.StatusOK)
			})
			if err != nil {
				return err
			}
			patches++
		} else {
			target, body, err := r.replayRequest(srv, reads)
			if err != nil {
				return err
			}
			var herr error
			handler = append(handler, us(tr.timed("server.handler", 0, req, func() {
				herr = serveExpect(srv, http.MethodPost, target, body, http.StatusOK)
			})))
			if herr != nil {
				return herr
			}
			if !r.reading() {
				if err := serveExpect(srv, http.MethodDelete, "/v1/databases/"+r.uploads[1+reads].id, nil, http.StatusNoContent); err != nil {
					return err
				}
			}
			reads++
		}
		switch c := gcCycles(); {
		case ops0 < 0 && c > cycles0:
			win0, ops0, cycles0 = readRuntime(), i+1, c
		case ops0 >= 0 && c >= cycles0+2:
			win1, ops1 = readRuntime(), i+1
			i = maxOps // the window is complete
		}
	}
	ops := reads + patches
	ks1 := numeric.Stats()
	m["server.handler_us"] = metric{median(handler), "us"}
	m["numeric.promotions_big"] = metric{float64(ks1.PromotionsBig-ks0.PromotionsBig) / float64(ops), "count/op"}
	m["numeric.promotions_u128"] = metric{float64(ks1.PromotionsU128-ks0.PromotionsU128) / float64(ops), "count/op"}
	if ops1 < 0 {
		warnf("in-process replay saw fewer than three GC cycle ends in %d requests", ops)
		win1, ops1 = win0, ops0 // NaN below: the run fails as unmeasured
	}
	m["runtime.gc_cpu_fraction"] = metric{(win1.gc - win0.gc) / (win1.busy - win0.busy), "ratio"}
	m["runtime.alloc_kb_per_op"] = metric{(win1.alloc - win0.alloc) / 1024 / float64(ops1-ops0), "kB/op"}
	return nil
}

// tracedReplay replays the workload's requests through the in-process
// handler with ?trace=1, grafts the returned span trees under the
// benchmark's handler spans, and times the steps the handler performs
// outside its own spans: request decode, query parse and response
// encode. Their sum with the server's top-level spans, against the
// handler time, gives the share of the handler no span accounts for.
func (r *run) tracedReplay(ctx context.Context, tr *tracer, m map[string]metric, srv *server.Server, plans [2]*core.Plan) error {
	n := layerReads
	if !r.reading() {
		n = layerCycles
	}
	var decode, parse, encode, single, unattributed []float64
	for i := 0; i < n; i++ {
		req := tr.request()
		target, body, err := r.replayRequest(srv, i)
		if err != nil {
			return err
		}
		hid := tr.begin("server.handler", 0, req)
		rec := serve(srv, http.MethodPost, target+"?trace=1", body)
		hdur := tr.end(hid)
		root, err := responseTrace(rec, r.reading())
		if err != nil {
			return err
		}
		tr.graft(hid, req, root)
		var attributed time.Duration
		for _, c := range root.Children {
			attributed += time.Duration(c.DurationNS)
		}

		var sreq struct {
			Query string   `json:"query"`
			Fact  string   `json:"fact"`
			Mode  string   `json:"mode"`
			Exo   []string `json:"exo"`
		}
		dd := tr.timed("server.decode", hid, req, func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err = dec.Decode(&sreq)
		})
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		pd := tr.timed("query.parse", hid, req, func() { _, err = query.ParseUCQ(sreq.Query) })
		if err != nil {
			return fmt.Errorf("query.ParseUCQ: %w", err)
		}
		decode, parse = append(decode, us(dd)), append(parse, us(pd))
		attributed += dd + pd

		var vals []*core.ShapleyValue
		if r.reading() {
			f, err := db.ParseFact(sreq.Fact)
			if err != nil {
				return err
			}
			var v *core.ShapleyValue
			q, _ := r.nthRead(i)
			single = append(single, us(tr.timed("core.shapley", hid, req, func() { v, err = plans[q].View().Shapley(ctx, f) })))
			if err != nil {
				return fmt.Errorf("PlanView.Shapley: %w", err)
			}
			vals = []*core.ShapleyValue{v}
		} else if vals, err = plans[1].View().ShapleyAll(ctx, core.BatchOptions{}); err != nil {
			return fmt.Errorf("PlanView.ShapleyAll: %w", err)
		}
		ed := tr.timed("server.encode", hid, req, func() { encodeLike(vals, r.reading()) })
		encode = append(encode, us(ed))
		if r.reading() {
			// A streamed answer encodes inside the shapley.all span; a
			// single-fact answer encodes after the span tree closes.
			attributed += ed
		} else if err := serveExpect(srv, http.MethodDelete, "/v1/databases/"+r.uploads[1+i].id, nil, http.StatusNoContent); err != nil {
			return err
		}
		unattributed = append(unattributed, float64(max(hdur-attributed, 0))/float64(hdur))
	}
	m["server.decode_us"] = metric{median(decode), "us"}
	m["query.parse_us"] = metric{median(parse), "us"}
	m["server.encode_us"] = metric{median(encode), "us"}
	m["trace.unattributed_share"] = metric{median(unattributed), "ratio"}
	if !r.reading() {
		// ingest has no single-fact requests: time the call alone.
		facts := plans[1].Facts()
		rng := rand.New(rand.NewSource(r.opts.seed))
		for i := 0; i < layerReads; i++ {
			var err error
			single = append(single, us(tr.timed("core.shapley", 0, tr.request(), func() {
				_, err = plans[1].View().Shapley(ctx, facts[rng.Intn(len(facts))])
			})))
			if err != nil {
				return fmt.Errorf("PlanView.Shapley: %w", err)
			}
		}
	}
	m["core.shapley_us"] = metric{median(single), "us"}
	return nil
}

// replayRequest returns the target and body of the i-th replayed request;
// on ingest it first registers the cycle's database.
func (r *run) replayRequest(srv http.Handler, i int) (string, []byte, error) {
	if r.reading() {
		q, n := r.nthRead(i)
		return r.path, r.reads[q].bodies[n%readPool], nil
	}
	u := r.uploads[1+i]
	if err := serveExpect(srv, http.MethodPost, "/v1/databases", u.body, http.StatusCreated); err != nil {
		return "", nil, err
	}
	return "/v1/databases/" + u.id + "/shapley", allBody, nil
}

// applyChain times (*db.Database).Apply and Plan.Apply of both plans
// along a delta chain: the workload's own chain on evolving, a chain from
// the same generator elsewhere. After each Apply it reads TreeStats for
// the memo and product-maintenance ratios.
func (r *run) applyChain(ctx context.Context, tr *tracer, m map[string]metric, d *db.Database, plans [2]*core.Plan) error {
	chain := r.chain
	if len(chain) < layerApplies {
		chain, _ = deltaChain(rand.New(rand.NewSource(r.opts.seed)), d, layerApplies)
	}
	var dbApply []float64
	var planApply [2][]float64
	var hits, misses, maintained, rebuilt uint64
	for _, p := range chain[:layerApplies] {
		req := tr.request()
		var err error
		var next *db.Database
		dbApply = append(dbApply, ms(tr.timed("db.apply", 0, req, func() { next, err = d.Apply(p.delta) })))
		if err != nil {
			return fmt.Errorf("Database.Apply: %w", err)
		}
		d = next
		for q, name := range []string{"core.apply_hier", "core.apply_exoshap"} {
			planApply[q] = append(planApply[q], ms(tr.timed(name, 0, req, func() { _, err = plans[q].Apply(ctx, p.delta) })))
			if err != nil {
				return fmt.Errorf("Plan.Apply q%d: %w", q+1, err)
			}
			ts := plans[q].TreeStats()
			hits, misses = hits+ts.MemoHits, misses+ts.MemoMisses
			maintained, rebuilt = maintained+ts.ProdMaintained, rebuilt+ts.ProdRebuilt
		}
	}
	m["db.apply_ms"] = metric{median(dbApply), "ms"}
	m["core.apply_hier_ms"] = metric{median(planApply[0]), "ms"}
	m["core.apply_exoshap_ms"] = metric{median(planApply[1]), "ms"}
	m["core.memo_hit_ratio"] = metric{float64(hits) / float64(max(hits+misses, 1)), "ratio"}
	m["core.prod_maintained_ratio"] = metric{float64(maintained) / float64(max(maintained+rebuilt, 1)), "ratio"}
	return nil
}

// texts returns the database texts the in-process probes parse: the
// workload's database on the read workloads, the first timed uploads on
// ingest.
func (r *run) texts() ([]string, error) {
	var out []string
	for i := 0; i < layerReps; i++ {
		body := r.regBody
		if !r.reading() {
			body = r.uploads[1+i].body
		}
		var reg struct {
			Text string `json:"text"`
		}
		if err := json.Unmarshal(body, &reg); err != nil {
			return nil, fmt.Errorf("register body: %w", err)
		}
		out = append(out, reg.Text)
	}
	return out, nil
}

// serve runs one request through the handler in process. A mode=all
// request asks for the NDJSON stream, as the ingest client does.
func serve(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if method == http.MethodPost && bytes.Contains(body, []byte(`"mode"`)) {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// serveExpect runs one request in process and checks its status.
func serveExpect(h http.Handler, method, target string, body []byte, want int) error {
	rec := serve(h, method, target, body)
	if rec.Code != want {
		return fmt.Errorf("in-process %s %s: status %d: %s", method, target, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// responseTrace extracts the span tree of a traced in-process response:
// from the body of a single-fact answer, or from the trailer of a stream.
func responseTrace(rec *httptest.ResponseRecorder, single bool) (*spanJSON, error) {
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process traced request: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	body := rec.Body.Bytes()
	if !single {
		body = bytes.TrimSpace(body)
		body = body[bytes.LastIndexByte(body, '\n')+1:]
	}
	var resp struct {
		Trace *traceJSON `json:"trace"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.Trace == nil || resp.Trace.Root == nil {
		return nil, fmt.Errorf("in-process traced request returned no trace")
	}
	return resp.Trace.Root, nil
}

// encodeLike encodes values the way the handler does: one indented
// response object for a single-fact answer, one NDJSON line per value for
// a stream.
func encodeLike(vals []*core.ShapleyValue, single bool) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if single {
		ev := server.EncodeValue(vals[0])
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Database string            `json:"database"`
			Version  uint64            `json:"version"`
			Query    string            `json:"query"`
			Method   string            `json:"method"`
			Cache    string            `json:"cache"`
			Value    *server.ValueJSON `json:"value"`
		}{dbID, 1, q1Text, ev.Method, "hit", &ev})
		return
	}
	for _, ev := range server.EncodeValues(vals) {
		_ = enc.Encode(ev)
	}
}

// recorded runs fn with an obs recorder in its context and returns the
// recorded span tree.
func recorded(ctx context.Context, fn func(context.Context) error) (*spanJSON, error) {
	rec := obs.NewRecorder(obs.NewTraceID(), "request")
	if err := fn(obs.WithRecorder(ctx, rec)); err != nil {
		return nil, err
	}
	b, err := json.Marshal(rec.Finish().Root)
	if err != nil {
		return nil, err
	}
	var root spanJSON
	if err := json.Unmarshal(b, &root); err != nil {
		return nil, err
	}
	return &root, nil
}

// runtimeSample is a reading of the runtime's CPU and allocation counters.
type runtimeSample struct {
	gc, busy, alloc float64
}

// readRuntime reads the GC CPU time, the CPU time the process used (all
// classes but idle) and the bytes allocated so far.
func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{
		gc:    s[0].Value.Float64(),
		busy:  s[1].Value.Float64() - s[2].Value.Float64(),
		alloc: float64(s[3].Value.Uint64()),
	}
}

// gcCycles reads the number of completed GC cycles.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
