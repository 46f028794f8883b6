package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// unmatchedRoute is the metrics slot for requests no mux pattern matched.
const unmatchedRoute = "unmatched"

// routeMetrics is the per-route slot of the request instrumentation: one
// atomic counter per HTTP status code, the latency histogram and the
// slow-request counter. Slots exist for every registered route pattern
// (plus unmatchedRoute) and are created once in newMetrics; the map is
// never written afterwards, so the per-request hot path reads an immutable
// map and touches only atomics — no lock, no formatting, no allocation.
type routeMetrics struct {
	statuses [600]atomic.Int64 // indexed by status code; [0] collects out-of-range codes
	dur      *obs.Histogram
	slow     atomic.Int64
}

// metrics holds the server's counters. Everything is monotonically
// increasing except the gauges derived at scrape time.
type metrics struct {
	// routes is immutable after newMetrics (see routeMetrics); routeNames
	// is its sorted key list, the deterministic exposition order.
	routes     map[string]*routeMetrics
	routeNames []string

	reg           *obs.Registry
	slowThreshold time.Duration

	// Engine-phase latency histograms: plan preparation (cold and seeded),
	// PATCH-driven incremental maintenance, and the two compute shapes.
	phasePrepare *obs.Histogram
	phaseApply   *obs.Histogram
	phaseAll     *obs.Histogram
	phaseSingle  *obs.Histogram

	valuesComputed atomic.Int64
	plansPrepared  atomic.Int64
	plansPatched   atomic.Int64

	// Coalesced requests, by mechanism. A worker only ever increments
	// "singleflight" (requests that joined another request's in-flight
	// plan preparation instead of preparing their own); "patch" is the
	// cluster router's PATCH merge and is incremented by its metrics (the
	// router exposes the same family). Both series are emitted on every
	// process, zeros included, so dashboards can sum the family
	// fleet-wide without per-role relabeling.
	coalescedSingleflight atomic.Int64
	coalescedPatch        atomic.Int64

	// DP-tree memo traffic, accumulated over every tree construction
	// (cold preparations, seeded preparations, PATCH maintenance): hits
	// are subtrees reused wholesale from the content-addressed memo,
	// misses are nodes whose input content changed and were rebuilt. A
	// PATCH sweep whose deltas land deep below the top buckets shows up
	// as hits ≫ misses; a full recompute as the reverse.
	treeMemoHits   atomic.Int64
	treeMemoMisses atomic.Int64

	// Product-maintenance route mix across the same constructions: interior
	// nodes whose convolution product was updated by exact division versus
	// rebuilt by the full convolution chain (see core.BuildStats).
	prodMaintained atomic.Int64
	prodRebuilt    atomic.Int64
}

// countTreeBuild folds one tree construction's memo traffic into the
// cumulative counters.
func (m *metrics) countTreeBuild(ts core.TreeStats) {
	m.treeMemoHits.Add(int64(ts.MemoHits))
	m.treeMemoMisses.Add(int64(ts.MemoMisses))
	m.prodMaintained.Add(int64(ts.ProdMaintained))
	m.prodRebuilt.Add(int64(ts.ProdRebuilt))
}

// newMetrics builds the fixed per-route slots for the given route patterns
// (unmatchedRoute is added unconditionally) and the phase histograms.
func newMetrics(routePatterns []string, slowThreshold time.Duration) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		routes:        make(map[string]*routeMetrics, len(routePatterns)+1),
		reg:           reg,
		slowThreshold: slowThreshold,
	}
	names := append([]string(nil), routePatterns...)
	names = append(names, unmatchedRoute)
	sort.Strings(names)
	for _, p := range names {
		m.routes[p] = &routeMetrics{
			dur: reg.Histogram("shapleyd_request_duration_seconds",
				"Wall time of HTTP requests in seconds, by route pattern.",
				obs.Labels("route", p), obs.DefaultDurationBuckets),
		}
	}
	m.routeNames = names
	phase := func(name string) *obs.Histogram {
		return reg.Histogram("shapleyd_phase_duration_seconds",
			"Wall time of engine phases in seconds: plan preparation, incremental PATCH maintenance, and the two compute shapes.",
			obs.Labels("phase", name), obs.DefaultDurationBuckets)
	}
	m.phasePrepare = phase("prepare")
	m.phaseApply = phase("apply")
	m.phaseAll = phase("shapley_all")
	m.phaseSingle = phase("shapley_single")
	return m
}

// countRequest records one served request. It runs on every request with
// tracing on or off, so it must stay allocation-free: an immutable map
// lookup plus three atomic updates.
func (m *metrics) countRequest(route string, status int, dur time.Duration) {
	rm := m.routes[route]
	if rm == nil {
		rm = m.routes[unmatchedRoute]
	}
	if status < 100 || status >= len(rm.statuses) {
		status = 0
	}
	rm.statuses[status].Add(1)
	rm.dur.Observe(dur)
	if m.slowThreshold > 0 && dur >= m.slowThreshold {
		rm.slow.Add(1)
	}
}

// handleMetrics renders the counters in the Prometheus text exposition
// format (hand-rolled: the container has no client library, and counters,
// gauges and fixed-boundary histograms need nothing more). Iteration is
// over the sorted routeNames slice, never the map, so consecutive scrapes
// list identical series in identical order.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintln(w, "# HELP shapleyd_requests_total HTTP requests served, by route pattern and status.")
	fmt.Fprintln(w, "# TYPE shapleyd_requests_total counter")
	for _, route := range s.met.routeNames {
		rm := s.met.routes[route]
		for code := range rm.statuses {
			if n := rm.statuses[code].Load(); n > 0 {
				fmt.Fprintf(w, "shapleyd_requests_total{route=%q,status=%q} %d\n", route, strconv.Itoa(code), n)
			}
		}
	}

	fmt.Fprintln(w, "# HELP shapleyd_slow_requests_total Requests slower than the -slow-query threshold, by route pattern.")
	fmt.Fprintln(w, "# TYPE shapleyd_slow_requests_total counter")
	for _, route := range s.met.routeNames {
		if n := s.met.routes[route].slow.Load(); n > 0 {
			fmt.Fprintf(w, "shapleyd_slow_requests_total{route=%q} %d\n", route, n)
		}
	}

	hits, misses, evictions, entries := s.CacheStats()
	fmt.Fprintln(w, "# HELP shapleyd_plan_cache_hits_total Plan-cache lookups answered from cache.")
	fmt.Fprintln(w, "# TYPE shapleyd_plan_cache_hits_total counter")
	fmt.Fprintf(w, "shapleyd_plan_cache_hits_total %d\n", hits)
	fmt.Fprintln(w, "# HELP shapleyd_plan_cache_misses_total Plan-cache lookups that prepared fresh state.")
	fmt.Fprintln(w, "# TYPE shapleyd_plan_cache_misses_total counter")
	fmt.Fprintf(w, "shapleyd_plan_cache_misses_total %d\n", misses)
	fmt.Fprintln(w, "# HELP shapleyd_plan_cache_partial_hits_total Plan-cache lookups that found a stale entry whose DP-tree nodes seeded the replacement.")
	fmt.Fprintln(w, "# TYPE shapleyd_plan_cache_partial_hits_total counter")
	fmt.Fprintf(w, "shapleyd_plan_cache_partial_hits_total %d\n", s.plans.Partials())
	fmt.Fprintln(w, "# HELP shapleyd_plan_cache_evictions_total Plans displaced by LRU capacity pressure.")
	fmt.Fprintln(w, "# TYPE shapleyd_plan_cache_evictions_total counter")
	fmt.Fprintf(w, "shapleyd_plan_cache_evictions_total %d\n", evictions)
	fmt.Fprintln(w, "# HELP shapleyd_plan_cache_entries Plans currently cached.")
	fmt.Fprintln(w, "# TYPE shapleyd_plan_cache_entries gauge")
	fmt.Fprintf(w, "shapleyd_plan_cache_entries %d\n", entries)

	fmt.Fprintln(w, "# HELP shapleyd_plans_prepared_total Plan preparations (cold paths).")
	fmt.Fprintln(w, "# TYPE shapleyd_plans_prepared_total counter")
	fmt.Fprintf(w, "shapleyd_plans_prepared_total %d\n", s.met.plansPrepared.Load())

	fmt.Fprintln(w, "# HELP shapleyd_plans_patched_total Cached plans delta-maintained in place by PATCH.")
	fmt.Fprintln(w, "# TYPE shapleyd_plans_patched_total counter")
	fmt.Fprintf(w, "shapleyd_plans_patched_total %d\n", s.met.plansPatched.Load())

	fmt.Fprintln(w, "# HELP shapleyd_coalesced_requests_total Requests answered by merging into another request's work instead of doing their own: singleflight joins an in-flight plan preparation; patch is the cluster router's bounded-window merge of PATCH deltas.")
	fmt.Fprintln(w, "# TYPE shapleyd_coalesced_requests_total counter")
	fmt.Fprintf(w, "shapleyd_coalesced_requests_total{kind=\"singleflight\"} %d\n", s.met.coalescedSingleflight.Load())
	fmt.Fprintf(w, "shapleyd_coalesced_requests_total{kind=\"patch\"} %d\n", s.met.coalescedPatch.Load())

	fmt.Fprintln(w, "# HELP shapleyd_tree_memo_hits_total DP-tree subtrees reused from the content-addressed memo across plan builds.")
	fmt.Fprintln(w, "# TYPE shapleyd_tree_memo_hits_total counter")
	fmt.Fprintf(w, "shapleyd_tree_memo_hits_total %d\n", s.met.treeMemoHits.Load())

	fmt.Fprintln(w, "# HELP shapleyd_tree_memo_misses_total DP-tree nodes rebuilt because their input content changed (or was first seen).")
	fmt.Fprintln(w, "# TYPE shapleyd_tree_memo_misses_total counter")
	fmt.Fprintf(w, "shapleyd_tree_memo_misses_total %d\n", s.met.treeMemoMisses.Load())

	fmt.Fprintln(w, "# HELP shapleyd_tree_prod_maintained_total Interior DP-tree nodes whose convolution product was updated by exact division against the previous snapshot.")
	fmt.Fprintln(w, "# TYPE shapleyd_tree_prod_maintained_total counter")
	fmt.Fprintf(w, "shapleyd_tree_prod_maintained_total %d\n", s.met.prodMaintained.Load())

	fmt.Fprintln(w, "# HELP shapleyd_tree_prod_rebuilt_total Interior DP-tree nodes whose convolution product was rebuilt by the full convolution chain.")
	fmt.Fprintln(w, "# TYPE shapleyd_tree_prod_rebuilt_total counter")
	fmt.Fprintf(w, "shapleyd_tree_prod_rebuilt_total %d\n", s.met.prodRebuilt.Load())

	nodes := 0
	var reps struct{ u64, u128, big int }
	for _, key := range s.plans.Keys() {
		if cp, ok := s.plans.Peek(key); ok {
			ts := cp.plan.TreeStats()
			nodes += ts.MemoEntries
			reps.u64 += ts.U64Nodes
			reps.u128 += ts.U128Nodes
			reps.big += ts.BigNodes
		}
	}
	fmt.Fprintln(w, "# HELP shapleyd_tree_memo_nodes Live DP-tree memo entries summed over cached plans (nodes shared between seeded plans count once per plan).")
	fmt.Fprintln(w, "# TYPE shapleyd_tree_memo_nodes gauge")
	fmt.Fprintf(w, "shapleyd_tree_memo_nodes %d\n", nodes)

	fmt.Fprintln(w, "# HELP shapleyd_tree_nodes_by_rep DP-tree nodes of cached plans by numeric-kernel representation of their output vector. Drift from u64 toward big means workloads are outgrowing the fixed-width fast paths.")
	fmt.Fprintln(w, "# TYPE shapleyd_tree_nodes_by_rep gauge")
	fmt.Fprintf(w, "shapleyd_tree_nodes_by_rep{rep=\"u64\"} %d\n", reps.u64)
	fmt.Fprintf(w, "shapleyd_tree_nodes_by_rep{rep=\"u128\"} %d\n", reps.u128)
	fmt.Fprintf(w, "shapleyd_tree_nodes_by_rep{rep=\"big\"} %d\n", reps.big)

	ks := numeric.Stats()
	fmt.Fprintln(w, "# HELP shapleyd_numeric_promotions_total Numeric-kernel operations whose exact result needed a wider representation than every input (process-wide).")
	fmt.Fprintln(w, "# TYPE shapleyd_numeric_promotions_total counter")
	fmt.Fprintf(w, "shapleyd_numeric_promotions_total{to=\"u128\"} %d\n", ks.PromotionsU128)
	fmt.Fprintf(w, "shapleyd_numeric_promotions_total{to=\"big\"} %d\n", ks.PromotionsBig)

	fmt.Fprintln(w, "# HELP shapleyd_values_computed_total Shapley values computed and returned.")
	fmt.Fprintln(w, "# TYPE shapleyd_values_computed_total counter")
	fmt.Fprintf(w, "shapleyd_values_computed_total %d\n", s.met.valuesComputed.Load())

	s.mu.RLock()
	n := len(s.dbs)
	s.mu.RUnlock()
	fmt.Fprintln(w, "# HELP shapleyd_databases_registered Databases currently registered.")
	fmt.Fprintln(w, "# TYPE shapleyd_databases_registered gauge")
	fmt.Fprintf(w, "shapleyd_databases_registered %d\n", n)

	fmt.Fprintln(w, "# HELP shapleyd_uptime_seconds Seconds since the server started.")
	fmt.Fprintln(w, "# TYPE shapleyd_uptime_seconds gauge")
	fmt.Fprintf(w, "shapleyd_uptime_seconds %.3f\n", time.Since(s.start).Seconds())

	// The request- and phase-duration histograms registered in newMetrics.
	s.met.reg.Expose(w)
}
