// Package server implements the Shapley attribution server: an HTTP/JSON
// serving layer over the exact and approximate algorithms of the
// reproduction, designed around the observation that for the paper's
// tractable cases (hierarchical CQ¬ via Lemma 3.2 CntSat, ExoShap per
// Theorem 4.3, relation-disjoint UCQ¬s) the per-request cost is dominated
// by fact-independent setup — validation, classification, the ExoShap
// transformation and the shared CntSat dynamic-programming tables. A
// long-lived server amortizes that setup across requests with a
// cross-query LRU plan cache of core.Plan handles keyed by (database id,
// canonicalized query, exogenous declarations, brute-force flag): warm
// requests go straight to the per-fact toggles of a cached plan.
//
// Registered databases are mutable and versioned: PATCH applies a fact
// delta, bumps a monotone version and patches every cached plan of the
// database in place (core.Plan.Apply recomputes only the DP buckets the
// delta touches) instead of evicting them. Cache entries remember the
// database version they answer for and revalidate with one integer
// comparison; concurrent identical cold requests coalesce through a
// single-flight group so N misses cost one preparation.
//
// mode=all responses stream as chunked NDJSON when the request carries
// "Accept: application/x-ndjson": a header line, one line per fact in
// deterministic order as values complete, and a {"done":true} trailer.
// Request contexts thread through the whole compute stack, so a client
// disconnect (or the daemon's forced drain) aborts in-flight batches.
//
// API (all request/response bodies are JSON):
//
//	POST   /v1/databases                  register a database (textual format)
//	GET    /v1/databases                  list registered databases
//	GET    /v1/databases/{id}             inspect one database
//	PATCH  /v1/databases/{id}             apply a fact delta (add/remove facts)
//	DELETE /v1/databases/{id}             deregister (drops its cached plans)
//	POST   /v1/databases/{id}/shapley     exact Shapley: one fact, a fact batch, or mode=all
//	POST   /v1/databases/{id}/classify    dichotomy classification (Thms 3.1/4.3)
//	POST   /v1/databases/{id}/relevance   relevance decision (Def. 5.2)
//	POST   /v1/databases/{id}/approx      Monte-Carlo (ε, δ) estimate (§5.1)
//	GET    /v1/databases/{id}/snapshot    export database + cached plan keys (cluster warm-up)
//	PUT    /v1/databases/{id}/snapshot    import a snapshot (replaces the registration)
//	GET    /healthz                       liveness
//	GET    /readyz                        readiness (503 while draining)
//	GET    /metrics                       Prometheus-format counters
//
// Queries on the FP#P-hard side of the dichotomies map to 422 (unless the
// request sets brute_force), unknown databases and non-endogenous facts to
// 404, and malformed inputs to 400.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relevance"
	"repro/internal/servercache"
)

// Options configures a Server.
type Options struct {
	// Workers is the default worker-pool size for mode=all requests that do
	// not set their own (zero means runtime.GOMAXPROCS(0)).
	Workers int
	// PrepareParallelism is the DP-tree builder concurrency for plan
	// preparation and PATCH spine rebuilds (core.WithPrepareParallelism):
	// zero or one builds sequentially, negative means GOMAXPROCS.
	PrepareParallelism int
	// PrepareSpawnCost is the cost threshold below which the parallel
	// builder keeps a subtree inline instead of spawning it
	// (core.WithSpawnCost); zero keeps the calibrated default.
	PrepareSpawnCost int
	// CacheSize is the plan-cache capacity in entries; zero means
	// DefaultCacheSize.
	CacheSize int
	// MaxBodyBytes bounds request bodies; zero means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Logger, when non-nil, receives structured access logs (one record per
	// request at debug level, with trace id, route, status and duration),
	// slow-request warnings and lifecycle events. Nil disables logging.
	Logger *slog.Logger
	// SlowRequestThreshold marks requests at least this slow in the
	// shapleyd_slow_requests_total counter and logs them at warn level.
	// Zero means DefaultSlowRequestThreshold; negative disables.
	SlowRequestThreshold time.Duration
}

// DefaultCacheSize is the plan-cache capacity when Options.CacheSize is 0.
const DefaultCacheSize = 128

// DefaultMaxBodyBytes is the request-body bound when Options.MaxBodyBytes
// is 0 (databases register as text, so bodies can be sizable). The
// cluster router holds every request to the same bound.
const DefaultMaxBodyBytes = cluster.MaxBodyBytes

// DefaultSlowRequestThreshold is the slow-request mark when
// Options.SlowRequestThreshold is 0.
const DefaultSlowRequestThreshold = time.Second

// Server is the HTTP handler. Create with New; the zero value is unusable.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	start time.Time

	mu   sync.RWMutex
	dbs  map[string]*registeredDB
	seq  int
	gens uint64 // registration generation counter (see registeredDB.gen)

	// patchMu serializes plan-maintenance sweeps (PATCH) with each other.
	// It is deliberately separate from mu: the sweep runs Plan.Apply (real
	// DP work) and must not block readers, which only need mu's RLock for
	// their snapshot.
	patchMu sync.Mutex

	plans   *servercache.Cache[*cachedPlan]
	flights flightGroup[*cachedPlan]
	met     *metrics

	// draining flips when the daemon begins graceful shutdown: /readyz
	// turns 503 so load balancers and the cluster router's health prober
	// stop routing new work here, while /healthz (liveness) stays 200 —
	// the process is healthy, just leaving.
	draining atomic.Bool
}

// SetDraining marks the server as (not) draining; see /readyz.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// registeredDB is one registered database. Its fields are guarded by the
// server mutex: PATCH swaps the (immutable) db.Database value for the
// post-delta one and bumps the monotone version; readers take a dbSnapshot
// under the read lock and work lock-free from there.
type registeredDB struct {
	id          string
	gen         uint64 // unique per registration: deleting and re-registering an id must never alias cached plans or in-flight preparations of the old content
	fingerprint string
	d           *db.Database
	version     db.Version
	created     time.Time
}

// dbSnapshot is the consistent view of a registered database a request
// works against; the Database value is never mutated after registration or
// patching, so holding the pointer outside the lock is safe.
type dbSnapshot struct {
	id          string
	gen         uint64
	fingerprint string
	d           *db.Database
	version     db.Version
	created     time.Time
}

// cachedPlan is one plan-cache entry: the incrementally maintained plan
// plus the database version its first plan version answered for. The
// database version an entry currently serves is derived, not stored:
// base + plan.Version() — the plan starts at version 1 when prepared
// against database version base+1, and every PATCH that advances the
// database by one delta advances the plan by exactly one Apply (entries
// that miss a delta are dropped by the sweep). Deriving it keeps the
// served version atomic with the compute state a PlanView pins, so
// responses can never label one version's values with another's number.
type cachedPlan struct {
	plan *core.Plan
	base db.Version
	spec cluster.PlanKey // what the plan was prepared for; snapshots ship it
}

// servedVersion reports the database version the entry currently answers
// for, atomically consistent with view when one is given (pass nil to
// read the plan's current version).
func (cp *cachedPlan) servedVersion(view *core.PlanView) db.Version {
	if view != nil {
		return cp.base + view.Version()
	}
	return cp.base + cp.plan.Version()
}

// New returns a Server ready to serve.
func New(opts Options) *Server {
	if opts.CacheSize <= 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.SlowRequestThreshold == 0 {
		opts.SlowRequestThreshold = DefaultSlowRequestThreshold
	}
	s := &Server{
		opts:  opts,
		mux:   http.NewServeMux(),
		start: time.Now(),
		dbs:   make(map[string]*registeredDB),
		plans: servercache.New[*cachedPlan](opts.CacheSize),
	}
	// The route table drives both mux registration and the per-route
	// metrics slots: every pattern a request can resolve to has its slot
	// pre-built here, which is what lets countRequest run without a lock.
	routes := []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"POST /v1/databases", s.handleRegister},
		{"GET /v1/databases", s.handleListDatabases},
		{"GET /v1/databases/{id}", s.handleGetDatabase},
		{"PATCH /v1/databases/{id}", s.handlePatchDatabase},
		{"DELETE /v1/databases/{id}", s.handleDeleteDatabase},
		{"POST /v1/databases/{id}/shapley", s.handleShapley},
		{"POST /v1/databases/{id}/classify", s.handleClassify},
		{"POST /v1/databases/{id}/relevance", s.handleRelevance},
		{"POST /v1/databases/{id}/approx", s.handleApprox},
		{"GET /v1/databases/{id}/snapshot", s.handleExportSnapshot},
		{"PUT /v1/databases/{id}/snapshot", s.handleImportSnapshot},
		{"GET /healthz", s.handleHealthz},
		{"GET /readyz", s.handleReadyz},
		{"GET /metrics", s.handleMetrics},
	}
	patterns := make([]string, 0, len(routes))
	for _, rt := range routes {
		s.mux.HandleFunc(rt.pattern, rt.h)
		patterns = append(patterns, rt.pattern)
	}
	s.met = newMetrics(patterns, opts.SlowRequestThreshold)
	return s
}

// traceQueryParam opts a request into span recording: ?trace=1 attaches an
// obs.Recorder to the request context, and handlers that report traces
// echo the finished span tree in their response body.
const traceQueryParam = "trace"

// ServeHTTP implements http.Handler: it assigns the request's trace id
// (honoring an inbound X-Trace-Id and echoing the id on the response),
// attaches a span recorder when the request asks for one with ?trace=1,
// dispatches, and records the per-route status counters and latency
// histograms around the dispatch. The always-on portion is deliberately
// cheap — a header read, one small id allocation and a few atomics — and
// spans are only materialized for requests that carry a recorder.
//
//repolint:allow ctxflow: ServeHTTP is the fixed http.Handler signature; its context arrives via r.Context()
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.opts.MaxBodyBytes > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	// Honor a well-formed inbound trace id (so callers can correlate
	// across services); anything empty, oversized or non-printable gets a
	// fresh id instead.
	tid := r.Header.Get("X-Trace-Id")
	if tid == "" || len(tid) > 64 ||
		strings.ContainsFunc(tid, func(c rune) bool { return c < 0x21 || c > 0x7e }) {
		tid = obs.NewTraceID()
	}
	w.Header().Set("X-Trace-Id", tid)
	// Untraced requests keep their original context: nothing downstream
	// reads the trace id from it (obs.Start is a no-op without a
	// recorder), so skipping the context derivation and request clone
	// keeps the always-on path allocation-lean. RawQuery is checked first
	// so untraced requests skip query parsing too.
	if r.URL.RawQuery != "" && r.URL.Query().Get(traceQueryParam) == "1" {
		rec := obs.NewRecorder(tid, "request")
		r = r.WithContext(obs.WithRecorder(obs.WithTraceID(r.Context(), tid), rec))
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	// r.Pattern is set by the mux on a match; unmatched requests group
	// under unmatchedRoute.
	route := r.Pattern
	if route == "" {
		route = unmatchedRoute
	}
	dur := time.Since(start)
	s.met.countRequest(route, sw.status, dur)
	if log := s.opts.Logger; log != nil {
		if s.opts.SlowRequestThreshold > 0 && dur >= s.opts.SlowRequestThreshold {
			log.LogAttrs(r.Context(), slog.LevelWarn, "slow request",
				slog.String("trace_id", tid),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Duration("duration", dur),
				slog.String("threshold", s.opts.SlowRequestThreshold.String()),
			)
		}
		log.LogAttrs(r.Context(), slog.LevelDebug, "request",
			slog.String("trace_id", tid),
			slog.String("route", route),
			slog.Int("status", sw.status),
			slog.Duration("duration", dur),
		)
	}
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so NDJSON streaming keeps working
// through the metrics wrapper (net/http only treats the handler's writer
// as a Flusher if the wrapper exposes it).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// CacheStats reports the plan cache's hit/miss/eviction counters and
// current size (exported for tests and benchmarks).
func (s *Server) CacheStats() (hits, misses, evictions int64, entries int) {
	return s.plans.Hits(), s.plans.Misses(), s.plans.Evictions(), s.plans.Len()
}

// PlansPrepared reports how many cold-path plan preparations have run
// (exported for tests: the single-flight assertion pins it to exactly one
// across N concurrent identical cold requests).
func (s *Server) PlansPrepared() int64 { return s.met.plansPrepared.Load() }

// ValuesComputed reports how many Shapley values this server has computed
// and returned (exported for tests: the cluster forwarding test pins the
// worker to exactly one value per routed single-fact read).
func (s *Server) ValuesComputed() int64 { return s.met.valuesComputed.Load() }

// CoalescedSingleflight reports requests that joined another request's
// in-flight plan preparation.
func (s *Server) CoalescedSingleflight() int64 { return s.met.coalescedSingleflight.Load() }

// PurgePlans empties the plan cache (benchmark cold-path support).
func (s *Server) PurgePlans() { s.plans.Purge() }

// snapshot returns a consistent view of the registered database for an id.
func (s *Server) snapshot(id string) (dbSnapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rdb, ok := s.dbs[id]
	if !ok {
		return dbSnapshot{}, false
	}
	return rdb.snap(), true
}

// planKey builds the cross-query cache key. It is version-independent —
// the database component is the registration id plus its registration
// generation, not a content hash — so PATCH can maintain the same entries
// in place across versions; the entry itself derives the version it
// answers for (cachedPlan.servedVersion) and is revalidated on every hit.
// The generation makes delete-then-re-register safe: a preparation still
// in flight for the deleted registration lands under a key (and flight
// key) the new registration can never look up. The query component is the
// canonical rendering of the parsed query, so textual variants of the
// same query (whitespace, atom spelling) share a plan; exogenous
// declarations and the brute-force flag change the prepared state, so
// they are part of the key. Joining the exo list with ',' is
// collision-free because exoSet rejects relation names containing
// anything but word characters, and prefixing with the id is unambiguous
// because registration rejects ids containing control characters (so no
// id can embed the '\x00' separator).
func planKey(id string, gen uint64, canonicalQuery string, exo []string, brute bool) string {
	sorted := append([]string(nil), exo...)
	sort.Strings(sorted)
	return fmt.Sprintf("%s\x00g%d\x00%s\x00exo=%s\x00bf=%t", id, gen, canonicalQuery, strings.Join(sorted, ","), brute)
}

// parsedQuery is a request query parsed to its canonical form: exactly one
// of cq and ucq is non-nil (a union with a single disjunct is a CQ).
type parsedQuery struct {
	cq        *query.CQ
	ucq       *query.UCQ
	canonical string
}

func parseRequestQuery(src string) (parsedQuery, error) {
	if strings.TrimSpace(src) == "" {
		return parsedQuery{}, fmt.Errorf("missing query")
	}
	u, err := query.ParseUCQ(src)
	if err != nil {
		return parsedQuery{}, err
	}
	if len(u.Disjuncts) == 1 {
		q := u.Disjuncts[0]
		return parsedQuery{cq: q, canonical: q.String()}, nil
	}
	return parsedQuery{ucq: u, canonical: u.String()}, nil
}

// planFor returns the cached-plan entry for (snap, pq, exo, brute), from
// the plan cache when warm. A hit is revalidated against the snapshot's
// version (PATCH keeps entries current, so a mismatch only arises when a
// plan prepared against a pre-PATCH snapshot raced its way into the
// cache). A revalidation failure is a partial hit, not a cold miss: the
// stale entry's plan seeds the replacement preparation
// (core.Engine.PrepareFrom), so every DP-tree node whose content survived
// the version skew is reused instead of recomputed. Stale and cold paths
// coalesce through the single-flight group, so N concurrent identical
// misses run exactly one preparation.
func (s *Server) planFor(ctx context.Context, snap dbSnapshot, pq parsedQuery, exo []string, brute bool) (*cachedPlan, bool, error) {
	if _, err := exoSet(exo); err != nil {
		return nil, false, err
	}
	key := planKey(snap.id, snap.gen, pq.canonical, exo, brute)
	stale, st := s.plans.GetRevalidated(key, func(cp *cachedPlan) bool {
		return cp.servedVersion(nil) == snap.version
	})
	if st == servercache.LookupHit {
		return stale, true, nil
	}
	var seed *core.Plan
	if st == servercache.LookupPartial {
		seed = stale.plan
	}
	// The flight key pins the version so joiners of an in-flight prepare
	// can never be handed state for a different snapshot than their own.
	flightKey := fmt.Sprintf("%s\x00v=%d", key, snap.version)
	cp, shared, err := s.flights.do(flightKey, func() (*cachedPlan, error) {
		eng := core.NewEngine(
			core.WithExoRelations(exo...),
			core.WithBruteForce(brute),
			core.WithWorkers(s.opts.Workers),
			core.WithPrepareParallelism(s.opts.PrepareParallelism),
			core.WithSpawnCost(s.opts.PrepareSpawnCost),
		)
		// Detach the leader's cancellation: joiners waiting on this flight
		// must not lose their plan because the initiating client hung up.
		// WithoutCancel keeps the context values, so the leader's recorder
		// (when tracing) still captures the engine.prepare span.
		pctx := context.WithoutCancel(ctx)
		var (
			plan *core.Plan
			err  error
		)
		t0 := time.Now()
		if seed != nil {
			plan, err = eng.PrepareFrom(pctx, snap.d, seed)
		} else if pq.cq != nil {
			plan, err = eng.Prepare(pctx, snap.d, pq.cq)
		} else {
			plan, err = eng.PrepareUCQ(pctx, snap.d, pq.ucq)
		}
		s.met.phasePrepare.Observe(time.Since(t0))
		if err != nil {
			return nil, err
		}
		s.met.plansPrepared.Add(1)
		s.met.countTreeBuild(plan.TreeStats())
		cp := &cachedPlan{
			plan: plan,
			base: snap.version - 1,
			spec: cluster.PlanKey{Query: pq.canonical, Exo: exo, Brute: brute},
		}
		s.plans.Put(key, cp)
		return cp, nil
	})
	if err != nil {
		return nil, false, err
	}
	if shared {
		// A joiner rode another request's preparation: the single-flight
		// lane of the coalesced-requests counter.
		s.met.coalescedSingleflight.Add(1)
	}
	return cp, false, nil
}

// relName matches well-formed relation symbols. Rejecting anything else at
// the API boundary both surfaces typos early and guarantees that the
// comma-joined exo component of planKey cannot collide across distinct
// declaration lists.
var relName = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

func exoSet(exo []string) (map[string]bool, error) {
	if len(exo) == 0 {
		return nil, nil
	}
	m := make(map[string]bool, len(exo))
	for _, r := range exo {
		if !relName.MatchString(r) {
			return nil, fmt.Errorf("invalid exogenous relation name %q", r)
		}
		m[r] = true
	}
	return m, nil
}

// statusFor maps solver errors to HTTP status codes: data-level "no such
// endogenous fact" is 404, complexity-side rejections (the FP#P-hard side
// of the dichotomies and the structural preconditions of the exact
// algorithms) are 422, everything else (parse and validation failures) is
// 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrNotEndogenous):
		return http.StatusNotFound
	case errors.Is(err, core.ErrIntractable),
		errors.Is(err, core.ErrNotSelfJoinFree),
		errors.Is(err, core.ErrNotHierarchical),
		errors.Is(err, core.ErrUCQNotDisjoint),
		errors.Is(err, relevance.ErrNotPolarityConsistent):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

// errKind labels an error for machine consumption in error bodies.
func errKind(err error) string {
	switch {
	case errors.Is(err, core.ErrNotEndogenous):
		return "not_endogenous"
	case errors.Is(err, core.ErrIntractable):
		return "intractable"
	case errors.Is(err, core.ErrNotSelfJoinFree):
		return "not_self_join_free"
	case errors.Is(err, core.ErrNotHierarchical):
		return "not_hierarchical"
	case errors.Is(err, core.ErrUCQNotDisjoint):
		return "ucq_not_disjoint"
	case errors.Is(err, relevance.ErrNotPolarityConsistent):
		return "not_polarity_consistent"
	case errors.Is(err, core.ErrExoViolated):
		return "exo_violated"
	default:
		return "bad_request"
	}
}

// writeJSON encodes v with a status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the uniform error response.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Kind: kind})
}

func writeSolverError(w http.ResponseWriter, err error) {
	writeError(w, statusFor(err), errKind(err), err.Error())
}

// decodeBody decodes a JSON request body into dst.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}
