package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relevance"
)

// traceFor finishes and returns the request's span recording, or nil when
// the request did not opt in with ?trace=1 (the nil is omitted from JSON
// bodies). Handlers call it once, immediately before encoding the
// response, so the root span covers everything but the final encode.
func traceFor(ctx context.Context) *obs.Trace {
	rec := obs.RecorderFrom(ctx)
	if rec == nil {
		return nil
	}
	return rec.Finish()
}

// registerRequest is the body of POST /v1/databases.
type registerRequest struct {
	// ID optionally names the registration; generated when empty.
	ID string `json:"id,omitempty"`
	// Text is the database in the textual format ("exo R(a)" / "endo S(b)"
	// lines).
	Text string `json:"text"`
}

// databaseInfo describes a registered database. Version starts at 1 and
// increases by one per applied (non-empty) PATCH delta.
type databaseInfo struct {
	ID          string     `json:"id"`
	Version     db.Version `json:"version"`
	Fingerprint string     `json:"fingerprint"`
	Facts       int        `json:"facts"`
	Endogenous  int        `json:"endogenous"`
	Exogenous   int        `json:"exogenous"`
	Relations   []string   `json:"relations"`
	Created     time.Time  `json:"created"`
}

func (snap dbSnapshot) info() databaseInfo {
	endo := snap.d.NumEndo()
	return databaseInfo{
		ID:          snap.id,
		Version:     snap.version,
		Fingerprint: snap.fingerprint,
		Facts:       snap.d.NumFacts(),
		Endogenous:  endo,
		Exogenous:   snap.d.NumFacts() - endo,
		Relations:   snap.d.Relations(),
		Created:     snap.created,
	}
}

// snap converts the registered database to its consistent view; callers
// hold the server mutex.
func (rdb *registeredDB) snap() dbSnapshot {
	return dbSnapshot{
		id:          rdb.id,
		gen:         rdb.gen,
		fingerprint: rdb.fingerprint,
		d:           rdb.d,
		version:     rdb.version,
		created:     rdb.created,
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if strings.TrimSpace(req.Text) == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing database text")
		return
	}
	if err := validateDatabaseID(req.ID); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	d, err := db.Parse(req.Text)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	s.mu.Lock()
	id := req.ID
	if id == "" {
		// Generated ids must not displace an explicitly registered database
		// that happens to be named like one.
		for {
			s.seq++
			id = fmt.Sprintf("db-%d", s.seq)
			if _, taken := s.dbs[id]; !taken {
				break
			}
		}
	} else if _, exists := s.dbs[id]; exists {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "conflict", fmt.Sprintf("database %q is already registered", id))
		return
	}
	s.gens++
	rdb := &registeredDB{id: id, gen: s.gens, fingerprint: d.Fingerprint(), d: d, version: 1, created: time.Now()}
	s.dbs[id] = rdb
	snap := rdb.snap()
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, snap.info())
}

func (s *Server) handleListDatabases(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]databaseInfo, 0, len(s.dbs))
	for _, rdb := range s.dbs {
		infos = append(infos, rdb.snap().info())
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"databases": infos})
}

func (s *Server) handleGetDatabase(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no database %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, snap.info())
}

// patchRequest is the body of PATCH /v1/databases/{id}: a fact delta.
// Removals apply before insertions, so a fact can flip endogeneity in one
// delta by appearing in both remove and one of the add lists.
type patchRequest struct {
	AddEndo []string `json:"add_endo,omitempty"`
	AddExo  []string `json:"add_exo,omitempty"`
	Remove  []string `json:"remove,omitempty"`
}

// patchResponse reports the post-delta database plus what happened to its
// cached plans: patched in place versus dropped (a plan is dropped when
// the delta makes it unservable, e.g. an endogenous fact added to a
// relation the plan declared exogenous).
type patchResponse struct {
	databaseInfo
	PlansPatched int `json:"plans_patched"`
	PlansDropped int `json:"plans_dropped"`
	// Trace is the request's span tree (one plan.apply span per patched
	// plan), present only with ?trace=1.
	Trace *obs.Trace `json:"trace,omitempty"`
}

func (s *Server) handlePatchDatabase(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req patchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	parseFacts := func(in []string) ([]db.Fact, error) {
		out := make([]db.Fact, 0, len(in))
		for _, s := range in {
			f, err := db.ParseFact(s)
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
		return out, nil
	}
	var (
		delta db.Delta
		err   error
	)
	if delta.AddEndo, err = parseFacts(req.AddEndo); err == nil {
		if delta.AddExo, err = parseFacts(req.AddExo); err == nil {
			delta.Remove, err = parseFacts(req.Remove)
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	s.mu.Lock()
	rdb, ok := s.dbs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no database %q", id))
		return
	}
	if delta.Empty() {
		// The no-op delta keeps the version, mirroring Plan.Apply.
		resp := patchResponse{databaseInfo: rdb.snap().info()}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	newD, err := rdb.d.Apply(delta)
	if err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, "bad_delta", err.Error())
		return
	}
	oldVersion := rdb.version
	rdb.d = newD
	rdb.version++
	rdb.fingerprint = newD.Fingerprint()
	newVersion := rdb.version
	gen := rdb.gen
	resp := patchResponse{databaseInfo: rdb.snap().info()}
	s.mu.Unlock()

	// Patch every cached plan of this database in place: Plan.Apply
	// recomputes only the DP buckets the delta touches and the entry keeps
	// serving warm requests at the new version. The sweep runs outside the
	// server lock (readers keep flowing; patchMu serializes sweeps with
	// each other), with the client's cancellation detached — the version
	// bump above is already committed, so a disconnect must not turn
	// healthy plans into evictions. Peek keeps the bookkeeping out of the
	// LRU ordering and the hit/miss counters.
	//
	// This delta only advances entries answering for oldVersion. An entry
	// already at newVersion (a cold preparation against the new snapshot
	// raced ahead) is current and left alone; any other version means the
	// entry missed a delta (it was prepared against a stale snapshot, or
	// an overlapping PATCH superseded this one) and serving it would be
	// wrong at any warmth, so it is dropped for re-preparation.
	s.patchMu.Lock()
	applyCtx := context.WithoutCancel(r.Context())
	prefix := fmt.Sprintf("%s\x00g%d\x00", id, gen)
	for _, key := range s.plans.Keys() {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		cp, ok := s.plans.Peek(key)
		if !ok {
			continue
		}
		switch cp.servedVersion(nil) {
		case newVersion:
			continue
		case oldVersion:
			t0 := time.Now()
			//repolint:allow lockscope: deliberate hold — the sweep serializes with other PATCHes on its dedicated patchMu, never with the read path's server lock (see the comment above)
			_, err := cp.plan.Apply(applyCtx, delta)
			s.met.phaseApply.Observe(time.Since(t0))
			if err != nil {
				s.plans.Remove(key)
				resp.PlansDropped++
				continue
			}
			// The Apply's memo traffic is what distinguishes deep reuse
			// (hits ≫ misses: only the touched spines rebuilt) from a
			// structural recompute on /metrics.
			s.met.countTreeBuild(cp.plan.TreeStats())
			resp.PlansPatched++
		default:
			s.plans.Remove(key)
			resp.PlansDropped++
		}
	}
	s.patchMu.Unlock()
	s.met.plansPatched.Add(int64(resp.PlansPatched))
	resp.Trace = traceFor(r.Context())
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDeleteDatabase(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.dbs[id]
	if ok {
		delete(s.dbs, id)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no database %q", id))
		return
	}
	// Plans are keyed by registration id, so the deregistered database's
	// entries can never serve another registration; drop them.
	prefix := id + "\x00"
	s.plans.RemoveIf(func(key string) bool { return strings.HasPrefix(key, prefix) })
	w.WriteHeader(http.StatusNoContent)
}

// shapleyRequest is the body of POST /v1/databases/{id}/shapley.
type shapleyRequest struct {
	// Query is a CQ¬ in rule syntax, or a UCQ¬ with '|' between disjuncts.
	Query string `json:"query"`
	// Fact selects single-fact mode, e.g. "TA(Adam)".
	Fact string `json:"fact,omitempty"`
	// Facts selects batched single-fact mode: the values of exactly these
	// endogenous facts, answered in request order. The per-fact toggles
	// share one prepared plan, so K facts cost one sweep of K toggles in
	// one request; this is how a client asks for batching, since the
	// cluster router forwards each single-fact request on its own.
	// Mutually exclusive with fact and with mode=all.
	Facts []string `json:"facts,omitempty"`
	// Mode "all" computes every endogenous fact; default is single-fact.
	Mode string `json:"mode,omitempty"`
	// Offset/Limit restrict mode=all to the fact range [offset, offset+limit)
	// of the database-order batch (limit 0 means "to the end"). This is the
	// cluster router's scatter unit: each replica computes a disjoint range
	// and the router re-streams the concatenation.
	Offset int `json:"offset,omitempty"`
	Limit  int `json:"limit,omitempty"`
	// Workers overrides the server's worker-pool size for this request.
	Workers int `json:"workers,omitempty"`
	// Exo declares schema-level exogenous relations (the set X of §4).
	Exo []string `json:"exo,omitempty"`
	// BruteForce permits exponential enumeration on intractable queries.
	BruteForce bool `json:"brute_force,omitempty"`
	// Rank sorts mode=all output by descending value (the CLI's -all table
	// order) instead of database order.
	Rank bool `json:"rank,omitempty"`
}

// shapleyResponse is the result schema shared (via ValueJSON) with the
// CLI's -json output.
type shapleyResponse struct {
	Database string     `json:"database"`
	Version  db.Version `json:"version"`
	Query    string     `json:"query"`
	Method   string     `json:"method"`
	Cache    string     `json:"cache"` // "hit" | "miss"
	Value    *ValueJSON `json:"value,omitempty"`
	// omitzero (not omitempty): a mode=all answer over a database with no
	// endogenous facts must serialize as "values": [], while single-fact
	// responses (nil slice) omit the key.
	Values []ValueJSON `json:"values,omitzero"`
	// Trace is the request's span tree, present only with ?trace=1.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// ndjsonContentType selects the streaming mode=all response.
const ndjsonContentType = "application/x-ndjson"

func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ndjsonContentType)
}

func (s *Server) handleShapley(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	snap, ok := s.snapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no database %q", r.PathValue("id")))
		return
	}
	var req shapleyRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	pq, err := parseRequestQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if req.Mode != "" && req.Mode != "all" {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown mode %q (want \"\" or \"all\")", req.Mode))
		return
	}
	if req.Mode == "" && req.Fact == "" && len(req.Facts) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "single-fact mode needs \"fact\" (or \"facts\"); pass \"mode\": \"all\" for every endogenous fact")
		return
	}
	if req.Fact != "" && len(req.Facts) > 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "pass \"fact\" or \"facts\", not both")
		return
	}
	if req.Mode == "all" && (req.Fact != "" || len(req.Facts) > 0) {
		// Mirror the CLI's "-all ranks every endogenous fact; drop -fact".
		writeError(w, http.StatusBadRequest, "bad_request", "mode \"all\" computes every endogenous fact; drop \"fact\"/\"facts\"")
		return
	}
	if req.Offset != 0 || req.Limit != 0 {
		if req.Mode != "all" {
			writeError(w, http.StatusBadRequest, "bad_request", "offset/limit apply only to mode \"all\"")
			return
		}
		if req.Offset < 0 || req.Limit < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "offset and limit must be non-negative")
			return
		}
		if req.Rank {
			writeError(w, http.StatusBadRequest, "bad_request", "rank is not supported with offset/limit (a ranked range is ambiguous)")
			return
		}
	}
	stream := req.Mode == "all" && wantsNDJSON(r)
	if stream && req.Rank {
		writeError(w, http.StatusBadRequest, "bad_request", "rank is not supported with NDJSON streaming (values stream in database order)")
		return
	}
	// Parse facts before preparing: a malformed fact must not cost (or
	// cache) a full plan preparation.
	var (
		f          db.Fact
		batchFacts []db.Fact
	)
	if req.Mode == "" {
		var err error
		if len(req.Facts) > 0 {
			batchFacts = make([]db.Fact, len(req.Facts))
			for i, fs := range req.Facts {
				if batchFacts[i], err = db.ParseFact(fs); err != nil {
					writeError(w, http.StatusBadRequest, "bad_request", err.Error())
					return
				}
			}
		} else if f, err = db.ParseFact(req.Fact); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
	}
	lctx, lsp := obs.Start(ctx, "plan.lookup")
	cp, hit, err := s.planFor(lctx, snap, pq, req.Exo, req.BruteForce)
	if err != nil {
		lsp.End()
		writeSolverError(w, err)
		return
	}
	cache := "miss"
	if hit {
		cache = "hit"
	}
	if lsp.Recording() {
		lsp.SetAttrs(obs.String("cache", cache))
	}
	lsp.End()
	// Pin one plan version for the whole response: the reported version,
	// method and every value come from the same immutable state even if a
	// PATCH advances the plan mid-request.
	view := cp.plan.View()
	w.Header().Set("X-Cache", cache)
	resp := shapleyResponse{
		Database: snap.id,
		Version:  cp.servedVersion(view),
		Query:    pq.canonical,
		Method:   view.Method().String(),
		Cache:    cache,
	}

	workers := req.Workers
	if workers <= 0 {
		workers = s.opts.Workers
	}
	// rangeFacts restricts mode=all to the requested [offset, offset+limit)
	// slice of the pinned version's database-order batch; nil means the
	// full batch. Clamping (not erroring) past-the-end ranges keeps the
	// scatter contract simple for routers racing a PATCH: a shrunken batch
	// yields fewer values, never a 4xx.
	var rangeFacts []db.Fact
	if req.Mode == "all" && (req.Offset != 0 || req.Limit != 0) {
		all := view.Facts()
		lo := min(req.Offset, len(all))
		hi := len(all)
		if req.Limit > 0 {
			hi = min(lo+req.Limit, len(all))
		}
		rangeFacts = all[lo:hi]
	}
	if stream {
		s.streamShapleyAll(w, r, view, resp, rangeFacts, workers)
		return
	}
	if req.Mode == "all" {
		cctx, csp := obs.Start(ctx, "shapley.all")
		t0 := time.Now()
		var (
			vals []*core.ShapleyValue
			err  error
		)
		if rangeFacts != nil {
			vals, err = view.ShapleySubset(cctx, rangeFacts, core.BatchOptions{Workers: workers})
		} else {
			vals, err = view.ShapleyAll(cctx, core.BatchOptions{Workers: workers})
		}
		s.met.phaseAll.Observe(time.Since(t0))
		if csp.Recording() {
			csp.SetAttrs(obs.Int("facts", len(vals)), obs.Int("workers", workers))
		}
		csp.End()
		if err != nil {
			writeComputeError(w, ctx, err)
			return
		}
		s.met.valuesComputed.Add(int64(len(vals)))
		if req.Rank {
			resp.Values = RankValues(vals)
		} else {
			resp.Values = EncodeValues(vals)
		}
		resp.Trace = traceFor(ctx)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if batchFacts != nil {
		cctx, csp := obs.Start(ctx, "shapley.batch")
		t0 := time.Now()
		vals, err := view.ShapleySubset(cctx, batchFacts, core.BatchOptions{Workers: workers})
		s.met.phaseAll.Observe(time.Since(t0))
		if csp.Recording() {
			csp.SetAttrs(obs.Int("facts", len(vals)), obs.Int("workers", workers))
		}
		csp.End()
		if err != nil {
			writeComputeError(w, ctx, err)
			return
		}
		s.met.valuesComputed.Add(int64(len(vals)))
		resp.Values = EncodeValues(vals)
		resp.Trace = traceFor(ctx)
		writeJSON(w, http.StatusOK, resp)
		return
	}

	cctx, csp := obs.Start(ctx, "shapley.single")
	t0 := time.Now()
	v, err := view.Shapley(cctx, f)
	s.met.phaseSingle.Observe(time.Since(t0))
	csp.End()
	if err != nil {
		writeComputeError(w, ctx, err)
		return
	}
	s.met.valuesComputed.Add(1)
	ev := EncodeValue(v)
	resp.Value = &ev
	resp.Trace = traceFor(ctx)
	writeJSON(w, http.StatusOK, resp)
}

// streamShapleyAll writes a mode=all batch as chunked NDJSON: one header
// object, one line per fact as soon as it (and every earlier fact)
// completes, and a {"done":true} trailer — so clients over large databases
// consume values incrementally instead of waiting for the full batch. A
// non-nil rangeFacts restricts the stream to that slice of the batch. A
// mid-stream failure (including client-disconnect cancellation) ends the
// stream with an error line instead of the trailer; the absent trailer is
// what tells consumers the batch did not finish.
func (s *Server) streamShapleyAll(w http.ResponseWriter, r *http.Request, view *core.PlanView, head shapleyResponse, rangeFacts []db.Fact, workers int) {
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(head)
	flush()
	n := 0
	cctx, csp := obs.Start(r.Context(), "shapley.all")
	t0 := time.Now()
	opts := core.BatchOptions{
		Workers: workers,
		OnResult: func(v *core.ShapleyValue) {
			_ = enc.Encode(EncodeValue(v))
			n++
			flush()
		},
	}
	var err error
	if rangeFacts != nil {
		_, err = view.ShapleySubset(cctx, rangeFacts, opts)
	} else {
		_, err = view.ShapleyAll(cctx, opts)
	}
	s.met.phaseAll.Observe(time.Since(t0))
	if csp.Recording() {
		csp.SetAttrs(obs.Int("facts", n), obs.Int("workers", workers))
	}
	csp.End()
	s.met.valuesComputed.Add(int64(n))
	if err != nil {
		_ = enc.Encode(errorBody{Error: err.Error(), Kind: errKind(err)})
		flush()
		return
	}
	trailer := map[string]any{"done": true, "count": n}
	if tr := traceFor(r.Context()); tr != nil {
		trailer["trace"] = tr
	}
	_ = enc.Encode(trailer)
	flush()
}

// writeComputeError maps a post-preparation compute failure: if the
// request context is gone the client cannot read a response, so nothing is
// written (the wrapped ResponseWriter just records the abort).
func writeComputeError(w http.ResponseWriter, ctx context.Context, err error) {
	if ctx.Err() != nil {
		return
	}
	writeSolverError(w, err)
}

// classifyRequest is the body of POST /v1/databases/{id}/classify.
type classifyRequest struct {
	Query string   `json:"query"`
	Exo   []string `json:"exo,omitempty"`
}

// classifyResponse mirrors core.Classification plus a human verdict.
type classifyResponse struct {
	Query              string `json:"query"`
	SelfJoinFree       bool   `json:"self_join_free"`
	Hierarchical       bool   `json:"hierarchical"`
	PolarityConsistent bool   `json:"polarity_consistent"`
	HasNonHierPath     bool   `json:"has_non_hierarchical_path"`
	PathWitness        string `json:"path_witness,omitempty"`
	Tractable          bool   `json:"tractable"`
	Verdict            string `json:"verdict"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.snapshot(r.PathValue("id")); !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no database %q", r.PathValue("id")))
		return
	}
	var req classifyRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	pq, err := parseRequestQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if pq.cq == nil {
		writeError(w, http.StatusBadRequest, "bad_request", "classification applies to a single CQ¬, not a union")
		return
	}
	exoRels, err := exoSet(req.Exo)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	c := core.Classify(pq.cq, exoRels)
	resp := classifyResponse{
		Query:              pq.canonical,
		SelfJoinFree:       c.SelfJoinFree,
		Hierarchical:       c.Hierarchical,
		PolarityConsistent: c.PolarityConsistent,
		HasNonHierPath:     c.HasNonHierPath,
		Tractable:          c.Tractable,
	}
	if c.PathWitness != nil {
		resp.PathWitness = fmt.Sprintf("%s→%s via %v", c.PathWitness.X, c.PathWitness.Y, c.PathWitness.Path)
	}
	if c.Tractable {
		resp.Verdict = "exact Shapley computation is polynomial (Theorems 3.1/4.3)"
	} else {
		resp.Verdict = "exact Shapley computation is FP#P-complete (Theorems 3.1/4.3)"
	}
	writeJSON(w, http.StatusOK, resp)
}

// relevanceRequest is the body of POST /v1/databases/{id}/relevance.
type relevanceRequest struct {
	Query      string `json:"query"`
	Fact       string `json:"fact"`
	BruteForce bool   `json:"brute_force,omitempty"`
}

type relevanceResponse struct {
	Fact     string `json:"fact"`
	Relevant bool   `json:"relevant"`
	Method   string `json:"method"` // "polynomial" | "brute-force"
}

func (s *Server) handleRelevance(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no database %q", r.PathValue("id")))
		return
	}
	var req relevanceRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	pq, err := parseRequestQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	f, err := db.ParseFact(req.Fact)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var (
		rel    bool
		method = "polynomial"
	)
	switch {
	case pq.cq != nil && pq.cq.IsPolarityConsistent():
		rel, err = relevance.IsRelevant(snap.d, pq.cq, f)
	case pq.ucq != nil && pq.ucq.IsPolarityConsistent():
		rel, err = relevance.IsRelevantUCQ(snap.d, pq.ucq, f)
	case req.BruteForce:
		method = "brute-force"
		rel, err = relevance.IsRelevantBrute(snap.d, boolQuery(pq), f)
	default:
		err = fmt.Errorf("%w: %s (set brute_force for the exponential check)", relevance.ErrNotPolarityConsistent, pq.canonical)
	}
	if err != nil {
		writeSolverError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, relevanceResponse{Fact: f.Key(), Relevant: rel, Method: method})
}

// approxRequest is the body of POST /v1/databases/{id}/approx.
type approxRequest struct {
	Query string `json:"query"`
	Fact  string `json:"fact"`
	// Eps and Delta select the additive (ε, δ)-approximation of §5.1;
	// defaults 0.1 and 0.05.
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// Samples, when positive, fixes the permutation count directly and
	// overrides eps/delta.
	Samples int `json:"samples,omitempty"`
	// Seed makes the estimate reproducible; default 1.
	Seed int64 `json:"seed,omitempty"`
}

type approxResponse struct {
	Fact     string  `json:"fact"`
	Estimate float64 `json:"estimate"`
	Samples  int     `json:"samples"`
	Eps      float64 `json:"eps,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	Seed     int64   `json:"seed"`
}

func (s *Server) handleApprox(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no database %q", r.PathValue("id")))
		return
	}
	var req approxRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	pq, err := parseRequestQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	f, err := db.ParseFact(req.Fact)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if req.Eps == 0 {
		req.Eps = 0.1
	}
	if req.Delta == 0 {
		req.Delta = 0.05
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	rng := rand.New(rand.NewSource(req.Seed))
	var res core.MCResult
	if req.Samples > 0 {
		res, err = core.MonteCarloShapleyN(snap.d, boolQuery(pq), f, req.Samples, rng)
		req.Eps, req.Delta = 0, 0
	} else {
		res, err = core.MonteCarloShapley(snap.d, boolQuery(pq), f, req.Eps, req.Delta, rng)
	}
	if err != nil {
		writeSolverError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, approxResponse{
		Fact:     f.Key(),
		Estimate: res.Estimate,
		Samples:  res.Samples,
		Eps:      req.Eps,
		Delta:    req.Delta,
		Seed:     req.Seed,
	})
}

// boolQuery returns the request query as the evaluation interface.
func boolQuery(pq parsedQuery) query.BooleanQuery {
	if pq.cq != nil {
		return pq.cq
	}
	return pq.ucq
}

// handleHealthz is liveness: 200 whenever the process can serve HTTP at
// all, draining or not. Keeping it unconditional means an orchestrator
// never kills a process for the crime of shutting down gracefully.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.dbs)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"databases":      n,
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// handleReadyz is readiness: 200 while the server accepts new work, 503
// once SetDraining flips for graceful shutdown. Load balancers and the
// cluster router's health prober poll this, not /healthz, to decide
// routing.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.dbs)
	s.mu.RUnlock()
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":    "draining",
			"databases": n,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ready",
		"databases": n,
	})
}
