package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
)

// RouterOptions configures NewRouter.
type RouterOptions struct {
	// Config is the shard layout; required, must be validated.
	Config *Config
	// CoalesceWindow bounds how long the router holds the first of a
	// burst of PATCH deltas to one database while collecting more. Zero
	// means DefaultCoalesceWindow; negative disables coalescing.
	CoalesceWindow time.Duration
	// ProbeInterval is the worker health-probe cadence. Zero means
	// DefaultProbeInterval; negative disables probing (workers stay in
	// whatever state request outcomes put them).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe; zero means DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// Client issues worker requests; nil means a default transport with
	// no overall timeout (mode=all responses stream).
	Client *http.Client
	// Logger, when non-nil, receives router lifecycle and failover events.
	Logger *slog.Logger
}

// DefaultCoalesceWindow is the PATCH merge window when
// RouterOptions.CoalesceWindow is 0.
const DefaultCoalesceWindow = 2 * time.Millisecond

// DefaultProbeInterval is the health-probe cadence when
// RouterOptions.ProbeInterval is 0.
const DefaultProbeInterval = 500 * time.Millisecond

// DefaultProbeTimeout bounds one probe when RouterOptions.ProbeTimeout is 0.
const DefaultProbeTimeout = 2 * time.Second

// failThreshold is how many consecutive probe failures mark a worker down.
const failThreshold = 2

// MaxBodyBytes bounds the request bodies the router reads. It is also the
// workers' default bound (server.DefaultMaxBodyBytes), so the router
// refuses a body before buffering it when a worker would refuse it anyway.
const MaxBodyBytes = 32 << 20

// workerState is one worker's health and traffic accounting. The up flag
// is written by the prober (state machine over consecutive outcomes) and,
// pessimistically, by any request path that hits a transport-level error;
// only the prober's warm-up flips a worker back up, once a successful
// probe has been followed by warming every database the worker owns.
type workerState struct {
	name string
	url  string

	up          atomic.Bool
	warming     atomic.Bool // a warm-up is in flight; at most one per worker
	consecFails int         // prober goroutine only

	ok   atomic.Int64
	fail atomic.Int64
}

// routedDB is the router's bookkeeping for one registered database.
type routedDB struct {
	id     string
	owners []string // ring owners in priority order, fixed at registration

	// mu orders writes against version-consistent reads: a PATCH flush
	// holds it exclusively while forwarding the delta to every replica,
	// and mode=all scatter holds it shared for the whole gather, so a
	// scatter never straddles a delta.
	mu      sync.RWMutex
	version db.Version

	// Patch coalescing state: pending is the open merge batch, seq/
	// appliedSeq order flushed batches so replicas see every delta in
	// the same sequence (applyCond is signalled on pmu).
	pmu        sync.Mutex
	pending    *patchBatch
	nextSeq    uint64
	appliedSeq uint64
	applyCond  *sync.Cond
}

// Router is the cluster front: an http.Handler speaking the same API as
// a single shapleyd worker, behind which database ids shard onto a
// replicated consistent-hash ring of workers. It forwards single-fact
// reads to one owner, coalesces PATCH bursts into one delta,
// scatter-gathers mode=all across replicas, probes worker health and
// fails over mid-request, and warms recovered replicas from peer
// snapshots.
type Router struct {
	opts    RouterOptions
	ring    *Ring
	workers map[string]*workerState // immutable after NewRouter
	mux     *http.ServeMux
	client  *http.Client
	log     *slog.Logger
	start   time.Time

	mu  sync.RWMutex
	dbs map[string]*routedDB
	seq int

	draining atomic.Bool

	coalescedPatch atomic.Int64
	failovers      atomic.Int64

	stop      context.CancelFunc
	probeDone chan struct{}
}

// NewRouter builds the router for a validated shard config.
func NewRouter(opts RouterOptions) (*Router, error) {
	if opts.Config == nil {
		return nil, fmt.Errorf("cluster: router needs a shard config")
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	ring, err := ringFrom(opts.Config)
	if err != nil {
		return nil, err
	}
	if opts.CoalesceWindow == 0 {
		opts.CoalesceWindow = DefaultCoalesceWindow
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = DefaultProbeInterval
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = DefaultProbeTimeout
	}
	rt := &Router{
		opts:    opts,
		ring:    ring,
		workers: make(map[string]*workerState, len(opts.Config.Workers)),
		mux:     http.NewServeMux(),
		client:  opts.Client,
		log:     opts.Logger,
		start:   time.Now(),
		dbs:     make(map[string]*routedDB),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	if rt.log == nil {
		rt.log = slog.New(slog.DiscardHandler)
	}
	for _, w := range opts.Config.Workers {
		ws := &workerState{name: w.Name, url: strings.TrimRight(w.URL, "/")}
		// Optimistic start: requests flow before the first probe lands.
		ws.up.Store(true)
		rt.workers[w.Name] = ws
	}
	rt.mux.HandleFunc("POST /v1/databases", rt.handleRegister)
	rt.mux.HandleFunc("GET /v1/databases", rt.handleListDatabases)
	rt.mux.HandleFunc("GET /v1/databases/{id}", rt.handleOwnerGet)
	rt.mux.HandleFunc("PATCH /v1/databases/{id}", rt.handlePatch)
	rt.mux.HandleFunc("DELETE /v1/databases/{id}", rt.handleDelete)
	rt.mux.HandleFunc("POST /v1/databases/{id}/shapley", rt.handleShapley)
	rt.mux.HandleFunc("POST /v1/databases/{id}/classify", rt.handleOwnerPost)
	rt.mux.HandleFunc("POST /v1/databases/{id}/relevance", rt.handleOwnerPost)
	rt.mux.HandleFunc("POST /v1/databases/{id}/approx", rt.handleOwnerPost)
	rt.mux.HandleFunc("GET /v1/databases/{id}/snapshot", rt.handleOwnerGet)
	rt.mux.HandleFunc("PUT /v1/databases/{id}/snapshot", rt.handleSnapshotPut)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt, nil
}

// Start launches the health prober (a no-op when probing is disabled).
// Close stops it.
func (rt *Router) Start() {
	if rt.opts.ProbeInterval < 0 || rt.stop != nil {
		return
	}
	//repolint:allow ctxflow: the prober is router-lifetime background work with no request parent; Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	rt.stop = cancel
	rt.probeDone = make(chan struct{})
	go rt.probeLoop(ctx)
}

// Close stops the prober and waits for it to exit.
func (rt *Router) Close() {
	if rt.stop != nil {
		rt.stop()
		<-rt.probeDone
		rt.stop = nil
	}
}

// SetDraining flips the router's /readyz for graceful shutdown.
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

// Ring exposes the router's shard ring (for tests and diagnostics).
func (rt *Router) Ring() *Ring { return rt.ring }

// CoalescedPatch reports PATCH requests merged into another request's
// delta. Failovers reports requests retried on another replica after a
// worker failed.
func (rt *Router) CoalescedPatch() int64 { return rt.coalescedPatch.Load() }
func (rt *Router) Failovers() int64      { return rt.failovers.Load() }

// ServeHTTP bounds the request body by MaxBodyBytes and mirrors the
// worker's trace contract: honor a well-formed inbound X-Trace-Id, echo
// it on the response, and attach a span recorder when the request opts
// in with ?trace=1 — so one trace id follows a request through the
// router into whichever workers serve it.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	}
	tid := r.Header.Get("X-Trace-Id")
	if tid == "" || len(tid) > 64 ||
		strings.ContainsFunc(tid, func(c rune) bool { return c < 0x21 || c > 0x7e }) {
		tid = obs.NewTraceID()
	}
	w.Header().Set("X-Trace-Id", tid)
	ctx := obs.WithTraceID(r.Context(), tid)
	if r.URL.Query().Get("trace") == "1" {
		ctx = obs.WithRecorder(ctx, obs.NewRecorder(tid, "request"))
	}
	rt.mux.ServeHTTP(w, r.WithContext(ctx))
}

// workerFor resolves a worker name (always present in the immutable map
// for names produced by the ring).
func (rt *Router) workerFor(name string) *workerState { return rt.workers[name] }

// liveOwners returns db's owners that are currently up, in priority
// order; when every owner looks down it returns all of them — a
// last-ditch attempt beats a refusal, and a success flips nothing (only
// the prober revives workers).
func (rt *Router) liveOwners(ds *routedDB) []*workerState {
	var live []*workerState
	for _, name := range ds.owners {
		if ws := rt.workerFor(name); ws != nil && ws.up.Load() {
			live = append(live, ws)
		}
	}
	if len(live) > 0 {
		return live
	}
	all := make([]*workerState, 0, len(ds.owners))
	for _, name := range ds.owners {
		if ws := rt.workerFor(name); ws != nil {
			all = append(all, ws)
		}
	}
	return all
}

// lookupDB returns the routed database for id.
func (rt *Router) lookupDB(id string) (*routedDB, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	ds, ok := rt.dbs[id]
	return ds, ok
}

// callWorker issues one request to a worker under a "worker.call" span,
// propagating the trace id (and ?trace=1 when the inbound request is
// being traced) and counting the outcome. A transport-level failure
// marks the worker down immediately — the prober is the only path back
// up. The caller owns the response body.
func (rt *Router) callWorker(ctx context.Context, ws *workerState, method, path string, q url.Values, body []byte, contentType string, hdr http.Header) (*http.Response, *obs.Span, error) {
	u := ws.url + path
	if obs.RecorderFrom(ctx) != nil {
		if q == nil {
			q = url.Values{}
		}
		q.Set("trace", "1")
	}
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if tid := obs.TraceIDFrom(ctx); tid != "" {
		req.Header.Set("X-Trace-Id", tid)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	_, sp := obs.Start(ctx, "worker.call")
	if sp.Recording() {
		sp.SetAttrs(obs.String("worker", ws.name), obs.String("path", path))
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		sp.End()
		ws.fail.Add(1)
		ws.up.Store(false)
		rt.log.Warn("worker call failed", "worker", ws.name, "path", path, "err", err)
		return nil, nil, err
	}
	if resp.StatusCode >= 500 {
		ws.fail.Add(1)
	} else {
		ws.ok.Add(1)
	}
	return resp, sp, nil
}

// workerJSON is callWorker for fully buffered JSON exchanges.
func (rt *Router) workerJSON(ctx context.Context, ws *workerState, method, path string, q url.Values, body []byte) (int, []byte, error) {
	resp, sp, err := rt.callWorker(ctx, ws, method, path, q, body, "application/json", nil)
	if err != nil {
		return 0, nil, err
	}
	respBody, err := readWorkerJSON(ws, resp, sp)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, respBody, nil
}

// readWorkerJSON reads a worker response whole, closes it and ends its
// worker.call span. When tracing, it first grafts the worker's own span
// tree (the "trace" field of its response, if any) under that span,
// which is what makes ?trace=1 through the router show the remote hop.
func readWorkerJSON(ws *workerState, resp *http.Response, sp *obs.Span) ([]byte, error) {
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err == nil && sp.Recording() {
		var tr struct {
			Trace *obs.Trace `json:"trace"`
		}
		if json.Unmarshal(respBody, &tr) == nil && tr.Trace != nil {
			sp.AdoptRemote(tr.Trace.Root)
		}
	}
	sp.End()
	if err != nil {
		ws.fail.Add(1)
		return nil, err
	}
	return respBody, nil
}

// probeLoop drives worker health: every interval, GET /readyz on every
// worker. failThreshold consecutive failures mark a worker down; the
// first success after being down starts an asynchronous warm-up
// (snapshots of every database it owns, shipped from a healthy peer), and
// the worker is marked up only when the warm-up returns, so a recovered
// replica rejoins routing with current state instead of answering stale
// values or 404s.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	tick := time.NewTicker(rt.opts.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, ws := range rt.workers {
			rt.probeWorker(ctx, ws)
		}
	}
}

func (rt *Router) probeWorker(ctx context.Context, ws *workerState) {
	pctx, cancel := context.WithTimeout(ctx, rt.opts.ProbeTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, ws.url+"/readyz", nil)
	if err == nil {
		resp, err := rt.client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	if ok {
		ws.consecFails = 0
		if !ws.up.Load() && ws.warming.CompareAndSwap(false, true) {
			go func() {
				defer ws.warming.Store(false)
				rt.warmWorker(context.WithoutCancel(ctx), ws)
				ws.up.Store(true)
				rt.log.Info("worker recovered", "worker", ws.name)
			}()
		}
		return
	}
	ws.consecFails++
	if ws.consecFails >= failThreshold && ws.up.Swap(false) {
		rt.log.Warn("worker down", "worker", ws.name, "consecutive_failures", ws.consecFails)
	}
}

// warmWorker ships a current snapshot of every database ws owns from a
// healthy peer replica, bringing a new or recovered worker to parity; the
// worker prepares the snapshot's plans before it answers for the
// database.
func (rt *Router) warmWorker(ctx context.Context, ws *workerState) {
	rt.mu.RLock()
	var owned []*routedDB
	for _, ds := range rt.dbs {
		for _, o := range ds.owners {
			if o == ws.name {
				owned = append(owned, ds)
				break
			}
		}
	}
	rt.mu.RUnlock()
	sort.Slice(owned, func(i, j int) bool { return owned[i].id < owned[j].id })
	for _, ds := range owned {
		rt.warmReplica(ctx, ds, ws)
	}
}

// warmReplica copies ds from a healthy peer owner onto ws. Holding the
// db's write lock keeps the snapshot version-consistent: no PATCH can
// land between the export and the import.
func (rt *Router) warmReplica(ctx context.Context, ds *routedDB, ws *workerState) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for _, name := range ds.owners {
		src := rt.workerFor(name)
		if src == nil || src == ws || !src.up.Load() {
			continue
		}
		resp, sp, err := rt.callWorker(ctx, src, http.MethodGet, "/v1/databases/"+url.PathEscape(ds.id)+"/snapshot", nil, nil, "", nil)
		if err != nil {
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		sp.End()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		putResp, psp, err := rt.callWorker(ctx, ws, http.MethodPut, "/v1/databases/"+url.PathEscape(ds.id)+"/snapshot", nil, body, "application/octet-stream", nil)
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, putResp.Body)
		putResp.Body.Close()
		psp.End()
		if putResp.StatusCode == http.StatusOK {
			rt.log.Info("replica warmed", "db", ds.id, "worker", ws.name, "source", src.name)
		} else {
			rt.log.Warn("replica warm-up rejected", "db", ds.id, "worker", ws.name, "status", putResp.StatusCode)
		}
		return
	}
}

// errorBody mirrors the worker's error schema so router-originated
// errors are indistinguishable in shape from worker ones.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// writeJSON matches the worker's encoder settings (two-space indent)
// byte for byte, so router-assembled responses that carry worker
// payloads verbatim still match a direct worker response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Kind: kind})
}

// relay copies a worker response's status and content headers to the
// client, followed by body.
func relay(w http.ResponseWriter, resp *http.Response, body io.Reader) {
	for _, h := range []string{"Content-Type", "X-Cache", "X-Snapshot-Version", "X-Snapshot-Plans"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, body)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up := 0
	for _, ws := range rt.workers {
		if ws.up.Load() {
			up++
		}
	}
	rt.mu.RLock()
	n := len(rt.dbs)
	rt.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"role":           "router",
		"workers":        len(rt.workers),
		"workers_up":     up,
		"databases":      n,
		"uptime_seconds": time.Since(rt.start).Seconds(),
	})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	up := 0
	for _, ws := range rt.workers {
		if ws.up.Load() {
			up++
		}
	}
	status, state := http.StatusOK, "ready"
	switch {
	case rt.draining.Load():
		status, state = http.StatusServiceUnavailable, "draining"
	case up == 0:
		status, state = http.StatusServiceUnavailable, "no workers up"
	}
	writeJSON(w, status, map[string]any{
		"status":     state,
		"role":       "router",
		"workers_up": up,
	})
}

// handleMetrics renders the router's counters in the same hand-rolled
// Prometheus text format as the worker, including the full coalesced-
// requests family (singleflight stays 0 here: plan preparation happens
// on workers).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintln(w, "# HELP shapleyd_coalesced_requests_total Requests answered by merging into another request's work instead of doing their own: singleflight joins an in-flight plan preparation; patch is the cluster router's bounded-window merge of PATCH deltas.")
	fmt.Fprintln(w, "# TYPE shapleyd_coalesced_requests_total counter")
	fmt.Fprintf(w, "shapleyd_coalesced_requests_total{kind=\"singleflight\"} %d\n", 0)
	fmt.Fprintf(w, "shapleyd_coalesced_requests_total{kind=\"patch\"} %d\n", rt.coalescedPatch.Load())

	fmt.Fprintln(w, "# HELP shapleyd_router_failovers_total Requests retried on another replica after a worker failed.")
	fmt.Fprintln(w, "# TYPE shapleyd_router_failovers_total counter")
	fmt.Fprintf(w, "shapleyd_router_failovers_total %d\n", rt.failovers.Load())

	names := rt.ring.Workers()
	fmt.Fprintln(w, "# HELP shapleyd_router_worker_up Worker health as seen by the router's prober (1 up, 0 down).")
	fmt.Fprintln(w, "# TYPE shapleyd_router_worker_up gauge")
	for _, name := range names {
		v := 0
		if rt.workers[name].up.Load() {
			v = 1
		}
		fmt.Fprintf(w, "shapleyd_router_worker_up{worker=%q} %d\n", name, v)
	}

	fmt.Fprintln(w, "# HELP shapleyd_router_worker_requests_total Requests the router issued to each worker, by outcome (error is transport failure or HTTP 5xx).")
	fmt.Fprintln(w, "# TYPE shapleyd_router_worker_requests_total counter")
	for _, name := range names {
		ws := rt.workers[name]
		fmt.Fprintf(w, "shapleyd_router_worker_requests_total{worker=%q,outcome=\"ok\"} %d\n", name, ws.ok.Load())
		fmt.Fprintf(w, "shapleyd_router_worker_requests_total{worker=%q,outcome=\"error\"} %d\n", name, ws.fail.Load())
	}

	rt.mu.RLock()
	n := len(rt.dbs)
	rt.mu.RUnlock()
	fmt.Fprintln(w, "# HELP shapleyd_databases_registered Databases currently registered (router view).")
	fmt.Fprintln(w, "# TYPE shapleyd_databases_registered gauge")
	fmt.Fprintf(w, "shapleyd_databases_registered %d\n", n)

	fmt.Fprintln(w, "# HELP shapleyd_uptime_seconds Seconds since the router started.")
	fmt.Fprintln(w, "# TYPE shapleyd_uptime_seconds gauge")
	fmt.Fprintf(w, "shapleyd_uptime_seconds %.3f\n", time.Since(rt.start).Seconds())
}
