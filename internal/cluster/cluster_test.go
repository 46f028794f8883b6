// End-to-end cluster tests: real shapleyd workers behind real HTTP
// listeners, fronted by a Router exercised in-process. The core
// obligation is differential: any answer obtained through the router
// must be byte-identical to the same request against a single-process
// server — across plan families, after PATCH deltas, and after a forced
// replica failover.
package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/paperex"
	"repro/internal/server"
)

// workerProxy fronts one worker server so tests can simulate crashes
// (dead: the TCP connection is severed, which the router sees as a
// transport error), mid-stream failures (truncate: NDJSON shapley
// streams stop after two value lines, no trailer) and a slow warm-up
// (snapshotGate: snapshot PUTs wait until the gate opens).
type workerProxy struct {
	inner        http.Handler
	dead         atomic.Bool
	truncate     atomic.Bool
	patches      atomic.Int64 // PATCH requests that reached this worker
	requests     atomic.Int64 // requests of any kind that reached this worker
	snapshotGate atomic.Pointer[gate]
}

// gate holds requests: arrived closes when the first one reaches it, and
// every held request proceeds once release is closed.
type gate struct {
	arrived, release chan struct{}
	once             sync.Once
}

func newGate() *gate { return &gate{arrived: make(chan struct{}), release: make(chan struct{})} }

func (p *workerProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	if r.Method == http.MethodPatch {
		p.patches.Add(1)
	}
	if g := p.snapshotGate.Load(); g != nil && r.Method == http.MethodPut && strings.HasSuffix(r.URL.Path, "/snapshot") {
		g.once.Do(func() { close(g.arrived) })
		<-g.release
	}
	if p.dead.Load() {
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("workerProxy: response writer is not a Hijacker")
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	if p.truncate.Load() && r.Method == http.MethodPost &&
		strings.HasSuffix(r.URL.Path, "/shapley") &&
		strings.Contains(r.Header.Get("Accept"), "ndjson") {
		rec := httptest.NewRecorder()
		p.inner.ServeHTTP(rec, r)
		lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(rec.Code)
		for i, ln := range lines {
			if i >= 3 { // head + two values, then vanish without a trailer
				return
			}
			_, _ = w.Write(ln)
			_, _ = w.Write([]byte("\n"))
		}
		return
	}
	p.inner.ServeHTTP(w, r)
}

type testWorker struct {
	name  string
	srv   *server.Server
	proxy *workerProxy
	hs    *httptest.Server
}

type testCluster struct {
	rt      *cluster.Router
	workers map[string]*testWorker
}

// newCluster starts n workers and a router over them. Probing is off by
// default (ProbeInterval < 0) so tests control health transitions via
// request outcomes; pass probe > 0 to exercise the prober.
func newCluster(t *testing.T, n, replication int, window, probe time.Duration) *testCluster {
	t.Helper()
	cfg := &cluster.Config{Replication: replication}
	tc := &testCluster{workers: map[string]*testWorker{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i+1)
		srv := server.New(server.Options{})
		proxy := &workerProxy{inner: srv}
		hs := httptest.NewServer(proxy)
		t.Cleanup(hs.Close)
		tc.workers[name] = &testWorker{name: name, srv: srv, proxy: proxy, hs: hs}
		cfg.Workers = append(cfg.Workers, cluster.Worker{Name: name, URL: hs.URL})
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Config:         cfg,
		CoalesceWindow: window,
		ProbeInterval:  probe,
		ProbeTimeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	tc.rt = rt
	return tc
}

// doRaw issues one request against a handler and returns the raw
// recorder — bodies are compared byte-for-byte, so nothing re-decodes
// them on the way out.
func doRaw(t *testing.T, h http.Handler, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

const uniQ1 = "q1() :- Stud(x), !TA(x), Reg(x, y)"

func registerUni(t *testing.T, h http.Handler) {
	t.Helper()
	body := mustMarshal(t, map[string]any{"id": "uni", "text": paperex.UniversityDBText})
	rec := doRaw(t, h, "POST", "/v1/databases", body, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body.String())
	}
}

// normalizeCache rewrites the "cache" report in a response body so
// post-failover comparisons ignore it: whether the surviving replica's
// plan cache was warm is per-process state, not part of the answer.
func normalizeCache(b []byte) []byte {
	b = bytes.ReplaceAll(b, []byte(`"cache": "hit"`), []byte(`"cache": "?"`))
	b = bytes.ReplaceAll(b, []byte(`"cache": "miss"`), []byte(`"cache": "?"`))
	b = bytes.ReplaceAll(b, []byte(`"cache":"hit"`), []byte(`"cache":"?"`))
	return bytes.ReplaceAll(b, []byte(`"cache":"miss"`), []byte(`"cache":"?"`))
}

// TestRoutedBitIdentical is the differential harness: one direct
// single-process server and a 3-worker replication-2 cluster receive the
// same request sequence, and every response body must match byte for
// byte — across the hierarchical, ExoShap, UCQ¬ and brute-force plan
// families, for single facts, fact batches, buffered and streamed
// mode=all, and ranked batches; then again after a PATCH delta; then
// (cache report aside) after the primary replica is killed mid-fleet.
func TestRoutedBitIdentical(t *testing.T) {
	direct := server.New(server.Options{})
	tc := newCluster(t, 3, 2, time.Millisecond, -1)
	registerUni(t, direct)
	registerUni(t, tc.rt)

	type step struct {
		name string
		body map[string]any
		ndj  bool
	}
	steps := []step{
		{"hier-single", map[string]any{"query": uniQ1, "fact": "TA(Adam)"}, false},
		{"hier-all", map[string]any{"query": uniQ1, "mode": "all"}, false},
		{"hier-stream", map[string]any{"query": uniQ1, "mode": "all"}, true},
		{"hier-rank", map[string]any{"query": uniQ1, "mode": "all", "rank": true}, false},
		{"hier-batch", map[string]any{"query": uniQ1, "facts": []string{"TA(Adam)", "Reg(Adam,OS)"}}, false},
		{"exo-single", map[string]any{"query": uniQ1, "fact": "TA(Adam)", "exo": []string{"Reg"}}, false},
		{"exo-all", map[string]any{"query": uniQ1, "mode": "all", "exo": []string{"Reg"}}, false},
		{"ucq-single", map[string]any{"query": "q() :- Stud(x), !TA(x), Reg(x, y) | q() :- TA(x), Reg(x, y)", "fact": "TA(Adam)"}, false},
		{"ucq-all", map[string]any{"query": "q() :- Stud(x), !TA(x), Reg(x, y) | q() :- TA(x), Reg(x, y)", "mode": "all"}, false},
		{"brute-single", map[string]any{"query": uniQ1, "fact": "TA(Adam)", "brute_force": true}, false},
		{"brute-all", map[string]any{"query": uniQ1, "mode": "all", "brute_force": true}, false},
		{"bad-mode", map[string]any{"query": uniQ1, "mode": "nope"}, false},
		{"bad-fact", map[string]any{"query": uniQ1, "fact": "NoSuch(zz)"}, false},
	}
	runSteps := func(phase string, normalize bool) {
		t.Helper()
		for _, st := range steps {
			body := mustMarshal(t, st.body)
			var hdr map[string]string
			if st.ndj {
				hdr = map[string]string{"Accept": "application/x-ndjson"}
			}
			want := doRaw(t, direct, "POST", "/v1/databases/uni/shapley", body, hdr)
			got := doRaw(t, tc.rt, "POST", "/v1/databases/uni/shapley", body, hdr)
			if got.Code != want.Code {
				t.Fatalf("%s/%s: status %d via router, %d direct (%s vs %s)",
					phase, st.name, got.Code, want.Code, got.Body.String(), want.Body.String())
			}
			wb, gb := want.Body.Bytes(), got.Body.Bytes()
			if normalize {
				wb, gb = normalizeCache(wb), normalizeCache(gb)
			}
			if !bytes.Equal(wb, gb) {
				t.Fatalf("%s/%s: routed response differs from direct:\nrouter: %s\ndirect: %s",
					phase, st.name, gb, wb)
			}
		}
	}

	runSteps("v1", false)

	patch := mustMarshal(t, map[string]any{"remove": []string{"Reg(Adam,OS)"}, "add_endo": []string{"Reg(Bob, DB)"}})
	wantP := doRaw(t, direct, "PATCH", "/v1/databases/uni", patch, nil)
	gotP := doRaw(t, tc.rt, "PATCH", "/v1/databases/uni", patch, nil)
	if wantP.Code != http.StatusOK || gotP.Code != http.StatusOK {
		t.Fatalf("patch: direct %d, routed %d", wantP.Code, gotP.Code)
	}
	runSteps("v2-after-patch", false)

	// Kill the primary replica of "uni": the next requests must fail over
	// to the surviving owner and still produce the same answers (the
	// surviving replica's cache-temperature report is its own business).
	primary := tc.rt.Ring().Owners("uni")[0]
	tc.workers[primary].proxy.dead.Store(true)
	runSteps("v2-after-failover", true)
	if tc.rt.Failovers() == 0 {
		t.Fatal("failovers counter never moved though the primary replica is dead")
	}
}

// TestRoutedSingleFactForward: concurrent single-fact reads through the
// router are each one plain forward. Every response — identical facts,
// distinct facts, an ExoShap read, and an unknown fact's 4xx — matches
// the same request sent straight to the worker byte for byte, and the
// worker computes exactly one value per successful read: nothing merged,
// nothing dropped.
func TestRoutedSingleFactForward(t *testing.T) {
	tc := newCluster(t, 1, 1, time.Millisecond, -1)
	registerUni(t, tc.rt)
	w1 := tc.workers["w1"]

	type read struct {
		body []byte
		ok   bool // a successful read computes one value
	}
	single := func(fact string) read {
		return read{body: mustMarshal(t, map[string]any{"query": uniQ1, "fact": fact}), ok: true}
	}
	var reads []read
	for i := 0; i < 8; i++ {
		reads = append(reads, single("TA(Adam)"))
	}
	for _, f := range []string{"TA(Ben)", "TA(David)", "Reg(Adam,OS)", "Reg(Ben,OS)", "Reg(Caroline,DB)"} {
		reads = append(reads, single(f))
	}
	// Stud and Course are exogenous, so the negated Course atom takes the
	// ExoShap path.
	exo := read{body: mustMarshal(t, map[string]any{
		"query": "q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, CS)",
		"fact":  "Reg(Adam,OS)",
		"exo":   []string{"Stud", "Course"},
	}), ok: true}
	reads = append(reads, exo, read{body: mustMarshal(t, map[string]any{"query": uniQ1, "fact": "NoSuch(zz)"})})

	// Warm both plans first, so that routed and direct responses alike
	// report a cache hit, then record the direct answer to every read.
	doRaw(t, w1.srv, "POST", "/v1/databases/uni/shapley", reads[0].body, nil)
	doRaw(t, w1.srv, "POST", "/v1/databases/uni/shapley", exo.body, nil)
	want := make([]*httptest.ResponseRecorder, len(reads))
	for i, rd := range reads {
		want[i] = doRaw(t, w1.srv, "POST", "/v1/databases/uni/shapley", rd.body, nil)
		if code := want[i].Code; rd.ok && code != http.StatusOK || !rd.ok && (code < 400 || code >= 500) {
			t.Fatalf("direct read %s: status %d: %s", rd.body, code, want[i].Body.Bytes())
		}
	}

	base := w1.srv.ValuesComputed()
	got := make([]*httptest.ResponseRecorder, len(reads))
	var wg sync.WaitGroup
	for i, rd := range reads {
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			got[i] = doRaw(t, tc.rt, "POST", "/v1/databases/uni/shapley", body, nil)
		}(i, rd.body)
	}
	wg.Wait()

	succeeded := int64(0)
	for i, rd := range reads {
		if got[i].Code != want[i].Code || !bytes.Equal(got[i].Body.Bytes(), want[i].Body.Bytes()) {
			t.Fatalf("routed %s: status %d, body %s; direct: status %d, body %s",
				rd.body, got[i].Code, got[i].Body.Bytes(), want[i].Code, want[i].Body.Bytes())
		}
		if rd.ok {
			succeeded++
		}
	}
	if computed := w1.srv.ValuesComputed() - base; computed != succeeded {
		t.Fatalf("worker computed %d values for %d successful routed reads, want one each", computed, succeeded)
	}
}

// TestPatchCoalescingAndReplayOrdering: a burst of concurrent PATCH
// deltas must leave every replica with an identical database — same
// fingerprint, same version — regardless of how the burst was merged
// into windows, and a subsequent routed mode=all must agree with a
// direct server that applied the same net delta.
func TestPatchCoalescingAndReplayOrdering(t *testing.T) {
	tc := newCluster(t, 3, 3, 50*time.Millisecond, -1)
	registerUni(t, tc.rt)

	// Disjoint deltas: any merge or serialization of these yields the
	// same database, so every request must succeed.
	deltas := []map[string]any{
		{"add_endo": []string{"Reg(Bob, DB)"}},
		{"add_endo": []string{"Reg(Esra, DB)"}},
		{"remove": []string{"Reg(Adam,OS)"}},
		{"add_exo": []string{"Stud(Dan)"}},
		{"add_endo": []string{"TA(Dan)"}},
	}
	var wg sync.WaitGroup
	for _, d := range deltas {
		wg.Add(1)
		go func(d map[string]any) {
			defer wg.Done()
			rec := doRaw(t, tc.rt, "PATCH", "/v1/databases/uni", mustMarshal(t, d), nil)
			if rec.Code != http.StatusOK {
				t.Errorf("patch %v: status %d: %s", d, rec.Code, rec.Body.String())
			}
		}(d)
	}
	wg.Wait()

	// Every replica converged to the same database.
	type info struct {
		Version     int    `json:"version"`
		Fingerprint string `json:"fingerprint"`
		Facts       int    `json:"facts"`
	}
	replicasAgree := func() info {
		t.Helper()
		var ref *info
		for name, w := range tc.workers {
			rec := doRaw(t, w.srv, "GET", "/v1/databases/uni", nil, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("worker %s: GET uni: %d", name, rec.Code)
			}
			var in info
			if err := json.Unmarshal(rec.Body.Bytes(), &in); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = &in
				continue
			}
			if in != *ref {
				t.Fatalf("replica %s diverged: %+v vs %+v", name, in, *ref)
			}
		}
		return *ref
	}
	replicasAgree()

	// The converged state equals a direct server that applied the same
	// net delta (order of the disjoint deltas is immaterial).
	direct := server.New(server.Options{})
	registerUni(t, direct)
	net := mustMarshal(t, map[string]any{
		"add_endo": []string{"Reg(Bob, DB)", "Reg(Esra, DB)", "TA(Dan)"},
		"add_exo":  []string{"Stud(Dan)"},
		"remove":   []string{"Reg(Adam,OS)"},
	})
	if rec := doRaw(t, direct, "PATCH", "/v1/databases/uni", net, nil); rec.Code != http.StatusOK {
		t.Fatalf("direct patch: %d: %s", rec.Code, rec.Body.String())
	}
	q := mustMarshal(t, map[string]any{"query": uniQ1, "mode": "all"})
	want := doRaw(t, direct, "POST", "/v1/databases/uni/shapley", q, nil)
	got := doRaw(t, tc.rt, "POST", "/v1/databases/uni/shapley", q, nil)
	type vals struct {
		Values []struct {
			Fact    string `json:"fact"`
			Shapley string `json:"shapley"`
		} `json:"values"`
	}
	var wv, gv vals
	if err := json.Unmarshal(want.Body.Bytes(), &wv); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got.Body.Bytes(), &gv); err != nil {
		t.Fatal(err)
	}
	if len(wv.Values) == 0 || len(wv.Values) != len(gv.Values) {
		t.Fatalf("value count: direct %d, routed %d", len(wv.Values), len(gv.Values))
	}
	// Fact enumeration order is insertion order, which differs between
	// one merged delta and a sequence of windows — compare by fact.
	wantBy := map[string]string{}
	for _, v := range wv.Values {
		wantBy[v.Fact] = v.Shapley
	}
	for _, v := range gv.Values {
		if want, ok := wantBy[v.Fact]; !ok || want != v.Shapley {
			t.Fatalf("Shapley(%s) = %s routed, %s direct", v.Fact, v.Shapley, want)
		}
	}

	// Conflicting pair: two concurrent deltas touching the same fact must
	// never merge — whichever serialization wins, one may be rejected, but
	// every replica must still apply the identical sequence and converge.
	var cg sync.WaitGroup
	for _, d := range []map[string]any{
		{"remove": []string{"TA(Dan)"}},
		{"add_endo": []string{"TA(Eve)"}},
		{"remove": []string{"TA(Eve)"}}, // conflicts with the add
	} {
		cg.Add(1)
		go func(d map[string]any) {
			defer cg.Done()
			doRaw(t, tc.rt, "PATCH", "/v1/databases/uni", mustMarshal(t, d), nil)
		}(d)
	}
	cg.Wait()
	replicasAgree()
}

// TestFailoverMidStream: a replica dying partway through a mode=all
// NDJSON stream must be invisible to the client — the router resumes the
// interrupted fact range on a peer at the exact offset reached, so the
// client sees every value exactly once, in order, with a clean trailer.
func TestFailoverMidStream(t *testing.T) {
	tc := newCluster(t, 2, 2, time.Millisecond, -1)
	registerUni(t, tc.rt)

	primary := tc.rt.Ring().Owners("uni")[0]
	tc.workers[primary].proxy.truncate.Store(true)

	body := mustMarshal(t, map[string]any{"query": uniQ1, "mode": "all"})
	rec := doRaw(t, tc.rt, "POST", "/v1/databases/uni/shapley", body,
		map[string]string{"Accept": "application/x-ndjson"})
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: status %d: %s", rec.Code, rec.Body.String())
	}
	lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("stream too short: %s", rec.Body.String())
	}
	var head struct {
		Database string `json:"database"`
		Method   string `json:"method"`
	}
	if err := json.Unmarshal(lines[0], &head); err != nil || head.Database != "uni" {
		t.Fatalf("bad head line %s (%v)", lines[0], err)
	}
	seen := map[string]string{}
	for _, ln := range lines[1 : len(lines)-1] {
		var v struct {
			Fact    string `json:"fact"`
			Shapley string `json:"shapley"`
		}
		if err := json.Unmarshal(ln, &v); err != nil || v.Fact == "" {
			t.Fatalf("bad value line %s (%v)", ln, err)
		}
		if _, dup := seen[v.Fact]; dup {
			t.Fatalf("fact %s streamed twice across the failover", v.Fact)
		}
		seen[v.Fact] = v.Shapley
	}
	var trailer struct {
		Done  bool `json:"done"`
		Count int  `json:"count"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil || !trailer.Done {
		t.Fatalf("missing trailer, last line: %s", lines[len(lines)-1])
	}
	if trailer.Count != 8 || len(seen) != 8 {
		t.Fatalf("streamed %d values (trailer says %d), want all 8", len(seen), trailer.Count)
	}
	for fact, want := range paperex.Example23Values {
		if seen[fact] != want {
			t.Fatalf("Shapley(%s) = %s, want %s", fact, seen[fact], want)
		}
	}
	if tc.rt.Failovers() == 0 {
		t.Fatal("stream completed without recording the mid-stream failover")
	}
}

// TestTracePropagation: ?trace=1 through the router must show the
// cross-process path — the router's worker.call span with the worker's
// own span tree grafted beneath it — under one shared trace id.
func TestTracePropagation(t *testing.T) {
	tc := newCluster(t, 1, 1, time.Millisecond, -1)
	registerUni(t, tc.rt)

	body := mustMarshal(t, map[string]any{"query": uniQ1, "fact": "TA(Adam)"})
	rec := doRaw(t, tc.rt, "POST", "/v1/databases/uni/shapley?trace=1", body,
		map[string]string{"X-Trace-Id": "trace-cluster-0001"})
	if rec.Code != http.StatusOK {
		t.Fatalf("traced request: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Trace-Id"); got != "trace-cluster-0001" {
		t.Fatalf("router did not honor inbound trace id: %q", got)
	}
	var resp struct {
		Trace struct {
			TraceID string          `json:"trace_id"`
			Root    json.RawMessage `json:"root"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace.TraceID != "trace-cluster-0001" {
		t.Fatalf("trace id in body = %q", resp.Trace.TraceID)
	}
	tree := string(resp.Trace.Root)
	if !strings.Contains(tree, "worker.call") {
		t.Fatalf("trace lacks the router's worker.call hop: %s", tree)
	}
	// The worker's own spans (plan lookup/preparation, the single-fact
	// compute) must appear as the remote subtree.
	if !strings.Contains(tree, "shapley.single") {
		t.Fatalf("trace lacks the worker-side remote subtree: %s", tree)
	}
}

// waitWorkerUp polls the router's /metrics until its prober reports the
// named worker up.
func waitWorkerUp(t *testing.T, rt http.Handler, name string) {
	t.Helper()
	want := fmt.Sprintf("shapleyd_router_worker_up{worker=%q} 1", name)
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(doRaw(t, rt, "GET", "/metrics", nil, nil).Body.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("router never reported %s up", name)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerRecoveryWarmsReplica: a worker that was down while the fleet
// took writes must, on recovery, be warmed from a peer snapshot before
// the router routes to it again — same version, same fingerprint, its
// plans cached, and able to serve correct answers when its peer later
// dies.
func TestWorkerRecoveryWarmsReplica(t *testing.T) {
	tc := newCluster(t, 2, 2, time.Millisecond, 25*time.Millisecond)
	w1, w2 := tc.workers["w1"], tc.workers["w2"]

	// w2 crashes before the database exists anywhere.
	w2.proxy.dead.Store(true)
	registerUni(t, tc.rt)
	patch := mustMarshal(t, map[string]any{"add_endo": []string{"Reg(Bob, DB)"}})
	if rec := doRaw(t, tc.rt, "PATCH", "/v1/databases/uni", patch, nil); rec.Code != http.StatusOK {
		t.Fatalf("patch with one replica down: %d: %s", rec.Code, rec.Body.String())
	}
	// Prepare a plan on w1 so the warm-up ships its key, not just the facts.
	q := mustMarshal(t, map[string]any{"query": uniQ1, "mode": "all"})
	if rec := doRaw(t, tc.rt, "POST", "/v1/databases/uni/shapley", q, nil); rec.Code != http.StatusOK {
		t.Fatalf("mode=all with one replica down: %d", rec.Code)
	}

	// w2 comes back; the prober warms it from w1 and only then marks it
	// up, so once the router reports it up, its state must be current.
	w2.proxy.dead.Store(false)
	waitWorkerUp(t, tc.rt, "w2")

	// Both replicas agree on the database identity.
	f1 := doRaw(t, w1.srv, "GET", "/v1/databases/uni", nil, nil).Body.String()
	f2 := doRaw(t, w2.srv, "GET", "/v1/databases/uni", nil, nil).Body.String()
	var i1, i2 struct {
		Version     int    `json:"version"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal([]byte(f1), &i1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(f2), &i2); err != nil {
		t.Fatal(err)
	}
	if i2.Version != 2 || i1 != i2 {
		t.Fatalf("replicas disagree after warm-up: %+v vs %+v", i1, i2)
	}
	// The snapshot carried the plan's key and w2 prepared it before
	// publishing the database: w2 answers from cache.
	rec := doRaw(t, w2.srv, "POST", "/v1/databases/uni/shapley", q, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("w2 after warm-up: %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"cache": "hit"`) || !strings.Contains(rec.Body.String(), `"version": 2`) {
		t.Fatalf("warmed replica should answer version 2 from its warm plan, got: %s", rec.Body.String())
	}

	// Now w1 dies; the warmed replica carries the database alone.
	w1.proxy.dead.Store(true)
	single := mustMarshal(t, map[string]any{"query": uniQ1, "fact": "TA(Adam)"})
	rec = doRaw(t, tc.rt, "POST", "/v1/databases/uni/shapley", single, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("routed request after losing w1: %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"version": 2`) {
		t.Fatalf("surviving replica served a stale version: %s", rec.Body.String())
	}
}

// TestRecoveringOwnerStaysOutOfRouting: while a recovered worker's
// warm-up is in flight it holds no copy of the database, so the router
// must keep routing around it. The recovering worker here is the
// database's first ring owner, and its snapshot PUT is held open: every
// routed read in that window must be a 200 from the peer, never the
// recovering worker's 404.
func TestRecoveringOwnerStaysOutOfRouting(t *testing.T) {
	tc := newCluster(t, 2, 2, time.Millisecond, 25*time.Millisecond)
	owners := tc.rt.Ring().Owners("uni")
	primary, peer := tc.workers[owners[0]], tc.workers[owners[1]]

	primary.proxy.dead.Store(true)
	registerUni(t, tc.rt)
	single := mustMarshal(t, map[string]any{"query": uniQ1, "fact": "TA(Adam)"})
	if rec := doRaw(t, tc.rt, "POST", "/v1/databases/uni/shapley", single, nil); rec.Code != http.StatusOK {
		t.Fatalf("read with the primary down: %d: %s", rec.Code, rec.Body.String())
	}

	g := newGate()
	release := sync.OnceFunc(func() { close(g.release) })
	t.Cleanup(release) // a held PUT would block the worker's shutdown
	primary.proxy.snapshotGate.Store(g)
	primary.proxy.dead.Store(false)
	select {
	case <-g.arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the recovered primary was never sent a warm-up snapshot")
	}
	base := peer.srv.ValuesComputed()
	const reads = 20
	for i := 0; i < reads; i++ {
		rec := doRaw(t, tc.rt, "POST", "/v1/databases/uni/shapley", single, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("routed read %d during the warm-up: %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	if got := peer.srv.ValuesComputed() - base; got != reads {
		t.Fatalf("the peer computed %d of %d reads during the warm-up", got, reads)
	}

	// Once the warm-up lands, the primary rejoins and serves from its
	// warm plan.
	release()
	waitWorkerUp(t, tc.rt, primary.name)
	rec := doRaw(t, primary.srv, "POST", "/v1/databases/uni/shapley", single, nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cache": "hit"`) {
		t.Fatalf("warmed primary: %d: %s", rec.Code, rec.Body.String())
	}
}

// TestRouterBoundsRequestBodies: the router refuses a body past
// MaxBodyBytes with a 400 before any worker sees the request. Both bodies
// are well-formed, so only the bound stops them.
func TestRouterBoundsRequestBodies(t *testing.T) {
	tc := newCluster(t, 2, 2, time.Millisecond, -1)
	const prefix, suffix = `{"id":"big","text":"`, `"}`
	register := []byte(prefix + strings.Repeat("x", cluster.MaxBodyBytes+1-len(prefix)-len(suffix)) + suffix)
	// The text's length prefix takes 4 bytes both at MaxBodyBytes and just
	// below it, so trimming the overshoot leaves a body one byte too long.
	text := strings.Repeat("x", cluster.MaxBodyBytes)
	over := len(cluster.EncodeSnapshot(&cluster.Snapshot{ID: "big", Version: 1, DBText: text})) - cluster.MaxBodyBytes - 1
	snapshot := cluster.EncodeSnapshot(&cluster.Snapshot{ID: "big", Version: 1, DBText: text[over:]})
	for _, req := range []struct {
		method, path string
		body         []byte
	}{
		{"POST", "/v1/databases", register},
		{"PUT", "/v1/databases/big/snapshot", snapshot},
	} {
		if len(req.body) != cluster.MaxBodyBytes+1 {
			t.Fatalf("%s %s: body of %d bytes, want %d", req.method, req.path, len(req.body), cluster.MaxBodyBytes+1)
		}
		if rec := doRaw(t, tc.rt, req.method, req.path, req.body, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %s past the bound: status %d, want 400: %.200s", req.method, req.path, rec.Code, rec.Body.String())
		}
	}
	for name, w := range tc.workers {
		if n := w.proxy.requests.Load(); n != 0 {
			t.Fatalf("worker %s received %d requests with bodies past the bound", name, n)
		}
	}
}

// TestRouterHealthReadyMetrics covers the router's own operational
// surface plus the worker-side readiness split.
func TestRouterHealthReadyMetrics(t *testing.T) {
	tc := newCluster(t, 2, 2, time.Millisecond, -1)

	rec := doRaw(t, tc.rt, "GET", "/healthz", nil, nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"role": "router"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
	if rec = doRaw(t, tc.rt, "GET", "/readyz", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d %s", rec.Code, rec.Body.String())
	}
	tc.rt.SetDraining(true)
	if rec = doRaw(t, tc.rt, "GET", "/readyz", nil, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d, want 503", rec.Code)
	}
	if rec = doRaw(t, tc.rt, "GET", "/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200 (liveness is not readiness)", rec.Code)
	}
	tc.rt.SetDraining(false)

	// Single-fact reads are not merged, so neither /metrics carries a
	// window series.
	const window = `shapleyd_coalesced_requests_total{kind="window"}`
	rec = doRaw(t, tc.rt, "GET", "/metrics", nil, nil)
	for _, want := range []string{
		`shapleyd_coalesced_requests_total{kind="singleflight"}`,
		`shapleyd_coalesced_requests_total{kind="patch"}`,
		`shapleyd_router_failovers_total`,
		`shapleyd_router_worker_up{worker="w1"} 1`,
		`shapleyd_router_worker_up{worker="w2"} 1`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("router /metrics lacks %q:\n%s", want, rec.Body.String())
		}
	}
	if strings.Contains(rec.Body.String(), window) {
		t.Fatalf("router /metrics still carries %q", window)
	}

	// Worker side: same family present (zeros included), and the
	// liveness/readiness split behaves identically.
	w1 := tc.workers["w1"]
	rec = doRaw(t, w1.srv, "GET", "/metrics", nil, nil)
	for _, want := range []string{
		`shapleyd_coalesced_requests_total{kind="singleflight"} 0`,
		`shapleyd_coalesced_requests_total{kind="patch"} 0`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("worker /metrics lacks %q", want)
		}
	}
	if strings.Contains(rec.Body.String(), window) {
		t.Fatalf("worker /metrics still carries %q", window)
	}
	if rec = doRaw(t, w1.srv, "GET", "/readyz", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("worker readyz: %d", rec.Code)
	}
	w1.srv.SetDraining(true)
	if rec = doRaw(t, w1.srv, "GET", "/readyz", nil, nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("worker draining readyz: %d, want 503", rec.Code)
	}
	if rec = doRaw(t, w1.srv, "GET", "/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("worker healthz while draining: %d, want 200", rec.Code)
	}
}

// TestRouterRegisterListDelete covers the database lifecycle through the
// router: ids pin to ring owners, listings merge replicas, deletes reach
// every owner.
func TestRouterRegisterListDelete(t *testing.T) {
	tc := newCluster(t, 3, 2, time.Millisecond, -1)
	registerUni(t, tc.rt)

	// Duplicate id refused at the router.
	body := mustMarshal(t, map[string]any{"id": "uni", "text": paperex.UniversityDBText})
	if rec := doRaw(t, tc.rt, "POST", "/v1/databases", body, nil); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate register: %d", rec.Code)
	}

	// The database landed on exactly its ring owners.
	owners := map[string]bool{}
	for _, o := range tc.rt.Ring().Owners("uni") {
		owners[o] = true
	}
	if len(owners) != 2 {
		t.Fatalf("owners: %v", owners)
	}
	for name, w := range tc.workers {
		rec := doRaw(t, w.srv, "GET", "/v1/databases/uni", nil, nil)
		if hasIt := rec.Code == http.StatusOK; hasIt != owners[name] {
			t.Fatalf("worker %s has uni=%v, ring owner=%v", name, hasIt, owners[name])
		}
	}

	// Listing shows the database once despite two replicas.
	rec := doRaw(t, tc.rt, "GET", "/v1/databases", nil, nil)
	if n := strings.Count(rec.Body.String(), `"id": "uni"`); n != 1 {
		t.Fatalf("listing shows uni %d times: %s", n, rec.Body.String())
	}

	if rec := doRaw(t, tc.rt, "DELETE", "/v1/databases/uni", nil, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	for name, w := range tc.workers {
		if rec := doRaw(t, w.srv, "GET", "/v1/databases/uni", nil, nil); rec.Code != http.StatusNotFound {
			t.Fatalf("worker %s still has uni after delete: %d", name, rec.Code)
		}
	}
	if rec := doRaw(t, tc.rt, "POST", "/v1/databases/uni/shapley",
		mustMarshal(t, map[string]any{"query": uniQ1, "fact": "TA(Adam)"}), nil); rec.Code != http.StatusNotFound {
		t.Fatalf("shapley after delete: %d", rec.Code)
	}
}

// TestRouterSnapshotRoundTrip moves a database between fleets via the
// snapshot wire format: export through the router, import into a fresh
// cluster, and get identical answers with warm plan caches.
func TestRouterSnapshotRoundTrip(t *testing.T) {
	src := newCluster(t, 2, 2, time.Millisecond, -1)
	registerUni(t, src.rt)
	q := mustMarshal(t, map[string]any{"query": uniQ1, "mode": "all"})
	want := doRaw(t, src.rt, "POST", "/v1/databases/uni/shapley", q, nil)
	if want.Code != http.StatusOK {
		t.Fatalf("source mode=all: %d", want.Code)
	}

	rec := doRaw(t, src.rt, "GET", "/v1/databases/uni/snapshot", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("export: %d: %s", rec.Code, rec.Body.String())
	}
	raw, err := io.ReadAll(rec.Body)
	if err != nil {
		t.Fatal(err)
	}

	dst := newCluster(t, 2, 2, time.Millisecond, -1)
	if rec := doRaw(t, dst.rt, "PUT", "/v1/databases/uni/snapshot", raw, nil); rec.Code != http.StatusOK {
		t.Fatalf("import: %d: %s", rec.Code, rec.Body.String())
	}
	got := doRaw(t, dst.rt, "POST", "/v1/databases/uni/shapley", q, nil)
	if got.Code != http.StatusOK {
		t.Fatalf("destination mode=all: %d: %s", got.Code, got.Body.String())
	}
	// The imported plans serve from cache, so modulo the cache-state
	// report the answers are byte-identical.
	if !bytes.Equal(normalizeCache(want.Body.Bytes()), normalizeCache(got.Body.Bytes())) {
		t.Fatalf("migrated fleet answers differently:\nsrc: %s\ndst: %s", want.Body.String(), got.Body.String())
	}
}

// TestRegisterRejectedEverywhereLeavesNoPhantom: when every replica
// rejects a registration with a 4xx (unparsable database text), the
// router must relay the worker's rejection AND forget the id — no worker
// holds the database, so a corrected retry with the same id must succeed
// instead of bouncing off a phantom 409.
func TestRegisterRejectedEverywhereLeavesNoPhantom(t *testing.T) {
	tc := newCluster(t, 2, 2, time.Millisecond, -1)
	bad := mustMarshal(t, map[string]any{"id": "uni", "text": "this is not a database @@@"})
	rec := doRaw(t, tc.rt, "POST", "/v1/databases", bad, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("rejected register: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	// The corrected retry reuses the id; with a phantom entry this 409s.
	registerUni(t, tc.rt)
	if rec := doRaw(t, tc.rt, "GET", "/v1/databases/uni", nil, nil); rec.Code != http.StatusOK {
		t.Fatalf("retried database is not routable: %d: %s", rec.Code, rec.Body.String())
	}
}

// TestDeleteKeepsRoutingEntryWhenNoReplicaAcks: a DELETE that no worker
// acknowledged (whole fleet transiently down) must not drop the routing
// entry — the data still lives on the workers, so the id must stay
// routable for a retry rather than stranding worker state behind a
// forgotten entry.
func TestDeleteKeepsRoutingEntryWhenNoReplicaAcks(t *testing.T) {
	tc := newCluster(t, 2, 2, time.Millisecond, -1)
	registerUni(t, tc.rt)
	for _, w := range tc.workers {
		w.proxy.dead.Store(true)
	}
	if rec := doRaw(t, tc.rt, "DELETE", "/v1/databases/uni", nil, nil); rec.Code != http.StatusBadGateway {
		t.Fatalf("delete with fleet down: status %d, want 502: %s", rec.Code, rec.Body.String())
	}
	for _, w := range tc.workers {
		w.proxy.dead.Store(false)
	}
	// The entry survived the failed delete: the retry reaches the workers
	// and completes. Had the router dropped it, this would 404.
	if rec := doRaw(t, tc.rt, "DELETE", "/v1/databases/uni", nil, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete retry: status %d, want 204: %s", rec.Code, rec.Body.String())
	}
}

// TestPatchWindowFlushRunsOnce pins the run-once contract of the PATCH
// window: a batch claimed by a conflict flush while its timer callback
// is already firing must be applied exactly once. A nanosecond window
// plus concurrent conflicting deltas makes the timer-vs-flush race
// constant; double-applied batches show up as more PATCH forwards per
// worker than there were router-level requests.
func TestPatchWindowFlushRunsOnce(t *testing.T) {
	tc := newCluster(t, 2, 2, time.Nanosecond, -1)
	registerUni(t, tc.rt)

	const rounds = 40
	for i := 0; i < rounds; i++ {
		fact := fmt.Sprintf("Stud(R%d)", i)
		var wg sync.WaitGroup
		for j := 0; j < 2; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				// The pair shares a fact key, so the two deltas conflict and
				// the second forces a flush of the first's open window.
				d := map[string]any{"add_exo": []string{fact}}
				if j == 1 {
					d = map[string]any{"remove": []string{fact}}
				}
				doRaw(t, tc.rt, "PATCH", "/v1/databases/uni", mustMarshal(t, d), nil)
			}(j)
		}
		wg.Wait()
	}

	// Every request is at most its own batch, and each batch forwards one
	// PATCH per replica — so each worker sees at most 2*rounds forwards;
	// any excess means some batch ran twice.
	for name, w := range tc.workers {
		if got := w.proxy.patches.Load(); got > 2*rounds {
			t.Fatalf("worker %s saw %d PATCH forwards for %d requests: a window batch ran more than once", name, got, 2*rounds)
		}
	}
}

// bigDBText builds a database whose mode=all fact ranges are larger than
// the range channel buffer (64), so an aborted scatter leaves producers
// with pending lines — the regression surface for the goroutine leak.
func bigDBText() string {
	var sb strings.Builder
	sb.WriteString("endo TA(S000)\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "exo  Stud(S%03d)\n", i)
		fmt.Fprintf(&sb, "endo Reg(S%03d, C1)\n", i)
	}
	return sb.String()
}

// TestStreamResumeVersionSkew: a mid-stream failover that resumes on a
// replica answering for a different version must abort the stream with a
// version_skew error (never splice cross-version values), and the abort
// must not leak the other ranges' producer goroutines even though their
// channels are full and nobody drains them.
func TestStreamResumeVersionSkew(t *testing.T) {
	tc := newCluster(t, 2, 2, time.Millisecond, -1)
	body := mustMarshal(t, map[string]any{"id": "big", "text": bigDBText()})
	if rec := doRaw(t, tc.rt, "POST", "/v1/databases", body, nil); rec.Code != http.StatusCreated {
		t.Fatalf("register: %d: %s", rec.Code, rec.Body.String())
	}
	owners := tc.rt.Ring().Owners("big")
	primary, secondary := owners[0], owners[1]
	// Write to the secondary behind the router's back: its version moves
	// to 2 while the primary — and the router — stay at 1.
	patch := mustMarshal(t, map[string]any{"add_exo": []string{"Stud(Z999)"}})
	if rec := doRaw(t, tc.workers[secondary].srv, "PATCH", "/v1/databases/big", patch, nil); rec.Code != http.StatusOK {
		t.Fatalf("direct patch: %d: %s", rec.Code, rec.Body.String())
	}
	tc.workers[primary].proxy.truncate.Store(true)

	streamOnce := func() {
		t.Helper()
		rec := doRaw(t, tc.rt, "POST", "/v1/databases/big/shapley",
			mustMarshal(t, map[string]any{"query": uniQ1, "mode": "all"}),
			map[string]string{"Accept": "application/x-ndjson"})
		lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
		// head + the two values delivered before the truncation + the error.
		if len(lines) != 4 {
			t.Fatalf("stream has %d lines, want 4: %s", len(lines), rec.Body.String())
		}
		var last struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatalf("bad terminal line %s (%v)", lines[len(lines)-1], err)
		}
		if last.Done || last.Kind != "version_skew" || !strings.Contains(last.Error, "failover resume") {
			t.Fatalf("stream must abort with a resume version_skew error, got: %s", lines[len(lines)-1])
		}
	}

	// Warm transports and take a goroutine baseline off one aborted stream.
	streamOnce()
	time.Sleep(200 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	const repeats = 6
	for i := 0; i < repeats; i++ {
		streamOnce()
	}
	// Un-drained ranges hold >64 pending lines; without ctx-aware channel
	// sends each aborted stream would pin its producer forever, so the
	// count would sit at least `repeats` above baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines never settled: baseline %d, now %d — range producers leaked", baseline, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
