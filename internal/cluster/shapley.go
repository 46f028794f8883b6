package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/obs"
)

// routerShapleyRequest mirrors the worker's shapley request body — the
// router must understand it to scatter mode=all; bodies it cannot decode
// forward verbatim so the worker owns the error message.
type routerShapleyRequest struct {
	Query      string   `json:"query"`
	Fact       string   `json:"fact,omitempty"`
	Facts      []string `json:"facts,omitempty"`
	Mode       string   `json:"mode,omitempty"`
	Offset     int      `json:"offset,omitempty"`
	Limit      int      `json:"limit,omitempty"`
	Workers    int      `json:"workers,omitempty"`
	Exo        []string `json:"exo,omitempty"`
	BruteForce bool     `json:"brute_force,omitempty"`
	Rank       bool     `json:"rank,omitempty"`
}

// workerShapleyResponse is the worker's response schema with payloads
// held raw: the router re-assembles responses from these fields in the
// worker's exact field order and encoder settings, so a routed answer is
// byte-identical to a direct one.
type workerShapleyResponse struct {
	Database string            `json:"database"`
	Version  json.RawMessage   `json:"version"`
	Query    string            `json:"query"`
	Method   string            `json:"method"`
	Cache    string            `json:"cache"`
	Value    json.RawMessage   `json:"value,omitempty"`
	Values   []json.RawMessage `json:"values,omitzero"`
	Trace    json.RawMessage   `json:"trace,omitempty"`
}

// withRouterTrace swaps the trace in a traced worker's JSON response for
// the router's own, whose worker.call span already holds the worker's
// tree. Of the bodies the router forwards, only shapley responses carry
// a trace; any other body comes back unchanged.
func withRouterTrace(ctx context.Context, body []byte) []byte {
	var resp workerShapleyResponse
	if json.Unmarshal(body, &resp) != nil || resp.Trace == nil {
		return body
	}
	resp.Trace = mustJSON(obs.RecorderFrom(ctx).Finish())
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ") // the worker's writeJSON settings
	_ = enc.Encode(resp)
	return buf.Bytes()
}

// handleShapley scatters mode=all batches across the database's replicas
// and forwards every other request — a single fact, an explicit facts
// batch, a body the router cannot decode — verbatim to one owner. Each
// single-fact value is one toggle on the worker, and merging concurrent
// reads saves no toggles, so a single-fact read is one hop with failover.
func (rt *Router) handleShapley(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var req routerShapleyRequest
	if decodeJSONBody(body, &req) != nil || req.Mode != "all" {
		rt.relayToOwner(w, r, http.MethodPost, body)
		return
	}
	id := r.PathValue("id")
	ds, ok := rt.lookupDB(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no database %q", id))
		return
	}
	if wantsNDJSON(r) {
		rt.scatterStream(w, r, ds, &req)
		return
	}
	rt.scatterAll(w, r, ds, &req, body)
}

func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// endoCount asks a replica how many endogenous facts the database has
// (the scatter denominator).
func (rt *Router) endoCount(ctx context.Context, ds *routedDB, ws *workerState) (int, error) {
	status, body, err := rt.workerJSON(ctx, ws, http.MethodGet, dbPath(ds.id), nil, nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d", status)
	}
	var info struct {
		Endogenous int `json:"endogenous"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return 0, err
	}
	return info.Endogenous, nil
}

// factRange is one scatter unit of a mode=all batch.
type factRange struct {
	offset, limit int
	primary       int // index into the live-owner list
}

// splitRanges cuts [0, n) into one contiguous range per replica.
func splitRanges(n, replicas int) []factRange {
	if replicas > n {
		replicas = n
	}
	out := make([]factRange, 0, replicas)
	base, rem := n/replicas, n%replicas
	off := 0
	for i := 0; i < replicas; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, factRange{offset: off, limit: size, primary: i})
		off += size
	}
	return out
}

// scatterAll serves buffered mode=all by fanning disjoint fact ranges
// across the database's live replicas and concatenating the gathered
// values in database order — the response body is byte-identical to one
// worker computing the whole batch, but the sweep runs replication-wide.
// The db read lock holds for the whole gather so no coalesced PATCH can
// land between ranges.
func (rt *Router) scatterAll(w http.ResponseWriter, r *http.Request, ds *routedDB, req *routerShapleyRequest, body []byte) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	live := rt.liveOwners(ds)
	if len(live) == 0 {
		writeError(w, http.StatusBadGateway, "no_replicas", fmt.Sprintf("no replica of %q is reachable", ds.id))
		return
	}
	endo := 0
	var cerr error
	if len(live) > 1 && !req.Rank && req.Offset == 0 && req.Limit == 0 {
		endo, cerr = rt.endoCount(r.Context(), ds, live[0])
	}
	if len(live) == 1 || req.Rank || req.Offset != 0 || req.Limit != 0 || cerr != nil || endo < 2 {
		// Nothing to scatter (or ranking, which needs the whole batch in
		// one place): one replica computes it all, relayed verbatim.
		rt.relayToOwner(w, r, http.MethodPost, body)
		return
	}

	ranges := splitRanges(endo, len(live))
	type rangeResult struct {
		resp       workerShapleyResponse
		rejectCode int // non-zero: a worker 4xx to relay verbatim
		rejectBody []byte
		err        error
	}
	results := make([]rangeResult, len(ranges))
	var wg sync.WaitGroup
	for i, rg := range ranges {
		wg.Add(1)
		go func(i int, rg factRange) {
			defer wg.Done()
			sub := *req
			sub.Offset, sub.Limit = rg.offset, rg.limit
			subBody, _ := json.Marshal(sub)
			var lastErr error = fmt.Errorf("no replica reachable")
			for n := 0; n < len(live); n++ {
				if n > 0 {
					rt.failovers.Add(1)
				}
				ws := live[(rg.primary+n)%len(live)]
				status, respBody, err := rt.workerJSON(r.Context(), ws, http.MethodPost, b64path(ds), nil, subBody)
				if err != nil {
					lastErr = err
					continue
				}
				if status >= 500 {
					lastErr = fmt.Errorf("range [%d,+%d) status %d: %s", rg.offset, rg.limit, status, respBody)
					continue
				}
				if status != http.StatusOK {
					// A request-level rejection (bad exo set, unservable
					// query) repeats on every replica: relay the worker's
					// own error so the routed response matches a direct one.
					results[i] = rangeResult{rejectCode: status, rejectBody: respBody}
					return
				}
				var resp workerShapleyResponse
				if err := json.Unmarshal(respBody, &resp); err != nil {
					lastErr = err
					continue
				}
				results[i] = rangeResult{resp: resp}
				return
			}
			results[i] = rangeResult{err: lastErr}
		}(i, rg)
	}
	wg.Wait()

	for _, res := range results {
		if res.rejectCode != 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(res.rejectCode)
			_, _ = w.Write(res.rejectBody)
			return
		}
	}
	for _, res := range results {
		if res.err != nil {
			writeError(w, http.StatusBadGateway, "scatter_failed", res.err.Error())
			return
		}
	}
	head := results[0].resp
	merged := workerShapleyResponse{
		Database: head.Database,
		Version:  head.Version,
		Query:    head.Query,
		Method:   head.Method,
		Cache:    head.Cache,
		Values:   []json.RawMessage{},
	}
	for _, res := range results {
		if string(res.resp.Version) != string(head.Version) {
			// The ranges answered for different versions: someone wrote to
			// a replica behind the router's back. Refuse rather than splice
			// inconsistent values.
			writeError(w, http.StatusBadGateway, "version_skew",
				fmt.Sprintf("replicas answered for versions %s and %s", head.Version, res.resp.Version))
			return
		}
		merged.Values = append(merged.Values, res.resp.Values...)
	}
	if rec := obs.RecorderFrom(r.Context()); rec != nil {
		if tb, err := json.Marshal(rec.Finish()); err == nil {
			merged.Trace = tb
		}
	}
	writeJSON(w, http.StatusOK, merged)
}

func b64path(ds *routedDB) string { return dbPath(ds.id) + "/shapley" }

// ndjsonLine classifies one worker stream line.
type ndjsonLine struct {
	Done   bool            `json:"done"`
	Count  int             `json:"count"`
	Error  string          `json:"error"`
	Fact   string          `json:"fact"`
	Method string          `json:"method"`
	Trace  json.RawMessage `json:"trace"`
}

// rangeEvent is what a range streamer emits: a value line, or the
// range's terminal state.
type rangeEvent struct {
	value   []byte // one NDJSON value line (without newline), when non-nil
	head    []byte // the worker head line, emitted first
	version string
	done    bool
	err     error
}

// versionSkewError marks a failover resume that reached a replica
// answering for a different version than the range started at: splicing
// its values into the stream would silently mix versions, so the range
// aborts instead of retrying further peers.
type versionSkewError struct{ want, got string }

func (e *versionSkewError) Error() string {
	return fmt.Sprintf("version skew on failover resume: stream at %s, replica answered for %s", e.want, e.got)
}

// sendEvent delivers ev unless the scatter has been cancelled. The
// consumer stops draining when it aborts the response early (version
// skew, range error), so an unconditional send on a full channel would
// park this producer — and its open worker response body — forever; the
// scatter's defer cancel() is what unblocks it.
func sendEvent(ctx context.Context, out chan<- rangeEvent, ev rangeEvent) bool {
	select {
	case out <- ev:
		return true
	case <-ctx.Done():
		return false
	}
}

// scatterStream serves streaming mode=all: every live replica computes
// its disjoint fact range concurrently, and the router re-streams the
// ranges' value lines in database order — head first, then range 0's
// values as they arrive, then range 1's, ..., then one merged trailer. A
// replica dying mid-range fails over to a peer, resuming at the exact
// offset the stream had reached, so the client sees an uninterrupted
// stream (the failover is visible only in the router's metrics).
func (rt *Router) scatterStream(w http.ResponseWriter, r *http.Request, ds *routedDB, req *routerShapleyRequest) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	live := rt.liveOwners(ds)
	if len(live) == 0 {
		writeError(w, http.StatusBadGateway, "no_replicas", fmt.Sprintf("no replica of %q is reachable", ds.id))
		return
	}
	endo, err := rt.endoCount(r.Context(), ds, live[0])
	if err != nil {
		writeError(w, http.StatusBadGateway, "no_replicas", err.Error())
		return
	}
	var ranges []factRange
	if req.Offset != 0 || req.Limit != 0 {
		// A pre-sliced request (another router?) streams as one range.
		ranges = []factRange{{offset: req.Offset, limit: req.Limit, primary: 0}}
	} else if endo == 0 {
		ranges = []factRange{{offset: 0, limit: 0, primary: 0}}
	} else {
		ranges = splitRanges(endo, len(live))
	}

	chans := make([]chan rangeEvent, len(ranges))
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	for i, rg := range ranges {
		chans[i] = make(chan rangeEvent, 64)
		go rt.streamRange(ctx, ds, req, rg, live, chans[i])
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeLine := func(line []byte) {
		_, _ = w.Write(line)
		_, _ = w.Write([]byte("\n"))
		flush()
	}

	headWritten := false
	headVersion := ""
	total := 0
	for i := range chans {
		for ev := range chans[i] {
			switch {
			case ev.head != nil:
				if !headWritten {
					headWritten = true
					headVersion = ev.version
					writeLine(ev.head)
				} else if ev.version != headVersion {
					writeLine(mustJSON(errorBody{Error: fmt.Sprintf(
						"version skew mid-stream: %s then %s", headVersion, ev.version), Kind: "version_skew"}))
					return
				}
			case ev.value != nil:
				writeLine(ev.value)
				total++
			case ev.err != nil:
				kind := "scatter_failed"
				var skew *versionSkewError
				if errors.As(ev.err, &skew) {
					kind = "version_skew"
				}
				// No trailer: its absence tells the client the batch did
				// not finish, exactly like a single worker's mid-stream
				// failure.
				writeLine(mustJSON(errorBody{Error: ev.err.Error(), Kind: kind}))
				return
			}
		}
	}
	trailer := map[string]any{"done": true, "count": total}
	if rec := obs.RecorderFrom(r.Context()); rec != nil {
		trailer["trace"] = rec.Finish()
	}
	writeLine(mustJSON(trailer))
}

func mustJSON(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

// streamRange pumps one fact range's NDJSON lines into out, failing over
// to peer replicas on mid-stream errors: each retry re-requests only the
// not-yet-delivered suffix (offset advanced by the values already
// emitted), so a failover never duplicates or drops a value.
func (rt *Router) streamRange(ctx context.Context, ds *routedDB, req *routerShapleyRequest, rg factRange, live []*workerState, out chan<- rangeEvent) {
	defer close(out)
	consumed := 0
	version := ""
	var lastErr error = fmt.Errorf("no replica reachable")
	for attempt := 0; attempt < len(live); attempt++ {
		if ctx.Err() != nil {
			return // the scatter aborted; nobody is draining events
		}
		if attempt > 0 {
			rt.failovers.Add(1)
		}
		ws := live[(rg.primary+attempt)%len(live)]
		sub := *req
		sub.Offset = rg.offset + consumed
		sub.Limit = rg.limit - consumed
		if rg.limit == 0 && rg.offset == 0 && consumed > 0 {
			// Full-batch range resumed mid-way: express the suffix.
			sub.Offset = consumed
			sub.Limit = 0
		}
		if sub.Limit < 0 {
			break
		}
		subBody, _ := json.Marshal(sub)
		resp, sp, err := rt.callWorker(ctx, ws, http.MethodPost, b64path(ds), nil, subBody,
			"application/json", http.Header{"Accept": []string{"application/x-ndjson"}})
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "ndjson") {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			sp.End()
			lastErr = fmt.Errorf("range [%d,+%d) status %d: %s", rg.offset, rg.limit, resp.StatusCode, bytes.TrimSpace(body))
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				break
			}
			continue
		}
		finished, n, err := rt.pumpRange(ctx, resp.Body, sp, consumed == 0, &version, out)
		resp.Body.Close()
		sp.End()
		consumed += n
		if finished {
			return
		}
		if ctx.Err() != nil {
			return
		}
		lastErr = err
		if lastErr == nil {
			lastErr = fmt.Errorf("worker %s ended the stream without a trailer", ws.name)
		}
		var skew *versionSkewError
		if errors.As(lastErr, &skew) {
			// Not transient: any peer either agrees with the skewed replica
			// (and skews again) or with the values already delivered at the
			// old version — a resume can no longer be consistent.
			break
		}
	}
	sendEvent(ctx, out, rangeEvent{err: lastErr})
}

// pumpRange relays one worker NDJSON response: the head line (forwarded
// only for the first attempt of a range — resumed attempts re-emit
// values, not heads, but every attempt's head is still version-checked
// against the range's first so a failover never splices values computed
// at another version), then value lines, until the trailer (finished)
// or a break. It returns how many value lines it forwarded.
func (rt *Router) pumpRange(ctx context.Context, body io.Reader, sp *obs.Span, wantHead bool, version *string, out chan<- rangeEvent) (finished bool, values int, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	first := true
	for sc.Scan() {
		line := append([]byte(nil), bytes.TrimSpace(sc.Bytes())...)
		if len(line) == 0 {
			continue
		}
		var probe ndjsonLine
		if err := json.Unmarshal(line, &probe); err != nil {
			return false, values, fmt.Errorf("undecodable stream line: %w", err)
		}
		switch {
		case first && probe.Fact == "" && !probe.Done && probe.Error == "":
			// The head line.
			first = false
			var head struct {
				Version json.RawMessage `json:"version"`
			}
			_ = json.Unmarshal(line, &head)
			if *version == "" {
				*version = string(head.Version)
			} else if got := string(head.Version); got != *version {
				return false, values, &versionSkewError{want: *version, got: got}
			}
			if wantHead {
				if !sendEvent(ctx, out, rangeEvent{head: line, version: *version}) {
					return false, values, ctx.Err()
				}
			}
		case probe.Error != "":
			return false, values, fmt.Errorf("worker stream error: %s", probe.Error)
		case probe.Done:
			if sp.Recording() && probe.Trace != nil {
				var tr obs.Trace
				if json.Unmarshal(probe.Trace, &tr) == nil {
					sp.AdoptRemote(tr.Root)
				}
			}
			return true, values, nil
		default:
			first = false
			if !sendEvent(ctx, out, rangeEvent{value: line}) {
				return false, values, ctx.Err()
			}
			values++
		}
	}
	return false, values, sc.Err()
}
