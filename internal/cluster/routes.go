package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
)

// dbPath returns the escaped worker path for a database id.
func dbPath(id string) string { return "/v1/databases/" + url.PathEscape(id) }

// decodeJSONBody decodes a request body strictly (unknown fields are the
// worker's business to reject; the router only decodes bodies it must
// understand to route or merge, and forwards anything else verbatim).
func decodeJSONBody(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// handleRegister pins the new database id onto the ring and registers it
// on every owning replica. The first successful replica's response is
// relayed; replicas that fail are warmed asynchronously once healthy
// (the prober's recovery path), so a partial registration heals instead
// of diverging.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var req struct {
		ID   string `json:"id,omitempty"`
		Text string `json:"text"`
	}
	if err := decodeJSONBody(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}

	rt.mu.Lock()
	id := req.ID
	if id == "" {
		for {
			rt.seq++
			id = fmt.Sprintf("db-%d", rt.seq)
			if _, taken := rt.dbs[id]; !taken {
				break
			}
		}
	} else if _, exists := rt.dbs[id]; exists {
		rt.mu.Unlock()
		writeError(w, http.StatusConflict, "conflict", fmt.Sprintf("database %q is already registered", id))
		return
	}
	ds := &routedDB{id: id, owners: rt.ring.Owners(id), version: 1}
	ds.applyCond = sync.NewCond(&ds.pmu)
	rt.dbs[id] = ds
	rt.mu.Unlock()

	req.ID = id
	fwd, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	var (
		relayStatus int
		relayBody   []byte
		rejStatus   int
		rejBody     []byte
	)
	for _, name := range ds.owners {
		ws := rt.workerFor(name)
		status, respBody, err := rt.workerJSON(r.Context(), ws, http.MethodPost, "/v1/databases", nil, fwd)
		if err != nil || status >= 500 {
			continue
		}
		if status >= 400 {
			// The worker rejected the database itself (e.g. unparsable
			// text); remember the rejection but keep looking for a replica
			// that accepted.
			if rejBody == nil {
				rejStatus, rejBody = status, respBody
			}
			continue
		}
		if relayBody == nil {
			relayStatus, relayBody = status, respBody
		}
	}
	if relayBody == nil {
		// No worker actually registered the database: drop the routing
		// entry, or a corrected retry with the same id would bounce off a
		// phantom 409 forever.
		rt.mu.Lock()
		delete(rt.dbs, id)
		rt.mu.Unlock()
		if rejBody != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rejStatus)
			_, _ = w.Write(rejBody)
			return
		}
		writeError(w, http.StatusBadGateway, "no_replicas", fmt.Sprintf("no replica of %v accepted the registration", ds.owners))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(relayStatus)
	_, _ = w.Write(relayBody)
}

// handleListDatabases merges the fleet's listings: each live worker
// reports the databases it holds; entries merge by id (replicas of one
// database appear once).
func (rt *Router) handleListDatabases(w http.ResponseWriter, r *http.Request) {
	type entry = json.RawMessage
	byID := map[string]entry{}
	for _, name := range rt.ring.Workers() {
		ws := rt.workerFor(name)
		if !ws.up.Load() {
			continue
		}
		status, body, err := rt.workerJSON(r.Context(), ws, http.MethodGet, "/v1/databases", nil, nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		var list struct {
			Databases []json.RawMessage `json:"databases"`
		}
		if json.Unmarshal(body, &list) != nil {
			continue
		}
		for _, raw := range list.Databases {
			var info struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(raw, &info) == nil && info.ID != "" {
				if _, seen := byID[info.ID]; !seen {
					byID[info.ID] = entry(raw)
				}
			}
		}
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]json.RawMessage, len(ids))
	for i, id := range ids {
		out[i] = byID[id]
	}
	writeJSON(w, http.StatusOK, map[string]any{"databases": out})
}

// handleOwnerGet relays a GET to the first owning replica that answers,
// failing over down the owner list.
func (rt *Router) handleOwnerGet(w http.ResponseWriter, r *http.Request) {
	rt.relayToOwner(w, r, http.MethodGet, nil)
}

// handleOwnerPost relays a POST (classify, relevance, approx) to one
// owning replica; these are read-only against the registered database,
// so any replica's answer is authoritative.
func (rt *Router) handleOwnerPost(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	rt.relayToOwner(w, r, http.MethodPost, body)
}

// relayToOwner forwards a request verbatim to the first owning replica
// that answers, failing over down the owner list, and streams the
// worker's response back. The one body it rewrites is a traced JSON 200
// that carries the worker's trace: the worker's span tree grafts under
// this hop's worker.call span, and the router's own trace replaces it in
// the body, so ?trace=1 through the router shows the full path.
func (rt *Router) relayToOwner(w http.ResponseWriter, r *http.Request, method string, body []byte) {
	id := r.PathValue("id")
	ds, ok := rt.lookupDB(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no database %q", id))
		return
	}
	var hdr http.Header
	if a := r.Header.Get("Accept"); a != "" {
		hdr = http.Header{"Accept": []string{a}}
	}
	for i, ws := range rt.liveOwners(ds) {
		if i > 0 {
			rt.failovers.Add(1)
		}
		resp, sp, err := rt.callWorker(r.Context(), ws, method, r.URL.Path, nil, body, "application/json", hdr)
		if err != nil {
			continue
		}
		if resp.StatusCode >= 500 {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			sp.End()
			continue
		}
		if sp.Recording() && resp.StatusCode == http.StatusOK && resp.Header.Get("Content-Type") == "application/json" {
			respBody, err := readWorkerJSON(ws, resp, sp)
			if err != nil {
				continue
			}
			relay(w, resp, bytes.NewReader(withRouterTrace(r.Context(), respBody)))
			return
		}
		relay(w, resp, resp.Body)
		resp.Body.Close()
		sp.End()
		return
	}
	writeError(w, http.StatusBadGateway, "no_replicas", fmt.Sprintf("no replica of %q is reachable", id))
}

// handleSnapshotPut installs an uploaded snapshot on every owning
// replica (the router-level analogue of register).
func (rt *Router) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	snap, err := DecodeSnapshot(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_snapshot", err.Error())
		return
	}
	if snap.ID != id {
		writeError(w, http.StatusBadRequest, "bad_snapshot", fmt.Sprintf("snapshot is of database %q, not %q", snap.ID, id))
		return
	}
	rt.mu.Lock()
	ds, ok := rt.dbs[id]
	if !ok {
		ds = &routedDB{id: id, owners: rt.ring.Owners(id)}
		ds.applyCond = sync.NewCond(&ds.pmu)
		rt.dbs[id] = ds
	}
	rt.mu.Unlock()
	ds.mu.Lock()
	ds.version = snap.Version
	var (
		relayStatus int
		relayBody   []byte
	)
	for _, name := range ds.owners {
		ws := rt.workerFor(name)
		resp, sp, err := rt.callWorker(r.Context(), ws, http.MethodPut, dbPath(id)+"/snapshot", nil, body, "application/octet-stream", nil)
		if err != nil {
			continue
		}
		respBody, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		sp.End()
		if rerr != nil || resp.StatusCode >= 500 {
			continue
		}
		if relayBody == nil {
			relayStatus, relayBody = resp.StatusCode, respBody
		}
	}
	ds.mu.Unlock()
	if relayBody == nil {
		writeError(w, http.StatusBadGateway, "no_replicas", fmt.Sprintf("no replica of %q accepted the snapshot", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(relayStatus)
	_, _ = w.Write(relayBody)
}

// handleDelete removes the database from every owning replica.
func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ds, ok := rt.lookupDB(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no database %q", id))
		return
	}
	succeeded := false
	for _, name := range ds.owners {
		ws := rt.workerFor(name)
		status, _, err := rt.workerJSON(r.Context(), ws, http.MethodDelete, dbPath(id), nil, nil)
		if err == nil && (status == http.StatusNoContent || status == http.StatusNotFound) {
			succeeded = true
		}
	}
	if !succeeded {
		// Keep the routing entry: the data still lives on the workers, so
		// dropping it would strand the database — unroutable, yet a later
		// re-register of the id would start a fresh version sequence that
		// conflicts with surviving worker state. The caller retries.
		writeError(w, http.StatusBadGateway, "no_replicas", fmt.Sprintf("no replica of %q acknowledged the delete", id))
		return
	}
	rt.mu.Lock()
	delete(rt.dbs, id)
	rt.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// patchDelta is the router's view of a PATCH body: the parsed fact keys
// (for merge-conflict detection) plus the original strings to forward.
type patchDelta struct {
	addEndo, addExo, remove []string
	keys                    map[string]bool
}

// parsePatchDelta validates the fact lists; a delta the router cannot
// parse is never merged (it forwards standalone so only its own caller
// sees the worker's 400).
func parsePatchDelta(addEndo, addExo, remove []string) (*patchDelta, error) {
	d := &patchDelta{addEndo: addEndo, addExo: addExo, remove: remove, keys: map[string]bool{}}
	for _, list := range [][]string{addEndo, addExo, remove} {
		for _, s := range list {
			f, err := db.ParseFact(s)
			if err != nil {
				return nil, err
			}
			d.keys[f.Key()] = true
		}
	}
	return d, nil
}

// conflictsWith reports whether merging other into d could change
// semantics: any shared fact key does (e.g. one request adds what the
// other removes; a merged delta applies removals first, which would flip
// the outcome), so overlapping deltas flush the window instead of
// merging.
func (d *patchDelta) conflictsWith(other *patchDelta) bool {
	for k := range other.keys {
		if d.keys[k] {
			return true
		}
	}
	return false
}

func (d *patchDelta) merge(other *patchDelta) {
	d.addEndo = append(d.addEndo, other.addEndo...)
	d.addExo = append(d.addExo, other.addExo...)
	d.remove = append(d.remove, other.remove...)
	for k := range other.keys {
		d.keys[k] = true
	}
}

// patchResult is what every waiter of a merged PATCH receives: the
// canonical replica response for the whole merged delta.
type patchResult struct {
	status int
	body   []byte
}

// patchBatch is one open PATCH merge window.
type patchBatch struct {
	seq     uint64
	delta   *patchDelta
	waiters []chan patchResult
	timer   *time.Timer
}

// handlePatch is the PATCH coalescing front: deltas arriving within the
// window against the same database merge into one delta applied once per
// replica — one version bump, one DP-tree maintenance sweep per replica,
// regardless of burst size. Deltas touching a common fact never merge
// (the earlier batch flushes first), so replicas always see a sequence
// of deltas semantically identical to some serialization of the burst.
func (rt *Router) handlePatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ds, ok := rt.lookupDB(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no database %q", id))
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var req struct {
		AddEndo []string `json:"add_endo,omitempty"`
		AddExo  []string `json:"add_exo,omitempty"`
		Remove  []string `json:"remove,omitempty"`
	}
	if err := decodeJSONBody(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	delta, perr := parsePatchDelta(req.AddEndo, req.AddExo, req.Remove)
	traced := obs.RecorderFrom(r.Context()) != nil
	if perr != nil || traced || rt.opts.CoalesceWindow < 0 {
		// Unmergeable (malformed, traced, or coalescing disabled): forward
		// standalone, but still through the sequenced executor so replica
		// apply order stays total.
		if delta == nil {
			delta = &patchDelta{addEndo: req.AddEndo, addExo: req.AddExo, remove: req.Remove, keys: map[string]bool{}}
		}
		res := rt.runPatchBatch(r.Context(), ds, rt.enqueuePatch(ds, delta, nil))
		rt.writePatchResult(w, r, res)
		return
	}

	ch := make(chan patchResult, 1)
	ds.pmu.Lock()
	if b := ds.pending; b != nil && !b.delta.conflictsWith(delta) {
		b.delta.merge(delta)
		b.waiters = append(b.waiters, ch)
		ds.pmu.Unlock()
		rt.writePatchResult(w, r, <-ch)
		return
	}
	if b := ds.pending; b != nil {
		// Conflict: flush the open batch now; ours starts a new window
		// sequenced after it.
		b.timer.Stop()
		ds.pending = nil
		go rt.runPatchBatch(context.WithoutCancel(r.Context()), ds, b)
	}
	ds.nextSeq++
	b := &patchBatch{seq: ds.nextSeq, delta: delta, waiters: []chan patchResult{ch}}
	ds.pending = b
	b.timer = time.AfterFunc(rt.opts.CoalesceWindow, func() {
		ds.pmu.Lock()
		won := ds.pending == b
		if won {
			ds.pending = nil
		}
		ds.pmu.Unlock()
		if !won {
			// A conflict flush or standalone enqueue already claimed this
			// batch (its timer.Stop lost the race with this callback firing);
			// running it again would apply the merged delta to every replica
			// twice.
			return
		}
		//repolint:allow ctxflow: timer-driven window flush — the merged batch outlives every caller's request context by design; cancellation would drop other callers' acknowledged deltas
		rt.runPatchBatch(context.Background(), ds, b)
	})
	ds.pmu.Unlock()
	rt.writePatchResult(w, r, <-ch)
}

// enqueuePatch sequences a standalone batch behind any open window
// (flushing it), preserving total apply order.
func (rt *Router) enqueuePatch(ds *routedDB, delta *patchDelta, waiters []chan patchResult) *patchBatch {
	ds.pmu.Lock()
	defer ds.pmu.Unlock()
	if b := ds.pending; b != nil {
		b.timer.Stop()
		ds.pending = nil
		//repolint:allow ctxflow: early window flush — the flushed batch belongs to other callers, so it must not inherit this request's cancellation
		go rt.runPatchBatch(context.Background(), ds, b)
	}
	ds.nextSeq++
	return &patchBatch{seq: ds.nextSeq, delta: delta, waiters: waiters}
}

// runPatchBatch applies one merged delta: it waits its turn in the per-db
// sequence, forwards the delta to every owning replica in owner order
// under the db write lock (so scatters never straddle it), and hands the
// canonical response to every waiter. A replica that fails to apply is
// warmed from a healthy peer afterwards — it missed a delta, so its
// state is stale until the snapshot lands.
func (rt *Router) runPatchBatch(ctx context.Context, ds *routedDB, b *patchBatch) patchResult {
	ds.pmu.Lock()
	for ds.appliedSeq != b.seq-1 {
		ds.applyCond.Wait()
	}
	ds.pmu.Unlock()

	if n := int64(len(b.waiters)) - 1; n > 0 {
		rt.coalescedPatch.Add(n)
	}
	fwd, _ := json.Marshal(struct {
		AddEndo []string `json:"add_endo,omitempty"`
		AddExo  []string `json:"add_exo,omitempty"`
		Remove  []string `json:"remove,omitempty"`
	}{b.delta.addEndo, b.delta.addExo, b.delta.remove})

	ds.mu.Lock()
	var (
		res    patchResult
		stale  []*workerState
		gotOne bool
	)
	for _, name := range ds.owners {
		ws := rt.workerFor(name)
		status, respBody, err := rt.workerJSON(ctx, ws, http.MethodPatch, dbPath(ds.id), nil, fwd)
		if err != nil || status >= 500 {
			stale = append(stale, ws)
			continue
		}
		if !gotOne {
			gotOne = true
			res = patchResult{status: status, body: respBody}
			if status == http.StatusOK {
				var info struct {
					Version db.Version `json:"version"`
				}
				if json.Unmarshal(respBody, &info) == nil && info.Version > 0 {
					ds.version = info.Version
				}
			}
		}
	}
	ds.mu.Unlock()

	ds.pmu.Lock()
	ds.appliedSeq = b.seq
	ds.applyCond.Broadcast()
	ds.pmu.Unlock()

	if !gotOne {
		res = patchResult{status: http.StatusBadGateway}
	}
	for _, ch := range b.waiters {
		ch <- res
	}
	// Replicas that missed the delta heal from a peer snapshot; the
	// warm-up no-ops for workers that are down (the prober re-warms them
	// on recovery).
	for _, ws := range stale {
		if ws.up.Load() {
			go rt.warmReplica(context.WithoutCancel(ctx), ds, ws)
		}
	}
	return res
}

func (rt *Router) writePatchResult(w http.ResponseWriter, r *http.Request, res patchResult) {
	if res.status == http.StatusBadGateway && res.body == nil {
		writeError(w, http.StatusBadGateway, "no_replicas", "no replica accepted the delta")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}
