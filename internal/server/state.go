package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/db"
)

// This file is the cluster warm-up surface: exporting a registered
// database (text, version, and the keys of its cached plans) as one
// portable blob, and importing such a blob to stand up a replica whose
// plans are warm on arrival. The importer re-prepares every listed plan
// through planFor before it publishes the database, so no request can
// see the imported database without its plans. The wire format lives in
// internal/cluster.

// validateDatabaseID enforces the registration id rules. "." and ".."
// survive registration but are unreachable afterwards: ServeMux
// path-cleaning redirects /v1/databases/../... away before route matching
// ever sees the id. Control characters are rejected so ids can never
// embed the '\x00' separator of plan-cache keys.
func validateDatabaseID(id string) error {
	if strings.ContainsAny(id, "/ \t\n") || id == "." || id == ".." ||
		strings.ContainsFunc(id, func(r rune) bool { return r < 0x20 || r == 0x7f }) {
		return fmt.Errorf("database id must not contain slashes, whitespace, control characters or be a dot segment")
	}
	return nil
}

// ExportState captures database id as a warm-up snapshot: its current
// text and version, plus the key of every cached plan answering for
// exactly that version (entries mid-PATCH or stale are skipped — a
// snapshot must never mix versions). The ok result is false when no such
// database is registered.
func (s *Server) ExportState(id string) (*cluster.Snapshot, bool) {
	snap, ok := s.snapshot(id)
	if !ok {
		return nil, false
	}
	out := &cluster.Snapshot{ID: id, Version: snap.version, DBText: snap.d.String()}
	prefix := fmt.Sprintf("%s\x00g%d\x00", id, snap.gen)
	for _, key := range s.plans.Keys() {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		if cp, ok := s.plans.Peek(key); ok && cp.servedVersion(nil) == snap.version {
			out.Plans = append(out.Plans, cp.spec)
		}
	}
	return out, true
}

// ImportState installs a warm-up snapshot, replacing any existing
// registration of the same id. It parses the database text, reserves a
// fresh generation (so plans and in-flight preparations of the displaced
// registration can never serve the new one), prepares every listed plan
// under that generation through planFor, and only then publishes the
// registration: a request that finds the imported database finds its
// plans cached. A plan that fails to prepare is dropped and counted,
// never fatal — the database itself is what must install.
func (s *Server) ImportState(ctx context.Context, snap *cluster.Snapshot) (imported, dropped int, err error) {
	if snap.ID == "" {
		return 0, 0, fmt.Errorf("snapshot has no database id")
	}
	if err := validateDatabaseID(snap.ID); err != nil {
		return 0, 0, err
	}
	if snap.Version < 1 {
		return 0, 0, fmt.Errorf("snapshot version %d is invalid (versions start at 1)", snap.Version)
	}
	d, err := db.Parse(snap.DBText)
	if err != nil {
		return 0, 0, fmt.Errorf("snapshot database text: %w", err)
	}

	s.mu.Lock()
	s.gens++
	rdb := &registeredDB{
		id:          snap.ID,
		gen:         s.gens,
		fingerprint: d.Fingerprint(),
		d:           d,
		version:     snap.Version,
		created:     time.Now(),
	}
	dsnap := rdb.snap()
	s.mu.Unlock()

	// Preparation is detached from the caller's cancellation, like any
	// plan preparation: a disconnecting uploader must not leave half the
	// plans cold.
	ictx := context.WithoutCancel(ctx)
	for _, pk := range snap.Plans {
		pq, perr := parseRequestQuery(pk.Query)
		if perr == nil {
			_, _, perr = s.planFor(ictx, dsnap, pq, pk.Exo, pk.Brute)
		}
		if perr != nil {
			dropped++
			continue
		}
		imported++
	}

	s.mu.Lock()
	s.dbs[snap.ID] = rdb
	s.mu.Unlock()
	// The displaced registration's cache entries are unreachable (their
	// keys carry another generation); drop them rather than waiting for
	// LRU pressure.
	oldPrefix := snap.ID + "\x00"
	newPrefix := fmt.Sprintf("%s\x00g%d\x00", snap.ID, dsnap.gen)
	s.plans.RemoveIf(func(key string) bool {
		return strings.HasPrefix(key, oldPrefix) && !strings.HasPrefix(key, newPrefix)
	})
	return imported, dropped, nil
}

// handleExportSnapshot serves GET /v1/databases/{id}/snapshot: the
// database and its warm plan keys in the cluster wire format.
func (s *Server) handleExportSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.ExportState(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no database %q", id))
		return
	}
	body := cluster.EncodeSnapshot(snap)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Snapshot-Version", fmt.Sprintf("%d", snap.Version))
	w.Header().Set("X-Snapshot-Plans", fmt.Sprintf("%d", len(snap.Plans)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// snapshotImportResponse reports what a PUT snapshot installed.
type snapshotImportResponse struct {
	databaseInfo
	PlansImported int `json:"plans_imported"`
	PlansDropped  int `json:"plans_dropped"`
}

// handleImportSnapshot serves PUT /v1/databases/{id}/snapshot: install
// the uploaded snapshot under the path id (which must match the id
// recorded in the body — a snapshot is the state of one database, not a
// template).
func (s *Server) handleImportSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	snap, err := cluster.DecodeSnapshot(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_snapshot", err.Error())
		return
	}
	if snap.ID != id {
		writeError(w, http.StatusBadRequest, "bad_snapshot",
			fmt.Sprintf("snapshot is of database %q, not %q", snap.ID, id))
		return
	}
	imported, dropped, err := s.ImportState(r.Context(), snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_snapshot", err.Error())
		return
	}
	dsnap, _ := s.snapshot(id)
	writeJSON(w, http.StatusOK, snapshotImportResponse{
		databaseInfo:  dsnap.info(),
		PlansImported: imported,
		PlansDropped:  dropped,
	})
}
