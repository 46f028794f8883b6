package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestServerImportPublishesWarmPlans: ImportState prepares a snapshot's
// plans before it publishes the database, so every read that finds the
// imported database finds its plan cached. A reader loops single-fact
// reads for the whole import; a read that lands between the publish and
// the plan's arrival would report a cache miss.
func TestServerImportPublishesWarmPlans(t *testing.T) {
	src := New(Options{})
	if rec := do(t, src, "POST", "/v1/databases", map[string]any{"id": "big", "text": bigDBText(500)}, nil); rec.Code != http.StatusCreated {
		t.Fatalf("register: %d: %s", rec.Code, rec.Body.String())
	}
	read := map[string]any{"query": q1Src, "fact": "TA(s7)"}
	if rec := do(t, src, "POST", "/v1/databases/big/shapley", read, nil); rec.Code != http.StatusOK {
		t.Fatalf("source read: %d: %s", rec.Code, rec.Body.String())
	}
	snap, ok := src.ExportState("big")
	if !ok || len(snap.Plans) != 1 {
		t.Fatalf("export: ok=%v, plans %+v", ok, snap)
	}

	dst := New(Options{})
	body, err := json.Marshal(read)
	if err != nil {
		t.Fatal(err)
	}
	var found atomic.Int64
	stop := make(chan struct{})
	bad := make(chan string, 1)
	go func() {
		defer close(bad)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			dst.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/databases/big/shapley", bytes.NewReader(body)))
			if rec.Code == http.StatusNotFound {
				continue
			}
			found.Add(1)
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cache": "hit"`) {
				bad <- fmt.Sprintf("%d %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()

	imported, dropped, err := dst.ImportState(context.Background(), snap)
	// Let the reader see the published database a few times before
	// stopping it.
	for deadline := time.Now().Add(5 * time.Second); found.Load() < 5 && len(bad) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if msg, failed := <-bad; failed {
		t.Fatalf("a read found the imported database without its plan: %s", msg)
	}
	if err != nil || imported != 1 || dropped != 0 {
		t.Fatalf("import: imported %d, dropped %d, err %v", imported, dropped, err)
	}
	if found.Load() < 5 {
		t.Fatalf("the reader found the imported database %d times, want at least 5", found.Load())
	}
}
