package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/paperex"
	"repro/internal/server"
)

func benchPost(b *testing.B, h http.Handler, path string, body []byte, want int) {
	b.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != want {
		b.Errorf("POST %s: code %d, want %d: %s", path, rec.Code, want, rec.Body.String())
	}
}

// BenchmarkClusterSingleFact compares single-fact /shapley throughput served
// directly by one worker against the same load routed through the router.
// Both paths pay one toggle per request; the router adds one forwarded hop
// over loopback HTTP.
func BenchmarkClusterSingleFact(b *testing.B) {
	regBody, err := json.Marshal(map[string]any{"id": "uni", "text": paperex.UniversityDBText})
	if err != nil {
		b.Fatal(err)
	}
	reqBody, err := json.Marshal(map[string]any{
		"query": "q1() :- Stud(x), !TA(x), Reg(x, y)",
		"fact":  "TA(Adam)",
	})
	if err != nil {
		b.Fatal(err)
	}
	hammer := func(b *testing.B, h http.Handler) {
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				benchPost(b, h, "/v1/databases/uni/shapley", reqBody, http.StatusOK)
			}
		})
	}

	b.Run("direct-worker", func(b *testing.B) {
		srv := server.New(server.Options{})
		benchPost(b, srv, "/v1/databases", regBody, http.StatusCreated)
		hammer(b, srv)
	})

	b.Run("router", func(b *testing.B) {
		cfg := &cluster.Config{Replication: 2}
		for i := 1; i <= 3; i++ {
			hs := httptest.NewServer(server.New(server.Options{}))
			defer hs.Close()
			cfg.Workers = append(cfg.Workers, cluster.Worker{Name: fmt.Sprintf("w%d", i), URL: hs.URL})
		}
		rt, err := cluster.NewRouter(cluster.RouterOptions{
			Config:        cfg,
			ProbeInterval: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchPost(b, rt, "/v1/databases", regBody, http.StatusCreated)
		hammer(b, rt)
	})
}
