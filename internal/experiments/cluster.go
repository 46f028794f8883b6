package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/paperex"
	"repro/internal/server"
)

func init() {
	register(Experiment{
		ID:    "E20",
		Title: "Cluster mode: replica failover",
		Paper: "systems companion to §3 (per-fact independence makes the attribution service shardable and batchable)",
		Run:   runE20,
	})
}

// runE20 stands up a real cluster — a router in front of three shapleyd
// workers, replication 2 — and checks two properties the cluster
// architecture claims: (1) a burst of concurrent identical single-fact
// requests, each forwarded on its own, all return the exact value, and
// (2) killing a replica mid-fleet costs availability nothing — requests
// fail over and answers stay correct, with recovery measured end to end.
func runE20(w io.Writer) error {
	const (
		workers     = 3
		replication = 2
		burst       = 48
	)

	cfg := &cluster.Config{Replication: replication}
	fleet := map[string]*server.Server{}
	listeners := map[string]*httptest.Server{}
	for i := 1; i <= workers; i++ {
		name := fmt.Sprintf("w%d", i)
		srv := server.New(server.Options{})
		hs := httptest.NewServer(srv)
		defer hs.Close()
		fleet[name] = srv
		listeners[name] = hs
		cfg.Workers = append(cfg.Workers, cluster.Worker{Name: name, URL: hs.URL})
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Config:        cfg,
		ProbeInterval: -1, // health transitions driven by request outcomes
	})
	if err != nil {
		return err
	}

	post := func(path string, body map[string]any) (int, []byte, error) {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), nil
	}

	if code, body, err := post("/v1/databases", map[string]any{
		"id": "uni", "text": paperex.UniversityDBText,
	}); err != nil || code != http.StatusCreated {
		return fmt.Errorf("register: code %d (%v): %s", code, err, body)
	}

	// Phase 1: concurrent correctness. Every request of a burst of
	// identical single-fact requests must come back with the exact value.
	q1 := "q1() :- Stud(x), !TA(x), Reg(x, y)"
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures int
	)
	t0 := time.Now()
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, err := post("/v1/databases/uni/shapley", map[string]any{
				"query": q1, "fact": "TA(Adam)",
			})
			ok := err == nil && code == http.StatusOK &&
				bytes.Contains(body, []byte(`"shapley": "-3/28"`))
			if !ok {
				mu.Lock()
				failures++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	burstDur := time.Since(t0)
	computed := int64(0)
	for _, srv := range fleet {
		computed += srv.ValuesComputed()
	}

	t := newTable(w, "phase", "requests", "worker sweeps", "wall time")
	t.row("identical burst", fmt.Sprint(burst), fmt.Sprint(computed),
		burstDur.Round(time.Millisecond).String())
	if err := t.flush(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d burst requests failed or returned a wrong value", failures, burst)
	}

	// Phase 2: failover. Kill the primary replica of "uni" and time how
	// long until a request succeeds again through the router (first
	// request eats the transport error and retries a peer in-line, so
	// recovery should be one round trip, not a probe interval).
	primary := rt.Ring().Owners("uni")[0]
	listeners[primary].Close()
	t1 := time.Now()
	code, body, err := post("/v1/databases/uni/shapley", map[string]any{
		"query": q1, "fact": "TA(Ben)",
	})
	recovery := time.Since(t1)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("request after killing %s: code %d (%v): %s", primary, code, err, body)
	}
	if !bytes.Contains(body, []byte(`"shapley": "-2/35"`)) {
		return fmt.Errorf("post-failover answer is wrong: %s", body)
	}

	fmt.Fprintf(w, "\nfailover: killed primary replica %s; next request served by a peer in %s (failovers counted: %d)\n",
		primary, recovery.Round(time.Microsecond), rt.Failovers())
	fmt.Fprintf(w, "all %d concurrent identical requests carried the exact value -3/28 (Example 2.3)\n", burst)
	return nil
}
