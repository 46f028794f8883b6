// Command shapleyd runs the Shapley attribution server: a long-lived HTTP
// daemon serving exact and approximate Shapley values, classifications and
// relevance over registered databases, with a cross-query LRU plan cache
// so repeated queries skip validation, classification, ExoShap and the
// shared CntSat tables.
//
// Usage:
//
//	shapleyd -addr :8080 -workers 4 -cache-size 128
//
// Quickstart (see docs/server.md for the full walkthrough):
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/databases \
//	    -d '{"id":"uni","text":"exo Stud(Ann)\nendo TA(Ann)\nendo Reg(Ann, OS)"}'
//	curl -s -X POST localhost:8080/v1/databases/uni/shapley \
//	    -d '{"query":"q() :- Stud(x), !TA(x), Reg(x, y)","mode":"all"}'
//
// Cluster mode (see docs/cluster.md): the same binary also runs as the
// cluster router in front of a worker fleet,
//
//	shapleyd -addr :8081 &
//	shapleyd -addr :8082 &
//	shapleyd -mode=router -addr :8080 \
//	    -shard-workers 'w1=http://localhost:8081,w2=http://localhost:8082' \
//	    -replication 2
//
// which shards database ids onto the workers by consistent hashing,
// replicates every database onto -replication workers, forwards each
// single-fact request to one owning worker, coalesces PATCH bursts within
// -coalesce-window, scatters mode=all batches across replicas, and fails
// over automatically when a worker dies (a recovered worker receives a
// peer's snapshot — the database and its cached plan keys — and prepares
// those plans before the router routes to it again). -shards points at a
// JSON shard config file instead of the inline list.
//
// Observability (see docs/observability.md):
//
//   - Logs are structured JSON on stderr (log/slog); -log-level selects
//     the floor (debug enables per-request access logs). Requests slower
//     than -slow-query are logged at warn and counted on /metrics.
//   - Every response carries an X-Trace-Id header (inbound X-Trace-Id is
//     honored); appending ?trace=1 to a request echoes the request's span
//     tree — plan lookup, preparation, per-worker batch work, tree
//     toggles — in the response body. Through the router, the trace id
//     propagates to the worker and the worker's spans appear as a remote
//     subtree under the router's worker.call span.
//   - -pprof-addr serves net/http/pprof on a separate listener, kept off
//     the public mux so profiling is never exposed with the API.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: /readyz flips to
// 503 (so cluster routers and load balancers stop sending new work — the
// liveness probe /healthz stays 200), then in-flight requests drain for
// up to -drain; when the drain window expires, the base request context
// is cancelled, which aborts in-flight mode=all batches (the compute
// stack is context-aware end to end) before the listener is forcibly
// closed.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// parseLevel maps the -log-level flag to a slog level.
func parseLevel(s string) (slog.Level, bool) {
	switch s {
	case "debug":
		return slog.LevelDebug, true
	case "info":
		return slog.LevelInfo, true
	case "warn":
		return slog.LevelWarn, true
	case "error":
		return slog.LevelError, true
	}
	return 0, false
}

// pprofMux builds the profiling handler explicitly (instead of importing
// net/http/pprof for its DefaultServeMux side effect) so the profile
// endpoints exist only on the dedicated -pprof-addr listener.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		mode      = flag.String("mode", "worker", "process role: worker (serve databases) or router (shard requests across a worker fleet)")
		workers   = flag.Int("workers", 0, "default worker-pool size for mode=all requests (0 = GOMAXPROCS)")
		prepPar   = flag.Int("prepare-parallelism", 0, "DP-tree builder concurrency for plan preparation and PATCH rebuilds (0/1 = sequential, negative = GOMAXPROCS)")
		spawnCost = flag.Int("prepare-spawn-cost", 0, "cost threshold below which the parallel DP-tree builder keeps a subtree inline instead of spawning it (0 = calibrated default; unit ≈ one u64-representation fact)")
		cacheSize = flag.Int("cache-size", server.DefaultCacheSize, "plan-cache capacity in entries")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error (debug enables per-request access logs)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		slowQuery = flag.Duration("slow-query", server.DefaultSlowRequestThreshold, "log requests at least this slow at warn level and count them on /metrics (negative = disabled)")

		// Router-mode flags (ignored as a worker).
		shardFile    = flag.String("shards", "", "router: JSON shard config file ({\"workers\":[{\"name\":...,\"url\":...}],\"replication\":N})")
		shardWorkers = flag.String("shard-workers", "", "router: inline worker fleet as name=url,name=url (alternative to -shards)")
		replication  = flag.Int("replication", 0, "router: replicas per database id (0 = config value or default)")
		virtualNodes = flag.Int("virtual-nodes", 0, "router: hash-ring points per worker (0 = config value or default)")
		coalesce     = flag.Duration("coalesce-window", cluster.DefaultCoalesceWindow, "router: merge window for PATCH bursts to one database (negative = disabled)")
		probeEvery   = flag.Duration("probe-interval", cluster.DefaultProbeInterval, "router: worker health-probe interval (negative = disabled)")
		probeTimeout = flag.Duration("probe-timeout", cluster.DefaultProbeTimeout, "router: per-probe timeout")
	)
	flag.Parse()

	level, ok := parseLevel(*logLevel)
	if !ok {
		slog.Error("invalid -log-level", "value", *logLevel, "want", "debug|info|warn|error")
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	// Build the role's handler plus the hooks the drain sequence needs:
	// flip readiness first so routers stop routing here, then drain.
	var (
		handler     http.Handler
		setDraining func(bool)
		closeRole   func()
	)
	switch *mode {
	case "worker":
		srv := server.New(server.Options{
			Workers:              *workers,
			PrepareParallelism:   *prepPar,
			PrepareSpawnCost:     *spawnCost,
			CacheSize:            *cacheSize,
			Logger:               logger,
			SlowRequestThreshold: *slowQuery,
		})
		handler, setDraining, closeRole = srv, srv.SetDraining, func() {}
	case "router":
		var cfg *cluster.Config
		var err error
		switch {
		case *shardFile != "" && *shardWorkers != "":
			logger.Error("use -shards or -shard-workers, not both")
			os.Exit(2)
		case *shardFile != "":
			cfg, err = cluster.LoadConfig(*shardFile)
		case *shardWorkers != "":
			var ws []cluster.Worker
			ws, err = cluster.ParseWorkerList(*shardWorkers)
			cfg = &cluster.Config{Workers: ws}
		default:
			logger.Error("router mode needs -shards or -shard-workers")
			os.Exit(2)
		}
		if err != nil {
			logger.Error("bad shard config", "error", err)
			os.Exit(2)
		}
		if *replication != 0 {
			cfg.Replication = *replication
		}
		if *virtualNodes != 0 {
			cfg.VirtualNodes = *virtualNodes
		}
		rt, err := cluster.NewRouter(cluster.RouterOptions{
			Config:         cfg,
			CoalesceWindow: *coalesce,
			ProbeInterval:  *probeEvery,
			ProbeTimeout:   *probeTimeout,
			Logger:         logger,
		})
		if err != nil {
			logger.Error("router init failed", "error", err)
			os.Exit(2)
		}
		rt.Start()
		handler, setDraining, closeRole = rt, rt.SetDraining, rt.Close
		logger.Info("router fleet",
			"workers", len(cfg.Workers),
			"replication", cfg.Replication,
			"virtual_nodes", cfg.VirtualNodes,
			"coalesce_window", coalesce.String(),
		)
	default:
		slog.Error("invalid -mode", "value", *mode, "want", "worker|router")
		os.Exit(2)
	}
	defer closeRole()

	// Every request context derives from baseCtx, so cancelling it aborts
	// all in-flight Shapley batches at once when the drain window expires.
	baseCtx, cancelRequests := context.WithCancel(context.Background())
	defer cancelRequests()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	if *pprofAddr != "" {
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           pprofMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server failed", "error", err)
			}
		}()
		defer pprofSrv.Close()
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening",
			"addr", *addr,
			"mode", *mode,
			"workers", *workers,
			"cache_size", *cacheSize,
			"log_level", *logLevel,
			"slow_query", slowQuery.String(),
		)
		errCh <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "error", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		logger.Info("shutting down", "drain", drain.String())
		setDraining(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			// Drain expired: cancel every in-flight request context so
			// running batches abort, then close the remaining connections.
			logger.Warn("drain expired, aborting in-flight batches", "error", err)
			cancelRequests()
			if err := httpSrv.Close(); err != nil {
				logger.Error("forced close failed", "error", err)
			}
		}
	}
	logger.Info("bye")
}
