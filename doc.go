// Package repro is a complete Go implementation of
//
//	Alon Reshef, Benny Kimelfeld, Ester Livshits:
//	"The Impact of Negation on the Complexity of the Shapley Value in
//	Conjunctive Queries" (PODS 2020, arXiv:1912.12610),
//
// built from scratch on the standard library. It provides:
//
//   - a relational database substrate with endogenous and exogenous facts
//     (the players and the fixed context of the Shapley game),
//   - Boolean conjunctive queries with safe negation (CQ¬) and unions
//     thereof (UCQ¬), with a parser, structural analyses (hierarchy,
//     non-hierarchical triplets and paths, polarity consistency) and a
//     homomorphism evaluator,
//   - exact Shapley value computation: polynomial-time for hierarchical
//     self-join-free CQ¬s (Theorem 3.1), extended by the ExoShap algorithm
//     to every self-join-free CQ¬ without a non-hierarchical path when some
//     relations are declared exogenous (Theorem 4.3), plus exponential
//     brute-force oracles for everything else,
//   - a batched, parallel all-facts engine (Solver.ShapleyAllBatch with
//     BatchOptions{Workers, OnResult}): the query is validated and
//     classified once, ExoShap runs once per batch, the fact-independent
//     parts of the CntSat dynamic program (relevance partition, free-filler
//     binomials, per-bucket tables and their leave-one-out convolution
//     product) are shared, and per-fact work fans across a worker pool
//     with deterministic output order — Solver.ShapleyAll delegates to it,
//   - the Engine/Plan API v2 (NewEngine with WithWorkers / WithBruteForce
//     / WithExoRelations / WithPrepareParallelism → Engine.Prepare /
//     PrepareUCQ → Plan): a versioned, incrementally maintainable compute
//     handle whose Shapley/ShapleyAll accept a context.Context for
//     cancellation, and whose Apply evolves the snapshot under a Delta by
//     recomputing only the DP buckets the delta touches (content-keyed
//     memoization + exact polynomial division of the bucket product) —
//     bit-identical to a fresh preparation and roughly an order of
//     magnitude cheaper for single-fact deltas. WithPrepareParallelism
//     fans tree construction (and Apply's spine rebuilds) across builder
//     goroutines over a sharded node store, again bit-identical at every
//     setting; cmd/benchreport's -cpu flag records the resulting scaling
//     curves in its JSON artifact under "scaling". See docs/api.md for
//     the migration table from the deprecated PreparedBatch surface,
//   - a batched UCQ engine (Solver.ShapleyAllUCQ) and a parallel,
//     context-cancellable brute-force oracle (BruteForceShapleyAllWorkers)
//     that splits the 2^m subset scan by mask range across workers,
//   - a serving layer (internal/server + cmd/shapleyd): an HTTP/JSON
//     attribution server with mutable, versioned registered databases
//     (PATCH applies deltas and patches cached plans in place), a
//     cross-query LRU plan cache (internal/servercache) with single-flight
//     cold paths, and chunked NDJSON streaming of mode=all batches — see
//     docs/server.md,
//   - a cluster layer (internal/cluster, `shapleyd -mode=router`,
//     docs/cluster.md): a stateless router sharding database ids onto a
//     replicated consistent-hash ring of stock shapleyd workers, with
//     PATCH fan-out in per-database total order, scatter-gathered and
//     re-streamed mode=all (range splitting rides the per-fact
//     independence of the batch engine), single-fact reads forwarded to
//     one owning worker, a bounded window merging PATCH bursts into one
//     delta, health-probed automatic failover (including
//     mid-stream re-request of the undelivered suffix), and snapshot
//     warm-up that ships a live replica's database and cached plan keys
//     to a rejoining worker, which re-prepares those plans before it
//     rejoins routing — routed answers are bit-identical to a single
//     process,
//   - an always-on observability layer (internal/obs, docs/observability.md):
//     context-carried phase spans across the whole compute stack (prepare,
//     apply, per-worker batch work, DP-tree toggles, weighting) that
//     allocate only when a request opts in with ?trace=1 (or the CLI's
//     -trace), trace-id propagation via X-Trace-Id, per-route and
//     per-phase atomic latency histograms on /metrics, structured
//     log/slog JSON logs with slow-query warnings, and an isolated
//     net/http/pprof listener behind -pprof-addr,
//   - the additive Monte-Carlo FPRAS of §5.1 and the machinery showing why
//     no multiplicative FPRAS exists in general (gap-property witnesses,
//     relevance hardness reductions),
//   - relevance decision procedures (Definition 5.2): polynomial for
//     polarity-consistent CQ¬s and UCQ¬s (Proposition 5.7, Algorithms 2-3),
//   - aggregate (Count/Sum) Shapley values over CQ¬s by linearity (§3), and
//   - tuple-independent probabilistic databases with exact lifted inference
//     and the deterministic-relation extension (Theorem 4.10).
//
// All values are exact rationals; the paper's Example 2.3 values (−3/28,
// −2/35, 37/210, 27/140, 13/42) are reproduced bit-for-bit. Internally the
// counting runs on an adaptive exact numeric kernel (internal/numeric):
// subset counts live in the minimal of u64/u128/big.Int and promote
// automatically on overflow, so the hot convolution loops run on flat
// machine words while remaining bit-identical to pure math/big arithmetic
// by construction. Only the final Shapley weighting k!(m−1−k)!/m! uses
// big.Rat.
//
// These invariants — count arithmetic confined to the kernel, DP-tree
// nodes immutable after interning, context threading on every blocking
// path, no ordered output from map iteration, no blocking work under a
// held server mutex, every obs.Start span ended on all paths — are
// enforced mechanically by a repo-specific
// static-analysis suite (internal/analysis, run via `go run
// ./cmd/repolint ./...` or as a `go vet -vettool`); see docs/analysis.md.
//
// # Quick start
//
// The module is named "repro" (see go.mod; building requires it — the
// tier-1 check is `go build ./... && go test ./...` from the repo root):
//
//	d := repro.MustParseDatabase(`
//	exo  Stud(Ann)
//	endo TA(Ann)
//	endo Reg(Ann, OS)
//	`)
//	q := repro.MustParseQuery("q() :- Stud(x), !TA(x), Reg(x, y)")
//	solver := &repro.Solver{}
//	values, err := solver.ShapleyAll(d, q)
//
// For large all-facts workloads, control the batch engine directly:
//
//	values, err := solver.ShapleyAllBatch(d, q, repro.BatchOptions{
//		Workers:  8,
//		OnResult: func(v *repro.ShapleyValue) { fmt.Println(v) },
//	})
//
// When the same database and query will be hit repeatedly (a serving
// layer), prepare a Plan once and reuse it; the handle is versioned,
// cancellable and maintainable under deltas:
//
//	eng := repro.NewEngine(repro.WithWorkers(8))
//	plan, err := eng.Prepare(ctx, d, q)
//	v, err := plan.Shapley(ctx, f)                        // per-fact
//	values, err := plan.ShapleyAll(ctx, repro.BatchOptions{})
//	_, err = plan.Apply(ctx, repro.Delta{AddEndo: []repro.Fact{f2}})
//
// The `shapleyd` daemon (cmd/shapleyd, docs/server.md) does exactly that
// behind an HTTP/JSON API: an LRU plan cache across queries, PATCH deltas
// that maintain cached plans in place, and NDJSON streaming of all-facts
// batches.
//
// See examples/ for runnable programs, DESIGN.md for the system inventory
// and EXPERIMENTS.md for the paper-vs-measured record.
package repro
