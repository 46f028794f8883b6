package core

import (
	"context"
	"sync"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/query"
)

// Plan is the versioned, incrementally maintainable compute handle of the
// v2 API, superseding PreparedBatch. A Plan owns a snapshot of the
// database it was prepared against and the fact-independent computation
// state over it (classification, ExoShap, the shared CntSat tables).
// Plan.Apply evolves the snapshot by a db.Delta, bumping a monotone
// version: the per-bucket dynamic-programming vectors are keyed by bucket
// content (satMemo), so only the buckets the delta touches are recomputed
// and every untouched table is reused — the rebuilt state is bit-identical
// to a fresh Engine.Prepare over the post-delta database.
//
// All methods are safe for concurrent use. Reads (Shapley, ShapleyAll)
// pin the current immutable per-version state and run without holding the
// plan lock, so a long ShapleyAll keeps answering for the version it
// started on while a concurrent Apply installs the next one.
type Plan struct {
	eng *Engine
	cq  *query.CQ
	ucq *query.UCQ

	mu      sync.RWMutex
	version db.Version
	d       *db.Database   // current snapshot, owned by the plan
	pb      *PreparedBatch // immutable per-version computation state
	memo    *satMemo       // content-keyed DP vectors carried across versions
}

// Version returns the plan's current version. Versions start at 1 and
// increase by one per successful non-empty Apply.
func (p *Plan) Version() db.Version {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.version
}

// Classification reports where the prepared query fell in the dichotomies.
func (p *Plan) Classification() Classification { return p.state().Classification() }

// Method reports which algorithm the plan uses at its current version.
func (p *Plan) Method() Method { return p.state().Method() }

// Facts returns the endogenous facts of the current snapshot, in the
// deterministic order ShapleyAll results follow.
func (p *Plan) Facts() []db.Fact { return p.state().Facts() }

// NumFacts returns the number of endogenous facts in the current snapshot.
func (p *Plan) NumFacts() int { return p.state().NumFacts() }

// Snapshot returns a copy of the plan's current database.
func (p *Plan) Snapshot() *db.Database {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.d.Clone()
}

// state pins the current per-version computation state.
func (p *Plan) state() *PreparedBatch {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.pb
}

// PlanView is an atomic pin of one plan version: its compute methods
// answer against exactly the state Version reports, even while concurrent
// Applies move the plan on. Serving layers use it to label responses with
// the version that actually produced them.
type PlanView struct {
	eng     *Engine
	pb      *PreparedBatch
	version db.Version
}

// View pins the plan's current version and state atomically.
func (p *Plan) View() *PlanView {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return &PlanView{eng: p.eng, pb: p.pb, version: p.version}
}

// Version reports the plan version the view answers for.
func (v *PlanView) Version() db.Version { return v.version }

// Method reports which algorithm the pinned state uses.
func (v *PlanView) Method() Method { return v.pb.Method() }

// Facts returns the endogenous facts of the pinned snapshot, in the
// deterministic order ShapleyAll results follow.
func (v *PlanView) Facts() []db.Fact { return v.pb.Facts() }

// NumFacts returns the number of endogenous facts of the pinned snapshot.
func (v *PlanView) NumFacts() int { return v.pb.NumFacts() }

// Shapley computes the value of a single endogenous fact of the pinned
// snapshot.
func (v *PlanView) Shapley(ctx context.Context, f db.Fact) (*ShapleyValue, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return v.pb.shapleyOne(ctx, f)
}

// ShapleyAll computes the value of every endogenous fact of the pinned
// snapshot; see Plan.ShapleyAll.
func (v *PlanView) ShapleyAll(ctx context.Context, opts BatchOptions) ([]*ShapleyValue, error) {
	if opts.Workers <= 0 {
		opts.Workers = v.eng.workers
	}
	return v.pb.shapleyAll(ctx, opts)
}

// ShapleySubset computes the values of an explicit list of endogenous
// facts of the pinned snapshot, in the given order, fanning the per-fact
// work across the worker pool exactly like ShapleyAll. It exists for
// serving layers that answer explicit fact batches (or scatter fact
// ranges across replicas): the per-fact toggles share the prepared
// DP-tree, so K batched facts cost one sweep of K toggles, not K
// preparations. Each value is bit-identical to Shapley on that fact.
func (v *PlanView) ShapleySubset(ctx context.Context, facts []db.Fact, opts BatchOptions) ([]*ShapleyValue, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = v.eng.workers
	}
	return v.pb.shapleySubset(ctx, facts, opts)
}

// Shapley computes the value of a single endogenous fact of the current
// snapshot, reusing the prepared tables. It is bit-for-bit identical to
// Solver.Shapley on the snapshot.
func (p *Plan) Shapley(ctx context.Context, f db.Fact) (*ShapleyValue, error) {
	return p.View().Shapley(ctx, f)
}

// ShapleyAll computes the value of every endogenous fact of the current
// snapshot, fanning per-fact work across a worker pool (BatchOptions.
// Workers, defaulting to the engine's WithWorkers setting). Results are in
// Facts() order; OnResult streams them in that order as they complete.
// Cancelling ctx aborts in-flight work and returns ctx.Err().
func (p *Plan) ShapleyAll(ctx context.Context, opts BatchOptions) ([]*ShapleyValue, error) {
	return p.View().ShapleyAll(ctx, opts)
}

// Apply evolves the plan's snapshot by delta and returns the new version.
// An empty delta is a no-op returning the current version unchanged. On
// error (an invalid delta, or a post-delta database the prepared query
// cannot be served over, e.g. an endogenous fact added to a declared
// exogenous relation) the plan is left untouched at its current version.
//
// Only the root-to-leaf spines of the DP-tree the delta's facts fall into
// are recomputed: every subtree whose input content is unchanged — no
// matter how deep below a touched top-level bucket — is reused through the
// content-addressed node memo, and the convolution products along the
// recomputed spines are maintained by exact polynomial division instead of
// re-convolving all siblings. The result is bit-identical to a fresh
// Engine.Prepare on the post-delta database.
func (p *Plan) Apply(ctx context.Context, delta db.Delta) (db.Version, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if delta.Empty() {
		return p.version, nil
	}
	if err := ctxErr(ctx); err != nil {
		return p.version, err
	}
	_, sp := obs.Start(ctx, "plan.apply")
	defer sp.End()
	newD, err := p.d.Apply(delta)
	if err != nil {
		return p.version, err
	}
	memo := p.memo.next()
	ex := prepExtras{memo: memo, prev: p.pb, cfg: p.eng.buildConfig()}
	var pb *PreparedBatch
	if p.cq != nil {
		pb, err = prepareCQ(newD, p.cq, p.eng.exo, p.eng.brute, ex)
	} else {
		pb, err = prepareUCQ(newD, p.ucq, p.eng.exo, p.eng.brute, ex)
	}
	if err != nil {
		// The plan stays at its current version. Nodes the failed build
		// may have added to the shared memo are content-addressed and
		// semantically invisible; the rollover clock is only advanced on
		// success below.
		return p.version, err
	}
	memo.commitNext(p.memo)
	p.d, p.pb, p.memo = newD, pb, memo
	p.version++
	if sp.Recording() {
		st := pb.buildStats()
		sp.SetAttrs(
			obs.Int64("version", int64(p.version)),
			obs.Int64("memo_hits", int64(st.Hits)),
			obs.Int64("memo_misses", int64(st.Misses)),
			obs.Int64("prod_maintained", int64(st.ProdMaintained)),
			obs.Int64("prod_rebuilt", int64(st.ProdRebuilt)),
		)
	}
	return p.version, nil
}

// MemoEntries reports the live node count of the plan's content-addressed
// memo without walking the tree (cheap enough for metrics scrapes; see
// TreeStats for the full shape).
func (p *Plan) MemoEntries() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.memo.entries()
}

// TreeStats summarizes the DP-tree IR behind the plan's current version:
// node counts by kind, tree depth, the memo traffic of the most recent
// construction (the initial Prepare or the last Apply) and the live node
// count of the content-addressed memo. Plans on the brute-force fallback
// (or with no endogenous facts) report the zero value.
func (p *Plan) TreeStats() TreeStats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ts := treeStats(p.pb.treeRoot())
	st := p.pb.buildStats()
	ts.MemoHits, ts.MemoMisses = st.Hits, st.Misses
	ts.ProdMaintained, ts.ProdRebuilt = st.ProdMaintained, st.ProdRebuilt
	ts.MemoEntries = p.memo.entries()
	return ts
}
