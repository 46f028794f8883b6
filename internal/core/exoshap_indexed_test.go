package core

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/workload"
)

// denseReferenceValues computes Shapley(D, q, f) for every endogenous fact
// through the dense ExoShap transform and the hierarchical per-fact
// algorithm — the reference path the indexed transform must match value for
// value (tree keys may legitimately differ; the instances do).
func denseReferenceValues(t *testing.T, d *db.Database, q *query.CQ, exo map[string]bool) map[string]*big.Rat {
	t.Helper()
	d2, q2, _, err := exoShapDense(d, q, exo)
	if err != nil {
		t.Fatalf("%s: dense transform: %v", q, err)
	}
	out := make(map[string]*big.Rat)
	for _, f := range d.EndoFacts() {
		v, err := ShapleyHierarchical(d2, q2, f)
		if err != nil {
			t.Fatalf("%s: dense reference Shapley(%s): %v", q, f, err)
		}
		out[f.Key()] = v
	}
	return out
}

// indexedPlanValues computes the same values through the engine prepare
// path, which dispatches to the indexed transform with lazy padding.
func indexedPlanValues(t *testing.T, d *db.Database, q *query.CQ, exo map[string]bool, opts ...EngineOption) map[string]*big.Rat {
	t.Helper()
	eng := NewEngine(append([]EngineOption{WithExoRelations(sortedKeys(exo)...)}, opts...)...)
	plan, err := eng.Prepare(context.Background(), d, q)
	if err != nil {
		t.Fatalf("%s: prepare: %v", q, err)
	}
	if got := plan.Method(); got != MethodExoShap {
		t.Fatalf("%s: prepared with method %s, want %s", q, got, MethodExoShap)
	}
	vals, err := plan.ShapleyAll(context.Background(), BatchOptions{})
	if err != nil {
		t.Fatalf("%s: ShapleyAll: %v", q, err)
	}
	out := make(map[string]*big.Rat, len(vals))
	for _, v := range vals {
		out[v.Fact.Key()] = v.Value
	}
	return out
}

func sortedKeys(m map[string]bool) []string { return SortedRelNames(m) }

func compareValueMaps(t *testing.T, q *query.CQ, d *db.Database, got, want map[string]*big.Rat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values via indexed path, %d via dense reference\nDB:\n%s", q, len(got), len(want), d)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: fact %s missing from indexed-path values\nDB:\n%s", q, k, d)
		}
		if g.Cmp(w) != 0 {
			t.Fatalf("%s: Shapley(%s) indexed %s != dense %s\nDB:\n%s", q, k, g.RatString(), w.RatString(), d)
		}
	}
}

// TestExoShapIndexedMatchesDenseFixedQueries pins the indexed transform to
// the dense reference on the paper's ExoShap queries over randomized
// instances — including parallel builds with an aggressive spawn threshold,
// which exercises concurrent pad-group subdivision.
func TestExoShapIndexedMatchesDenseFixedQueries(t *testing.T) {
	cases := []struct {
		q   *query.CQ
		exo map[string]bool
	}{
		{query.MustParse("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, CS)"),
			map[string]bool{"Stud": true, "Course": true}},
		{query.MustParse("q() :- !R(x, w), S(z, x), !P(z, w), T(y, w)"),
			map[string]bool{"S": true, "P": true}},
		{query.MustParse("q() :- Author(x, y), Pub(x, z), Citations(z, w)"),
			map[string]bool{"Pub": true, "Citations": true}},
		{query.MustParse("qp() :- U(t, r), !T(y), Q(y, w), !V(t), R(x, y), !S(x, z), O(z), P(u, y, w)"),
			map[string]bool{"R": true, "S": true, "O": true, "P": true}},
	}
	rng := rand.New(rand.NewSource(41))
	for ci, tc := range cases {
		for trial := 0; trial < 6; trial++ {
			d := randomInstance(rng, tc.q, 3, 4, tc.exo)
			if d.NumEndo() == 0 {
				continue
			}
			want := denseReferenceValues(t, d, tc.q, tc.exo)
			compareValueMaps(t, tc.q, d, indexedPlanValues(t, d, tc.q, tc.exo), want)
			if ci == 0 || trial == 0 {
				par := indexedPlanValues(t, d, tc.q, tc.exo, WithPrepareParallelism(4), WithSpawnCost(1))
				compareValueMaps(t, tc.q, d, par, want)
			}
		}
	}
	// And the running example itself.
	q2 := cases[0].q
	d := runningExample()
	compareValueMaps(t, q2, d, indexedPlanValues(t, d, q2, cases[0].exo), denseReferenceValues(t, d, q2, cases[0].exo))
}

// TestExoShapIndexedMatchesDenseRandom fuzzes the equivalence over random
// CQ¬s that land on the ExoShap arm of the dichotomy (self-join-free,
// non-hierarchical, no non-hierarchical endogenous path).
func TestExoShapIndexedMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cfg := workload.DefaultRandomCQConfig()
	cfg.ExoProb = 0.55
	checked := 0
	for trial := 0; trial < 4000 && checked < 60; trial++ {
		q, exo := workload.RandomCQ(rng, cfg)
		if q.Validate() != nil || q.HasSelfJoin() || q.IsHierarchical() {
			continue
		}
		if q.HasNonHierarchicalPath(exo) {
			continue
		}
		nonExo := 0
		for _, a := range q.Atoms {
			if !exo[a.Rel] {
				nonExo++
			}
		}
		if nonExo == 0 {
			continue
		}
		d := randomInstance(rng, q, 3, 3, exo)
		if d.NumEndo() == 0 {
			continue
		}
		checked++
		want := denseReferenceValues(t, d, q, exo)
		compareValueMaps(t, q, d, indexedPlanValues(t, d, q, exo), want)
	}
	if checked < 20 {
		t.Fatalf("only %d random ExoShap-arm instances exercised; generator drifted", checked)
	}
}

// TestExoShapIndexedDeltaChain evolves an ExoShap plan through a chain of
// deltas and pins every version's values against a dense reference computed
// fresh on the evolved snapshot — the transform (and its pad routing) is
// re-run per version, so this covers the incremental spine-rebuild path.
func TestExoShapIndexedDeltaChain(t *testing.T) {
	q2 := query.MustParse("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, CS)")
	exo := map[string]bool{"Stud": true, "Course": true}
	d := runningExample()
	eng := NewEngine(WithExoRelations("Stud", "Course"), WithPrepareParallelism(2), WithSpawnCost(1))
	plan, err := eng.Prepare(context.Background(), d, q2)
	if err != nil {
		t.Fatal(err)
	}
	steps := []db.Delta{
		{AddEndo: []db.Fact{db.F("Reg", "David", "DB")}},
		{AddExo: []db.Fact{db.F("Stud", "Eve"), db.F("Course", "ML", "CS")}, AddEndo: []db.Fact{db.F("Reg", "Eve", "ML")}},
		{Remove: []db.Fact{db.F("TA", "Ben")}},
		{Remove: []db.Fact{db.F("Reg", "Eve", "ML")}, AddEndo: []db.Fact{db.F("Reg", "Eve", "AI"), db.F("TA", "Eve")}},
	}
	for si, dl := range steps {
		if _, err := plan.Apply(context.Background(), dl); err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		vals, err := plan.ShapleyAll(context.Background(), BatchOptions{})
		if err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		got := make(map[string]*big.Rat, len(vals))
		for _, v := range vals {
			got[v.Fact.Key()] = v.Value
		}
		snap := plan.Snapshot()
		compareValueMaps(t, q2, snap, got, denseReferenceValues(t, snap, q2, exo))
	}
}

// TestExoShapIndexedDenseFallback pins the errDenseFallback contract: a
// component that needs padding but has only a negated covering atom cannot
// be represented lazily, and the prepare path silently falls back to the
// dense transform with unchanged values.
func TestExoShapIndexedDenseFallback(t *testing.T) {
	q := query.MustParse("q() :- !N(x, y), X(x, u), P(y)")
	exo := map[string]bool{"X": true}
	rng := rand.New(rand.NewSource(47))
	checked := false
	for trial := 0; trial < 12; trial++ {
		d := randomInstance(rng, q, 3, 3, exo)
		if d.NumEndo() == 0 || d.NumEndo() > 9 {
			continue
		}
		if _, _, _, err := exoShapIndexed(d, q, exo); !errors.Is(err, errDenseFallback) {
			if err != nil && (errors.Is(err, ErrIntractable) || errors.Is(err, ErrNotSelfJoinFree)) {
				t.Fatalf("query drifted off the ExoShap arm: %v", err)
			}
			t.Fatalf("want errDenseFallback, got %v", err)
		}
		checked = true
		// The full prepare path must still answer — via the dense
		// transform — and agree with brute force.
		eng := NewEngine(WithExoRelations("X"))
		plan, err := eng.Prepare(context.Background(), d, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Method(); got != MethodExoShap {
			t.Fatalf("fallback prepared with method %s, want %s", got, MethodExoShap)
		}
		for _, f := range d.EndoFacts() {
			want, err := BruteForceShapley(d, q, f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.Shapley(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			if got.Value.Cmp(want) != 0 {
				t.Fatalf("fallback Shapley(%s) = %s, brute force %s\nDB:\n%s", f, got.Value.RatString(), want.RatString(), d)
			}
		}
	}
	if !checked {
		t.Fatal("no instance exercised the dense fallback")
	}
}

// TestExoShapIndexedScalesTo50k prepares the ~50k-fact ExoShap workload —
// three orders of magnitude beyond what the dense transform's
// domain-quadratic materializations could finish — and pins the result two
// independent ways: the parallel build is bit-identical to the sequential
// one, and the full value vector satisfies the Shapley efficiency axiom
// Σ_f Shapley(D, q, f) = v(D) − v(Dx), checked against direct query
// evaluation on the untransformed instance.
func TestExoShapIndexedScalesTo50k(t *testing.T) {
	if testing.Short() {
		t.Skip("large-instance scaling test skipped with -short")
	}
	d := workload.University(workload.UniversityConfig{
		Students: 4500, Courses: 120, RegPerStudent: 9, TAFraction: 0.06,
		ExoRegFraction: 0.995, Seed: 37,
	})
	q2 := query.MustParse("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, CS)")
	ctx := context.Background()
	par := NewEngine(WithExoRelations("Stud", "Course"), WithPrepareParallelism(-1))
	plan, err := par.Prepare(ctx, d, q2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method() != MethodExoShap {
		t.Fatalf("prepared with method %s, want %s", plan.Method(), MethodExoShap)
	}
	seq, err := NewEngine(WithExoRelations("Stud", "Course"), WithPrepareParallelism(1)).Prepare(ctx, d, q2)
	if err != nil {
		t.Fatal(err)
	}
	if pr, sr := plan.pb.treeRoot(), seq.pb.treeRoot(); pr == nil || sr == nil || pr.key != sr.key {
		t.Fatal("parallel Prepare is not bit-identical to sequential at 50k")
	}
	vals, err := plan.ShapleyAll(ctx, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := new(big.Rat)
	for _, v := range vals {
		sum.Add(sum, v.Value)
	}
	vFull := 0
	if q2.Eval(d) {
		vFull = 1
	}
	exoOnly := db.New()
	for _, ff := range d.FlaggedFacts() {
		if !ff.Endo {
			exoOnly.MustAddExo(ff.Fact)
		}
	}
	vEmpty := 0
	if q2.Eval(exoOnly) {
		vEmpty = 1
	}
	want := new(big.Rat).SetInt64(int64(vFull - vEmpty))
	if sum.Cmp(want) != 0 {
		t.Fatalf("efficiency axiom violated at 50k: Σ Shapley = %s, v(D)−v(Dx) = %s", sum.RatString(), want.RatString())
	}
}
