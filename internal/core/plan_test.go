package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/db"
	"repro/internal/paperex"
	"repro/internal/query"
	"repro/internal/workload"
)

// assertSameValues fails unless the two batches are bit-for-bit identical
// (facts, exact rationals and methods, in order).
func assertSameValues(t *testing.T, label string, got, want []*ShapleyValue) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Fact.Key() != want[i].Fact.Key() ||
			got[i].Value.Cmp(want[i].Value) != 0 ||
			got[i].Method != want[i].Method {
			t.Fatalf("%s: value %d = %s %s [%s], want %s %s [%s]",
				label, i,
				got[i].Fact, got[i].Value.RatString(), got[i].Method,
				want[i].Fact, want[i].Value.RatString(), want[i].Method)
		}
	}
}

// freshAll prepares a plan from scratch over d and returns its batch.
func freshAll(t *testing.T, eng *Engine, d *db.Database, q *query.CQ, u *query.UCQ) []*ShapleyValue {
	t.Helper()
	var (
		p   *Plan
		err error
	)
	if q != nil {
		p, err = eng.Prepare(context.Background(), d, q)
	} else {
		p, err = eng.PrepareUCQ(context.Background(), d, u)
	}
	if err != nil {
		t.Fatalf("fresh prepare: %v", err)
	}
	vals, err := p.ShapleyAll(context.Background(), BatchOptions{Workers: 2})
	if err != nil {
		t.Fatalf("fresh all: %v", err)
	}
	return vals
}

// randomDelta builds a random valid delta against d: removals of existing
// facts and insertions over the relations of q (plus an out-of-query
// relation, exercising the free-filler partition). Insertions into exo
// relations are always exogenous so the delta stays applicable.
func randomDelta(rng *rand.Rand, d *db.Database, q *query.CQ, exo map[string]bool) db.Delta {
	var dl db.Delta
	facts := d.Facts()
	for _, f := range facts {
		if rng.Float64() < 0.15 {
			dl.Remove = append(dl.Remove, f)
		}
	}
	removed := make(map[string]bool)
	for _, f := range dl.Remove {
		removed[f.Key()] = true
	}
	dom := []db.Const{"a", "b", "c", "zz1", "zz2"}
	arity := map[string]int{"Free": 1}
	for _, a := range q.Atoms {
		arity[a.Rel] = len(a.Args)
	}
	rels := append(q.Relations(), "Free")
	for trial := 0; trial < 4; trial++ {
		rel := rels[rng.Intn(len(rels))]
		args := make([]db.Const, arity[rel])
		for j := range args {
			args[j] = dom[rng.Intn(len(dom))]
		}
		f := db.Fact{Rel: rel, Args: args}
		if (d.Contains(f) && !removed[f.Key()]) || removed[f.Key()] {
			continue
		}
		dup := false
		for _, g := range append(dl.AddEndo, dl.AddExo...) {
			if g.Key() == f.Key() {
				dup = true
			}
		}
		if dup {
			continue
		}
		if exo[rel] || rng.Float64() < 0.3 {
			dl.AddExo = append(dl.AddExo, f)
		} else {
			dl.AddEndo = append(dl.AddEndo, f)
		}
	}
	return dl
}

// TestPlanApplyDifferentialRandom is the tentpole's correctness gate:
// across random tractable queries (hierarchical and ExoShap), a chain of
// random deltas applied incrementally must stay bit-identical to preparing
// from scratch over the evolved snapshot at every step.
func TestPlanApplyDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(451))
	cfg := workload.DefaultRandomCQConfig()
	checked := 0
	for trial := 0; trial < 120 && checked < 40; trial++ {
		q, exo := workload.RandomCQ(rng, cfg)
		if !Classify(q, exo).Tractable {
			continue
		}
		d := workload.RandomForQuery(rng, q, 2, 2, exo, 0.8)
		exoList := make([]string, 0, len(exo))
		for r := range exo {
			exoList = append(exoList, r)
		}
		eng := NewEngine(WithExoRelations(exoList...))
		plan, err := eng.Prepare(context.Background(), d, q)
		if err != nil {
			t.Fatalf("%s (exo %v): %v\nDB:\n%s", q, exo, err, d)
		}
		for step := 0; step < 3; step++ {
			dl := randomDelta(rng, plan.Snapshot(), q, exo)
			if _, err := plan.Apply(context.Background(), dl); err != nil {
				t.Fatalf("%s step %d: apply %v: %v\nDB:\n%s", q, step, dl, err, plan.Snapshot())
			}
			got, err := plan.ShapleyAll(context.Background(), BatchOptions{Workers: 2})
			if err != nil {
				t.Fatalf("%s step %d: %v", q, step, err)
			}
			want := freshAll(t, eng, plan.Snapshot(), q, nil)
			assertSameValues(t, fmt.Sprintf("%s (exo %v) step %d", q, exo, step), got, want)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("differential coverage too thin: %d query chains", checked)
	}
}

// TestPlanApplyRemoveQueriedFact: after a delta removes a fact, asking the
// plan for that fact's value must fail with ErrNotEndogenous, and the fact
// must leave Facts().
func TestPlanApplyRemoveQueriedFact(t *testing.T) {
	d := paperex.RunningExample()
	eng := NewEngine()
	plan, err := eng.Prepare(context.Background(), d, paperex.Q1())
	if err != nil {
		t.Fatal(err)
	}
	f := db.F("TA", "Adam")
	v, err := plan.Shapley(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if v.Value.RatString() != paperex.Example23Values["TA(Adam)"] {
		t.Fatalf("pre-delta value %s", v.Value.RatString())
	}
	ver, err := plan.Apply(context.Background(), db.Delta{Remove: []db.Fact{f}})
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Fatalf("version %d, want 2", ver)
	}
	if _, err := plan.Shapley(context.Background(), f); !errors.Is(err, ErrNotEndogenous) {
		t.Fatalf("want ErrNotEndogenous, got %v", err)
	}
	for _, g := range plan.Facts() {
		if g.Key() == f.Key() {
			t.Fatalf("%s still listed after removal", f)
		}
	}
}

// TestPlanApplyEmptyDelta: an empty delta is a no-op that keeps the version.
func TestPlanApplyEmptyDelta(t *testing.T) {
	eng := NewEngine()
	plan, err := eng.Prepare(context.Background(), paperex.RunningExample(), paperex.Q1())
	if err != nil {
		t.Fatal(err)
	}
	before := plan.Version()
	ver, err := plan.Apply(context.Background(), db.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if ver != before || plan.Version() != before {
		t.Fatalf("empty delta moved version %d → %d", before, ver)
	}
}

// TestPlanApplyFailureLeavesPlanIntact: a bad delta (removing an absent
// fact, or endogenously growing a declared exogenous relation) must leave
// the plan serving its current version.
func TestPlanApplyFailureLeavesPlanIntact(t *testing.T) {
	d := paperex.RunningExample()
	eng := NewEngine(WithExoRelations("Stud", "Course"))
	plan, err := eng.Prepare(context.Background(), d, paperex.Q2())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method() != MethodExoShap {
		t.Fatalf("method %v, want exoshap", plan.Method())
	}
	want, err := plan.ShapleyAll(context.Background(), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Apply(context.Background(), db.Delta{Remove: []db.Fact{db.F("TA", "Nobody")}}); err == nil {
		t.Fatal("removing an absent fact must fail")
	}
	if _, err := plan.Apply(context.Background(), db.Delta{AddEndo: []db.Fact{db.F("Stud", "Zoe")}}); !errors.Is(err, ErrExoViolated) {
		t.Fatalf("want ErrExoViolated, got %v", err)
	}
	if plan.Version() != 1 {
		t.Fatalf("failed applies moved the version to %d", plan.Version())
	}
	got, err := plan.ShapleyAll(context.Background(), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameValues(t, "after failed applies", got, want)
}

// TestPlanApplyPartitionFlip exercises deltas that change the relevance
// partition and the bucket structure: new buckets appear, a whole bucket
// vanishes, free fillers come and go, and the endogenous set drains to
// empty and refills.
func TestPlanApplyPartitionFlip(t *testing.T) {
	q := paperex.Q1()
	d := db.MustParse(`
exo  Stud(Ann)
endo TA(Ann)
endo Reg(Ann, OS)
endo Free(x1)
`)
	eng := NewEngine()
	plan, err := eng.Prepare(context.Background(), d, q)
	if err != nil {
		t.Fatal(err)
	}
	steps := []db.Delta{
		// A brand-new bucket (student Bob) plus one more free filler.
		{AddExo: []db.Fact{db.F("Stud", "Bob")}, AddEndo: []db.Fact{db.F("Reg", "Bob", "AI"), db.F("Free", "x2")}},
		// Remove Ann's bucket entirely; her free fillers stay.
		{Remove: []db.Fact{db.F("TA", "Ann"), db.F("Reg", "Ann", "OS")}},
		// Drain every endogenous fact.
		{Remove: []db.Fact{db.F("Reg", "Bob", "AI"), db.F("Free", "x1"), db.F("Free", "x2")}},
		// Refill: Ann returns as a pure filler target, Bob gets a TA fact.
		{AddEndo: []db.Fact{db.F("TA", "Bob"), db.F("Reg", "Bob", "AI")}},
	}
	for i, dl := range steps {
		if _, err := plan.Apply(context.Background(), dl); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got, err := plan.ShapleyAll(context.Background(), BatchOptions{})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want := freshAll(t, eng, plan.Snapshot(), q, nil)
		assertSameValues(t, fmt.Sprintf("step %d", i), got, want)
	}
	if plan.Version() != db.Version(1+len(steps)) {
		t.Fatalf("version %d after %d applies", plan.Version(), len(steps))
	}
}

// TestPlanUCQApplyDifferential: deltas over a relation-disjoint union must
// stay bit-identical to fresh preparation, through pool flips and drains.
func TestPlanUCQApplyDifferential(t *testing.T) {
	u := query.MustParseUCQ("a() :- R(x), !S(x) | b() :- T(x, y)")
	d := db.MustParse(`
endo R(a)
endo S(a)
endo T(a, b)
exo  T(b, b)
endo Free(z)
`)
	eng := NewEngine()
	plan, err := eng.PrepareUCQ(context.Background(), d, u)
	if err != nil {
		t.Fatal(err)
	}
	steps := []db.Delta{
		{AddEndo: []db.Fact{db.F("R", "b"), db.F("T", "c", "c")}},
		{Remove: []db.Fact{db.F("S", "a"), db.F("T", "a", "b")}},
		{Remove: []db.Fact{db.F("Free", "z")}, AddExo: []db.Fact{db.F("S", "b")}},
	}
	for i, dl := range steps {
		if _, err := plan.Apply(context.Background(), dl); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got, err := plan.ShapleyAll(context.Background(), BatchOptions{Workers: 2})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want := freshAll(t, eng, plan.Snapshot(), nil, u)
		assertSameValues(t, fmt.Sprintf("ucq step %d", i), got, want)
	}
}

// TestPlanBruteApplyDifferential: plans on the brute-force fallback (here a
// non-relation-disjoint union) must track deltas too.
func TestPlanBruteApplyDifferential(t *testing.T) {
	u := query.MustParseUCQ("a() :- R(x), !S(x) | b() :- S(x)")
	d := db.MustParse("endo R(a)\nendo S(a)\nendo S(b)")
	eng := NewEngine(WithBruteForce(true))
	plan, err := eng.PrepareUCQ(context.Background(), d, u)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method() != MethodBruteForce {
		t.Fatalf("method %v, want brute-force", plan.Method())
	}
	dl := db.Delta{AddEndo: []db.Fact{db.F("R", "b")}, Remove: []db.Fact{db.F("S", "a")}}
	if _, err := plan.Apply(context.Background(), dl); err != nil {
		t.Fatal(err)
	}
	got, err := plan.ShapleyAll(context.Background(), BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := freshAll(t, eng, plan.Snapshot(), nil, u)
	assertSameValues(t, "brute ucq", got, want)
}

// TestPlanShapleyAllCancellation: a context cancelled mid-batch must abort
// the in-flight ShapleyAll with ctx.Err(), and a pre-cancelled context must
// not start any work.
func TestPlanShapleyAllCancellation(t *testing.T) {
	d := workload.University(workload.UniversityConfig{
		Students: 40, Courses: 8, RegPerStudent: 2, TAFraction: 0.4, Seed: 7,
	})
	eng := NewEngine()
	plan, err := eng.Prepare(context.Background(), d, paperex.Q1())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var emitted atomic.Int64
	_, err = plan.ShapleyAll(ctx, BatchOptions{
		Workers: 2,
		OnResult: func(*ShapleyValue) {
			if emitted.Add(1) == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := emitted.Load(); n == 0 || n >= int64(plan.NumFacts()) {
		t.Fatalf("cancellation delivered %d/%d results", n, plan.NumFacts())
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := plan.ShapleyAll(pre, BatchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: want context.Canceled, got %v", err)
	}
	if _, err := plan.Shapley(pre, d.EndoFacts()[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled single fact: want context.Canceled, got %v", err)
	}
	if _, err := eng.Prepare(pre, d, paperex.Q1()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled prepare: want context.Canceled, got %v", err)
	}

	// The plan stays fully usable after an aborted batch.
	vals, err := plan.ShapleyAll(context.Background(), BatchOptions{Workers: 2})
	if err != nil || len(vals) != plan.NumFacts() {
		t.Fatalf("post-cancel batch: %d values, err %v", len(vals), err)
	}
}

// TestPlanConcurrentApplyAndRead: reads pin the version they started on
// while Apply installs the next; run with -race this doubles as the data
// race gate for the versioned handle.
func TestPlanConcurrentApplyAndRead(t *testing.T) {
	d := paperex.RunningExample()
	eng := NewEngine()
	plan, err := eng.Prepare(context.Background(), d, paperex.Q1())
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		defer close(errCh)
		for i := 0; i < 20; i++ {
			f := db.F("Free", fmt.Sprintf("x%d", i))
			if _, err := plan.Apply(context.Background(), db.Delta{AddEndo: []db.Fact{f}}); err != nil {
				errCh <- err
				return
			}
			if _, err := plan.Apply(context.Background(), db.Delta{Remove: []db.Fact{f}}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for done := false; !done; {
		select {
		case err, ok := <-errCh:
			if ok && err != nil {
				t.Fatal(err)
			}
			done = true
		default:
			vals, err := plan.ShapleyAll(context.Background(), BatchOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			// Every read sees a consistent version: either 8 endogenous
			// facts (between applies) or 9 (with the extra filler present).
			if len(vals) != 8 && len(vals) != 9 {
				t.Fatalf("torn read: %d values", len(vals))
			}
		}
	}
}

// planFixture is one (engine policy, database, query) triple covering a
// distinct preparation path of the dichotomy dispatch.
type planFixture struct {
	name   string
	dbText string
	cq     string
	ucq    string
	opts   []EngineOption
	method Method
}

func planFixtures() []planFixture {
	return []planFixture{
		{
			name: "hierarchical",
			dbText: "exo Stud(Ann)\nexo Stud(Bob)\nendo TA(Ann)\n" +
				"endo Reg(Ann, OS)\nendo Reg(Ann, AI)\nendo Reg(Bob, OS)\nendo Free(x1)\n",
			cq:     "q() :- Stud(x), !TA(x), Reg(x, y)",
			method: MethodHierarchical,
		},
		{
			name: "exoshap",
			dbText: "endo Author(a1, j1)\nendo Author(a2, j1)\nendo Author(a2, j2)\n" +
				"exo Pub(a1, p1)\nexo Pub(a2, p2)\nexo Citations(p1, c1)\nexo Citations(p2, c1)\nexo Citations(p2, c2)\n",
			cq:     "q() :- Author(x, y), Pub(x, z), Citations(z, w)",
			opts:   []EngineOption{WithExoRelations("Pub", "Citations")},
			method: MethodExoShap,
		},
		{
			name: "ucq",
			dbText: "endo R(a)\nendo R(b)\nendo S(a, b)\nexo S(b, b)\n" +
				"endo T(a, c)\nendo T(c, c)\nendo Free(x1)\n",
			ucq:    "q1() :- R(x), S(x, y) | q2() :- T(x, y)",
			method: MethodHierarchical,
		},
		{
			name:   "brute",
			dbText: "endo R(a)\nendo R(b)\nendo S(a, b)\nendo S(b, a)\n",
			cq:     "q() :- R(x), S(x, y), R(y)",
			opts:   []EngineOption{WithBruteForce(true)},
			method: MethodBruteForce,
		},
	}
}

// prepareFixture builds the fixture's plan on a fresh engine.
func prepareFixture(t *testing.T, fx planFixture) *Plan {
	t.Helper()
	eng := NewEngine(fx.opts...)
	d := db.MustParse(fx.dbText)
	var (
		p   *Plan
		err error
	)
	if fx.cq != "" {
		p, err = eng.Prepare(context.Background(), d, query.MustParse(fx.cq))
	} else {
		p, err = eng.PrepareUCQ(context.Background(), d, query.MustParseUCQ(fx.ucq))
	}
	if err != nil {
		t.Fatalf("prepare %s: %v", fx.name, err)
	}
	if got := p.Method(); got != fx.method {
		t.Fatalf("%s: method %s, want %s", fx.name, got, fx.method)
	}
	return p
}

// TestPlanViewShapleySubset pins the batched single-fact path the
// server's "facts" requests ride on: a subset request returns the same
// values as the corresponding single-fact calls, in request order.
func TestPlanViewShapleySubset(t *testing.T) {
	for _, fx := range planFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			view := prepareFixture(t, fx).View()
			facts := view.Facts()
			// Reverse order: the subset answers in request order, not
			// snapshot order.
			rev := make([]db.Fact, len(facts))
			for i, f := range facts {
				rev[len(facts)-1-i] = f
			}
			got, err := view.ShapleySubset(context.Background(), rev, BatchOptions{Workers: 2})
			if err != nil {
				t.Fatalf("subset: %v", err)
			}
			if len(got) != len(rev) {
				t.Fatalf("subset returned %d values, want %d", len(got), len(rev))
			}
			for i, f := range rev {
				want, err := view.Shapley(context.Background(), f)
				if err != nil {
					t.Fatalf("single %s: %v", f, err)
				}
				if got[i].Fact.Key() != f.Key() || got[i].Value.Cmp(want.Value) != 0 || got[i].Method != want.Method {
					t.Fatalf("subset[%d] = %s %s, want %s %s",
						i, got[i].Fact, got[i].Value.RatString(), want.Fact, want.Value.RatString())
				}
			}

			// A non-endogenous fact fails the whole batch, like Shapley.
			if _, err := view.ShapleySubset(context.Background(), []db.Fact{db.F("Nope", "z")}, BatchOptions{}); err == nil {
				t.Fatal("subset with non-endogenous fact: no error")
			}
		})
	}
}
