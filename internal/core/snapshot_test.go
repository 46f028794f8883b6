package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/db"
	"repro/internal/query"
)

// snapshotFixture is one (engine policy, database, query) triple covering
// a distinct preparation path.
type snapshotFixture struct {
	name   string
	dbText string
	cq     string
	ucq    string
	opts   []EngineOption
	method Method
}

func snapshotFixtures() []snapshotFixture {
	return []snapshotFixture{
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
		{
			name:   "empty",
			dbText: "exo Stud(Ann)\nexo TA(Ann)\n",
			cq:     "q() :- Stud(x), !TA(x)",
			method: MethodHierarchical,
		},
	}
}

// prepareFixture builds the fixture's plan on a fresh engine.
func prepareFixture(t *testing.T, fx snapshotFixture) (*Engine, *Plan) {
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
	return eng, p
}

// TestPlanExportImportRoundTrip pins that a snapshot exported in one
// engine and imported into another (fresh per-process seeds are exercised
// implicitly: the importer re-derives every label and key) yields
// bit-identical Shapley values on every preparation path of the
// dichotomy dispatch.
func TestPlanExportImportRoundTrip(t *testing.T) {
	for _, fx := range snapshotFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			_, p := prepareFixture(t, fx)
			want, err := p.ShapleyAll(context.Background(), BatchOptions{Workers: 2})
			if err != nil {
				t.Fatalf("direct all: %v", err)
			}
			snap, err := p.Export()
			if err != nil {
				t.Fatalf("export: %v", err)
			}

			eng2 := NewEngine(fx.opts...)
			p2, err := eng2.ImportPlan(context.Background(), snap)
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			if got := p2.Method(); got != fx.method {
				t.Fatalf("imported method %s, want %s", got, fx.method)
			}
			got, err := p2.ShapleyAll(context.Background(), BatchOptions{Workers: 2})
			if err != nil {
				t.Fatalf("imported all: %v", err)
			}
			assertSameValues(t, "imported", got, want)
		})
	}
}

// TestPlanImportThenApply pins that an imported plan is a first-class
// Plan: an Apply against it behaves exactly like one against the
// original (same structure, same memo reuse), which would not hold if
// the injected vectors disagreed.
func TestPlanImportThenApply(t *testing.T) {
	for _, fx := range snapshotFixtures() {
		if fx.name == "empty" || fx.name == "brute" {
			continue // no tree to maintain
		}
		t.Run(fx.name, func(t *testing.T) {
			_, p := prepareFixture(t, fx)
			snap, err := p.Export()
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			eng2 := NewEngine(fx.opts...)
			p2, err := eng2.ImportPlan(context.Background(), snap)
			if err != nil {
				t.Fatalf("import: %v", err)
			}

			delta := db.Delta{
				AddEndo: []db.Fact{db.F("Extra", "e1")},
				AddExo:  []db.Fact{db.F("Extra2", "e2")},
			}
			if _, err := p.Apply(context.Background(), delta); err != nil {
				t.Fatalf("apply original: %v", err)
			}
			if v, err := p2.Apply(context.Background(), delta); err != nil {
				t.Fatalf("apply imported: %v", err)
			} else if v != 2 {
				t.Fatalf("imported version after apply = %d, want 2", v)
			}
			want, err := p.ShapleyAll(context.Background(), BatchOptions{Workers: 2})
			if err != nil {
				t.Fatalf("original all: %v", err)
			}
			got, err := p2.ShapleyAll(context.Background(), BatchOptions{Workers: 2})
			if err != nil {
				t.Fatalf("imported all: %v", err)
			}
			assertSameValues(t, "after apply", got, want)
		})
	}
}

// TestPlanImportDetectsTampering pins that structural disagreement
// between the snapshot payload and the replayed tree fails with
// ErrSnapshotMismatch instead of silently producing a wrong plan.
func TestPlanImportDetectsTampering(t *testing.T) {
	fx := snapshotFixtures()[0]
	_, p := prepareFixture(t, fx)

	tamper := []struct {
		name string
		mod  func(s *PlanSnapshot)
	}{
		{"relN", func(s *PlanSnapshot) { s.Root.RelN++ }},
		{"kind", func(s *PlanSnapshot) { s.Root.Kind ^= 1 }},
		{"children", func(s *PlanSnapshot) { s.Root.Children = s.Root.Children[:len(s.Root.Children)-1] }},
		{"query", func(s *PlanSnapshot) { s.Query = "q() :- Stud(x), Reg(x, y)" }},
		{"missing-root", func(s *PlanSnapshot) { s.Root = nil }},
		{"bad-db", func(s *PlanSnapshot) { s.DBText = "endo Broken(" }},
	}
	for _, tc := range tamper {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := p.Export() // fresh copy; mods mutate it freely
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			tc.mod(snap)
			if _, err := NewEngine().ImportPlan(context.Background(), snap); !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("import after %s tamper: err = %v, want ErrSnapshotMismatch", tc.name, err)
			}
		})
	}

	// Policy mismatch: importing under different exo declarations or a
	// different brute-force setting must refuse.
	t.Run("policy", func(t *testing.T) {
		snap, err := p.Export()
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		if _, err := NewEngine(WithExoRelations("Stud")).ImportPlan(context.Background(), snap); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("import under different exo: err = %v, want ErrSnapshotMismatch", err)
		}
		if _, err := NewEngine(WithBruteForce(true)).ImportPlan(context.Background(), snap); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("import under different brute policy: err = %v, want ErrSnapshotMismatch", err)
		}
	})
}

// TestPlanViewShapleySubset pins the batched single-fact path the
// server's "facts" requests ride on: a subset request returns the same
// values as the corresponding single-fact calls, in request order.
func TestPlanViewShapleySubset(t *testing.T) {
	for _, fx := range snapshotFixtures() {
		if fx.name == "empty" {
			continue
		}
		t.Run(fx.name, func(t *testing.T) {
			_, p := prepareFixture(t, fx)
			view := p.View()
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
