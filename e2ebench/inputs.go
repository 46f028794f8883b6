package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/workload"
)

// The paper's running-example queries: q1 is hierarchical; q2 adds a
// negated Course atom, which makes it non-hierarchical, and is served
// through the ExoShap reduction once Stud and Course are declared
// exogenous.
const (
	q1Text = "q1() :- Stud(x), !TA(x), Reg(x, y)"
	q2Text = "q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, CS)"
)

var q2Exo = []string{"Stud", "Course"}

// queryTexts and queryExo index the two queries by the read streams.
var (
	queryTexts = [2]string{q1Text, q2Text}
	queryExo   = [2][]string{nil, q2Exo}
)

// engineFor returns the engine that serves query q (0 or 1) exactly as
// the server prepares it.
func engineFor(q int) *core.Engine {
	return core.NewEngine(core.WithExoRelations(queryExo[q]...))
}

// readDBSeed fixes the database of the read workloads to the instance
// BenchmarkPrepareWorkload uses. Instances of the same size differ a lot
// in cost (one seed's single-fact read costs five times another's), so a
// database drawn from the run's seed would make the seed, not the code,
// the largest source of spread. The run's seed draws the requests.
const readDBSeed = 29

// universityConfig is the ~50k-fact instance of the Figure 1 schema that
// BenchmarkPrepareWorkload uses, with the given generator seed: about
// 49.9k facts, about 500 of them endogenous.
func universityConfig(seed int64) workload.UniversityConfig {
	return workload.UniversityConfig{
		Students: 4500, Courses: 120, RegPerStudent: 9, TAFraction: 0.06,
		ExoRegFraction: 0.995, Seed: seed,
	}
}

// registerBody is the JSON body that registers text under id.
func registerBody(id, text string) []byte {
	b, _ := json.Marshal(map[string]string{"id": id, "text": text}) // strings always marshal
	return b
}

// readBody is the JSON body of a single-fact request for query q.
func readBody(q int, fact string) []byte {
	b, _ := json.Marshal(struct {
		Query string   `json:"query"`
		Exo   []string `json:"exo,omitempty"`
		Fact  string   `json:"fact"`
	}{queryTexts[q], queryExo[q], fact})
	return b
}

// allBody is the JSON body of a mode=all request for q2.
var allBody, _ = json.Marshal(map[string]any{"query": q2Text, "exo": q2Exo, "mode": "all"})

// readSeq is one query's seeded single-fact request sequence.
type readSeq struct {
	facts  []string
	bodies [][]byte
}

// newReadSeq draws n facts uniformly from pool.
func newReadSeq(rng *rand.Rand, q int, pool []db.Fact, n int) readSeq {
	s := readSeq{facts: make([]string, n), bodies: make([][]byte, n)}
	for i := range s.facts {
		s.facts[i] = pool[rng.Intn(len(pool))].Key()
		s.bodies[i] = readBody(q, s.facts[i])
	}
	return s
}

// patch is one PATCH of the evolving workload.
type patch struct {
	delta db.Delta
	body  []byte
}

// deltaChain builds n PATCHes over d. Each removes one endogenous Reg fact
// of d, never the same one twice, and adds one endogenous Reg fact that
// is neither in d nor added before, so the database keeps its size and no
// delta returns the tree to content it had before. It also returns the
// removed facts.
func deltaChain(rng *rand.Rand, d *db.Database, n int) ([]patch, map[string]bool) {
	var regs []db.Fact
	for _, f := range d.EndoFacts() {
		if f.Rel == "Reg" {
			regs = append(regs, f)
		}
	}
	rng.Shuffle(len(regs), func(i, j int) { regs[i], regs[j] = regs[j], regs[i] })
	n = min(n, len(regs))
	cfg := universityConfig(0)
	added := map[string]bool{}
	removed := map[string]bool{}
	out := make([]patch, n)
	for i := range out {
		var add db.Fact
		for {
			add = db.F("Reg", fmt.Sprintf("S%d", rng.Intn(cfg.Students)), fmt.Sprintf("C%d", rng.Intn(cfg.Courses)))
			if !d.Contains(add) && !added[add.Key()] {
				break
			}
		}
		added[add.Key()] = true
		removed[regs[i].Key()] = true
		out[i].delta = db.Delta{AddEndo: []db.Fact{add}, Remove: []db.Fact{regs[i]}}
		out[i].body, _ = json.Marshal(map[string][]string{
			"add_endo": {add.Key()},
			"remove":   {regs[i].Key()},
		})
	}
	return out, removed
}

// oracle holds the exact value of every endogenous fact for both queries,
// as the server renders them.
type oracle [2]map[string]string

// newOracle computes the exact values of every endogenous fact of d for
// both queries in process.
func newOracle(ctx context.Context, d *db.Database) (oracle, error) {
	var o oracle
	for q := range o {
		plan, err := engineFor(q).Prepare(ctx, d, query.MustParse(queryTexts[q]))
		if err != nil {
			return o, fmt.Errorf("oracle: prepare q%d: %w", q+1, err)
		}
		vals, err := plan.ShapleyAll(ctx, core.BatchOptions{})
		if err != nil {
			return o, fmt.Errorf("oracle: q%d: %w", q+1, err)
		}
		o[q] = make(map[string]string, len(vals))
		for _, v := range vals {
			o[q][v.Fact.Key()] = v.Value.RatString()
		}
	}
	return o, nil
}

// upload is one ingest cycle's database: its registration body, and what
// the cold mode=all answer over it must satisfy.
type upload struct {
	id   string
	seed int64
	body []byte
	// endo is the number of endogenous facts, one value each.
	endo int
	// total is q2(D) − q2(Dx): by the efficiency axiom the values sum to it.
	total *big.Rat
}

// uploadSeed derives the database seed of ingest cycle k.
func uploadSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) + 1 }

// uploadDB builds the database of the ingest cycle with the given seed
// from base, the read workloads' instance: every id constant tagged by
// the seed and the facts in an order drawn from it. No two uploads share
// a fact, and every upload has the structure of base, so the same cost;
// instances drawn from different generator seeds differ in cost by up to
// five times, which would make the draw, not the code, the spread.
func uploadDB(base *db.Database, seed int64) *db.Database {
	tag := db.Const("x" + strconv.FormatInt(seed, 36))
	facts := base.Facts()
	rand.New(rand.NewSource(seed)).Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	out := db.New()
	for _, f := range facts {
		args := make([]db.Const, len(f.Args))
		for i, a := range f.Args {
			args[i] = a
			if a != "CS" && a != "EE" { // the faculties q2 names
				args[i] += tag
			}
		}
		out.MustAdd(db.Fact{Rel: f.Rel, Args: args}, base.IsEndogenous(f))
	}
	return out
}

// newUploads generates n ingest databases from seeds derived from seed.
func newUploads(seed int64, n int) []upload {
	out := make([]upload, n)
	q := query.MustParse(q2Text)
	base := workload.University(universityConfig(readDBSeed))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < n; k += 2 {
				s := uploadSeed(seed, k)
				d := uploadDB(base, s)
				dx := d.Restrict(func(_ db.Fact, endo bool) bool { return !endo })
				total := 0
				if q.Eval(d) {
					total++
				}
				if q.Eval(dx) {
					total--
				}
				id := fmt.Sprintf("ingest-%d", k)
				out[k] = upload{id: id, seed: s, body: registerBody(id, d.String()), endo: d.NumEndo(), total: big.NewRat(int64(total), 1)}
			}
		}()
	}
	wg.Wait()
	return out
}

// rederive checks a streamed mode=all answer value by value against an
// in-process computation over the same generated database.
func rederive(ctx context.Context, u upload, got []valueJSON) error {
	d := uploadDB(workload.University(universityConfig(readDBSeed)), u.seed)
	plan, err := engineFor(1).Prepare(ctx, d, query.MustParse(q2Text))
	if err != nil {
		return fmt.Errorf("re-derive %s: %w", u.id, err)
	}
	vals, err := plan.ShapleyAll(ctx, core.BatchOptions{})
	if err != nil {
		return fmt.Errorf("re-derive %s: %w", u.id, err)
	}
	if len(vals) != len(got) {
		return fmt.Errorf("%w: %s has %d values, want %d", errWrong, u.id, len(got), len(vals))
	}
	for i, v := range vals {
		if got[i].Fact != v.Fact.Key() || got[i].Shapley != v.Value.RatString() {
			return fmt.Errorf("%w: %s value %d is %s = %s, want %s = %s", errWrong, u.id, i,
				got[i].Fact, got[i].Shapley, v.Fact.Key(), v.Value.RatString())
		}
	}
	return nil
}
