package opt

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"mpf/internal/bayes"
	"mpf/internal/catalog"
	"mpf/internal/cost"
	"mpf/internal/gen"
	"mpf/internal/plan"
	"mpf/internal/relation"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the current optimizers")

const goldenPath = "testdata/plans.golden"

// goldenCase is one query planned by a list of optimizers.
type goldenCase struct {
	name string
	b    *plan.Builder
	q    *Query
	opts []Optimizer
}

// veVariants lists every VE heuristic with and without the extended
// space, optionally with the Proposition 1 preprocessing.
func veVariants(fds bool) []Optimizer {
	var out []Optimizer
	for _, h := range []Heuristic{Degree, Width, ElimCost, RandomOrder, DegreeWidth, DegreeElimCost} {
		for _, ext := range []bool{false, true} {
			out = append(out, VE{Heuristic: h, Extended: ext, UseFDs: fds})
		}
	}
	return out
}

// goldenBuilder catalogs relations (declaring keys where given) under a
// cost model.
func goldenBuilder(t *testing.T, rels []*relation.Relation, keys map[string][]string, model cost.Model) (*plan.Builder, []string) {
	t.Helper()
	cat := catalog.New()
	var tables []string
	for _, r := range rels {
		st := catalog.AnalyzeRelation(r)
		st.Key = keys[r.Name()]
		if err := cat.AddTable(st); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, r.Name())
	}
	return plan.NewBuilder(cat, model), tables
}

// queryName renders a query's group variables and predicate for a case
// header.
func queryName(q *Query) string {
	s := "g=" + strings.Join(q.GroupVars, ",")
	var preds []string
	for v, val := range q.Pred {
		preds = append(preds, fmt.Sprintf(" %s=%d", v, val))
	}
	sort.Strings(preds)
	return s + strings.Join(preds, "")
}

// goldenCases builds the pinned workload: synthetic chain/star/multistar
// views and an 8-table Bayesian-network sub-view under every optimizer, a
// keyed view under every optimizer and every +fd variant (without declared
// keys +fd removes nothing, so only there does it plan differently), and
// seeded inference queries over the benchmark's 24-node network (shape
// seed 2007) under every VE variant and greedy.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	small := append(All(nil), Extras()...)
	var cases []goldenCase
	add := func(name string, b *plan.Builder, tables []string, opts []Optimizer, qs ...*Query) {
		for _, q := range qs {
			q.Tables = tables
			cases = append(cases, goldenCase{name: name + " " + queryName(q), b: b, q: q, opts: opts})
		}
	}

	for _, sc := range []struct {
		kind  gen.SyntheticKind
		model cost.Model
	}{
		{gen.Linear, cost.Simple{}},
		{gen.Star, cost.Simple{}},
		{gen.MultiStar, cost.Simple{}},
		{gen.Linear, cost.DefaultPageIO()},
	} {
		ds, err := gen.Synthetic(gen.SyntheticConfig{Kind: sc.kind, Tables: 5, Domain: 3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		b, tables := goldenBuilder(t, ds.Relations, nil, sc.model)
		add(fmt.Sprintf("%s5/%s", sc.kind, sc.model.Name()), b, tables, small,
			&Query{GroupVars: []string{"x1"}},
			&Query{GroupVars: []string{"x2", "x5"}, Pred: relation.Predicate{"x4": 1}},
			&Query{GroupVars: []string{"x3"}, Pred: relation.Predicate{"x3": 0, "x6": 2}},
		)
	}

	_, rels := keyedFixture(t)
	b, tables := goldenBuilder(t, []*relation.Relation{rels["warehouses"], rels["location"]},
		map[string][]string{"warehouses": {"wid"}, "location": {"pid", "wid"}}, cost.Simple{})
	add("keyed", b, tables, append(small, veVariants(true)...),
		&Query{GroupVars: []string{"pid"}},
		&Query{GroupVars: []string{"region"}, Pred: relation.Predicate{"pid": 1}},
	)

	net, err := bayes.Random(rand.New(rand.NewSource(2007)), 24, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	bnRels, err := net.Relations()
	if err != nil {
		t.Fatal(err)
	}
	b, tables = goldenBuilder(t, bnRels[:8], nil, cost.Simple{})
	add("bn8", b, tables, small,
		&Query{GroupVars: []string{"x8"}, Pred: relation.Predicate{"x2": 1}},
		&Query{GroupVars: []string{"x3", "x7"}},
	)

	b, tables = goldenBuilder(t, bnRels, nil, cost.Simple{})
	wide := append(veVariants(false), Greedy{})
	vars := net.Vars()
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Perm(len(vars))
		add("bn24", b, tables, wide, &Query{
			GroupVars: []string{vars[p[0]]},
			Pred:      relation.Predicate{vars[p[1]]: int32(rng.Intn(3)), vars[p[2]]: int32(rng.Intn(3))},
		})
	}
	return cases
}

// renderGolden plans every case and renders, per optimizer, the plan tree
// and its TotalCost in %b (exact bits, so any change to a float product or
// to the summation order shows).
func renderGolden(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, c := range goldenCases(t) {
		for _, o := range c.opts {
			p, err := o.Optimize(c.q, c.b)
			if err != nil {
				t.Fatalf("%s / %s: %v", c.name, o.Name(), err)
			}
			fmt.Fprintf(&out, "== %s / %s\ntotal %b\n%s", c.name, o.Name(), p.TotalCost, p)
		}
	}
	return out.Bytes()
}

// TestPlansMatchGolden pins every optimizer's plans and estimated costs,
// bit for bit, to testdata/plans.golden. Planner speedups must leave this
// file untouched; regenerate it (go test ./internal/opt/ -run
// TestPlansMatchGolden -update — the package before the flag) only for a
// deliberate change of plan choice or cost model.
func TestPlansMatchGolden(t *testing.T) {
	got := renderGolden(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotSec, wantSec := goldenSections(got), goldenSections(want)
	for i := 0; i < len(gotSec) && i < len(wantSec); i++ {
		if gotSec[i] != wantSec[i] {
			t.Fatalf("plan differs from %s:\n--- want ---\n%s--- got ---\n%s", goldenPath, wantSec[i], gotSec[i])
		}
	}
	t.Fatalf("%s has %d plans, planning produced %d", goldenPath, len(wantSec), len(gotSec))
}

// goldenSections splits a rendering at its "== case / optimizer" headers.
func goldenSections(b []byte) []string {
	return strings.SplitAfter(string(b), "\n== ")
}
