package opt

import (
	"context"
	"math/rand"
	"testing"

	"mpf/internal/catalog"
	"mpf/internal/cost"
	"mpf/internal/gen"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

// fixture bundles a dataset with its catalog and builder.
type fixture struct {
	ds  *gen.Dataset
	cat *catalog.Catalog
	b   *plan.Builder
}

func newFixture(t *testing.T, ds *gen.Dataset) *fixture {
	t.Helper()
	cat, err := ds.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{ds: ds, cat: cat, b: plan.NewBuilder(cat, cost.Simple{})}
}

func smallChain(t *testing.T, n int) *fixture {
	t.Helper()
	ds, err := gen.Synthetic(gen.SyntheticConfig{Kind: gen.Linear, Tables: n, Domain: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return newFixture(t, ds)
}

func smallStar(t *testing.T, n int) *fixture {
	t.Helper()
	ds, err := gen.Synthetic(gen.SyntheticConfig{Kind: gen.Star, Tables: n, Domain: 3, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	return newFixture(t, ds)
}

func smallMultiStar(t *testing.T, n int) *fixture {
	t.Helper()
	ds, err := gen.Synthetic(gen.SyntheticConfig{Kind: gen.MultiStar, Tables: n, Domain: 3, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	return newFixture(t, ds)
}

// oracle computes the query by materializing the full product join and
// aggregating once.
func oracle(t *testing.T, f *fixture, q *Query) *relation.Relation {
	t.Helper()
	rels := make([]*relation.Relation, len(f.ds.Relations))
	copy(rels, f.ds.Relations)
	if len(q.Pred) > 0 {
		for i, r := range rels {
			pred := make(relation.Predicate)
			for v, val := range q.Pred {
				if r.HasVar(v) {
					pred[v] = val
				}
			}
			if len(pred) > 0 {
				s, err := relation.Select(r, pred)
				if err != nil {
					t.Fatal(err)
				}
				rels[i] = s
			}
		}
	}
	joint, err := relation.ProductJoinAll(semiring.SumProduct, rels...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := relation.Marginalize(semiring.SumProduct, joint, q.GroupVars)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// evalPlan interprets the plan over the dataset's relations.
func evalPlan(t *testing.T, f *fixture, p *plan.Node) *relation.Relation {
	t.Helper()
	r, err := plan.Eval(p, plan.MapResolver(f.ds.RelationMap()), semiring.SumProduct)
	if err != nil {
		t.Fatalf("plan eval failed: %v\n%s", err, p)
	}
	return r
}

// TestAllOptimizersMatchOracle is the central correctness property: every
// optimizer variant must produce a plan whose result equals the
// brute-force evaluation, on every schema topology and query form.
func TestAllOptimizersMatchOracle(t *testing.T) {
	fixtures := map[string]*fixture{
		"chain":     smallChain(t, 4),
		"star":      smallStar(t, 4),
		"multistar": smallMultiStar(t, 5),
	}
	for fname, f := range fixtures {
		queries := []*Query{
			// Basic.
			{Tables: f.ds.ViewTables, GroupVars: []string{"x1"}},
			{Tables: f.ds.ViewTables, GroupVars: []string{"x2"}},
			// Two query variables.
			{Tables: f.ds.ViewTables, GroupVars: []string{"x1", "x3"}},
			// Restricted answer set (predicate on the query variable).
			{Tables: f.ds.ViewTables, GroupVars: []string{"x2"}, Pred: relation.Predicate{"x2": 1}},
			// Constrained domain (predicate on a non-query variable).
			{Tables: f.ds.ViewTables, GroupVars: []string{"x1"}, Pred: relation.Predicate{"x3": 0}},
		}
		for qi, q := range queries {
			want := oracle(t, f, q)
			for _, o := range All(rand.New(rand.NewSource(9))) {
				p, err := o.Optimize(q, f.b)
				if err != nil {
					t.Fatalf("%s/q%d/%s: optimize: %v", fname, qi, o.Name(), err)
				}
				if err := plan.Validate(p); err != nil {
					t.Fatalf("%s/q%d/%s: invalid plan: %v\n%s", fname, qi, o.Name(), err, p)
				}
				got := evalPlan(t, f, p)
				if !relation.Equal(got, want, 0, 1e-9) {
					t.Fatalf("%s/q%d/%s: plan result differs from oracle\nplan:\n%s",
						fname, qi, o.Name(), p)
				}
			}
		}
	}
}

func TestCSHasSingleRootGroupBy(t *testing.T) {
	f := smallChain(t, 5)
	q := &Query{Tables: f.ds.ViewTables, GroupVars: []string{"x1"}}
	p, err := CS{}.Optimize(q, f.b)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.CountOps(p, plan.OpGroupBy); got != 1 {
		t.Fatalf("CS plan has %d GroupBys, want exactly 1\n%s", got, p)
	}
	if p.Op != plan.OpGroupBy {
		t.Fatal("CS plan root must be the GroupBy")
	}
	if !plan.IsLeftLinear(p) {
		t.Fatalf("CS plan must be linear\n%s", p)
	}
}

func TestCSPlusPushesGroupBys(t *testing.T) {
	// On a chain with a query on one end, CS+ should interpose GroupBys.
	ds, err := gen.Synthetic(gen.SyntheticConfig{Kind: gen.Linear, Tables: 6, Domain: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, ds)
	q := &Query{Tables: f.ds.ViewTables, GroupVars: []string{"x1"}}
	pPlain, err := CS{}.Optimize(q, f.b)
	if err != nil {
		t.Fatal(err)
	}
	pPush, err := CSPlus{Linear: true}.Optimize(q, f.b)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CountOps(pPush, plan.OpGroupBy) < 2 {
		t.Fatalf("CS+ did not push any GroupBy:\n%s", pPush)
	}
	if pPush.TotalCost > pPlain.TotalCost {
		t.Fatalf("CS+ (%.0f) must be no worse than CS (%.0f)", pPush.TotalCost, pPlain.TotalCost)
	}
}

func TestNonlinearNoWorseThanLinear(t *testing.T) {
	for _, mk := range []func(*testing.T, int) *fixture{smallChain, smallStar, smallMultiStar} {
		f := mk(t, 5)
		for _, v := range []string{"x1", "x3"} {
			q := &Query{Tables: f.ds.ViewTables, GroupVars: []string{v}}
			lin, err := CSPlus{Linear: true}.Optimize(q, f.b)
			if err != nil {
				t.Fatal(err)
			}
			non, err := CSPlus{}.Optimize(q, f.b)
			if err != nil {
				t.Fatal(err)
			}
			if non.TotalCost > lin.TotalCost*(1+1e-9) {
				t.Fatalf("%s on %s: nonlinear (%.2f) worse than linear (%.2f)",
					v, f.ds.Name, non.TotalCost, lin.TotalCost)
			}
		}
	}
}

// TestVEExtensionNoWorse verifies the paper's guarantee that extended VE
// finds a plan no worse than plain VE for the same heuristic.
func TestVEExtensionNoWorse(t *testing.T) {
	for _, mk := range []func(*testing.T, int) *fixture{smallChain, smallStar, smallMultiStar} {
		f := mk(t, 5)
		q := &Query{Tables: f.ds.ViewTables, GroupVars: []string{"x1"}}
		for _, h := range []Heuristic{Degree, Width, ElimCost, DegreeWidth, DegreeElimCost} {
			pv, err := VE{Heuristic: h}.Optimize(q, f.b)
			if err != nil {
				t.Fatal(err)
			}
			pe, err := VE{Heuristic: h, Extended: true}.Optimize(q, f.b)
			if err != nil {
				t.Fatal(err)
			}
			if pe.TotalCost > pv.TotalCost*(1+1e-9) {
				t.Fatalf("%s on %s: extended VE (%.2f) worse than plain VE (%.2f)",
					h, f.ds.Name, pe.TotalCost, pv.TotalCost)
			}
		}
	}
}

// TestExtendedVEMatchesNonlinearCSPlusOnSyntheticViews reproduces the
// Table 2 observation: on the star, multistar and linear views, extended
// VE with any deterministic heuristic reaches the nonlinear CS+ optimum.
func TestExtendedVEMatchesNonlinearCSPlusOnSyntheticViews(t *testing.T) {
	for _, kind := range []gen.SyntheticKind{gen.Star, gen.MultiStar, gen.Linear} {
		ds, err := gen.Synthetic(gen.SyntheticConfig{Kind: kind, Tables: 5, Domain: 10, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		f := newFixture(t, ds)
		q := &Query{Tables: f.ds.ViewTables, GroupVars: []string{"x1"}}
		csp, err := CSPlus{}.Optimize(q, f.b)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []Heuristic{Degree, Width, ElimCost, DegreeWidth, DegreeElimCost} {
			pe, err := VE{Heuristic: h, Extended: true}.Optimize(q, f.b)
			if err != nil {
				t.Fatal(err)
			}
			ratio := pe.TotalCost / csp.TotalCost
			if ratio > 1.05 {
				t.Errorf("%s/%s: extended VE cost %.2f vs CS+ %.2f (ratio %.3f)",
					kind, h, pe.TotalCost, csp.TotalCost, ratio)
			}
		}
	}
}

// TestStarDegreeHeuristicPathology reproduces the Table 2 pathology:
// plain VE with the degree heuristic on a star view picks the hub first
// (joining every table with no GDL optimization) and is dramatically
// worse than the width heuristic.
func TestStarDegreeHeuristicPathology(t *testing.T) {
	ds, err := gen.Synthetic(gen.SyntheticConfig{Kind: gen.Star, Tables: 5, Domain: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, ds)
	q := &Query{Tables: f.ds.ViewTables, GroupVars: []string{"x1"}}
	deg, err := VE{Heuristic: Degree}.Optimize(q, f.b)
	if err != nil {
		t.Fatal(err)
	}
	wid, err := VE{Heuristic: Width}.Optimize(q, f.b)
	if err != nil {
		t.Fatal(err)
	}
	if deg.TotalCost < 10*wid.TotalCost {
		t.Fatalf("expected degree (%.0f) to be far worse than width (%.0f) on star",
			deg.TotalCost, wid.TotalCost)
	}
}

func TestQueryValidation(t *testing.T) {
	f := smallChain(t, 3)
	b := f.b
	if _, err := (CS{}).Optimize(&Query{Tables: nil, GroupVars: []string{"x1"}}, b); err == nil {
		t.Fatal("empty view should error")
	}
	if _, err := (CS{}).Optimize(&Query{Tables: f.ds.ViewTables, GroupVars: []string{"zzz"}}, b); err == nil {
		t.Fatal("unknown query variable should error")
	}
	if _, err := (CS{}).Optimize(&Query{
		Tables: f.ds.ViewTables, GroupVars: []string{"x1"},
		Pred: relation.Predicate{"zzz": 0},
	}, b); err == nil {
		t.Fatal("unknown predicate variable should error")
	}
	dup := append(append([]string{}, f.ds.ViewTables...), f.ds.ViewTables[0])
	if _, err := (CS{}).Optimize(&Query{Tables: dup, GroupVars: []string{"x1"}}, b); err == nil {
		t.Fatal("duplicate table should error")
	}
}

func TestSingleTableView(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r, _ := relation.Random(rng, "solo",
		[]relation.Attr{{Name: "a", Domain: 4}, {Name: "b", Domain: 4}}, 0.9, relation.UniformMeasure(0, 1))
	cat := catalog.New()
	cat.AddTable(catalog.AnalyzeRelation(r))
	b := plan.NewBuilder(cat, cost.Simple{})
	q := &Query{Tables: []string{"solo"}, GroupVars: []string{"a"}}
	for _, o := range All(nil) {
		p, err := o.Optimize(q, b)
		if err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		got, err := plan.Eval(p, plan.MapResolver(map[string]*relation.Relation{"solo": r}), semiring.SumProduct)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := relation.Marginalize(semiring.SumProduct, r, []string{"a"})
		if !relation.Equal(got, want, 0, 1e-9) {
			t.Fatalf("%s: single-table query wrong", o.Name())
		}
	}
}

func TestLinearityTest(t *testing.T) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := ds.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	// tid: domain == smallest table cardinality (transporters is complete
	// over tid), σ = σ̂ → inequality holds → linear admissible (paper Q2).
	adm, sigma, sigmaHat, err := LinearityTest(cat, "tid")
	if err != nil {
		t.Fatal(err)
	}
	if !adm {
		t.Fatalf("tid should admit linear plans (σ=%v σ̂=%v)", sigma, sigmaHat)
	}
	// cid: small domain inside a much larger smallest table (warehouses) →
	// inequality fails → nonlinear useful (paper Q1).
	adm, sigma, sigmaHat, err = LinearityTest(cat, "cid")
	if err != nil {
		t.Fatal(err)
	}
	if adm {
		t.Fatalf("cid should fail the linearity test (σ=%v σ̂=%v)", sigma, sigmaHat)
	}
	if _, _, _, err := LinearityTest(cat, "ghost"); err == nil {
		t.Fatal("unknown variable should error")
	}
}

func TestLinearPlanAdmissibleFormula(t *testing.T) {
	// Paper's worked example: σ_cid=1000, σ̂_cid=5000 → fails;
	// σ_tid=σ̂_tid=500 → holds.
	if cost.LinearPlanAdmissible(1000, 5000) {
		t.Fatal("1000/5000 should fail Eq. 1")
	}
	if !cost.LinearPlanAdmissible(500, 500) {
		t.Fatal("500/500 should satisfy Eq. 1")
	}
}

func TestOptimizerRegistry(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Fatalf("expected 16 optimizer variants (15 paper + greedy), got %d: %v", len(names), names)
	}
	for _, n := range names {
		o, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if o.Name() != n {
			t.Fatalf("ByName(%q) = %q", n, o.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("unknown optimizer should error")
	}
}

func TestRunMeasuresOptimizationTime(t *testing.T) {
	f := smallChain(t, 5)
	q := &Query{Tables: f.ds.ViewTables, GroupVars: []string{"x1"}}
	res, err := Run(CSPlus{}, q, f.b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Optimize <= 0 {
		t.Fatal("Run should return a plan and positive planning time")
	}
}

// TestRandomHeuristicReproducible: same seed, same plan.
func TestRandomHeuristicReproducible(t *testing.T) {
	f := smallChain(t, 5)
	q := &Query{Tables: f.ds.ViewTables, GroupVars: []string{"x1"}}
	p1, err := VE{Heuristic: RandomOrder, Rng: rand.New(rand.NewSource(77))}.Optimize(q, f.b)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := VE{Heuristic: RandomOrder, Rng: rand.New(rand.NewSource(77))}.Optimize(q, f.b)
	if err != nil {
		t.Fatal(err)
	}
	if p1.TotalCost != p2.TotalCost {
		t.Fatal("random heuristic not reproducible with equal seeds")
	}
}

// TestSupplyChainOptimizersMatchOracle runs the paper's running example
// queries (Q1: group by wid; constrained variants) on a small supply
// chain instance against the oracle.
func TestSupplyChainOptimizersMatchOracle(t *testing.T) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.002, CtdealsDensity: 0.8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, ds)
	queries := []*Query{
		{Tables: ds.ViewTables, GroupVars: []string{"wid"}},
		{Tables: ds.ViewTables, GroupVars: []string{"cid"}},
		{Tables: ds.ViewTables, GroupVars: []string{"cid"}, Pred: relation.Predicate{"tid": 1}},
		{Tables: ds.ViewTables, GroupVars: []string{"wid"}, Pred: relation.Predicate{"wid": 2}},
	}
	opts := []Optimizer{
		CS{}, CSPlus{Linear: true}, CSPlus{},
		VE{Heuristic: Degree}, VE{Heuristic: Degree, Extended: true},
		VE{Heuristic: Width}, VE{Heuristic: ElimCost, Extended: true},
	}
	for qi, q := range queries {
		want := oracle(t, f, q)
		for _, o := range opts {
			p, err := o.Optimize(q, f.b)
			if err != nil {
				t.Fatalf("q%d/%s: %v", qi, o.Name(), err)
			}
			got := evalPlan(t, f, p)
			if !relation.Equal(got, want, 0, 1e-6) {
				t.Fatalf("q%d/%s: result differs from oracle\n%s", qi, o.Name(), p)
			}
		}
	}
}

// Run is RunContext without cancellation.
func Run(o Optimizer, q *Query, b *plan.Builder) (Result, error) {
	return RunContext(context.Background(), o, q, b)
}
