package plan

import (
	"math/rand"
	"strings"
	"testing"

	"mpf/internal/catalog"
	"mpf/internal/cost"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

func testCatalog(t *testing.T) (*catalog.Catalog, map[string]*relation.Relation) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	a, _ := relation.Random(rng, "a", []relation.Attr{{Name: "X", Domain: 4}, {Name: "Y", Domain: 3}}, 0.9, relation.UniformMeasure(0, 2))
	b, _ := relation.Random(rng, "b", []relation.Attr{{Name: "Y", Domain: 3}, {Name: "Z", Domain: 5}}, 0.9, relation.UniformMeasure(0, 2))
	cat := catalog.New()
	for _, r := range []*relation.Relation{a, b} {
		if err := cat.AddTable(catalog.AnalyzeRelation(r)); err != nil {
			t.Fatal(err)
		}
	}
	return cat, map[string]*relation.Relation{"a": a, "b": b}
}

func TestBuilderScan(t *testing.T) {
	cat, rels := testCatalog(t)
	b := NewBuilder(cat, cost.Simple{})
	n, err := b.Scan("a")
	if err != nil {
		t.Fatal(err)
	}
	if n.Op != OpScan || n.Table != "a" {
		t.Fatal("scan node malformed")
	}
	if n.Est.Card != float64(rels["a"].Len()) {
		t.Fatalf("card estimate %v, want %d", n.Est.Card, rels["a"].Len())
	}
	if !n.Vars().Equal(relation.NewVarSet("X", "Y")) {
		t.Fatalf("vars = %v", n.Vars().Sorted())
	}
	if _, err := b.Scan("nope"); err == nil {
		t.Fatal("unknown table should error")
	}
}

func TestBuilderSelectAndGroupByValidation(t *testing.T) {
	cat, _ := testCatalog(t)
	b := NewBuilder(cat, cost.Simple{})
	a, _ := b.Scan("a")
	if _, err := b.Select(a, relation.Predicate{"Q": 1}); err == nil {
		t.Fatal("selection on missing variable should error")
	}
	if _, err := b.GroupBy(a, []string{"Z"}); err == nil {
		t.Fatal("grouping on missing variable should error")
	}
	sel, err := b.Select(a, relation.Predicate{"X": 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Est.Card >= a.Est.Card {
		t.Fatal("selection should reduce estimated cardinality")
	}
	g, err := b.GroupBy(a, []string{"X", "X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.GroupVars) != 2 {
		t.Fatalf("duplicate group vars not deduplicated: %v", g.GroupVars)
	}
}

func TestJoinEstimateAndCost(t *testing.T) {
	cat, _ := testCatalog(t)
	b := NewBuilder(cat, cost.Simple{})
	a, _ := b.Scan("a")
	bb, _ := b.Scan("b")
	j := b.Join(a, bb)
	if !j.Vars().Equal(relation.NewVarSet("X", "Y", "Z")) {
		t.Fatalf("join vars = %v", j.Vars().Sorted())
	}
	wantCost := a.Est.Card * bb.Est.Card
	if j.OpCost != wantCost {
		t.Fatalf("join cost %v, want %v", j.OpCost, wantCost)
	}
	if j.TotalCost != a.TotalCost+bb.TotalCost+j.OpCost {
		t.Fatal("total cost not cumulative")
	}
	if got := b.JoinCost(a, bb); got != j.TotalCost {
		t.Fatalf("JoinCost = %v, want the built join's TotalCost %v", got, j.TotalCost)
	}
}

func TestPlanShapeHelpers(t *testing.T) {
	cat, _ := testCatalog(t)
	b := NewBuilder(cat, cost.Simple{})
	a, _ := b.Scan("a")
	bb, _ := b.Scan("b")
	j := b.Join(a, bb)
	g, _ := b.GroupBy(j, []string{"X"})
	if got := Tables(g); !got["a"] || !got["b"] || len(got) != 2 {
		t.Fatalf("Tables = %v", got)
	}
	if CountOps(g, OpJoin) != 1 || CountOps(g, OpGroupBy) != 1 || CountOps(g, OpScan) != 2 {
		t.Fatal("CountOps wrong")
	}
	if Depth(g) != 3 {
		t.Fatalf("Depth = %d", Depth(g))
	}
	if !IsLeftLinear(g) {
		t.Fatal("this plan is left-linear")
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	s := g.String()
	if !strings.Contains(s, "ProductJoin") || !strings.Contains(s, "GroupBy(X)") {
		t.Fatalf("String output missing operators:\n%s", s)
	}
}

func TestIsLeftLinearBushy(t *testing.T) {
	cat, _ := testCatalog(t)
	b := NewBuilder(cat, cost.Simple{})
	a1, _ := b.Scan("a")
	b1, _ := b.Scan("b")
	a2, _ := b.Scan("a")
	b2, _ := b.Scan("b")
	bushy := b.Join(b.Join(a1, b1), b.Join(a2, b2))
	if IsLeftLinear(bushy) {
		t.Fatal("bushy plan misclassified as linear")
	}
}

func TestValidateCatchesCorruptPlans(t *testing.T) {
	if err := Validate(nil); err == nil {
		t.Fatal("nil plan should fail validation")
	}
	bad := &Node{Op: OpJoin}
	if err := Validate(bad); err == nil {
		t.Fatal("join without children should fail validation")
	}
	bad2 := &Node{Op: OpScan, Table: "t", Left: &Node{Op: OpScan, Table: "u"}}
	if err := Validate(bad2); err == nil {
		t.Fatal("scan with children should fail validation")
	}
}

func TestEvalMatchesAlgebra(t *testing.T) {
	cat, rels := testCatalog(t)
	b := NewBuilder(cat, cost.Simple{})
	sa, _ := b.Scan("a")
	sb, _ := b.Scan("b")
	sel, _ := b.Select(sb, relation.Predicate{"Z": 2})
	j := b.Join(sa, sel)
	g, _ := b.GroupBy(j, []string{"X"})
	got, err := Eval(g, MapResolver(rels), semiring.SumProduct)
	if err != nil {
		t.Fatal(err)
	}
	selB, _ := relation.Select(rels["b"], relation.Predicate{"Z": 2})
	joint, _ := relation.ProductJoin(semiring.SumProduct, rels["a"], selB)
	want, _ := relation.Marginalize(semiring.SumProduct, joint, []string{"X"})
	if !relation.Equal(got, want, 0, 1e-9) {
		t.Fatal("Eval disagrees with direct algebra")
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := Eval(nil, MapResolver(nil), semiring.SumProduct); err == nil {
		t.Fatal("nil plan should error")
	}
	n := &Node{Op: OpScan, Table: "ghost"}
	if _, err := Eval(n, MapResolver(map[string]*relation.Relation{}), semiring.SumProduct); err == nil {
		t.Fatal("unknown table should error")
	}
}

func TestPageIOCostModel(t *testing.T) {
	cat, _ := testCatalog(t)
	b := NewBuilder(cat, cost.DefaultPageIO())
	a, _ := b.Scan("a")
	if a.TotalCost <= 0 {
		t.Fatal("PageIO scan should cost at least one page")
	}
	bb, _ := b.Scan("b")
	j := b.Join(a, bb)
	if j.OpCost <= 0 {
		t.Fatal("PageIO join should have positive cost")
	}
}

// Depth returns the height of the plan tree.
func Depth(n *Node) int {
	if n == nil {
		return 0
	}
	l, r := Depth(n.Left), Depth(n.Right)
	if r > l {
		l = r
	}
	return l + 1
}
