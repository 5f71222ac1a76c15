package exec

import (
	"math/rand"
	"testing"

	"mpf/internal/catalog"
	"mpf/internal/cost"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// harness bundles a pool, engine, catalog and loaded base tables.
type harness struct {
	pool   *storage.Pool
	engine *Engine
	cat    *catalog.Catalog
	tables map[string]*Table
}

func newHarness(t testing.TB, frames int, rels ...*relation.Relation) *harness {
	t.Helper()
	pool := storage.NewPool(frames)
	factory := storage.MemDiskFactory()
	h := &harness{
		pool:   pool,
		engine: NewEngine(pool, factory, semiring.SumProduct),
		cat:    catalog.New(),
		tables: make(map[string]*Table),
	}
	for _, r := range rels {
		tb, err := LoadRelation(pool, factory, r)
		if err != nil {
			t.Fatal(err)
		}
		h.tables[r.Name()] = tb
		if err := h.cat.AddTable(catalog.AnalyzeRelation(r)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func (h *harness) builder() *plan.Builder {
	return plan.NewBuilder(h.cat, cost.Simple{})
}

func (h *harness) run(t *testing.T, p *plan.Node) (*relation.Relation, RunStats) {
	t.Helper()
	rel, st, err := h.engine.Run(p, MapResolver(h.tables))
	if err != nil {
		t.Fatal(err)
	}
	return rel, st
}

func randomRelations(seed int64) (*relation.Relation, *relation.Relation, *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	a, _ := relation.Random(rng, "a", []relation.Attr{{Name: "X", Domain: 4}, {Name: "Y", Domain: 3}}, 0.8, relation.UniformMeasure(0.1, 5))
	b, _ := relation.Random(rng, "b", []relation.Attr{{Name: "Y", Domain: 3}, {Name: "Z", Domain: 4}}, 0.8, relation.UniformMeasure(0.1, 5))
	c, _ := relation.Random(rng, "c", []relation.Attr{{Name: "Z", Domain: 4}, {Name: "W", Domain: 3}}, 0.8, relation.UniformMeasure(0.1, 5))
	return a, b, c
}

func TestScanRoundTrip(t *testing.T) {
	a, _, _ := randomRelations(1)
	h := newHarness(t, 16, a)
	b := h.builder()
	p, err := b.Scan("a")
	if err != nil {
		t.Fatal(err)
	}
	got, st := h.run(t, p)
	if !relation.Equal(got, a, 0, 1e-12) {
		t.Fatal("scan did not round-trip the relation")
	}
	if st.RowsOut != int64(a.Len()) {
		t.Fatalf("RowsOut = %d, want %d", st.RowsOut, a.Len())
	}
}

func TestSelectMatchesOracle(t *testing.T) {
	a, _, _ := randomRelations(2)
	h := newHarness(t, 16, a)
	b := h.builder()
	scan, _ := b.Scan("a")
	sel, err := b.Select(scan, relation.Predicate{"X": 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h.run(t, sel)
	want, _ := relation.Select(a, relation.Predicate{"X": 2})
	if !relation.Equal(got, want, 0, 1e-12) {
		t.Fatal("selection mismatch with oracle")
	}
}

func TestHashJoinMatchesOracle(t *testing.T) {
	a, b, _ := randomRelations(3)
	h := newHarness(t, 16, a, b)
	pb := h.builder()
	sa, _ := pb.Scan("a")
	sb, _ := pb.Scan("b")
	j := pb.Join(sa, sb)
	got, _ := h.run(t, j)
	want, err := relation.ProductJoin(semiring.SumProduct, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(got, want, 0, 1e-9) {
		t.Fatal("hash join mismatch with oracle")
	}
}

func TestCrossProductJoin(t *testing.T) {
	x, _ := relation.FromRows("x", []relation.Attr{{Name: "A", Domain: 2}},
		[][]int32{{0}, {1}}, []float64{2, 3})
	y, _ := relation.FromRows("y", []relation.Attr{{Name: "B", Domain: 2}},
		[][]int32{{0}, {1}}, []float64{5, 7})
	h := newHarness(t, 16, x, y)
	pb := h.builder()
	sx, _ := pb.Scan("x")
	sy, _ := pb.Scan("y")
	got, _ := h.run(t, pb.Join(sx, sy))
	want, _ := relation.ProductJoin(semiring.SumProduct, x, y)
	if !relation.Equal(got, want, 0, 1e-12) {
		t.Fatal("cross product mismatch")
	}
}

func TestGroupByMatchesOracle(t *testing.T) {
	a, _, _ := randomRelations(5)
	h := newHarness(t, 16, a)
	pb := h.builder()
	scan, _ := pb.Scan("a")
	g, err := pb.GroupBy(scan, []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h.run(t, g)
	want, _ := relation.Marginalize(semiring.SumProduct, a, []string{"X"})
	if !relation.Equal(got, want, 0, 1e-9) {
		t.Fatal("hash group-by mismatch with oracle")
	}
}

func TestGroupByAllAndNothing(t *testing.T) {
	a, _, _ := randomRelations(6)
	h := newHarness(t, 16, a)
	pb := h.builder()
	scan, _ := pb.Scan("a")
	// Group by no variables: single total.
	g0, err := pb.GroupBy(scan, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h.run(t, g0)
	if got.Len() != 1 {
		t.Fatalf("grand total should have 1 row, got %d", got.Len())
	}
	var sum float64
	for i := 0; i < a.Len(); i++ {
		sum += a.Measure(i)
	}
	if d := got.Measure(0) - sum; d > 1e-9 || d < -1e-9 {
		t.Fatalf("grand total %v, want %v", got.Measure(0), sum)
	}
	// Group by all variables: identity for an FR.
	gAll, err := pb.GroupBy(scan, a.VarNames())
	if err != nil {
		t.Fatal(err)
	}
	gotAll, _ := h.run(t, gAll)
	if !relation.Equal(gotAll, a, 0, 1e-9) {
		t.Fatal("group-by all variables should be identity on an FR")
	}
}

// TestFullPlanEquivalence runs a 3-way join with pushed-down GroupBys and
// compares against the brute-force oracle (join all, aggregate once).
func TestFullPlanEquivalence(t *testing.T) {
	for seed := int64(10); seed < 20; seed++ {
		a, b, c := randomRelations(seed)
		h := newHarness(t, 16, a, b, c)
		pb := h.builder()
		sa, _ := pb.Scan("a")
		sb, _ := pb.Scan("b")
		sc, _ := pb.Scan("c")
		// Pushed-down plan: γ_W(γ_Z(γ_Y(a⋈*b ← γ) ⋈* c)).
		ab := pb.Join(sa, sb)
		gab, err := pb.GroupBy(ab, []string{"Z", "X"})
		if err != nil {
			t.Fatal(err)
		}
		abc := pb.Join(gab, sc)
		final, err := pb.GroupBy(abc, []string{"W"})
		if err != nil {
			t.Fatal(err)
		}
		// Wait: grouping out X early is only legal if X is not needed; X is
		// not a query variable and appears only in a, so dropping it when
		// aggregating a⋈*b is exactly the GDL transformation under test.
		got, _ := h.run(t, final)

		joint, err := relation.ProductJoinAll(semiring.SumProduct, a, b, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := relation.Marginalize(semiring.SumProduct, joint, []string{"W"})
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(got, want, 0, 1e-9) {
			t.Fatalf("seed %d: pushed-down plan disagrees with oracle", seed)
		}
	}
}

func TestRunStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	big, _ := relation.Random(rng, "big",
		[]relation.Attr{{Name: "X", Domain: 50}, {Name: "Y", Domain: 50}}, 1, relation.UniformMeasure(0, 1))
	h := newHarness(t, 4, big) // tiny pool: physical IO guaranteed
	pb := h.builder()
	scan, _ := pb.Scan("big")
	g, _ := pb.GroupBy(scan, []string{"X"})
	_, st := h.run(t, g)
	if st.IO.Reads == 0 {
		t.Fatalf("expected physical reads with a 4-frame pool, got %+v", st.IO)
	}
	if st.Operators != 2 {
		t.Fatalf("Operators = %d, want 2", st.Operators)
	}
	if st.RowsOut != 50 {
		t.Fatalf("RowsOut = %d, want 50", st.RowsOut)
	}
	if st.TempTuples < 50 {
		t.Fatalf("TempTuples = %d, want >= 50", st.TempTuples)
	}
	if st.Wall <= 0 {
		t.Fatal("wall time not recorded")
	}
}

func TestMinProductEngine(t *testing.T) {
	a, b, _ := randomRelations(7)
	pool := storage.NewPool(16)
	factory := storage.MemDiskFactory()
	eng := NewEngine(pool, factory, semiring.MinProduct)
	cat := catalog.New()
	tables := map[string]*Table{}
	for _, r := range []*relation.Relation{a, b} {
		tb, err := LoadRelation(pool, factory, r)
		if err != nil {
			t.Fatal(err)
		}
		tables[r.Name()] = tb
		cat.AddTable(catalog.AnalyzeRelation(r))
	}
	pb := plan.NewBuilder(cat, cost.Simple{})
	sa, _ := pb.Scan("a")
	sb, _ := pb.Scan("b")
	g, _ := pb.GroupBy(pb.Join(sa, sb), []string{"X"})
	got, _, err := eng.Run(g, MapResolver(tables))
	if err != nil {
		t.Fatal(err)
	}
	joint, _ := relation.ProductJoin(semiring.MinProduct, a, b)
	want, _ := relation.Marginalize(semiring.MinProduct, joint, []string{"X"})
	if !relation.Equal(got, want, semiring.MinProduct.Zero(), 1e-9) {
		t.Fatal("min-product plan mismatch with oracle")
	}
}

func TestResolverUnknownTable(t *testing.T) {
	h := newHarness(t, 8)
	r := MapResolver(h.tables)
	if _, err := r("ghost"); err == nil {
		t.Fatal("unknown table should error")
	}
}

func TestTempTablesReclaimed(t *testing.T) {
	a, b, _ := randomRelations(11)
	h := newHarness(t, 16, a, b)
	pb := h.builder()
	sa, _ := pb.Scan("a")
	sb, _ := pb.Scan("b")
	g, _ := pb.GroupBy(pb.Join(sa, sb), []string{"X"})
	for i := 0; i < 5; i++ {
		h.run(t, g)
	}
	// After runs, only base-table pages should remain registered; verify by
	// pinning base pages still works and pool has no leaked pins (FlushAll
	// succeeds only if nothing is pinned dirty).
	if err := h.pool.FlushAll(); err != nil {
		t.Fatalf("leaked pins detected: %v", err)
	}
}

// TestPerOperatorStats checks the EXPLAIN-ANALYZE-style per-operator
// actuals: one entry per executed operator, bottom-up, with plausible
// row counts.
func TestPerOperatorStats(t *testing.T) {
	a, b, _ := randomRelations(91)
	h := newHarness(t, 16, a, b)
	pb := h.builder()
	sa, _ := pb.Scan("a")
	sb, _ := pb.Scan("b")
	g, _ := pb.GroupBy(pb.Join(sa, sb), []string{"X"})
	_, st := h.run(t, g)
	if len(st.Trace) != 4 { // 2 scans + join + group-by
		t.Fatalf("Trace has %d spans, want 4: %+v", len(st.Trace), st.Trace)
	}
	// Bottom-up: last span is the root GroupBy.
	last := st.Trace[len(st.Trace)-1]
	if last.Desc != "GroupBy" || last.Depth != 0 {
		t.Fatalf("last span = %s at depth %d, want GroupBy at 0", last.Desc, last.Depth)
	}
	if last.Rows != st.RowsOut {
		t.Fatalf("root span rows %d != RowsOut %d", last.Rows, st.RowsOut)
	}
	for _, sp := range st.Trace {
		if sp.Rows < 0 || sp.Desc == "" {
			t.Fatalf("malformed span %+v", sp)
		}
	}
}
