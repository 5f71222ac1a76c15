package graph

import (
	"math/rand"
	"testing"

	"mpf/internal/relation"
)

// supplyChainSchemas is the acyclic Figure 1 schema: the variable graph is
// the chain sid–pid–wid–cid–tid (Figure 13).
func supplyChainSchemas() []relation.VarSet {
	return []relation.VarSet{
		relation.NewVarSet("pid", "sid"), // contracts
		relation.NewVarSet("pid", "wid"), // location
		relation.NewVarSet("wid", "cid"), // warehouses
		relation.NewVarSet("cid", "tid"), // ctdeals
		relation.NewVarSet("tid"),        // transporters
	}
}

// cyclicSchemas adds Stdeals(sid,tid), creating the chordless 5-cycle of
// Appendix A.
func cyclicSchemas() []relation.VarSet {
	return append(supplyChainSchemas(), relation.NewVarSet("sid", "tid"))
}

func TestBasicGraphOps(t *testing.T) {
	g := NewUndirected()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("a", "a") // self loop ignored
	if !g.HasEdge("a", "b") || !g.HasEdge("b", "a") {
		t.Fatal("edge not symmetric")
	}
	if g.HasEdge("a", "c") {
		t.Fatal("phantom edge")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if got := g.Neighbors("b"); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("Neighbors(b) = %v", got)
	}
	if g.Degree("b") != 2 {
		t.Fatal("degree")
	}
	c := g.Clone()
	c.AddEdge("a", "c")
	if g.HasEdge("a", "c") {
		t.Fatal("clone not deep")
	}
}

func TestVariableGraphChain(t *testing.T) {
	g := VariableGraph(supplyChainSchemas())
	if len(g.Vertices()) != 5 {
		t.Fatalf("vertices = %v", g.Vertices())
	}
	wantEdges := [][2]string{{"pid", "sid"}, {"pid", "wid"}, {"wid", "cid"}, {"cid", "tid"}}
	if g.NumEdges() != len(wantEdges) {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), len(wantEdges))
	}
	for _, e := range wantEdges {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %v", e)
		}
	}
}

func TestTableGraph(t *testing.T) {
	g := TableGraph(supplyChainSchemas())
	// Chain of tables: contracts–location–warehouses–ctdeals–transporters.
	if !g.HasEdge("0", "1") || !g.HasEdge("1", "2") || !g.HasEdge("2", "3") || !g.HasEdge("3", "4") {
		t.Fatal("table chain edges missing")
	}
	if g.HasEdge("0", "2") {
		t.Fatal("unexpected table edge")
	}
}

func TestChordality(t *testing.T) {
	// The chain is trivially chordal.
	if !IsChordal(VariableGraph(supplyChainSchemas())) {
		t.Fatal("chain should be chordal")
	}
	// The 5-cycle with Stdeals is not (Figure 13 + sid–tid edge).
	if IsChordal(VariableGraph(cyclicSchemas())) {
		t.Fatal("5-cycle should not be chordal")
	}
	// A triangle is chordal.
	tri := NewUndirected()
	tri.AddEdge("a", "b")
	tri.AddEdge("b", "c")
	tri.AddEdge("a", "c")
	if !IsChordal(tri) {
		t.Fatal("triangle should be chordal")
	}
	// 4-cycle is not.
	c4 := NewUndirected()
	c4.AddEdge("a", "b")
	c4.AddEdge("b", "c")
	c4.AddEdge("c", "d")
	c4.AddEdge("d", "a")
	if IsChordal(c4) {
		t.Fatal("4-cycle should not be chordal")
	}
}

// TestTriangulatePaperExample reproduces Figure 14: triangulating the
// cyclic supply-chain graph with vertex order tid, sid adds the dotted
// edges cid–sid and pid–cid.
func TestTriangulatePaperExample(t *testing.T) {
	g := VariableGraph(cyclicSchemas())
	order := []string{"tid", "sid", "pid", "wid", "cid"}
	filled, cliques, err := Triangulate(g, order)
	if err != nil {
		t.Fatal(err)
	}
	if !filled.HasEdge("cid", "sid") {
		t.Fatal("fill edge cid–sid missing")
	}
	if !filled.HasEdge("pid", "cid") {
		t.Fatal("fill edge pid–cid missing")
	}
	if !IsChordal(filled) {
		t.Fatal("triangulated graph must be chordal")
	}
	max := MaximalCliques(cliques)
	// Figure 15's schema: {sid,cid,tid}, {sid,pid,cid}, {pid,wid,cid}.
	want := []relation.VarSet{
		relation.NewVarSet("sid", "cid", "tid"),
		relation.NewVarSet("sid", "pid", "cid"),
		relation.NewVarSet("pid", "wid", "cid"),
	}
	if len(max) != len(want) {
		t.Fatalf("maximal cliques = %d, want %d: %v", len(max), len(want), max)
	}
	for _, w := range want {
		found := false
		for _, m := range max {
			if m.Equal(w) {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing clique %v", w.Sorted())
		}
	}
	// The junction tree over these cliques satisfies running intersection.
	jt, err := BuildJunctionTree(max)
	if err != nil {
		t.Fatal(err)
	}
	if len(jt.Edges) != 2 {
		t.Fatalf("junction tree should have 2 edges, got %d", len(jt.Edges))
	}
}

func TestTriangulateValidation(t *testing.T) {
	g := VariableGraph(supplyChainSchemas())
	if _, _, err := Triangulate(g, []string{"pid"}); err == nil {
		t.Fatal("short order should error")
	}
	if _, _, err := Triangulate(g, []string{"pid", "pid", "wid", "cid", "tid"}); err == nil {
		t.Fatal("repeated vertex should error")
	}
	if _, _, err := Triangulate(g, []string{"pid", "sid", "wid", "cid", "zz"}); err == nil {
		t.Fatal("unknown vertex should error")
	}
}

func TestMinFillOrderProducesChordalGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := NewUndirected()
		n := 8
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
			g.AddVertex(names[i])
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.35 {
					g.AddEdge(names[i], names[j])
				}
			}
		}
		order := MinFillOrder(g)
		filled, cliques, err := Triangulate(g, order)
		if err != nil {
			t.Fatal(err)
		}
		if !IsChordal(filled) {
			t.Fatalf("trial %d: triangulation not chordal", trial)
		}
		if InducedWidth(cliques) < 0 {
			t.Fatal("negative width")
		}
	}
}

func TestPEOOnChordalGraph(t *testing.T) {
	// A tree is chordal; its PEO must verify.
	g := NewUndirected()
	g.AddEdge("r", "a")
	g.AddEdge("r", "b")
	g.AddEdge("a", "c")
	order, ok := PerfectEliminationOrder(g)
	if !ok {
		t.Fatal("tree should be chordal")
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	if !isPEO(g, order) {
		t.Fatal("returned order is not a PEO")
	}
}

func TestMaximalCliquesDeduplication(t *testing.T) {
	cliques := []relation.VarSet{
		relation.NewVarSet("a", "b"),
		relation.NewVarSet("a", "b", "c"),
		relation.NewVarSet("b", "c"),
		relation.NewVarSet("a", "b", "c"), // duplicate
	}
	max := MaximalCliques(cliques)
	if len(max) != 1 || !max[0].Equal(relation.NewVarSet("a", "b", "c")) {
		t.Fatalf("max cliques = %v", max)
	}
}

func TestBuildJunctionTreeRejectsNonTreeDecomposable(t *testing.T) {
	// Cliques from a chordless 4-cycle pairwise intersections cannot
	// satisfy running intersection: {a,b},{b,c},{c,d},{d,a}.
	cliques := []relation.VarSet{
		relation.NewVarSet("a", "b"),
		relation.NewVarSet("b", "c"),
		relation.NewVarSet("c", "d"),
		relation.NewVarSet("d", "a"),
	}
	if _, err := BuildJunctionTree(cliques); err == nil {
		t.Fatal("4-cycle cliques should fail running intersection")
	}
	if _, err := BuildJunctionTree(nil); err == nil {
		t.Fatal("empty cliques should error")
	}
}

func TestSchemaJunctionTreePipeline(t *testing.T) {
	jt, assign, err := SchemaJunctionTree(cyclicSchemas(), []string{"tid", "sid", "pid", "wid", "cid"})
	if err != nil {
		t.Fatal(err)
	}
	if err := jt.CheckRunningIntersection(); err != nil {
		t.Fatal(err)
	}
	schemas := cyclicSchemas()
	for i, ci := range assign {
		if !jt.Cliques[ci].Contains(schemas[i]) {
			t.Fatalf("schema %d assigned to clique %d that does not contain it", i, ci)
		}
	}
	// Min-fill default order also works.
	jt2, _, err := SchemaJunctionTree(cyclicSchemas(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jt2.CheckRunningIntersection(); err != nil {
		t.Fatal(err)
	}
}

func TestIsAcyclicSchema(t *testing.T) {
	if !IsAcyclicSchema(supplyChainSchemas()) {
		t.Fatal("supply chain schema is acyclic")
	}
	if IsAcyclicSchema(cyclicSchemas()) {
		t.Fatal("schema with Stdeals is cyclic")
	}
	// Star schema: hub table containing everything makes it acyclic.
	star := []relation.VarSet{
		relation.NewVarSet("a", "b", "c"),
		relation.NewVarSet("a"),
		relation.NewVarSet("b"),
	}
	if !IsAcyclicSchema(star) {
		t.Fatal("star with containing hub is acyclic")
	}
	if !IsAcyclicSchema(nil) {
		t.Fatal("empty schema is acyclic")
	}
}

// TestAcyclicityMatchesChordality spot-checks Theorem 8 on conformal
// random schemas: build schemas as the cliques of a random graph; the
// schema is acyclic iff the graph is chordal.
func TestAcyclicityMatchesChordality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	agree := 0
	for trial := 0; trial < 50; trial++ {
		n := 6
		g := NewUndirected()
		names := []string{"a", "b", "c", "d", "e", "f"}
		for _, v := range names[:n] {
			g.AddVertex(v)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(names[i], names[j])
				}
			}
		}
		// Conformal schema: one relation per edge plus isolated vertices —
		// conformal only if the graph is triangle-free; to keep it simple,
		// use the maximal cliques of the graph as schemas instead, found by
		// brute force.
		cliques := bruteForceMaximalCliques(g, names[:n])
		got := IsAcyclicSchema(cliques)
		want := IsChordal(g)
		if got != want {
			t.Fatalf("trial %d: acyclic=%v chordal=%v for cliques %v", trial, got, want, cliques)
		}
		agree++
	}
	if agree != 50 {
		t.Fatal("not all trials ran")
	}
}

// bruteForceMaximalCliques enumerates maximal cliques of a small graph.
func bruteForceMaximalCliques(g *Undirected, names []string) []relation.VarSet {
	n := len(names)
	var all []relation.VarSet
	for mask := 1; mask < 1<<n; mask++ {
		ok := true
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for j := i + 1; j < n && ok; j++ {
				if mask&(1<<j) == 0 {
					continue
				}
				if !g.HasEdge(names[i], names[j]) {
					ok = false
				}
			}
		}
		if !ok {
			continue
		}
		s := relation.NewVarSet()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s[names[i]] = true
			}
		}
		all = append(all, s)
	}
	return MaximalCliques(all)
}

func TestInducedWidth(t *testing.T) {
	if InducedWidth(nil) != 0 {
		t.Fatal("empty width")
	}
	w := InducedWidth([]relation.VarSet{relation.NewVarSet("a", "b", "c"), relation.NewVarSet("a")})
	if w != 2 {
		t.Fatalf("width = %d, want 2", w)
	}
}

// NumEdges returns the number of undirected edges.
func (g *Undirected) NumEdges() int {
	n := 0
	for _, ns := range g.adj {
		n += len(ns)
	}
	return n / 2
}
