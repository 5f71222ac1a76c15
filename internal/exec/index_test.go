package exec

import (
	"context"
	"math/rand"
	"testing"

	"mpf/internal/relation"
	"mpf/internal/semiring"
)

func TestIndexLookupMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rel, _ := relation.Random(rng, "r",
		[]relation.Attr{{Name: "a", Domain: 20}, {Name: "b", Domain: 20}}, 0.8,
		relation.UniformMeasure(0, 1))
	h := newHarness(t, 32, rel)
	tb := h.tables["r"]
	idx, err := BuildIndex(tb, "a")
	if err != nil {
		t.Fatal(err)
	}
	tb.AddIndex(idx)
	for val := int32(0); val < 20; val++ {
		locs := idx.Lookup(val)
		want, _ := relation.Select(rel, relation.Predicate{"a": val})
		if len(locs) != want.Len() {
			t.Fatalf("index lookup a=%d returned %d locations, want %d", val, len(locs), want.Len())
		}
		for _, loc := range locs {
			err := tb.Heap.ReadTupleBatchContext(context.Background(), loc.page, []int32{loc.slot}, func(vals []int32, _ float64) error {
				if vals[0] != val {
					t.Fatalf("index pointed at tuple with a=%d, want %d", vals[0], val)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := idx.Selectivity(0, tb.Heap.NumTuples()); got <= 0 || got > 1 {
		t.Fatalf("selectivity = %v", got)
	}
}

func TestBuildIndexUnknownAttr(t *testing.T) {
	rel := relation.MustNew("r", []relation.Attr{{Name: "a", Domain: 2}})
	h := newHarness(t, 8, rel)
	if _, err := BuildIndex(h.tables["r"], "z"); err == nil {
		t.Fatal("unknown attribute should error")
	}
}

// TestIndexedSelectMatchesScanSelect runs the same plan with and without
// an index; results must agree and the indexed run must read fewer pages
// for selective predicates.
func TestIndexedSelectMatchesScanSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rel, _ := relation.Random(rng, "big",
		[]relation.Attr{{Name: "a", Domain: 500}, {Name: "b", Domain: 10}}, 0.9,
		relation.UniformMeasure(0, 1))
	h := newHarness(t, 512, rel)
	pb := h.builder()
	scan, _ := pb.Scan("big")
	sel, err := pb.Select(scan, relation.Predicate{"a": 7})
	if err != nil {
		t.Fatal(err)
	}

	before := h.pool.Stats()
	noIdx, _ := h.run(t, sel)
	scanIO := h.pool.Stats().Sub(before)

	idx, err := BuildIndex(h.tables["big"], "a")
	if err != nil {
		t.Fatal(err)
	}
	h.tables["big"].AddIndex(idx)
	before = h.pool.Stats()
	withIdx, _ := h.run(t, sel)
	idxIO := h.pool.Stats().Sub(before)

	if !relation.Equal(noIdx, withIdx, 0, 1e-12) {
		t.Fatal("indexed selection returned different rows")
	}
	// With a warm pool both may be hit-only; compare hits+reads (pages
	// touched) instead of physical reads.
	scanTouched := scanIO.Hits + scanIO.Reads
	idxTouched := idxIO.Hits + idxIO.Reads
	if idxTouched >= scanTouched {
		t.Fatalf("index touched %d pages, scan touched %d — expected fewer", idxTouched, scanTouched)
	}
}

// TestIndexedSelectResidualPredicate checks multi-variable predicates:
// the index covers one variable, the rest are applied as residuals.
func TestIndexedSelectResidualPredicate(t *testing.T) {
	rel, _ := relation.Complete("r",
		[]relation.Attr{{Name: "a", Domain: 6}, {Name: "b", Domain: 6}},
		func(v []int32) float64 { return float64(v[0]*10 + v[1]) })
	h := newHarness(t, 32, rel)
	idx, err := BuildIndex(h.tables["r"], "a")
	if err != nil {
		t.Fatal(err)
	}
	h.tables["r"].AddIndex(idx)
	pb := h.builder()
	scan, _ := pb.Scan("r")
	sel, err := pb.Select(scan, relation.Predicate{"a": 3, "b": 4})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h.run(t, sel)
	if got.Len() != 1 || got.Measure(0) != 34 {
		t.Fatalf("residual predicate result wrong: %v", got)
	}
}

// TestIndexedSelectInQueryPipeline runs a full grouped query whose leaf
// selection goes through the index.
func TestIndexedSelectInQueryPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a, _ := relation.Random(rng, "a",
		[]relation.Attr{{Name: "x", Domain: 30}, {Name: "y", Domain: 5}}, 0.9,
		relation.UniformMeasure(0.1, 2))
	b2, _ := relation.Random(rng, "b",
		[]relation.Attr{{Name: "y", Domain: 5}, {Name: "z", Domain: 4}}, 0.9,
		relation.UniformMeasure(0.1, 2))
	h := newHarness(t, 64, a, b2)
	idx, err := BuildIndex(h.tables["a"], "x")
	if err != nil {
		t.Fatal(err)
	}
	h.tables["a"].AddIndex(idx)

	pb := h.builder()
	sa, _ := pb.Scan("a")
	sel, _ := pb.Select(sa, relation.Predicate{"x": 5})
	sb, _ := pb.Scan("b")
	g, _ := pb.GroupBy(pb.Join(sel, sb), []string{"z"})
	got, _ := h.run(t, g)

	selA, _ := relation.Select(a, relation.Predicate{"x": 5})
	joint, _ := relation.ProductJoin(semiring.SumProduct, selA, b2)
	want, _ := relation.Marginalize(semiring.SumProduct, joint, []string{"z"})
	if !relation.Equal(got, want, 0, 1e-9) {
		t.Fatal("indexed pipeline result wrong")
	}
}

func TestReadTupleBounds(t *testing.T) {
	rel := relation.MustNew("r", []relation.Attr{{Name: "a", Domain: 2}})
	rel.MustAppend([]int32{1}, 2.5)
	h := newHarness(t, 8, rel)
	heap := h.tables["r"].Heap
	read := func(page int64, slot int32) error {
		return heap.ReadTupleBatchContext(context.Background(), page, []int32{slot}, func(vals []int32, m float64) error {
			if vals[0] != 1 || m != 2.5 {
				t.Fatalf("ReadTupleBatchContext = %v %v", vals, m)
			}
			return nil
		})
	}
	if err := read(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := read(0, 5); err == nil {
		t.Fatal("out-of-range slot should error")
	}
	if err := read(9, 0); err == nil {
		t.Fatal("out-of-range page should error")
	}
}
