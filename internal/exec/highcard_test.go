package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// highCardRels builds the high-cardinality inputs, shaped like the
// supply chain at scale 0.4: probes of one leaf (q1), three leaves (c3)
// and 25 leaves (l25) over wide domains, and the builds b5 (five T per
// join value J, the fan-out of a high-cardinality fused probe) and b1
// (one).
func highCardRels(t testing.TB) map[string]*relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(46))
	attr := func(name string, domain int) relation.Attr { return relation.Attr{Name: name, Domain: domain} }
	J, P, S := attr("J", 2000), attr("P", 100000), attr("S", 4000)
	T, U, W := attr("T", 200), attr("U", 200), attr("W", 2000)
	draw := func(name string, rows int, attrs ...relation.Attr) *relation.Relation {
		r := relation.MustNew(name, attrs)
		vals := make([]int32, len(attrs))
		for i := 0; i < rows; i++ {
			for c, a := range attrs {
				vals[c] = rng.Int31n(int32(a.Domain))
			}
			r.MustAppend(vals, 0.1+rng.Float64())
		}
		return r
	}
	fanOut := func(name string, per int) *relation.Relation {
		r := relation.MustNew(name, []relation.Attr{J, T})
		for j := int32(0); j < int32(J.Domain); j++ {
			for _, tv := range rng.Perm(T.Domain)[:per] {
				r.MustAppend([]int32{j, int32(tv)}, 0.1+rng.Float64())
			}
		}
		return r
	}
	return map[string]*relation.Relation{
		"q1":  draw("q1", 13000, J, P, W),
		"c3":  draw("c3", 32000, J, P, S, W),
		"l25": draw("l25", 262000, J, P, U, W),
		"b5":  fanOut("b5", 5),
		"b1":  fanOut("b1", 1),
	}
}

// TestHighCardinalityAcrossWorkers is the fold-order contract of
// foldLeaves on aggregates of 25 k–200 k groups, whose leaf merges split
// into parts that run as morsels: group-bys and fused probes over inputs
// of 1, 3 and 25 leaves, with keys direct-addressed in dense and radix
// mode and hashed in table mode. Every run — both page layouts × Parallelism 1,
// 2 and 4 — returns the groups of a serial leaf-by-leaf reference fold
// in its order, with bit-identical measures, and equal TempTuples.
func TestHighCardinalityAcrossWorkers(t *testing.T) {
	rels := highCardRels(t)
	cases := []struct {
		name        string
		probe, bld  string // bld == "" for a plain group-by of probe
		group       []string
		leaves      int
		dense, radx bool // the key's mode: dense, radix, or neither (table)
	}{
		{"group-by dense, 3 leaves", "c3", "", []string{"P"}, 3, true, false},
		{"group-by table, 3 leaves", "c3", "", []string{"P", "S"}, 3, false, false},
		{"group-by dense, 25 leaves", "l25", "", []string{"P"}, 25, true, false},
		{"group-by radix, 25 leaves", "l25", "", []string{"U", "W"}, 25, false, true},
		{"fused radix, 1 leaf", "q1", "b5", []string{"T", "W"}, 1, false, true},
		{"fused table, 1 leaf", "q1", "b5", []string{"P", "T"}, 1, false, false},
		{"fused radix, 3 leaves", "c3", "b5", []string{"T", "W"}, 3, false, true},
		{"fused table, 3 leaves", "c3", "b5", []string{"P", "T"}, 3, false, false},
		{"fused dense, 25 leaves", "l25", "b1", []string{"P"}, 25, true, false},
	}
	sr := semiring.SumProduct
	layouts := kernelLayouts[:2] // row-major and columnar
	harnesses := make([]*harness, len(layouts))
	for i, l := range layouts {
		harnesses[i] = layoutHarness(t, l, rels["q1"], rels["c3"], rels["l25"], rels["b5"], rels["b1"])
		harnesses[i].engine.FuseJoinGroupBy = true
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := leafCount(harnesses[0].tables[tc.probe].Heap.NumPages()); n != tc.leaves {
				t.Fatalf("probe %s has %d leaves, want %d", tc.probe, n, tc.leaves)
			}
			var bld *relation.Relation
			if tc.bld != "" {
				bld = rels[tc.bld]
			}
			want := refLeafFold(t, sr, rels[tc.probe], bld, tc.group)
			if n := want.Len(); n < 25000 || n > 220000 {
				t.Fatalf("reference has %d groups, want 25 k–220 k", n)
			}
			if k := newAttrKeyIndex(want.Attrs(), 0); k.isDense != tc.dense || k.isRadix != tc.radx {
				t.Fatalf("key mode dense, radix = %v, %v; want %v, %v", k.isDense, k.isRadix, tc.dense, tc.radx)
			}
			firstTemp := int64(-1)
			for i, l := range layouts {
				h := harnesses[i]
				for _, workers := range []int{1, 2, 4} {
					h.engine.Parallelism = workers
					pb := h.builder()
					node := mustScan(pb, tc.probe)
					if tc.bld != "" {
						node = pb.Join(node, mustScan(pb, tc.bld))
					}
					node, err := pb.GroupBy(node, tc.group)
					if err != nil {
						t.Fatal(err)
					}
					got, st := h.run(t, node)
					if err := sameRowsAndBits(want, got); err != nil {
						t.Fatalf("%s workers=%d: %s", l.name, workers, err)
					}
					if firstTemp < 0 {
						firstTemp = st.TempTuples
					}
					if st.TempTuples != firstTemp {
						t.Fatalf("%s workers=%d: TempTuples %d, want %d", l.name, workers, st.TempTuples, firstTemp)
					}
					if n := h.pool.Pinned(); n != 0 {
						t.Fatalf("%s workers=%d: %d frames left pinned", l.name, workers, n)
					}
				}
			}
		})
	}
}

// sameRowsAndBits reports how got differs from want — row order, values
// and measure bits — or nil when it does not.
func sameRowsAndBits(want, got *relation.Relation) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d groups, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if !slices.Equal(want.Row(i), got.Row(i)) {
			return fmt.Errorf("group %d is %v, want %v", i, got.Row(i), want.Row(i))
		}
		if w, g := want.Measure(i), got.Measure(i); math.Float64bits(w) != math.Float64bits(g) {
			return fmt.Errorf("group %d measure %v, want %v", i, g, w)
		}
	}
	return nil
}

// refLeafFold is the serial leaf-by-leaf reference of foldLeaves over
// probe (joined to bld, when not nil, as Join(probe, bld), which builds
// on bld): within a leaf — leafPages pages of probe rows — the probe
// rows, each joined to its matching build rows in build order, fold in
// row order into groups created at first touch; the leaves then merge in
// leaf order, a group's measure Add(merged, leaf). Keys have at most two
// columns.
func refLeafFold(t testing.TB, sr semiring.Semiring, probe, bld *relation.Relation, group []string) *relation.Relation {
	t.Helper()
	// src[c] is the source of key column c: probe column v >= 0, or
	// build column -1-v.
	var attrs []relation.Attr
	var src []int
	var shared [][2]int // probe and build column of each join variable
	for _, v := range group {
		if a, ok := probe.Attr(v); ok {
			attrs, src = append(attrs, a), append(src, probe.ColIndex(v))
		} else if a, ok := bld.Attr(v); ok {
			attrs, src = append(attrs, a), append(src, -1-bld.ColIndex(v))
		}
	}
	matches := map[uint64][]int{}
	if bld != nil {
		for _, a := range bld.Attrs() {
			if probe.HasVar(a.Name) {
				shared = append(shared, [2]int{probe.ColIndex(a.Name), bld.ColIndex(a.Name)})
			}
		}
		for j := 0; j < bld.Len(); j++ {
			k := packRef(shared, func(s [2]int) int32 { return bld.Value(j, s[1]) })
			matches[k] = append(matches[k], j)
		}
	}
	type agg struct {
		at   map[uint64]int
		keys []uint64
		meas []float64
	}
	fold := func(a *agg, k uint64, m float64) {
		if g, ok := a.at[k]; ok {
			a.meas[g] = sr.Add(a.meas[g], m)
			return
		}
		a.at[k] = len(a.keys)
		a.keys, a.meas = append(a.keys, k), append(a.meas, m)
	}
	res, leaf := &agg{at: map[uint64]int{}}, &agg{at: map[uint64]int{}}
	merge := func() {
		for g, k := range leaf.keys {
			fold(res, k, leaf.meas[g])
		}
		leaf = &agg{at: map[uint64]int{}}
	}
	perLeaf := leafPages * storage.TuplesPerPage(probe.Arity())
	for i := 0; i < probe.Len(); i++ {
		if i > 0 && i%perLeaf == 0 {
			merge()
		}
		if bld == nil {
			fold(leaf, packRef(src, func(c int) int32 { return probe.Value(i, c) }), probe.Measure(i))
			continue
		}
		for _, j := range matches[packRef(shared, func(s [2]int) int32 { return probe.Value(i, s[0]) })] {
			k := packRef(src, func(c int) int32 {
				if c >= 0 {
					return probe.Value(i, c)
				}
				return bld.Value(j, -1-c)
			})
			fold(leaf, k, sr.Mul(probe.Measure(i), bld.Measure(j)))
		}
	}
	merge()
	out := relation.MustNew("ref", attrs)
	row := make([]int32, len(attrs))
	for g, k := range res.keys {
		for c := range row {
			row[c] = int32(k >> (32 * (len(row) - 1 - c)))
		}
		out.MustAppend(row, res.meas[g])
	}
	return out
}

// packRef packs the at most two values col yields for cols into a map key.
func packRef[C any](cols []C, col func(C) int32) uint64 {
	var k uint64
	for _, c := range cols {
		k = k<<32 | uint64(uint32(col(c)))
	}
	return k
}
