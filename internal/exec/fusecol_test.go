package exec

import (
	"math/rand"
	"testing"

	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// fuseRels builds the join inputs for the fused-columnar tests: a wide
// small-domain fact a(Y,X,Z) whose LEADING attribute is the join key —
// so probe pages run-length encode it — and a build side b(Y,W,V) that
// carries SEVERAL rows per join key Y, some sharing the same W
// projection — so grouping on W folds two build rows of one key into
// one group while grouping on V keeps them apart.
func fuseRels(seed int64) (*relation.Relation, *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	a, _ := relation.Random(rng, "a",
		[]relation.Attr{{Name: "Y", Domain: 8}, {Name: "X", Domain: 14}, {Name: "Z", Domain: 10}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	b, _ := relation.Random(rng, "b",
		[]relation.Attr{{Name: "Y", Domain: 8}, {Name: "W", Domain: 3}, {Name: "V", Domain: 5}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	return a, b
}

// fusedGroupPlan joins a and b (in the given scan order, which picks the
// build side and therefore buildIsLeft) and groups on groupVars.
func fusedGroupPlan(t *testing.T, h *harness, first, second string, groupVars []string) *relation.Relation {
	t.Helper()
	pb := h.builder()
	s1, err := pb.Scan(first)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pb.Scan(second)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pb.GroupBy(pb.Join(s1, s2), groupVars)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := h.run(t, g)
	return rel
}

// TestFusedColumnarMatchesRowFused is the fused kernel's layout
// contract: over encoded pages the fused join+aggregate must be
// BIT-identical (tol 0) to the same plan over row-major pages, for every
// split of the group variables across the probe and build sides, in both
// join orders, with build rows of one key in one group or in several.
func TestFusedColumnarMatchesRowFused(t *testing.T) {
	groupSets := [][]string{{"X"}, {"W"}, {"V"}, {"W", "V"}, {"X", "W", "V"}, {"X", "W"}, {"Y"}, {"X", "Y", "V"}, nil}
	for seed := int64(41); seed <= 44; seed++ {
		a, b := fuseRels(seed)
		for _, order := range [][2]string{{"a", "b"}, {"b", "a"}} {
			for _, groupVars := range groupSets {
				rh := newHarness(t, 4096, a, b)
				rh.engine.FuseJoinGroupBy = true
				want := fusedGroupPlan(t, rh, order[0], order[1], groupVars)

				ch := columnarHarness(t, 4096, a, b)
				ch.engine.FuseJoinGroupBy = true
				got := fusedGroupPlan(t, ch, order[0], order[1], groupVars)

				if !relation.Equal(want, got, 0, 0) {
					t.Fatalf("seed %d join %v group %v: fused columnar differs from row-major fused",
						seed, order, groupVars)
				}
				if es := ch.pool.EncodingStats(); es.PagesEncoded == 0 {
					t.Fatalf("seed %d: no pages encoded — fused columnar path not exercised", seed)
				}
			}
		}
	}
}

// TestFusedColumnarMatchesUnfused cross-checks against the fully
// materializing pipeline (join temp + hash aggregate). The two fold the
// same products but cut them into leaves differently — the fused kernel
// by pages of the probe, the pipeline by pages of the join output — so
// the contract has three tiers: while the join output fits one leaf
// both fold in plain scan order and are bit-equal; beyond that they stay
// bit-equal wherever Add is exact (min, max, or, and float sums of
// integers inside 2^53), and agree to 1e-12 relative otherwise.
func TestFusedColumnarMatchesUnfused(t *testing.T) {
	a, b := fuseRels(51)
	// One leaf: the first 400 rows of a join to fewer than leafPages pages.
	small := relation.MustNew("a", a.Attrs())
	for i := 0; i < 400; i++ {
		small.MustAppend(a.Row(i), a.Measure(i))
	}
	// Integral measures: every product and partial sum is an exact integer.
	integral := func(r *relation.Relation) *relation.Relation {
		out := relation.MustNew(r.Name(), r.Attrs())
		for i := 0; i < r.Len(); i++ {
			out.MustAppend(r.Row(i), float64(1+i%9))
		}
		return out
	}
	exact := []semiring.Semiring{semiring.MinProduct, semiring.MaxProduct, semiring.MinSum, semiring.MaxSum, semiring.BoolOrAnd}
	cases := []struct {
		name      string
		a, b      *relation.Relation
		srs       []semiring.Semiring
		tol       float64
		multiLeaf bool
	}{
		{"one leaf", small, b, []semiring.Semiring{semiring.SumProduct, semiring.LogSumExp}, 0, false},
		{"exact adds", a, b, exact, 0, true},
		{"integer sums", integral(a), integral(b), []semiring.Semiring{semiring.SumProduct}, 0, true},
		{"float sums", a, b, []semiring.Semiring{semiring.SumProduct, semiring.LogSumExp}, 1e-12, true},
	}
	for _, tc := range cases {
		for _, sr := range tc.srs {
			for _, groupVars := range [][]string{{"X"}, {"W"}, {"X", "V"}, nil} {
				ph := newHarness(t, 4096, tc.a, tc.b)
				ph.engine.Sr = sr
				pb := ph.builder()
				sa, _ := pb.Scan("a")
				sb, _ := pb.Scan("b")
				joined, _ := ph.run(t, pb.Join(sa, sb))
				pages := storage.PagesFor(joined.Arity(), int64(joined.Len()))
				if (pages > leafPages) != tc.multiLeaf {
					t.Fatalf("%s: join output of %d pages, multi-leaf = %v expected", tc.name, pages, tc.multiLeaf)
				}
				plain := fusedGroupPlan(t, ph, "a", "b", groupVars)

				ch := columnarHarness(t, 4096, tc.a, tc.b)
				ch.engine.Sr = sr
				ch.engine.FuseJoinGroupBy = true
				fused := fusedGroupPlan(t, ch, "a", "b", groupVars)

				if !relation.Equal(plain, fused, sr.Zero(), tc.tol) {
					t.Fatalf("%s, %s, group %v: fused columnar differs from unfused pipeline beyond %g",
						tc.name, sr.Name(), groupVars, tc.tol)
				}
			}
		}
	}
}

// TestFusedColumnarSemirings runs the fused columnar kernel under every
// semiring, including ones whose Add is inexact (sum-product over
// fractions, logSumExp): all must stay bit-identical to the row-major
// run.
func TestFusedColumnarSemirings(t *testing.T) {
	a, b := fuseRels(61)
	for _, sr := range semiring.All() {
		t.Run(sr.Name(), func(t *testing.T) {
			run := func(columnar bool) *relation.Relation {
				var h *harness
				if columnar {
					h = columnarHarness(t, 4096, a, b)
				} else {
					h = newHarness(t, 4096, a, b)
				}
				h.engine.Sr = sr
				h.engine.FuseJoinGroupBy = true
				return fusedGroupPlan(t, h, "a", "b", []string{"X", "V"})
			}
			want, got := run(false), run(true)
			if !relation.Equal(want, got, sr.Zero(), 0) {
				t.Fatalf("%s: fused columnar differs from row-major fused", sr.Name())
			}
		})
	}
}

// TestFusedColumnarFunctionalBuild runs the fused kernel over a build
// side functional on the join key (exactly one row per Y), with the
// probe join column byte-, run-length- or dictionary-encoded, and group
// keys that depend only on the join key and the build row.
func TestFusedColumnarFunctionalBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	// aByte's join column is NOT leading, so probe pages byte-encode it
	// (dense codes); aRLE's is leading, so probe pages run-length encode
	// it; aDict's join values are sparse multiples of 250, so probe pages
	// dictionary-encode them (first-occurrence order — NOT value order),
	// all with single-row matches. Pages only encode when exactly full,
	// so the facts carry several hundred rows.
	aByte, _ := relation.Random(rng, "a",
		[]relation.Attr{{Name: "X", Domain: 100}, {Name: "Y", Domain: 8}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	aRLE, _ := relation.Random(rng, "arle",
		[]relation.Attr{{Name: "Y", Domain: 8}, {Name: "X", Domain: 100}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	// relation.Random enumerates dense values, so the sparse dict fact is
	// built by hand.
	aDict := relation.MustNew("adict", []relation.Attr{{Name: "Y", Domain: 2000}, {Name: "X", Domain: 100}})
	for i := int32(0); i < 1200; i++ {
		y := ((i*7 + 3) % 8) * 250
		if err := aDict.Append([]int32{y, i % 100}, 0.1+float64(i%13)*0.3); err != nil {
			t.Fatal(err)
		}
	}
	newDim := func(name string, domain int, stride int32) *relation.Relation {
		d := relation.MustNew(name, []relation.Attr{{Name: "Y", Domain: domain}, {Name: "U", Domain: 600}})
		for y := int32(0); y < 8; y++ {
			if err := d.Append([]int32{y * stride, 500 - 60*y}, 0.25+float64(y)); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	dimDense := newDim("dim", 8, 1)
	dimSparse := newDim("dimsparse", 2000, 250)
	for _, pair := range []struct {
		fact, dim *relation.Relation
	}{{aByte, dimDense}, {aRLE, dimDense}, {aDict, dimSparse}} {
		for _, groupVars := range [][]string{{"Y"}, {"U"}, {"Y", "U"}, {"X", "U"}} {
			rh := newHarness(t, 4096, pair.fact, pair.dim)
			rh.engine.FuseJoinGroupBy = true
			want := fusedGroupPlan(t, rh, pair.fact.Name(), pair.dim.Name(), groupVars)

			ch := columnarHarness(t, 4096, pair.fact, pair.dim)
			ch.engine.FuseJoinGroupBy = true
			got := fusedGroupPlan(t, ch, pair.fact.Name(), pair.dim.Name(), groupVars)

			if !relation.Equal(want, got, 0, 0) {
				t.Fatalf("fact %s group %v: fused columnar over functional build differs",
					pair.fact.Name(), groupVars)
			}
		}
	}
}

// TestFusedColumnarConstantMeasures runs the fused kernel over a probe
// fact with a CONSTANT integral measure and a run-length-encoded join
// key, so every key run repeats one measure bit pattern, under
// sum-product and max-product: columnar must stay bit-identical to
// row-major.
func TestFusedColumnarConstantMeasures(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	a, _ := relation.Random(rng, "a",
		[]relation.Attr{{Name: "Y", Domain: 8}, {Name: "X", Domain: 100}}, 0.9,
		relation.UniformMeasure(3, 3))
	dim := relation.MustNew("dim", []relation.Attr{{Name: "Y", Domain: 8}, {Name: "U", Domain: 600}})
	for y := int32(0); y < 8; y++ {
		if err := dim.Append([]int32{y, 500 - 60*y}, float64(1+y)); err != nil {
			t.Fatal(err)
		}
	}
	for _, sr := range []semiring.Semiring{semiring.SumProduct, semiring.MaxProduct} {
		for _, groupVars := range [][]string{{"Y"}, {"U"}, {"Y", "U"}} {
			rh := newHarness(t, 4096, a, dim)
			rh.engine.Sr = sr
			rh.engine.FuseJoinGroupBy = true
			want := fusedGroupPlan(t, rh, "a", "dim", groupVars)

			ch := columnarHarness(t, 4096, a, dim)
			ch.engine.Sr = sr
			ch.engine.FuseJoinGroupBy = true
			got := fusedGroupPlan(t, ch, "a", "dim", groupVars)

			if !relation.Equal(want, got, sr.Zero(), 0) {
				t.Fatalf("%s group %v: constant-measure fused columnar differs", sr.Name(), groupVars)
			}
		}
	}
}

// TestFusedColumnarMultiColKey joins on TWO shared variables, driving
// the kernel's generic path: the probe key is encoded from the flattened
// key columns without gathering rows.
func TestFusedColumnarMultiColKey(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	a, _ := relation.Random(rng, "a",
		[]relation.Attr{{Name: "Y", Domain: 8}, {Name: "X", Domain: 14}, {Name: "Z", Domain: 10}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	b, _ := relation.Random(rng, "b",
		[]relation.Attr{{Name: "Y", Domain: 8}, {Name: "Z", Domain: 10}, {Name: "V", Domain: 3}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	for _, groupVars := range [][]string{{"X"}, {"V"}, {"X", "V"}, {"Y", "Z"}, nil} {
		rh := newHarness(t, 4096, a, b)
		rh.engine.FuseJoinGroupBy = true
		want := fusedGroupPlan(t, rh, "a", "b", groupVars)

		ch := columnarHarness(t, 4096, a, b)
		ch.engine.FuseJoinGroupBy = true
		got := fusedGroupPlan(t, ch, "a", "b", groupVars)

		if !relation.Equal(want, got, 0, 0) {
			t.Fatalf("group %v: fused columnar multi-column join differs", groupVars)
		}
	}
}
