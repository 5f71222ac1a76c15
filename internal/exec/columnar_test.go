package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"context"

	"mpf/internal/catalog"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

// smallDomainRels builds relations whose attributes have tiny domains —
// the workload the columnar encodings exist for: every full page should
// dictionary- or run-length-encode.
func smallDomainRels(seed int64) (*relation.Relation, *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	a, _ := relation.Random(rng, "a",
		[]relation.Attr{{Name: "X", Domain: 14}, {Name: "Y", Domain: 8}, {Name: "Z", Domain: 10}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	b, _ := relation.Random(rng, "b",
		[]relation.Attr{{Name: "Y", Domain: 8}, {Name: "W", Domain: 9}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	return a, b
}

// columnarHarness is newHarness with the base tables loaded through the
// columnar page encoder and the engine writing columnar temps.
func columnarHarness(t testing.TB, frames int, rels ...*relation.Relation) *harness {
	t.Helper()
	h := newHarness(t, frames)
	for _, r := range rels {
		tb, err := LoadRelation(h.pool, h.engine.Factory, r, true)
		if err != nil {
			t.Fatal(err)
		}
		h.tables[r.Name()] = tb
		if err := h.cat.AddTable(catalog.AnalyzeRelation(r)); err != nil {
			t.Fatal(err)
		}
	}
	h.engine.Columnar = true
	return h
}

// pipelinePlan builds σ(Z=2) over a, joined with b, grouped on X and W —
// select, join and group-by in one plan.
func pipelinePlan(t testing.TB, pb *plan.Builder) *plan.Node {
	t.Helper()
	sa, err := pb.Scan("a")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := pb.Select(sa, relation.Predicate{"Z": 2})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := pb.Scan("b")
	if err != nil {
		t.Fatal(err)
	}
	j := pb.Join(sel, sb)
	g, err := pb.GroupBy(j, []string{"X", "W"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestColumnarPipelineMatchesRowMajor composes the kernels: a
// select→join→group-by plan over columnar pages (encoded intermediates
// included) is bit-identical (tol 0) to the same plan over row-major
// pages, serially and with four workers, and the columnar run actually
// encodes pages (the encoded branches are exercised, not silently
// skipped).
func TestColumnarPipelineMatchesRowMajor(t *testing.T) {
	for _, parallelism := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", parallelism), func(t *testing.T) {
			for seed := int64(41); seed <= 43; seed++ {
				a, b := smallDomainRels(seed)

				rm := newHarness(t, 4096, a, b)
				rm.engine.Parallelism = parallelism
				wantRel, _ := rm.run(t, pipelinePlan(t, rm.builder()))

				ch := columnarHarness(t, 4096, a, b)
				ch.engine.Parallelism = parallelism
				gotRel, _ := ch.run(t, pipelinePlan(t, ch.builder()))

				if !relation.Equal(wantRel, gotRel, 0, 0) {
					t.Fatalf("seed %d: columnar pipeline differs from row-major", seed)
				}
				if es := ch.pool.EncodingStats(); es.PagesEncoded == 0 {
					t.Fatalf("seed %d: no pages encoded — columnar path not exercised", seed)
				}
			}
		})
	}
}

// TestColumnarGraceJoinMatchesRowMajor forces the Grace strategy (tiny
// build cap) so the encoded partition kernel and the partition-pair
// joins run, and checks bit-identity plus temp-tuple parity with the
// row-major run.
func TestColumnarGraceJoinMatchesRowMajor(t *testing.T) {
	for _, parallelism := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", parallelism), func(t *testing.T) {
			for seed := int64(51); seed <= 53; seed++ {
				a, b := smallDomainRels(seed)
				join := func(h *harness) (*relation.Relation, RunStats) {
					h.engine.HashJoinMaxBuild = 16
					h.engine.Parallelism = parallelism
					pb := h.builder()
					sa, err := pb.Scan("a")
					if err != nil {
						t.Fatal(err)
					}
					sb, err := pb.Scan("b")
					if err != nil {
						t.Fatal(err)
					}
					return h.run(t, pb.Join(sa, sb))
				}
				wantRel, wantSt := join(newHarness(t, 4096, a, b))
				gotRel, gotSt := join(columnarHarness(t, 4096, a, b))
				if !relation.Equal(wantRel, gotRel, 0, 0) {
					t.Fatalf("seed %d: columnar grace join differs from row-major", seed)
				}
				if wantSt.TempTuples != gotSt.TempTuples {
					t.Fatalf("seed %d: TempTuples diverged: row-major %d columnar %d",
						seed, wantSt.TempTuples, gotSt.TempTuples)
				}
			}
		})
	}
}

// TestColumnarMinProduct runs the pipeline under the min-product
// semiring: the RLE run-aggregation fast path must fold measures with
// Sr.Add row by row, which min exposes immediately if violated (min has
// no additive shortcuts and a different zero).
func TestColumnarMinProduct(t *testing.T) {
	a, b := smallDomainRels(61)
	run := func(columnar bool) *relation.Relation {
		var h *harness
		if columnar {
			h = columnarHarness(t, 4096, a, b)
		} else {
			h = newHarness(t, 4096, a, b)
		}
		h.engine.Sr = semiring.MinProduct
		rel, _ := h.run(t, pipelinePlan(t, h.builder()))
		return rel
	}
	want, got := run(false), run(true)
	if !relation.Equal(want, got, semiring.MinProduct.Zero(), 0) {
		t.Fatal("columnar min-product pipeline differs from row-major")
	}
}

// TestMorselStatsAttribution checks the exclusive-time contract of the
// unified scheduler: a parallel run reports per-kind morsel counts whose
// busy time was measured inside the task, attributed to the submitting
// operator kind.
func TestMorselStatsAttribution(t *testing.T) {
	a, b := smallDomainRels(71)
	h := newHarness(t, 4096, a, b)
	h.engine.Parallelism = 4
	h.engine.HashJoinMaxBuild = 16 // force Grace so ProductJoin morsels exist
	_, st := h.run(t, pipelinePlan(t, h.builder()))
	kinds := make(map[string]MorselStat, len(st.Morsels))
	for _, m := range st.Morsels {
		kinds[m.Kind] = m
	}
	for _, kind := range []string{"ProductJoin", "GroupBy"} {
		m, ok := kinds[kind]
		if !ok {
			t.Fatalf("no morsel stats for kind %s (got %v)", kind, st.Morsels)
		}
		if m.Count <= 0 {
			t.Fatalf("kind %s: non-positive morsel count %d", kind, m.Count)
		}
		if m.Busy < 0 {
			t.Fatalf("kind %s: negative busy time %v", kind, m.Busy)
		}
	}
	// Serial runs must not attach a scheduler or report morsels.
	h2 := newHarness(t, 4096, a, b)
	_, st2 := h2.run(t, pipelinePlan(t, h2.builder()))
	if len(st2.Morsels) != 0 {
		t.Fatalf("serial run reported morsels: %v", st2.Morsels)
	}
}

// TestMorselSchedParallelFor exercises the scheduler directly: caller
// participation (no deadlock at any worker count), full coverage, and
// first-error propagation with pending-task draining.
func TestMorselSchedParallelFor(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		m := newMorselSched(workers)
		var hits [100]atomic.Int32
		err := m.parallelFor("test", len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, n)
			}
		}
		boom := errors.New("boom")
		if err := m.parallelFor("test", 50, func(i int) error {
			if i == 7 {
				return boom
			}
			return nil
		}); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: want boom, got %v", workers, err)
		}
		// The scheduler stays usable after an error.
		if err := m.parallelFor("again", 10, func(int) error { return nil }); err != nil {
			t.Fatalf("workers=%d: post-error set failed: %v", workers, err)
		}
		m.close()
	}
}

// TestColumnarResultCacheStable checks the encoded paths through the
// result cache: a warm re-run served from cache equals the cold columnar
// run bit for bit.
func TestColumnarResultCacheStable(t *testing.T) {
	a, b := smallDomainRels(81)
	h := columnarHarness(t, 4096, a, b)
	cache := NewResultCache(1 << 20)
	ctx := context.Background()
	p := pipelinePlan(t, h.builder())
	fps := fixedVersions(p)
	cold, coldSt, err := h.engine.RunCachedContext(ctx, p, MapResolver(h.tables), cache, fps)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmSt, err := h.engine.RunCachedContext(ctx, p, MapResolver(h.tables), cache, fps)
	if err != nil {
		t.Fatal(err)
	}
	if coldSt.CacheHits != 0 {
		t.Fatalf("cold run hit the cache: %+v", coldSt)
	}
	if warmSt.CacheHits == 0 {
		t.Fatalf("warm run missed the cache: %+v", warmSt)
	}
	if !relation.Equal(cold, warm, 0, 0) {
		t.Fatal("cached columnar result differs from cold run")
	}
}
