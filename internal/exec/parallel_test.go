package exec

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"mpf/internal/relation"
	"mpf/internal/semiring"
)

// bigJoinInputs makes a pair of relations large enough to push the hash
// join (with a lowered build cap) through the Grace partitioned path.
func bigJoinInputs(seed int64) (*relation.Relation, *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	a, _ := relation.Random(rng, "a",
		[]relation.Attr{{Name: "X", Domain: 30}, {Name: "Y", Domain: 30}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	b, _ := relation.Random(rng, "b",
		[]relation.Attr{{Name: "Y", Domain: 30}, {Name: "Z", Domain: 30}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	return a, b
}

// graceRun executes a ⋈* b through the Grace path with the given
// parallelism on a fresh pool large enough to avoid eviction, so the IO
// counters depend only on the operator's page accesses.
func graceRun(t *testing.T, seed int64, parallelism int) (*relation.Relation, RunStats) {
	t.Helper()
	a, b := bigJoinInputs(seed)
	h := newHarness(t, 4096, a, b)
	h.engine.HashJoinMaxBuild = 32
	h.engine.Parallelism = parallelism
	pb := h.builder()
	sa, _ := pb.Scan("a")
	sb, _ := pb.Scan("b")
	rel, st := h.run(t, pb.Join(sa, sb))
	return rel, st
}

// TestParallelGraceJoinMatchesSerial checks the parallel-execution
// invariant: a parallel Grace join returns the same relation bit-for-bit
// and performs exactly the same physical reads and writes as its serial
// execution. Hit counts may differ slightly: partition pairs flush
// page-sized output batches, so how their partial last batches align
// against page boundaries — and hence the pin count — depends on pair
// completion order.
func TestParallelGraceJoinMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		serialRel, serialSt := graceRun(t, seed, 0)
		parRel, parSt := graceRun(t, seed, 4)
		if !relation.Equal(serialRel, parRel, 0, 0) {
			t.Fatalf("seed %d: parallel grace join relation differs from serial", seed)
		}
		if parSt.IO.Reads != serialSt.IO.Reads || parSt.IO.Writes != serialSt.IO.Writes {
			t.Fatalf("seed %d: physical IO diverged: serial %+v parallel %+v", seed, serialSt.IO, parSt.IO)
		}
		if parSt.TempTuples != serialSt.TempTuples {
			t.Fatalf("seed %d: TempTuples diverged: serial %d parallel %d",
				seed, serialSt.TempTuples, parSt.TempTuples)
		}
		if serialSt.HotKeyFallbacks != 0 || parSt.HotKeyFallbacks != 0 {
			t.Fatalf("seed %d: unexpected hot-key fallbacks (serial %d, parallel %d)",
				seed, serialSt.HotKeyFallbacks, parSt.HotKeyFallbacks)
		}
	}
}

// groupByRun aggregates a wide random relation with the given
// parallelism on a fresh no-eviction pool.
func groupByRun(t *testing.T, seed int64, parallelism int) (*relation.Relation, RunStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r, _ := relation.Random(rng, "r",
		[]relation.Attr{{Name: "X", Domain: 40}, {Name: "Y", Domain: 40}, {Name: "Z", Domain: 3}}, 0.7,
		relation.UniformMeasure(0.1, 5))
	h := newHarness(t, 4096, r)
	h.engine.Parallelism = parallelism
	h.engine.ParallelGroupByMinTuples = 1 // always take the parallel path
	pb := h.builder()
	scan, _ := pb.Scan("r")
	g, err := pb.GroupBy(scan, []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	rel, st := h.run(t, g)
	return rel, st
}

// TestParallelGroupByMatchesSerial checks that partitioned parallel
// aggregation is bit-identical to serial hash aggregation (partitioning
// by group key preserves each group's accumulation order), and that its
// physical reads/writes match serial exactly. Hits legitimately differ:
// the partition pass routes every input tuple through a temp heap.
func TestParallelGroupByMatchesSerial(t *testing.T) {
	for seed := int64(21); seed <= 23; seed++ {
		serialRel, serialSt := groupByRun(t, seed, 0)
		parRel, parSt := groupByRun(t, seed, 4)
		if !relation.Equal(serialRel, parRel, 0, 0) {
			t.Fatalf("seed %d: parallel group-by relation differs from serial", seed)
		}
		if parSt.IO.Reads != serialSt.IO.Reads || parSt.IO.Writes != serialSt.IO.Writes {
			t.Fatalf("seed %d: physical IO diverged: serial %+v parallel %+v",
				seed, serialSt.IO, parSt.IO)
		}
	}
}

// TestParallelSortRunsMatchSerial checks that concurrent run generation
// yields the exact serial output sequence: runs are indexed by chunk
// order, so the k-way merge breaks ties identically.
func TestParallelSortRunsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	r, _ := relation.Random(rng, "r",
		[]relation.Attr{{Name: "A", Domain: 50}, {Name: "B", Domain: 50}}, 0.8,
		relation.UniformMeasure(0, 1))
	read := func(parallelism int) *relation.Relation {
		h := newHarness(t, 4096, r)
		h.engine.SortRunTuples = 64 // many runs
		h.engine.Parallelism = parallelism
		st := &RunStats{}
		sorted, err := h.engine.externalSort(context.Background(), h.tables["r"], []int{0, 1}, st)
		if err != nil {
			t.Fatal(err)
		}
		defer sorted.Drop()
		rel, err := ReadRelation(sorted)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	serial, parallel := read(0), read(4)
	if serial.Len() != parallel.Len() {
		t.Fatalf("length mismatch: %d vs %d", serial.Len(), parallel.Len())
	}
	for i := 0; i < serial.Len(); i++ {
		if !slices.Equal(serial.Row(i), parallel.Row(i)) || serial.Measure(i) != parallel.Measure(i) {
			t.Fatalf("row %d differs: %v/%v vs %v/%v",
				i, serial.Row(i), serial.Measure(i), parallel.Row(i), parallel.Measure(i))
		}
	}
}

// TestParallelPlanMatchesSerial runs a full pushed-down plan (joins with
// group-bys) serially and with Parallelism=4 and compares the answers
// against each other and the in-memory oracle.
func TestParallelPlanMatchesSerial(t *testing.T) {
	for seed := int64(40); seed < 44; seed++ {
		a, b, c := randomRelations(seed)
		var rels [2]*relation.Relation
		for i, par := range []int{0, 4} {
			h := newHarness(t, 1024, a, b, c)
			h.engine.Parallelism = par
			h.engine.HashJoinMaxBuild = 8 // force Grace even on small inputs
			h.engine.ParallelGroupByMinTuples = 1
			pb := h.builder()
			sa, _ := pb.Scan("a")
			sb, _ := pb.Scan("b")
			sc, _ := pb.Scan("c")
			gab, err := pb.GroupBy(pb.Join(sa, sb), []string{"Z", "X"})
			if err != nil {
				t.Fatal(err)
			}
			final, err := pb.GroupBy(pb.Join(gab, sc), []string{"W"})
			if err != nil {
				t.Fatal(err)
			}
			rels[i], _ = h.run(t, final)
		}
		// Chained operators compare within FP tolerance, not bit-for-bit:
		// the parallel join's output order is nondeterministic, so the
		// group-by above it accumulates each group's floats in a different
		// order than serial (per-operator bit-identity is covered by the
		// dedicated tests).
		if !relation.Equal(rels[0], rels[1], 0, 1e-9) {
			t.Fatalf("seed %d: parallel plan answer differs from serial", seed)
		}
		joint, _ := relation.ProductJoinAll(semiring.SumProduct, a, b, c)
		want, _ := relation.Marginalize(semiring.SumProduct, joint, []string{"W"})
		if !relation.Equal(rels[1], want, 0, 1e-9) {
			t.Fatalf("seed %d: parallel plan disagrees with oracle", seed)
		}
	}
}

// TestGraceHotKeySkewObservable builds inputs whose join key is a single
// hot value, so every repartition pass leaves one oversized partition:
// the join must still answer correctly (serially and in parallel) and
// RunStats must surface the depth-limit fallback.
func TestGraceHotKeySkewObservable(t *testing.T) {
	n := 200
	aAttrs := []relation.Attr{{Name: "X", Domain: n}, {Name: "Y", Domain: 2}}
	bAttrs := []relation.Attr{{Name: "Y", Domain: 2}, {Name: "Z", Domain: n}}
	a := relation.MustNew("a", aAttrs)
	b := relation.MustNew("b", bAttrs)
	for i := 0; i < n; i++ {
		a.MustAppend([]int32{int32(i), 1}, 2) // every tuple shares Y=1
		b.MustAppend([]int32{1, int32(i)}, 3)
	}
	for _, par := range []int{0, 4} {
		h := newHarness(t, 2048, a, b)
		h.engine.HashJoinMaxBuild = 16
		h.engine.Parallelism = par
		pb := h.builder()
		sa, _ := pb.Scan("a")
		sb, _ := pb.Scan("b")
		rel, st := h.run(t, pb.Join(sa, sb))
		if st.HotKeyFallbacks == 0 {
			t.Fatalf("parallelism %d: hot-key fallback not surfaced in RunStats", par)
		}
		if rel.Len() != n*n {
			t.Fatalf("parallelism %d: hot-key join produced %d rows, want %d", par, rel.Len(), n*n)
		}
		for i := 0; i < rel.Len(); i++ {
			if m := rel.Measure(i); m != 6 {
				t.Fatalf("parallelism %d: row %d measure %v, want 6", par, i, m)
			}
		}
	}
}
