package exec

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
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
	pb := h.builder()
	scan, _ := pb.Scan("r")
	g, err := pb.GroupBy(scan, []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	rel, st := h.run(t, g)
	return rel, st
}

// TestParallelGroupByMatchesSerial checks that parallel hash aggregation
// is bit-identical to serial hash aggregation (both fold in leaf order),
// and that its physical reads/writes match serial exactly.
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

// fusedLeafPlan joins the multi-leaf probe p of leafRels with other and
// groups on groupVars, with fusion on.
func fusedLeafPlan(t *testing.T, h *harness, other string, groupVars []string) *plan.Node {
	t.Helper()
	h.engine.FuseJoinGroupBy = true
	pb := h.builder()
	sp, err := pb.Scan("p")
	if err != nil {
		t.Fatal(err)
	}
	so, err := pb.Scan(other)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pb.GroupBy(pb.Join(sp, so), groupVars)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFusedProbeMorselAttribution checks the fused probe's scheduling:
// exactly one "FusedProbe" morsel per leaf of the probe heap — whatever
// the worker count and whoever steals each task — with busy time
// measured inside the task, and none reported by a serial run.
func TestFusedProbeMorselAttribution(t *testing.T) {
	rels := leafRels(t)
	leaves := (storage.PagesFor(rels["p"].Arity(), int64(rels["p"].Len())) + leafPages - 1) / leafPages
	if leaves < 3 {
		t.Fatalf("probe spans %d leaves, want at least 3", leaves)
	}
	for _, workers := range []int{2, 4} {
		h := newHarness(t, 4096, rels["p"], rels["q"])
		h.engine.Parallelism = workers
		_, st := h.run(t, fusedLeafPlan(t, h, "q", []string{"G"}))
		var probe *MorselStat
		for i := range st.Morsels {
			if st.Morsels[i].Kind == "FusedProbe" {
				probe = &st.Morsels[i]
			}
		}
		if probe == nil {
			t.Fatalf("workers=%d: no FusedProbe morsel stats (got %v)", workers, st.Morsels)
		}
		if probe.Count != leaves {
			t.Fatalf("workers=%d: %d FusedProbe morsels, want exactly %d (one per leaf)", workers, probe.Count, leaves)
		}
		if probe.Busy <= 0 {
			t.Fatalf("workers=%d: FusedProbe morsels report no busy time: %+v", workers, probe)
		}
	}
	h := newHarness(t, 4096, rels["p"], rels["q"])
	if _, st := h.run(t, fusedLeafPlan(t, h, "q", []string{"G"})); len(st.Morsels) != 0 {
		t.Fatalf("serial run reported morsels: %v", st.Morsels)
	}
}

// TestAggregationStateCountsAgainstBudget is the regression test for
// aggregation state escaping Budget.MaxTempTuples: a key-less fused join
// under a two-column group-by creates its groups in memory long before
// emit charges them, so the bound must stop it at a batch boundary of
// the probe — early, with nothing emitted, no temp left open and no
// frame pinned — serially and with leaves in flight on four workers.
func TestAggregationStateCountsAgainstBudget(t *testing.T) {
	rels := leafRels(t)
	wide, _ := relation.Complete("w", []relation.Attr{{Name: "U", Domain: 50}, {Name: "T", Domain: 2}},
		func(v []int32) float64 { return 1 + float64(v[0]) })
	probePages := storage.PagesFor(rels["p"].Arity(), int64(rels["p"].Len()))
	for _, workers := range []int{0, 4} {
		h := newHarness(t, 4096, rels["p"], wide)
		h.engine.Parallelism = workers
		f := &countingFactory{}
		h.engine.Factory = f.open
		ctx := WithBudget(context.Background(), Budget{MaxTempTuples: 100})
		_, st, err := h.engine.RunContext(ctx, fusedLeafPlan(t, h, "w", []string{"G", "U"}), MapResolver(h.tables))
		var be *BudgetError
		if !errors.As(err, &be) || !errors.Is(err, ErrBudget) || be.Resource != "temp-tuples" {
			t.Fatalf("workers=%d: err = %v, want a temp-tuples BudgetError", workers, err)
		}
		if st.TempTuples != 0 {
			t.Fatalf("workers=%d: %d temp tuples charged — the bound fired in emit, not during the probe", workers, st.TempTuples)
		}
		if st.Batches >= probePages/2 {
			t.Fatalf("workers=%d: %d batches consumed of a %d-page probe — not stopped at a batch boundary", workers, st.Batches, probePages)
		}
		if o, c := f.opened.Load(), f.closed.Load(); o != c {
			t.Fatalf("workers=%d: %d temps opened, %d closed", workers, o, c)
		}
		if n := h.pool.Pinned(); n != 0 {
			t.Fatalf("workers=%d: %d frames left pinned", workers, n)
		}
	}
}

// absorb folds one measure into the group with the given key, creating
// the group on first sight: one-row aggregation for tests that build
// aggregates by hand.
func (a *batchAgg) absorb(e *Engine, key []int32, m float64) {
	gi, added := a.idx.put(key)
	if added {
		a.vals = append(a.vals, key...)
		a.meas = append(a.meas, m)
		return
	}
	a.meas[gi] = e.Sr.Add(a.meas[gi], m)
}

// TestLeafFoldWindow drives the pacing of leafFold directly: a leaf
// beyond the window waits in start until the merge reaches it, is
// released by a failure with no aggregate, merging is strictly in leaf
// order whatever order leaves finish in, and leaves run leafRunAhead
// times further ahead exactly while the finished ones hold few groups.
func TestLeafFoldWindow(t *testing.T) {
	e := &Engine{Sr: semiring.SumProduct}
	newFold := func(n, window int) *leafFold {
		return newLeafFold(e, []relation.Attr{{Name: "K"}}, n, window, 0)
	}
	leafAgg := func(f *leafFold, i int, key int32, m float64) *batchAgg {
		agg := f.start(i)
		agg.absorb(e, []int32{key}, m)
		return agg
	}

	f := newFold(3, 1)
	a0 := leafAgg(f, 0, 7, 1)
	started := make(chan *batchAgg)
	go func() { started <- f.start(1) }()
	select {
	case <-started:
		t.Fatal("leaf 1 started while leaf 0 was unmerged and the window is 1")
	case <-time.After(20 * time.Millisecond):
	}
	f.finish(0, a0)
	a1 := <-started
	if a1 == nil {
		t.Fatal("leaf 1 got no aggregate after the merge advanced")
	}
	a1.absorb(e, []int32{7}, 2)
	a1.absorb(e, []int32{9}, 4)
	f.finish(1, a1)
	go func() { started <- f.start(2) }()
	a2 := <-started
	a2.absorb(e, []int32{9}, 8)
	f.finish(2, a2)
	if got := f.out; len(got.meas) != 2 || got.vals[0] != 7 || got.vals[1] != 9 || got.meas[0] != 3 || got.meas[1] != 12 {
		t.Fatalf("merged result = %v / %v, want groups 7→3, 9→12", got.vals, got.meas)
	}

	// Out-of-order finishes merge in leaf order: 2 waits for 1.
	f = newFold(3, 3)
	b0, b1, b2 := leafAgg(f, 0, 1, 1), leafAgg(f, 1, 2, 1), leafAgg(f, 2, 3, 1)
	f.finish(2, b2)
	f.finish(0, b0)
	if f.next != 1 || len(f.out.meas) != 1 {
		t.Fatalf("after leaves 2 and 0: next=%d groups=%d, want 1 and 1", f.next, len(f.out.meas))
	}
	f.finish(1, b1)
	if f.next != 3 || f.out.vals[0] != 1 || f.out.vals[1] != 2 || f.out.vals[2] != 3 {
		t.Fatalf("after all leaves: next=%d groups=%v, want 3 and [1 2 3]", f.next, f.out.vals)
	}

	// Small finished leaves let the others run ahead of a slow leaf 0,
	// up to leafRunAhead windows; a large one withdraws the slack until
	// it is merged.
	f = newFold(2*leafRunAhead+1, 2)
	f.maxBacklog = 2
	c0 := f.start(0)
	f.finish(1, leafAgg(f, 1, 1, 1))
	for i := 2; i < 2*leafRunAhead; i++ {
		if !f.mayStart(i) {
			t.Fatalf("leaf %d may not start behind one finished group", i)
		}
	}
	if f.mayStart(2 * leafRunAhead) {
		t.Fatalf("leaf %d may start %d windows ahead of the merge", 2*leafRunAhead, leafRunAhead)
	}
	c2 := leafAgg(f, 2, 2, 1)
	c2.absorb(e, []int32{3}, 1)
	f.finish(2, c2)
	go func() { started <- f.start(3) }()
	select {
	case <-started:
		t.Fatal("leaf 3 started with a backlog of 3 groups, 2 allowed, and leaf 0 unmerged")
	case <-time.After(20 * time.Millisecond):
	}
	f.finish(0, c0)
	if <-started == nil || f.backlog != 0 || f.next != 3 {
		t.Fatalf("after leaf 0: backlog=%d next=%d, want 0 and 3, and leaf 3 started", f.backlog, f.next)
	}

	// A failure releases a waiting leaf with no aggregate.
	f = newFold(2, 1)
	f.start(0)
	go func() { started <- f.start(1) }()
	f.fail()
	if agg := <-started; agg != nil {
		t.Fatal("leaf released by a failure still got an aggregate")
	}
}
