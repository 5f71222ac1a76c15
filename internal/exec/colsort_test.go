package exec

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mpf/internal/catalog"
	"mpf/internal/relation"
)

// dumpTable scans a table's heap in storage order, so two sorts compare
// including row ORDER — relation.Equal would hide a permutation.
func dumpTable(t *testing.T, tb *Table) ([]int32, []float64) {
	t.Helper()
	it := tb.Heap.ScanBatches()
	defer it.Close()
	var vals []int32
	var meas []float64
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		vals = append(vals, b.Vals...)
		meas = append(meas, b.Measures...)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return vals, meas
}

// sortBothLayouts externally sorts r by cols twice — loaded row-major
// with row-major temps (every batch all-plain: copied keys, index sort)
// and loaded through the columnar encoder with columnar temps (RLE
// blocks, byte widening, dictionary order-mapping) — and returns both
// storage-order dumps.
func sortBothLayouts(t *testing.T, r *relation.Relation, cols []int, runTuples int) (rv, cv []int32, rm, cm []float64) {
	t.Helper()
	sorted := func(columnar bool) ([]int32, []float64) {
		h, tb := loadFuzzTable(t, r, columnar)
		h.engine.SortRunTuples = runTuples
		out, err := h.engine.externalSort(context.Background(), tb, cols, &RunStats{})
		if err != nil {
			t.Fatal(err)
		}
		defer out.Drop()
		return dumpTable(t, out)
	}
	rv, rm = sorted(false)
	cv, cm = sorted(true)
	return rv, cv, rm, cm
}

// sortReference checks a storage-order dump against r independently of
// the engine: it must be ordered on cols and hold exactly r's rows; when
// the sort fits one run it must equal a stable sort of r exactly (ties
// between runs are broken by the merge, which promises no order).
func sortReference(t *testing.T, r *relation.Relation, cols []int, runTuples int, vals []int32, meas []float64) {
	t.Helper()
	type rec struct {
		row []int32
		m   float64
	}
	arity := r.Arity()
	if len(meas) != r.Len() || len(vals) != r.Len()*arity {
		t.Fatalf("sorted output holds %d rows, input %d", len(meas), r.Len())
	}
	got, want := make([]rec, r.Len()), make([]rec, r.Len())
	for i := range got {
		got[i] = rec{vals[i*arity : (i+1)*arity], meas[i]}
		want[i] = rec{r.Row(i), r.Measure(i)}
	}
	for i := 1; i < len(got); i++ {
		if compareCols(got[i-1].row, cols, got[i].row, cols) > 0 {
			t.Fatalf("cols %v: rows %d and %d out of order: %v > %v", cols, i-1, i, got[i-1].row, got[i].row)
		}
	}
	if r.Len() <= runTuples {
		slices.SortStableFunc(want, func(a, b rec) int { return compareCols(a.row, cols, b.row, cols) })
	} else {
		// Several runs: compare as multisets under a total order.
		total := func(a, b rec) int {
			if c := slices.Compare(a.row, b.row); c != 0 {
				return c
			}
			return cmp.Compare(a.m, b.m)
		}
		slices.SortFunc(got, total)
		slices.SortFunc(want, total)
	}
	for i := range want {
		if !slices.Equal(got[i].row, want[i].row) || got[i].m != want[i].m {
			t.Fatalf("cols %v: sorted row %d is %v/%v, want %v/%v", cols, i, got[i].row, got[i].m, want[i].row, want[i].m)
		}
	}
}

// fuzzSortRelation builds a deterministic relation from the fuzz inputs:
// arity columns whose value patterns cycle through run-heavy (RLE),
// dense-small (byte), sparse-small-distinct (dict — NOT order-preserving:
// first-occurrence dictionaries), and wide (plain) shapes.
func fuzzSortRelation(seed int64, rows, arity int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	attrs := make([]relation.Attr, arity)
	for i := range attrs {
		attrs[i] = relation.Attr{Name: fmt.Sprintf("C%d", i), Domain: 4000}
	}
	r := relation.MustNew("f", attrs)
	vals := make([]int32, arity)
	cur := make([]int32, arity)
	for i := 0; i < rows; i++ {
		for c := 0; c < arity; c++ {
			switch c % 4 {
			case 0: // run-heavy: value changes rarely
				if i == 0 || rng.Intn(20) == 0 {
					cur[c] = rng.Int31n(7)
				}
				vals[c] = cur[c]
			case 1: // dense small values: byte-encodable
				vals[c] = rng.Int31n(50)
			case 2: // sparse small-distinct: dictionary-encodable
				vals[c] = rng.Int31n(9) * 397
			default: // wide: plain
				vals[c] = rng.Int31n(4000)
			}
		}
		if err := r.Append(vals, 0.1+rng.Float64()*5); err != nil {
			panic(err)
		}
	}
	return r
}

// loadFuzzTable loads r into a fresh harness in the given page layout,
// which the engine's temps follow.
func loadFuzzTable(t *testing.T, r *relation.Relation, columnar bool) (*harness, *Table) {
	t.Helper()
	h := newHarness(t, 4096)
	h.engine.Columnar = columnar
	tb, err := LoadRelation(h.pool, h.engine.Factory, r, columnar)
	if err != nil {
		t.Fatal(err)
	}
	h.tables[r.Name()] = tb
	if err := h.cat.AddTable(catalog.AnalyzeRelation(r)); err != nil {
		t.Fatal(err)
	}
	return h, tb
}

func checkSortEquivalence(t *testing.T, seed int64, rows, arity, runTuples int, cols []int) {
	t.Helper()
	r := fuzzSortRelation(seed, rows, arity)
	rv, cv, rm, cm := sortBothLayouts(t, r, cols, runTuples)
	sortReference(t, r, cols, runTuples, rv, rm)
	if len(rv) != len(cv) || len(rm) != len(cm) {
		t.Fatalf("seed %d cols %v: size mismatch: row %d/%d columnar %d/%d",
			seed, cols, len(rv), len(rm), len(cv), len(cm))
	}
	for i := range rv {
		if rv[i] != cv[i] {
			t.Fatalf("seed %d cols %v: value %d differs: row %d columnar %d",
				seed, cols, i, rv[i], cv[i])
		}
	}
	for i := range rm {
		if rm[i] != cm[i] {
			t.Fatalf("seed %d cols %v: measure %d differs: row %g columnar %g",
				seed, cols, i, rm[i], cm[i])
		}
	}
}

// TestColumnarSortMatchesRowPath pins the sort's layout invariance and
// its agreement with the reference on fixed shapes: single-column sorts over every encoding (including the
// RLE block fast path and the dictionary order-mapping), multi-column
// sorts, and run sizes that force multi-run merges.
func TestColumnarSortMatchesRowPath(t *testing.T) {
	for _, tc := range []struct {
		rows, arity, runTuples int
		cols                   []int
	}{
		{1500, 4, 1 << 17, []int{0}},       // RLE leading: block path, single run
		{1500, 4, 256, []int{0}},           // RLE leading: block path, many runs + merge
		{1500, 4, 256, []int{1}},           // byte-encoded sort column
		{1500, 4, 256, []int{2}},           // dict-encoded: NOT order-preserving, mapped
		{1500, 4, 256, []int{3}},           // plain
		{1500, 4, 256, []int{2, 0, 1}},     // multi-column, dict leading
		{1500, 4, 199, []int{0, 3}},        // multi-column, RLE leading (no block path)
		{40, 2, 256, []int{1, 0}},          // partial page only: row-major views
		{1500, 4, 1500, []int{1, 2, 3, 0}}, // all columns, exactly one run
	} {
		checkSortEquivalence(t, 1234, tc.rows, tc.arity, tc.runTuples, tc.cols)
	}
}

// FuzzColumnarSortEquivalence drives random schemas, encodings, sort
// columns, and run sizes through the sort over both page layouts and
// requires the spilled-and-merged outputs to match byte for byte,
// measures included, and to agree with the engine-independent reference.
func FuzzColumnarSortEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(600), uint8(1), uint8(0), uint16(128))
	f.Add(int64(2), uint16(1300), uint8(3), uint8(2), uint16(97))
	f.Add(int64(3), uint16(2100), uint8(4), uint8(15), uint16(512))
	f.Add(int64(4), uint16(33), uint8(2), uint8(3), uint16(16))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, arity, colMask uint8, runTuples uint16) {
		nr := int(rows)%3000 + 1
		na := int(arity)%4 + 1
		rt := int(runTuples)%2048 + 16
		var cols []int
		for c := 0; c < na; c++ {
			if colMask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []int{int(colMask) % na}
		}
		checkSortEquivalence(t, seed, nr, na, rt, cols)
	})
}

// TestColumnarSortInPlans runs whole sort-mode plans (sort-based
// aggregation and sort-merge join) columnar against row-major, checking
// the final relations bit for bit.
func TestColumnarSortInPlans(t *testing.T) {
	a, b := smallDomainRels(91)
	for _, mode := range []string{"sortgroupby", "sortjoin"} {
		t.Run(mode, func(t *testing.T) {
			run := func(columnar bool) *relation.Relation {
				var h *harness
				if columnar {
					h = columnarHarness(t, 4096, a, b)
				} else {
					h = newHarness(t, 4096, a, b)
				}
				h.engine.SortRunTuples = 128
				h.engine.SortGroupBy = mode == "sortgroupby"
				h.engine.SortJoin = mode == "sortjoin"
				rel, _ := h.run(t, pipelinePlan(t, h.builder()))
				return rel
			}
			want, got := run(false), run(true)
			if !relation.Equal(want, got, 0, 0) {
				t.Fatalf("%s: columnar sort plan differs from row-major", mode)
			}
		})
	}
}

// TestColumnarSortMorselAttribution asserts the "Sort" morsel kind
// reports truthful counts under parallel run generation: one morsel per
// spilled run, busy time measured inside the task.
func TestColumnarSortMorselAttribution(t *testing.T) {
	a, b := smallDomainRels(93)
	h := columnarHarness(t, 4096, a, b)
	h.engine.Parallelism = 4
	h.engine.SortRunTuples = 128
	h.engine.SortGroupBy = true
	_, st := h.run(t, pipelinePlan(t, h.builder()))
	kinds := make(map[string]MorselStat, len(st.Morsels))
	for _, m := range st.Morsels {
		kinds[m.Kind] = m
	}
	m, ok := kinds["Sort"]
	if !ok {
		t.Fatalf("no Sort morsel stats (got %v)", st.Morsels)
	}
	// The pipeline sorts the join output, whose cardinality depends on
	// the seed; at minimum the sorts spill more than one run each — the
	// point is Count tracks spills, not workers or batches.
	if m.Count < 2 {
		t.Fatalf("Sort morsel count %d, want >= 2 (multiple runs)", m.Count)
	}
	if m.Busy <= 0 {
		t.Fatalf("Sort morsels report no busy time: %+v", m)
	}

	// Exact-count check under work stealing: a direct columnar external
	// sort over a table of known cardinality must submit EXACTLY one
	// "Sort" morsel per spilled run — ceil(n/runSize) — no matter which
	// worker (or the submitting goroutine itself) steals each task.
	r := fuzzSortRelation(97, 1500, 3)
	dh, tb := loadFuzzTable(t, r, true)
	dh.engine.SortRunTuples = 128
	dst := &RunStats{sched: newMorselSched(4)}
	defer dst.sched.close()
	out, err := dh.engine.externalSort(context.Background(), tb, []int{0}, dst)
	if err != nil {
		t.Fatal(err)
	}
	out.Drop()
	wantRuns := (1500 + 127) / 128
	var direct *MorselStat
	for _, ms := range dst.sched.snapshot() {
		if ms.Kind == "Sort" {
			msCopy := ms
			direct = &msCopy
		}
	}
	if direct == nil {
		t.Fatal("direct columnar sort reported no Sort morsels")
	}
	if direct.Count != int64(wantRuns) {
		t.Fatalf("Sort morsel count %d, want exactly %d (one per spilled run)", direct.Count, wantRuns)
	}
	if direct.Busy <= 0 {
		t.Fatalf("direct Sort morsels report no busy time: %+v", direct)
	}
}
