package exec

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"mpf/internal/catalog"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// pageLayout is one physical arrangement of the pages the kernels read:
// how base tables are loaded and which layout the engine writes its
// temps in. Every layout runs the same kernels.
type pageLayout struct {
	name string
	// pageColumnar reports whether base-table page pageNo is written with
	// the columnar switch on (only pages that fill are ever encoded).
	pageColumnar func(pageNo int) bool
	// temps is Engine.Columnar: the layout of intermediate heaps.
	temps bool
}

// kernelLayouts are the layouts the kernel test sweeps. Under "columnar"
// table a (an exact page multiple) is encoded throughout and table b is
// encoded full pages followed by its row-major partial page; "mixed"
// alternates row-major and encoded pages inside one heap and writes
// row-major temps, so encoded inputs feed plain intermediates.
var kernelLayouts = []pageLayout{
	{"rowmajor", func(int) bool { return false }, false},
	{"columnar", func(int) bool { return true }, true},
	{"mixed", func(p int) bool { return p%2 == 1 }, false},
}

// layoutHarness loads rels under the given layout.
func layoutHarness(t testing.TB, l pageLayout, rels ...*relation.Relation) *harness {
	t.Helper()
	h := newHarness(t, 4096)
	h.engine.Columnar = l.temps
	for _, r := range rels {
		heap, err := storage.NewTempHeap(h.pool, h.engine.Factory, r.Arity())
		if err != nil {
			t.Fatal(err)
		}
		per := storage.TuplesPerPage(r.Arity())
		for i := 0; i < r.Len(); i++ {
			heap.SetColumnar(l.pageColumnar(i / per))
			if err := heap.Append(r.Row(i), r.Measure(i)); err != nil {
				t.Fatal(err)
			}
		}
		h.tables[r.Name()] = &Table{Name: r.Name(), Attrs: append([]relation.Attr(nil), r.Attrs()...), Heap: heap}
		if err := h.cat.AddTable(catalog.AnalyzeRelation(r)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// kernelRels builds the kernel test's inputs: a(Y,X,Z) trimmed to
// exactly two pages with the join key leading (it run-length encodes), a
// several-rows-per-key b(Y,W,V) of one full page plus a partial one, and
// a small c(U,T) sharing no variable with a (the cross-product operand).
func kernelRels(t testing.TB) (a, b, c *relation.Relation) {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	full, _ := relation.Random(rng, "a",
		[]relation.Attr{{Name: "Y", Domain: 8}, {Name: "X", Domain: 14}, {Name: "Z", Domain: 9}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	n := 2 * storage.TuplesPerPage(3)
	if full.Len() < n {
		t.Fatalf("relation a has %d rows, need %d", full.Len(), n)
	}
	a = relation.MustNew("a", full.Attrs())
	for i := 0; i < n; i++ {
		a.MustAppend(full.Row(i), full.Measure(i))
	}
	b, _ = relation.Random(rng, "b",
		[]relation.Attr{{Name: "Y", Domain: 8}, {Name: "W", Domain: 12}, {Name: "V", Domain: 5}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	if per := storage.TuplesPerPage(3); b.Len() <= per || b.Len()%per == 0 {
		t.Fatalf("relation b has %d rows, want a full page plus a partial one", b.Len())
	}
	c, _ = relation.Random(rng, "c",
		[]relation.Attr{{Name: "U", Domain: 6}, {Name: "T", Domain: 7}}, 0.9,
		relation.UniformMeasure(0.1, 5))
	return a, b, c
}

// TestKernelsAcrossLayouts is the single-tier contract: every operator,
// over every page layout, serially and with four workers, agrees with
// the in-memory relation reference; all six runs of one operator are
// bit-identical to each other with equal intermediate-tuple counts; and
// serial and parallel runs of one layout do the same physical IO.
func TestKernelsAcrossLayouts(t *testing.T) {
	a, b, c := kernelRels(t)
	sr := semiring.SumProduct
	must := func(r *relation.Relation, err error) *relation.Relation {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	scan := func(pb *plan.Builder, name string) *plan.Node {
		t.Helper()
		s, err := pb.Scan(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	groupBy := func(pb *plan.Builder, in *plan.Node, vars []string) *plan.Node {
		t.Helper()
		g, err := pb.GroupBy(in, vars)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ab := must(relation.ProductJoin(sr, a, b))
	ac := must(relation.ProductJoin(sr, a, c))
	pred := relation.Predicate{"Y": 3, "Z": 2}

	ops := []struct {
		name  string
		setup func(e *Engine)
		plan  func(pb *plan.Builder) *plan.Node
		want  *relation.Relation
	}{
		{"select", nil,
			func(pb *plan.Builder) *plan.Node {
				s, err := pb.Select(scan(pb, "a"), pred)
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			must(relation.Select(a, pred))},
		{"join", nil,
			func(pb *plan.Builder) *plan.Node { return pb.Join(scan(pb, "a"), scan(pb, "b")) },
			ab},
		{"cross-join", nil,
			func(pb *plan.Builder) *plan.Node { return pb.Join(scan(pb, "a"), scan(pb, "c")) },
			ac},
		{"grace-join", func(e *Engine) { e.HashJoinMaxBuild = 16 },
			func(pb *plan.Builder) *plan.Node { return pb.Join(scan(pb, "a"), scan(pb, "b")) },
			ab},
		{"hash-groupby-1col", nil,
			func(pb *plan.Builder) *plan.Node { return groupBy(pb, scan(pb, "a"), []string{"Y"}) },
			must(relation.Marginalize(sr, a, []string{"Y"}))},
		{"hash-groupby-2col", nil,
			func(pb *plan.Builder) *plan.Node { return groupBy(pb, scan(pb, "a"), []string{"X", "Z"}) },
			must(relation.Marginalize(sr, a, []string{"X", "Z"}))},
		{"hash-groupby-total", nil,
			func(pb *plan.Builder) *plan.Node { return groupBy(pb, scan(pb, "b"), nil) },
			must(relation.Marginalize(sr, b, nil))},
		{"sort-groupby", func(e *Engine) { e.SortGroupBy = true; e.SortRunTuples = 128 },
			func(pb *plan.Builder) *plan.Node { return groupBy(pb, scan(pb, "a"), []string{"X"}) },
			must(relation.Marginalize(sr, a, []string{"X"}))},
		{"sort-groupby-total", func(e *Engine) { e.SortGroupBy = true; e.SortRunTuples = 128 },
			func(pb *plan.Builder) *plan.Node { return groupBy(pb, scan(pb, "b"), nil) },
			must(relation.Marginalize(sr, b, nil))},
		{"sort-merge-join", func(e *Engine) { e.SortJoin = true; e.SortRunTuples = 128 },
			func(pb *plan.Builder) *plan.Node { return pb.Join(scan(pb, "a"), scan(pb, "b")) },
			ab},
		{"fused-join-groupby", func(e *Engine) { e.FuseJoinGroupBy = true },
			func(pb *plan.Builder) *plan.Node {
				return groupBy(pb, pb.Join(scan(pb, "a"), scan(pb, "b")), []string{"X", "V"})
			},
			must(relation.Marginalize(sr, ab, []string{"X", "V"}))},
		{"fused-cross-groupby", func(e *Engine) { e.FuseJoinGroupBy = true },
			func(pb *plan.Builder) *plan.Node {
				return groupBy(pb, pb.Join(scan(pb, "a"), scan(pb, "c")), []string{"X", "U"})
			},
			must(relation.Marginalize(sr, ac, []string{"X", "U"}))},
		{"fused-cross-groupby-probe-side", func(e *Engine) { e.FuseJoinGroupBy = true },
			func(pb *plan.Builder) *plan.Node {
				return groupBy(pb, pb.Join(scan(pb, "c"), scan(pb, "a")), []string{"Z"})
			},
			must(relation.Marginalize(sr, ac, []string{"Z"}))},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			var first *relation.Relation
			firstTemp := map[int]int64{} // by worker count: the partitioned group-by adds a partition pass
			for _, l := range kernelLayouts {
				var serialIO storage.Stats
				for _, workers := range []int{0, 4} {
					h := layoutHarness(t, l, a, b, c)
					h.engine.Parallelism = workers
					h.engine.ParallelGroupByMinTuples = 1
					if op.setup != nil {
						op.setup(h.engine)
					}
					got, st := h.run(t, op.plan(h.builder()))
					if !relation.Equal(op.want, got, 0, 1e-9) {
						t.Fatalf("%s workers=%d: result differs from the relation reference", l.name, workers)
					}
					if first == nil {
						first = got
					}
					if !relation.Equal(first, got, 0, 0) {
						t.Fatalf("%s workers=%d: result not bit-identical to %s serial", l.name, workers, kernelLayouts[0].name)
					}
					if _, seen := firstTemp[workers]; !seen {
						firstTemp[workers] = st.TempTuples
					}
					if st.TempTuples != firstTemp[workers] {
						t.Fatalf("%s workers=%d: TempTuples %d, want %d", l.name, workers, st.TempTuples, firstTemp[workers])
					}
					if st.Batches == 0 {
						t.Fatalf("%s workers=%d: no batches counted", l.name, workers)
					}
					if workers == 0 {
						serialIO = st.IO
					} else if st.IO.Reads != serialIO.Reads || st.IO.Writes != serialIO.Writes {
						t.Fatalf("%s: physical IO diverged: serial %+v parallel %+v", l.name, serialIO, st.IO)
					}
					if n := h.pool.Pinned(); n != 0 {
						t.Fatalf("%s workers=%d: %d frames left pinned", l.name, workers, n)
					}
					if es := h.pool.EncodingStats(); l.name != "rowmajor" && es.PagesEncoded == 0 {
						t.Fatalf("%s: no pages encoded — encoded branches not exercised", l.name)
					}
				}
			}
		})
	}
}

// countingFactory hands out MemDisks, failing its failAt-th call, and
// counts disks opened and closed so a test can assert every temp a
// failed query created was dropped.
type countingFactory struct {
	calls, failAt  int
	opened, closed atomic.Int64
}

type countedDisk struct {
	storage.Disk
	closed *atomic.Int64
}

func (d countedDisk) Close() error {
	d.closed.Add(1)
	return d.Disk.Close()
}

func (f *countingFactory) open() (storage.Disk, error) {
	f.calls++
	if f.calls == f.failAt {
		return nil, errors.New("temp disk unavailable")
	}
	f.opened.Add(1)
	return countedDisk{storage.NewMemDisk(), &f.closed}, nil
}

// TestTempAllocationFailure fails the temp-disk factory at each operator
// of σ→⋈→γ in turn — the two inner operators and the plan root — and
// checks the run ends with the typed IO error, every temp it had created
// dropped, and no frame pinned.
func TestTempAllocationFailure(t *testing.T) {
	a, b := smallDomainRels(45)
	for failAt := 1; failAt <= 3; failAt++ {
		h := newHarness(t, 4096, a, b)
		f := &countingFactory{failAt: failAt}
		h.engine.Factory = f.open
		_, _, err := h.engine.Run(pipelinePlan(t, h.builder()), MapResolver(h.tables))
		if !errors.Is(err, storage.ErrIO) {
			t.Fatalf("failAt=%d: err = %v, want storage.ErrIO", failAt, err)
		}
		if o, c := f.opened.Load(), f.closed.Load(); o != int64(failAt-1) || c != o {
			t.Fatalf("failAt=%d: %d temps opened, %d closed", failAt, o, c)
		}
		if n := h.pool.Pinned(); n != 0 {
			t.Fatalf("failAt=%d: %d frames left pinned", failAt, n)
		}
	}
	// The fourth call is never made: the plan needs exactly three temps.
	h := newHarness(t, 4096, a, b)
	f := &countingFactory{failAt: 4}
	h.engine.Factory = f.open
	if _, _, err := h.engine.Run(pipelinePlan(t, h.builder()), MapResolver(h.tables)); err != nil {
		t.Fatal(err)
	}
}
