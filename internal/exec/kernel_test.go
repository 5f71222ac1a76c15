package exec

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"mpf/internal/catalog"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// pageLayout is one physical arrangement of the pages the kernels read:
// how base tables are loaded. Every layout runs the same kernels, and
// read-once temps are row-major under all of them.
type pageLayout struct {
	name string
	// pageColumnar reports whether base-table page pageNo is written with
	// the columnar switch on (only pages that fill are ever encoded).
	pageColumnar func(pageNo int) bool
	// temps is Engine.Columnar: the layout of cache-registered outputs.
	temps bool
}

// kernelLayouts are the layouts the kernel test sweeps. Under "columnar"
// table a (an exact page multiple) is encoded throughout and table b is
// encoded full pages followed by its row-major partial page; "mixed"
// alternates row-major and encoded pages inside one heap.
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
			if err := heap.AppendRows(r.Row(i), []float64{r.Measure(i)}); err != nil {
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
// serial and parallel runs of one layout do the same physical IO. These
// inputs fit one aggregation leaf; the multi-leaf subtest sweeps the
// leaf-order fold of hash aggregation and the fused probe.
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
			firstTemp := int64(-1)
			for _, l := range kernelLayouts {
				var serialIO storage.Stats
				for _, workers := range []int{0, 4} {
					h := layoutHarness(t, l, a, b, c)
					h.engine.Parallelism = workers
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
					if firstTemp < 0 {
						firstTemp = st.TempTuples
					}
					if st.TempTuples != firstTemp {
						t.Fatalf("%s workers=%d: TempTuples %d, want %d", l.name, workers, st.TempTuples, firstTemp)
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
						t.Fatalf("%s: no base-table pages encoded — encoded branches not exercised", l.name)
					}
				}
			}
		})
	}
	t.Run("multi-leaf", testLeafFoldAcrossLayouts)
}

// leafRels builds the multi-leaf inputs: a probe p(K,G,H,D) of more than
// two leaves (D has domain 1), its first half in key order — so K
// run-length encodes — and its second half shuffled — so it does not —
// plus the build sides: q(K,W) with several rows per key, q1(K,V) with
// exactly one, a three-row c(U) sharing no variable with p, the empty
// e(K,E) and e2(K,F), and the one-row o1(K,A) and o2(K,B).
func leafRels(t testing.TB) map[string]*relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	attr := func(name string, domain int) relation.Attr { return relation.Attr{Name: name, Domain: domain} }
	measure := relation.UniformMeasure(0.1, 5)
	sorted, _ := relation.Random(rng, "p", []relation.Attr{attr("K", 40), attr("G", 30), attr("H", 25), attr("D", 1)}, 0.8, measure)
	if pages := sorted.Len() / storage.TuplesPerPage(4); pages < 2*leafPages {
		t.Fatalf("probe relation has %d full pages, need more than %d for three leaves", pages, 2*leafPages)
	}
	order := rng.Perm(sorted.Len() / 2)
	p := relation.MustNew("p", sorted.Attrs())
	for i := 0; i < sorted.Len(); i++ {
		src := i
		if half := sorted.Len() - len(order); i >= half {
			src = half + order[i-half]
		}
		p.MustAppend(sorted.Row(src), sorted.Measure(src))
	}
	q, _ := relation.Random(rng, "q", []relation.Attr{attr("K", 40), attr("W", 6)}, 0.5, measure)
	q1, _ := relation.Random(rng, "q1", []relation.Attr{attr("K", 40)}, 0.9, measure)
	q1v := relation.MustNew("q1", []relation.Attr{attr("K", 40), attr("V", 7)})
	for i := 0; i < q1.Len(); i++ {
		q1v.MustAppend([]int32{q1.Row(i)[0], int32(rng.Intn(7))}, q1.Measure(i))
	}
	c, _ := relation.Complete("c", []relation.Attr{attr("U", 3)}, func([]int32) float64 { return measure(rng) })
	o1 := relation.MustNew("o1", []relation.Attr{attr("K", 40), attr("A", 4)})
	o1.MustAppend([]int32{7, 2}, 1.5)
	o2 := relation.MustNew("o2", []relation.Attr{attr("K", 40), attr("B", 4)})
	o2.MustAppend([]int32{7, 3}, 0.25)
	rels := map[string]*relation.Relation{
		"p": p, "q": q, "q1": q1v, "c": c, "o1": o1, "o2": o2,
		"e":  relation.MustNew("e", []relation.Attr{attr("K", 40), attr("E", 4)}),
		"e2": relation.MustNew("e2", []relation.Attr{attr("K", 40), attr("F", 4)}),
	}
	return rels
}

// testLeafFoldAcrossLayouts is the fold-order contract of foldLeaves: an
// aggregation whose input spans several leaves folds in leaf order at
// every worker count, so for each operator shape and each semiring all
// fifteen runs — three page layouts × Parallelism 0, 2, 3, 4, 8 — are
// bit-identical to each other, agree with the in-memory relation
// reference to 1e-12 relative (the reference folds in row order, the
// engine in leaf order), report equal TempTuples and leave no frame
// pinned.
func testLeafFoldAcrossLayouts(t *testing.T) {
	rels := leafRels(t)
	all := make([]*relation.Relation, 0, len(rels))
	for _, name := range []string{"p", "q", "q1", "c", "e", "e2", "o1", "o2"} {
		all = append(all, rels[name])
	}
	cases := []struct {
		name        string
		left, right string // right == "" for a plain group-by of left
		group       []string
	}{
		{"fused probe-side key", "p", "q", []string{"G"}},
		{"fused build-side key", "p", "q", []string{"W"}},
		{"fused keys on both sides", "p", "q", []string{"H", "W"}},
		{"fused join key, build on the left", "q", "p", []string{"K"}},
		{"fused key-less", "p", "c", []string{"G", "U"}},
		{"fused total aggregate", "p", "q", nil},
		{"fused every row its own group", "p", "q1", []string{"K", "G", "H"}},
		{"fused all rows one group (domain 1)", "p", "q", []string{"D"}},
		{"fused empty build", "p", "e", []string{"G"}},
		{"fused empty probe", "e", "e2", []string{"E"}},
		{"fused one-row tables", "o1", "o2", []string{"A"}},
		{"group-by 1 column", "p", "", []string{"K"}},
		{"group-by 2 columns", "p", "", []string{"G", "H"}},
		{"group-by 3 columns", "p", "", []string{"K", "G", "D"}},
		{"group-by total", "p", "", nil},
		{"group-by empty input", "e", "", []string{"E"}},
		// Pipelined probe inputs (pipe.go): a join or selection input of
		// a fused join that is never materialized, named as leafInput
		// reads it.
		{"pipelined probe, streamed-side key", "p⋈q", "q1", []string{"G"}},
		{"pipelined probe, inner build key", "p⋈q1", "q", []string{"V"}},
		{"pipelined probe, outer build key", "p⋈q1", "q", []string{"W"}},
		{"pipelined probe, keys from all three", "p⋈q1", "q", []string{"H", "V", "W"}},
		{"pipelined probe, unique inner build", "p⋈q1", "o1", []string{"G", "A"}},
		{"pipelined probe, key-less outer join", "p⋈o1", "c", []string{"G", "U"}},
		{"pipelined probe, total aggregate", "p⋈o1", "o2", nil},
		{"pipelined probe, empty inner build", "p⋈e", "q1", []string{"G"}},
		{"pipelined probe on the right", "o2", "p⋈q1", []string{"G"}},
		{"pipelined select", "σ(p)", "q", []string{"G"}},
		{"pipelined select, build on the left", "q", "σ(p)", []string{"W"}},
		{"pipeline materialized as the build", "o1⋈o2", "p", []string{"A", "G"}},
	}
	harnesses := make([]*harness, len(kernelLayouts))
	for i, l := range kernelLayouts {
		harnesses[i] = layoutHarness(t, l, all...)
		harnesses[i].engine.FuseJoinGroupBy = true
	}
	for _, tc := range cases {
		for _, sr := range semiring.All() {
			t.Run(tc.name+"/"+sr.Name(), func(t *testing.T) {
				in := leafRef(t, rels, sr, tc.left)
				if tc.right != "" {
					var err error
					if in, err = relation.ProductJoin(sr, in, leafRef(t, rels, sr, tc.right)); err != nil {
						t.Fatal(err)
					}
				}
				want, err := relation.Marginalize(sr, in, tc.group)
				if err != nil {
					t.Fatal(err)
				}
				var first *relation.Relation
				var firstTemp int64
				for i, l := range kernelLayouts {
					h := harnesses[i]
					h.engine.Sr = sr
					for _, workers := range []int{0, 2, 3, 4, 8} {
						h.engine.Parallelism = workers
						pb := h.builder()
						node := leafInput(t, pb, tc.left)
						if tc.right != "" {
							node = pb.Join(node, leafInput(t, pb, tc.right))
						}
						if node, err = pb.GroupBy(node, tc.group); err != nil {
							t.Fatal(err)
						}
						got, st := h.run(t, node)
						if !relation.Equal(want, got, sr.Zero(), 1e-12) {
							t.Fatalf("%s workers=%d: result differs from the relation reference", l.name, workers)
						}
						pipelined := slices.ContainsFunc(st.Trace, func(sp Span) bool { return strings.HasSuffix(sp.Desc, " [pipelined]") })
						if pipelined != strings.HasPrefix(tc.name, "pipelined") {
							t.Fatalf("%s workers=%d: pipelined = %v", l.name, workers, pipelined)
						}
						if pipelined && exactAdd(sr) && !relation.Equal(want, got, sr.Zero(), 0) {
							t.Fatalf("%s workers=%d: exact semiring not bit-equal to the relation reference", l.name, workers)
						}
						if first == nil {
							first, firstTemp = got, st.TempTuples
						}
						if !relation.Equal(first, got, sr.Zero(), 0) {
							t.Fatalf("%s workers=%d: result not bit-identical to %s serial", l.name, workers, kernelLayouts[0].name)
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
}

// leafInput builds the plan input a multi-leaf case names: a table,
// "σ(t)" — t's rows with H = 4 — or "a⋈b", the join of tables a and b.
func leafInput(t *testing.T, pb *plan.Builder, name string) *plan.Node {
	t.Helper()
	if a, b, ok := strings.Cut(name, "⋈"); ok {
		return pb.Join(mustScan(pb, a), mustScan(pb, b))
	}
	if inner, ok := strings.CutPrefix(name, "σ("); ok {
		s, err := pb.Select(mustScan(pb, strings.TrimSuffix(inner, ")")), relation.Predicate{"H": 4})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return mustScan(pb, name)
}

// leafRef is the in-memory reference of a leafInput name under sr.
func leafRef(t *testing.T, rels map[string]*relation.Relation, sr semiring.Semiring, name string) *relation.Relation {
	t.Helper()
	var r *relation.Relation
	var err error
	if a, b, ok := strings.Cut(name, "⋈"); ok {
		r, err = relation.ProductJoin(sr, rels[a], rels[b])
	} else if inner, ok := strings.CutPrefix(name, "σ("); ok {
		r, err = relation.Select(rels[strings.TrimSuffix(inner, ")")], relation.Predicate{"H": 4})
	} else {
		r = rels[name]
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// exactAdd reports whether sr's Add is exact (min, max, or), so a fold in
// any order gives the same bits.
func exactAdd(sr semiring.Semiring) bool {
	return sr.Name() != semiring.SumProduct.Name() && sr.Name() != semiring.LogSumExp.Name()
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
