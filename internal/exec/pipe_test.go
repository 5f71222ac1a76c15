package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"mpf/internal/relation"
	"mpf/internal/storage"
)

// sinkRels builds the ordered-sink inputs: p(K,G,V) of more than four
// leaves whose third leaf holds only join keys no build has (60–63)
// and only the group value the selection rejects (4); its first 100
// rows as the one-leaf p1; qu(K,A) with one row per key 0–59 and qr(K,B)
// with three rows for every even key.
func sinkRels(t testing.TB) map[string]*relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	per := storage.TuplesPerPage(3)
	p := relation.MustNew("p", []relation.Attr{{Name: "K", Domain: 64}, {Name: "G", Domain: 5}, {Name: "V", Domain: 7}})
	p1 := relation.MustNew("p1", p.Attrs())
	for i := 0; i < (4*leafPages+5)*per; i++ {
		k, g := rng.Int31n(60), rng.Int31n(4)
		if page := i / per; page >= 2*leafPages && page < 3*leafPages {
			k, g = 60+rng.Int31n(4), 4
		}
		row := []int32{k, g, rng.Int31n(7)}
		m := 0.1 + rng.Float64()
		p.MustAppend(row, m)
		if i < 100 {
			p1.MustAppend(row, m)
		}
	}
	qu := relation.MustNew("qu", []relation.Attr{{Name: "K", Domain: 64}, {Name: "A", Domain: 9}})
	qr := relation.MustNew("qr", []relation.Attr{{Name: "K", Domain: 64}, {Name: "B", Domain: 9}})
	for k := int32(0); k < 60; k++ {
		qu.MustAppend([]int32{k, rng.Int31n(9)}, 0.1+rng.Float64())
		for j := 0; k%2 == 0 && j < 3; j++ {
			qr.MustAppend([]int32{k, rng.Int31n(9)}, 0.1+rng.Float64())
		}
	}
	return map[string]*relation.Relation{"p": p, "p1": p1, "qu": qu, "qr": qr}
}

// heapPages returns a copy of every page of h.
func heapPages(t *testing.T, pool *storage.Pool, h *storage.Heap) [][]byte {
	t.Helper()
	var pages [][]byte
	for no := int64(0); no < h.NumPages(); no++ {
		buf, err := pool.PinContext(context.Background(), h.Handle(), no)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, bytes.Clone(buf))
		if err := pool.Unpin(h.Handle(), no, false); err != nil {
			t.Fatal(err)
		}
	}
	return pages
}

// TestOrderedSinkPagesAcrossWorkers is the ordered sink's contract: the
// output heap of a Select and of an in-memory hash join — written by
// leaves appended in leaf order when workers run them — holds pages
// byte-identical to the serial scan's at Parallelism 0, 1, 2 and 4, over
// row-major and columnar base tables, for unique and repeated build
// keys, with a leaf whose selection keeps nothing and whose probe
// matches nothing, and for a one-leaf input; with equal TempTuples and
// no frame pinned.
func TestOrderedSinkPagesAcrossWorkers(t *testing.T) {
	rels := sinkRels(t)
	all := []*relation.Relation{rels["p"], rels["p1"], rels["qu"], rels["qr"]}
	cases := []struct {
		name   string
		in, by string // a join of in and by; a selection of in when by == ""
	}{
		{"select", "p", ""},
		{"select one leaf", "p1", ""},
		{"join unique build keys", "p", "qu"},
		{"join repeated build keys", "p", "qr"},
		{"join build on the right", "qr", "p"},
		{"join one leaf", "p1", "qr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want [][]byte
			var wantTemp int64
			for _, columnar := range []bool{false, true} {
				for _, workers := range []int{0, 1, 2, 4} {
					h := newHarness(t, 4096)
					for _, r := range all {
						tb, err := LoadRelation(h.pool, h.engine.Factory, r, columnar)
						if err != nil {
							t.Fatal(err)
						}
						h.tables[r.Name()] = tb
					}
					h.engine.Parallelism = workers
					st := &RunStats{}
					if w := h.engine.workers(); w > 1 {
						st.sched = newMorselSched(w)
					}
					ctx := context.Background()
					var out *Table
					var err error
					if tc.by == "" {
						out, err = h.engine.selectOp(ctx, h.tables[tc.in], relation.Predicate{"G": 1}, st)
					} else {
						out, err = h.engine.hashJoin(ctx, h.tables[tc.in], h.tables[tc.by], st)
					}
					if st.sched != nil {
						st.sched.close()
					}
					if err != nil {
						t.Fatal(err)
					}
					got := heapPages(t, h.pool, out.Heap)
					where := fmt.Sprintf("columnar=%v workers=%d", columnar, workers)
					if want == nil {
						if len(got) == 0 {
							t.Fatal("empty output: nothing to compare")
						}
						want, wantTemp = got, st.TempTuples
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d output pages, serial row-major wrote %d", where, len(got), len(want))
					}
					for i := range got {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("%s: output page %d differs from the serial row-major scan's", where, i)
						}
					}
					if st.TempTuples != wantTemp || out.Heap.NumTuples() != wantTemp {
						t.Fatalf("%s: TempTuples %d, output rows %d, want %d", where, st.TempTuples, out.Heap.NumTuples(), wantTemp)
					}
					if err := out.Drop(); err != nil {
						t.Fatal(err)
					}
					if n := h.pool.Pinned(); n != 0 {
						t.Fatalf("%s: %d frames left pinned", where, n)
					}
				}
			}
		})
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// n-th call on: the executor polls Err at every batch, so the run stops
// part-way through whatever operator is running then.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestPipelinedFailuresDropTemps stops runs part-way through a pipelined
// fused probe and through an ordered sink, by cancellation and by the
// temp-tuple budget, serially and with leaves in flight on four
// workers: each ends in its typed error, with every temp dropped and no
// frame pinned, and the budget stops the run at a batch boundary long
// before the streamed heap is through.
func TestPipelinedFailuresDropTemps(t *testing.T) {
	rels := leafRels(t)
	wide, _ := relation.Complete("w", []relation.Attr{{Name: "U", Domain: 50}, {Name: "T", Domain: 2}},
		func(v []int32) float64 { return 1 + float64(v[0]) })
	probePages := storage.PagesFor(rels["p"].Arity(), int64(rels["p"].Len()))
	// GroupBy(Join(Join(p, q), w)): w is smaller than p, so the fused
	// probe streams p through the probe of q's build; with w key-less the
	// groups (G, U) grow fifty at a time. Join(p, q) alone runs the probe
	// into the ordered sink.
	fused := func(t *testing.T, h *harness, ctx context.Context) (RunStats, error) {
		pb := h.builder()
		g, err := pb.GroupBy(pb.Join(pb.Join(mustScan(pb, "p"), mustScan(pb, "q")), mustScan(pb, "w")), []string{"G", "U"})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := h.engine.RunContext(ctx, g, MapResolver(h.tables))
		return st, err
	}
	sink := func(t *testing.T, h *harness, ctx context.Context) (RunStats, error) {
		pb := h.builder()
		_, st, err := h.engine.RunContext(ctx, pb.Join(mustScan(pb, "p"), mustScan(pb, "q")), MapResolver(h.tables))
		return st, err
	}
	// Both shapes run as the failures below assume.
	h := newHarness(t, 4096, rels["p"], rels["q"], wide)
	h.engine.FuseJoinGroupBy = true
	st, err := fused(t, h, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(st.Trace, func(sp Span) bool { return sp.Desc == "ProductJoin [pipelined]" }) {
		t.Fatalf("fused shape: trace %+v: its join is not pipelined", st.Trace)
	}
	cases := []struct {
		name   string
		run    func(t *testing.T, h *harness, ctx context.Context) (RunStats, error)
		budget bool
		builds int64 // one-page build inputs, each one batch
	}{
		{"pipelined probe canceled", fused, false, 2},
		{"ordered sink canceled", sink, false, 1},
		{"pipelined probe over budget", fused, true, 2},
		{"ordered sink over budget", sink, true, 1},
	}
	for _, tc := range cases {
		for _, workers := range []int{0, 4} {
			h := newHarness(t, 4096, rels["p"], rels["q"], wide)
			h.engine.Parallelism = workers
			h.engine.FuseJoinGroupBy = true
			f := &countingFactory{}
			h.engine.Factory = f.open
			var ctx context.Context
			if tc.budget {
				ctx = WithBudget(context.Background(), Budget{MaxTempTuples: 100})
			} else {
				c := &cancelAfter{Context: context.Background()}
				c.left.Store(40)
				ctx = c
			}
			st, err := tc.run(t, h, ctx)
			where := fmt.Sprintf("%s workers=%d", tc.name, workers)
			if tc.budget {
				var be *BudgetError
				if !errors.As(err, &be) || be.Resource != "temp-tuples" {
					t.Fatalf("%s: err = %v, want a temp-tuples BudgetError", where, err)
				}
			} else if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", where, err)
			}
			// The run stopped inside the stream, and the budget early.
			limit := probePages
			if tc.budget {
				limit /= 2
			}
			if st.Batches <= tc.builds || st.Batches >= limit {
				t.Fatalf("%s: %d batches of a %d-page probe consumed", where, st.Batches, probePages)
			}
			if o, c := f.opened.Load(), f.closed.Load(); o != c {
				t.Fatalf("%s: %d temps opened, %d closed", where, o, c)
			}
			if n := h.pool.Pinned(); n != 0 {
				t.Fatalf("%s: %d frames left pinned", where, n)
			}
			for _, sp := range st.Trace {
				if sp.Kind == "ProductJoin" {
					t.Fatalf("%s: the failed join left a span %q", where, sp.Desc)
				}
			}
		}
	}
}
