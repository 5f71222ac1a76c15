package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// TestBatchAggSlots drives the slot passes (slotCol, slotRows) in
// chunks against a map reference: every key gets its first-put position,
// exactly the keys new to the aggregate are flagged first, and the key
// arena holds the keys in position order — for a dense one-column key,
// one that leaves the dense mode, a radix key, a radix key that leaves
// its domain, and two- and three-column table keys.
func TestBatchAggSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name  string
		attrs []relation.Attr
		draw  func() []int32
	}{
		{"dense one-col", []relation.Attr{{Name: "A", Domain: 5000}}, func() []int32 { return []int32{rng.Int31n(5000)} }},
		{"one-col leaves dense mode", []relation.Attr{{Name: "A", Domain: 1 << 30}}, func() []int32 {
			if rng.Intn(500) == 0 {
				return []int32{rng.Int31n(1 << 30)}
			}
			return []int32{rng.Int31n(5000)}
		}},
		{"radix two-col", []relation.Attr{{Name: "A", Domain: 30}, {Name: "B", Domain: 7}}, func() []int32 { return []int32{rng.Int31n(30), rng.Int31n(7)} }},
		{"table two-col", []relation.Attr{{Name: "A", Domain: 1 << 20}, {Name: "B", Domain: 1 << 10}}, func() []int32 { return []int32{rng.Int31n(1 << 20), rng.Int31n(1 << 10)} }},
		{"table three-col", []relation.Attr{{Name: "A", Domain: 1 << 20}, {Name: "B", Domain: 7}, {Name: "C", Domain: 5}}, func() []int32 {
			return []int32{rng.Int31n(1 << 20), rng.Int31n(7), rng.Int31n(5)}
		}},
		{"radix leaves its domain", []relation.Attr{{Name: "A", Domain: 30}, {Name: "B", Domain: 7}}, func() []int32 {
			if rng.Intn(500) == 0 {
				return []int32{30 + rng.Int31n(3), -1}
			}
			return []int32{rng.Int31n(30), rng.Int31n(7)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arity := len(tc.attrs)
			a := newBatchAgg(tc.attrs, 1000)
			ref := refIndex{}
			key := make([]int32, arity)
			for chunk := 0; chunk < 40; chunk++ {
				n := 1 + rng.Intn(foldChunk)
				keys := make([][]int32, n)
				cols := make([][]int32, arity)
				for j := range keys {
					keys[j] = tc.draw()
					for c := range cols {
						cols[c] = append(cols[c], keys[j][c])
					}
				}
				var sc foldScratch
				created := a.slotRows(cols, 0, sc.slots[:n], sc.first[:n], key)
				anyNew := false
				for j, k := range keys {
					want, seen := ref[refKey(k)]
					if !seen {
						want = len(ref)
						ref[refKey(k)] = want
						anyNew = true
					}
					if int(sc.slots[j]) != want || sc.first[j] == seen {
						t.Fatalf("chunk %d key %v: slot %d first %v, want %d %v", chunk, k, sc.slots[j], sc.first[j], want, !seen)
					}
				}
				if created != anyNew {
					t.Fatalf("chunk %d: created = %v, want %v", chunk, created, anyNew)
				}
			}
			if len(a.meas) != len(ref) || len(a.vals) != arity*len(ref) {
				t.Fatalf("%d measures and %d key values for %d groups", len(a.meas), len(a.vals), len(ref))
			}
			for k, pos := range ref {
				if got := refKey(a.vals[pos*arity : (pos+1)*arity]); got != k {
					t.Fatalf("group %d holds key %s, want %s", pos, got, k)
				}
			}
		})
	}
}

// stagedRels is the probe shape the staged kernels' pins run on: p(I,
// K, G) with a unique row id I (so no key column encodes), a 64-value
// join key K and an 8-value group G, over rows rows; b(K) matches every
// K once, and c(I) the first 64 rows of p.
func stagedRels(rows int) (p, b, c *relation.Relation) {
	rng := rand.New(rand.NewSource(int64(rows)))
	p = relation.MustNew("p", []relation.Attr{{Name: "I", Domain: rows}, {Name: "K", Domain: 64}, {Name: "G", Domain: 8}})
	for i := 0; i < rows; i++ {
		p.MustAppend([]int32{int32(i), int32(i % 64), int32(i / 64 % 8)}, 0.5+rng.Float64())
	}
	b = relation.MustNew("b", []relation.Attr{{Name: "K", Domain: 64}})
	c = relation.MustNew("c", []relation.Attr{{Name: "I", Domain: rows}})
	for k := 0; k < 64; k++ {
		b.MustAppend([]int32{int32(k)}, 0.5+rng.Float64())
		c.MustAppend([]int32{int32(k)}, 0.5+rng.Float64())
	}
	return p, b, c
}

// TestStagedKernelsAllocateNothingPerBatch pins that the kernels
// allocate nothing per batch: a run over a 28-page probe allocates what
// a run over a 3-page one does, for the fused join+aggregate — over a
// base heap, over a run-length-encoded join key and over a join it
// pipelines (pipe.go) — for hash group-by on one- and two-column keys
// and for the hash join's probe. Every plan runs over row-major pages
// (all-plain batches) and over kernelLayouts' columnar layout, where K
// byte-encodes and G run-length encodes on every full page, so the one
// decode path (ColView.Flat, cached per view) and the fused probe's RLE
// span fold are pinned too. Both probes are one leaf, and every plan's
// output has the same size at both probe sizes. The ordered heap sink
// runs only with workers over several leaves, so its run with two
// workers over twice the leaves may allocate more per leaf — its morsel
// and its scan — but less than one allocation per batch.
func TestStagedKernelsAllocateNothingPerBatch(t *testing.T) {
	plans := []struct {
		name string
		fuse bool
		make func(pb *plan.Builder) (*plan.Node, error)
	}{
		{"fused", true, func(pb *plan.Builder) (*plan.Node, error) {
			return pb.GroupBy(pb.Join(mustScan(pb, "p"), mustScan(pb, "b")), []string{"G"})
		}},
		{"fused run-length key", true, func(pb *plan.Builder) (*plan.Node, error) {
			return pb.GroupBy(pb.Join(mustScan(pb, "p"), mustScan(pb, "g")), []string{"K"})
		}},
		{"groupby one-col", false, func(pb *plan.Builder) (*plan.Node, error) { return pb.GroupBy(mustScan(pb, "p"), []string{"K"}) }},
		{"groupby two-col", false, func(pb *plan.Builder) (*plan.Node, error) {
			return pb.GroupBy(mustScan(pb, "p"), []string{"K", "G"})
		}},
		{"join probe", false, func(pb *plan.Builder) (*plan.Node, error) {
			return pb.Join(mustScan(pb, "p"), mustScan(pb, "c")), nil
		}},
		{"pipelined probe", true, func(pb *plan.Builder) (*plan.Node, error) {
			return pb.GroupBy(pb.Join(pb.Join(mustScan(pb, "p"), mustScan(pb, "b")), mustScan(pb, "c")), []string{"G"})
		}},
	}
	allocs := func(l pageLayout, rows, workers int, fuse bool, mk func(pb *plan.Builder) (*plan.Node, error)) float64 {
		p, b, c := stagedRels(rows)
		g := relation.MustNew("g", []relation.Attr{{Name: "G", Domain: 8}})
		for v := int32(0); v < 8; v++ {
			g.MustAppend([]int32{v}, 1+float64(v))
		}
		h := layoutHarness(t, l, p, b, c, g)
		h.engine.FuseJoinGroupBy = fuse
		h.engine.Parallelism = workers
		node, err := mk(h.builder())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := h.engine.Run(node, MapResolver(h.tables)); err != nil {
				t.Fatal(err)
			}
		})
	}
	join := plans[4]
	leafRows := leafPages * storage.TuplesPerPage(3)
	for _, l := range kernelLayouts[:2] {
		for _, pl := range plans {
			small, large := allocs(l, 600, 0, pl.fuse, pl.make), allocs(l, 8000, 0, pl.fuse, pl.make)
			if large != small {
				t.Errorf("%s %s: %v allocations over a 28-page probe, %v over a 3-page one: the kernel allocates per batch", l.name, pl.name, large, small)
			}
		}
		small, large := allocs(l, 3*leafRows, 2, false, join.make), allocs(l, 6*leafRows, 2, false, join.make)
		if extra := float64(3 * leafPages); large-small >= extra {
			t.Errorf("%s ordered sink: %v allocations over 6 leaves, %v over 3: more than one per extra batch", l.name, large, small)
		}
	}
}

func mustScan(pb *plan.Builder, name string) *plan.Node {
	n, err := pb.Scan(name)
	if err != nil {
		panic(fmt.Sprintf("scan %s: %v", name, err))
	}
	return n
}

// TestNaNPayloadsAcrossLayouts runs group-by and the fused
// join+aggregate over measures carrying NaNs of several payloads, on
// row-major pages and on columnar pages, and requires the same rows in
// the same order with the same measure bits. Group-by takes the staged
// passes over the decoded key on both layouts. The fused plans' sorted
// join key run-length encodes on every full columnar page, so there
// they take the RLE span fold (rleBatch, absorbMulSpan), whose measure
// spans repeat in pairs for the RunFolder; a span fold that ignored
// FoldAdd's refusal fails here. When two NaNs meet, which payload
// survives depends on the compiled fold, so this holds only because
// every path folds through the same batch functions.
func TestNaNPayloadsAcrossLayouts(t *testing.T) {
	vals := []float64{
		math.Float64frombits(0x7ff8_0000_0000_0001), 1.5, math.Float64frombits(0xfff8_0000_0000_0bad),
		2, math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_0000_0042), 0.25, math.Inf(1),
	}
	p := relation.MustNew("p", []relation.Attr{{Name: "K", Domain: 16}, {Name: "G", Domain: 4}})
	b := relation.MustNew("b", []relation.Attr{{Name: "K", Domain: 16}})
	b2 := relation.MustNew("b2", []relation.Attr{{Name: "K", Domain: 16}, {Name: "U", Domain: 2}})
	for k := int32(0); k < 16; k++ {
		for i := int32(0); i < 240; i++ {
			p.MustAppend([]int32{k, i / 3 % 4}, vals[int(k*240+i)/2%len(vals)])
		}
		b.MustAppend([]int32{k}, vals[int(k)%len(vals)])
		for u := int32(0); u < 2; u++ {
			b2.MustAppend([]int32{k, u}, vals[int(k+u+3)%len(vals)])
		}
	}
	plans := []struct {
		name string
		make func(pb *plan.Builder) (*plan.Node, error)
	}{
		{"groupby K", func(pb *plan.Builder) (*plan.Node, error) { return pb.GroupBy(mustScan(pb, "p"), []string{"K"}) }},
		{"groupby G", func(pb *plan.Builder) (*plan.Node, error) { return pb.GroupBy(mustScan(pb, "p"), []string{"G"}) }},
		{"fused unique build", func(pb *plan.Builder) (*plan.Node, error) {
			return pb.GroupBy(pb.Join(mustScan(pb, "p"), mustScan(pb, "b")), []string{"G"})
		}},
		{"fused repeated build", func(pb *plan.Builder) (*plan.Node, error) {
			return pb.GroupBy(pb.Join(mustScan(pb, "p"), mustScan(pb, "b2")), []string{"G"})
		}},
	}
	for _, sr := range semiring.All() {
		for _, pl := range plans {
			var got [2]*relation.Relation
			for i, h := range []*harness{newHarness(t, 256, p, b, b2), columnarHarness(t, 256, p, b, b2)} {
				h.engine.Sr, h.engine.FuseJoinGroupBy = sr, true
				node, err := pl.make(h.builder())
				if err != nil {
					t.Fatal(err)
				}
				got[i], _ = h.run(t, node)
			}
			rm, col := got[0], got[1]
			if rm.Len() != col.Len() {
				t.Fatalf("%s %s: %d rows row-major, %d columnar", sr.Name(), pl.name, rm.Len(), col.Len())
			}
			for i := 0; i < rm.Len(); i++ {
				if fmt.Sprint(rm.Row(i)) != fmt.Sprint(col.Row(i)) ||
					math.Float64bits(rm.Measure(i)) != math.Float64bits(col.Measure(i)) {
					t.Fatalf("%s %s row %d: row-major %v %#x, columnar %v %#x", sr.Name(), pl.name, i,
						rm.Row(i), math.Float64bits(rm.Measure(i)), col.Row(i), math.Float64bits(col.Measure(i)))
				}
			}
		}
	}
}
