package exec

import (
	"math/rand"
	"testing"

	"mpf/internal/plan"
	"mpf/internal/relation"
)

// benchColRel builds a small-domain relation sized to span many full
// (hence encodable) pages: every attribute dictionary- or run-length
// encodes, the workload the columnar layout targets.
func benchColRel(name string, rows int) *relation.Relation {
	attrs := []relation.Attr{
		{Name: "X", Domain: rows/128 + 1},
		{Name: "Y", Domain: 16},
		{Name: "Z", Domain: 8},
	}
	r := relation.MustNew(name, attrs)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < rows; i++ {
		// Unique keys decomposing i: X advances every 128 rows (long RLE
		// runs), Y cycles in runs of 8 (short RLE runs), Z cycles per row
		// (byte segment).
		r.MustAppend([]int32{int32(i / 128), int32(i / 8 % 16), int32(i % 8)}, 0.1+rng.Float64())
	}
	return r
}

// runPlanBench measures one plan execution per iteration on a warm pool,
// reporting physical pages read per op alongside the standard metrics.
func runPlanBench(b *testing.B, h *harness, p planNodeFunc) {
	b.Helper()
	b.ReportAllocs()
	var reads, writes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := h.pool.Stats()
		rel, _, err := h.engine.Run(p(), MapResolver(h.tables))
		if err != nil {
			b.Fatal(err)
		}
		_ = rel
		d := h.pool.Stats().Sub(before)
		reads += d.Reads
		writes += d.Writes
	}
	b.StopTimer()
	b.ReportMetric(float64(reads)/float64(b.N), "pages-read/op")
	b.ReportMetric(float64(writes)/float64(b.N), "pages-written/op")
}

// planNodeFunc builds a fresh plan node per iteration (plans are cheap;
// rebuilding avoids any cross-iteration plan-node state).
type planNodeFunc = func() *plan.Node

// columnarModes is the row-major-vs-columnar sweep every columnar
// benchmark runs; both sides run the same kernels, so the delta isolates
// the page encoding.
var columnarModes = []struct {
	name     string
	columnar bool
}{
	{"rowmajor", false},
	{"columnar", true},
}

// colHarness loads rels with the requested page layout and sets the
// engine's temp layout to match.
func colHarness(b *testing.B, frames int, columnar bool, rels ...*relation.Relation) *harness {
	b.Helper()
	if !columnar {
		return newHarness(b, frames, rels...)
	}
	return columnarHarness(b, frames, rels...)
}

// BenchmarkColumnarScan measures a selective scan (σ then full read)
// on a byte-coded predicate column, compared row by row over its
// decoded values.
func BenchmarkColumnarScan(b *testing.B) {
	rel := benchColRel("t", 40000)
	for _, mode := range columnarModes {
		b.Run(mode.name, func(b *testing.B) {
			h := colHarness(b, 8192, mode.columnar, rel)
			pb := h.builder()
			runPlanBench(b, h, func() *plan.Node {
				s, err := pb.Scan("t")
				if err != nil {
					b.Fatal(err)
				}
				sel, err := pb.Select(s, relation.Predicate{"Z": 3})
				if err != nil {
					b.Fatal(err)
				}
				return sel
			})
		})
	}
}

// BenchmarkColumnarJoin measures a hash join probing on a single
// run-length-coded key, resolved through the staged pass over its
// decoded values. The build side covers a quarter of the key domain, so
// most probes miss — the case where lookup cost (not output writing)
// dominates.
func BenchmarkColumnarJoin(b *testing.B) {
	l := benchColRel("l", 40000)
	r := relation.MustNew("r", []relation.Attr{{Name: "Y", Domain: 16}, {Name: "W", Domain: 4}})
	rng := rand.New(rand.NewSource(19))
	for y := 0; y < 4; y++ {
		for w := 0; w < 4; w++ {
			r.MustAppend([]int32{int32(y), int32(w)}, 0.1+rng.Float64())
		}
	}
	for _, mode := range columnarModes {
		b.Run(mode.name, func(b *testing.B) {
			h := colHarness(b, 8192, mode.columnar, l, r)
			pb := h.builder()
			runPlanBench(b, h, func() *plan.Node {
				sl, err := pb.Scan("l")
				if err != nil {
					b.Fatal(err)
				}
				sr, err := pb.Scan("r")
				if err != nil {
					b.Fatal(err)
				}
				return pb.Join(sl, sr)
			})
		})
	}
}

// BenchmarkColumnarJoinMultiCol measures a TWO-column join key where
// every probe row matches, so per-row key assembly and output writing
// dominate: the probe resolves each row's key from the decoded key
// columns and assembles output rows without gathering the full probe
// row.
func BenchmarkColumnarJoinMultiCol(b *testing.B) {
	l := benchColRel("l", 40000)
	// r covers the full (X mod 64, Y) key space, so every probe matches.
	r := relation.MustNew("r", []relation.Attr{{Name: "X", Domain: 40000/128 + 1}, {Name: "Y", Domain: 16}, {Name: "W", Domain: 4}})
	rng := rand.New(rand.NewSource(23))
	for x := 0; x < 40000/128+1; x++ {
		for y := 0; y < 16; y++ {
			r.MustAppend([]int32{int32(x), int32(y), int32((x + y) % 4)}, 0.1+rng.Float64())
		}
	}
	for _, mode := range columnarModes {
		b.Run(mode.name, func(b *testing.B) {
			h := colHarness(b, 8192, mode.columnar, l, r)
			pb := h.builder()
			runPlanBench(b, h, func() *plan.Node {
				sl, err := pb.Scan("l")
				if err != nil {
					b.Fatal(err)
				}
				sr, err := pb.Scan("r")
				if err != nil {
					b.Fatal(err)
				}
				return pb.Join(sl, sr)
			})
		})
	}
}

// BenchmarkColumnarFusedJoinGroupBy measures the fused join+aggregate
// on a run-length-coded join key, resolved and folded through the staged
// passes over its decoded values; the join output is never
// materialized.
func BenchmarkColumnarFusedJoinGroupBy(b *testing.B) {
	l := benchColRel("l", 40000)
	r := relation.MustNew("r", []relation.Attr{{Name: "Y", Domain: 16}, {Name: "W", Domain: 4}})
	rng := rand.New(rand.NewSource(29))
	for y := 0; y < 16; y++ {
		r.MustAppend([]int32{int32(y), int32(y % 4)}, 0.1+rng.Float64())
	}
	for _, mode := range columnarModes {
		b.Run(mode.name, func(b *testing.B) {
			h := colHarness(b, 8192, mode.columnar, l, r)
			h.engine.FuseJoinGroupBy = true
			pb := h.builder()
			runPlanBench(b, h, func() *plan.Node {
				sl, err := pb.Scan("l")
				if err != nil {
					b.Fatal(err)
				}
				sr, err := pb.Scan("r")
				if err != nil {
					b.Fatal(err)
				}
				g, err := pb.GroupBy(pb.Join(sl, sr), []string{"W"})
				if err != nil {
					b.Fatal(err)
				}
				return g
			})
		})
	}
}

// BenchmarkColumnarFusedJoinGroupByPlainKey is the fused kernel on the
// shape that dominates the supply-chain decision-support queries: a
// row-major probe whose 40 000-value join key never encodes (so every
// batch takes the staged resolve/slot/fold passes), unique build keys,
// and a group on a probe-side column. It reports ns per probe row.
func BenchmarkColumnarFusedJoinGroupByPlainKey(b *testing.B) {
	const rows, keys, groups = 200000, 40000, 2000
	rng := rand.New(rand.NewSource(31))
	probe := relation.MustNew("loc", []relation.Attr{{Name: "P", Domain: keys}, {Name: "W", Domain: groups}})
	seen := make(map[[2]int32]bool, rows)
	for probe.Len() < rows {
		k := [2]int32{rng.Int31n(keys), rng.Int31n(groups)}
		if !seen[k] {
			seen[k] = true
			probe.MustAppend(k[:], 1+49*rng.Float64())
		}
	}
	build := relation.MustNew("con", []relation.Attr{{Name: "P", Domain: keys}})
	for p := 0; p < keys; p++ {
		if rng.Intn(8) < 5 { // about 25 000 of the 40 000 keys, as γ(contracts)
			build.MustAppend([]int32{int32(p)}, 1+99*rng.Float64())
		}
	}
	b.Run("rowmajor", func(b *testing.B) {
		h := newHarness(b, 8192, probe, build)
		h.engine.FuseJoinGroupBy = true
		pb := h.builder()
		runPlanBench(b, h, func() *plan.Node {
			g, err := pb.GroupBy(pb.Join(mustScan(pb, "loc"), mustScan(pb, "con")), []string{"W"})
			if err != nil {
				b.Fatal(err)
			}
			return g
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	})
}

// BenchmarkColumnarGroupBy measures hash aggregation on a byte-coded
// group key: the staged slot and fold passes over the key's flat view
// (DESIGN.md, "Batch execution").
func BenchmarkColumnarGroupBy(b *testing.B) {
	rel := benchColRel("t", 40000)
	for _, mode := range columnarModes {
		b.Run(mode.name, func(b *testing.B) {
			h := colHarness(b, 8192, mode.columnar, rel)
			pb := h.builder()
			runPlanBench(b, h, func() *plan.Node {
				s, err := pb.Scan("t")
				if err != nil {
					b.Fatal(err)
				}
				g, err := pb.GroupBy(s, []string{"Z"})
				if err != nil {
					b.Fatal(err)
				}
				return g
			})
		})
	}
}
