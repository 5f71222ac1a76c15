package exec

// Fused join+aggregate over column batches: the executor's one hot
// kernel on decision-support plans, where every pushed-down
// marginalisation is a GroupBy(Join(…)).
//
// Build once, probe in leaves. The build side is hashed into a
// read-only hashBuild. The probe heap is cut into leaves — fixed ranges
// of leafPages pages, a function of its page count alone — and each leaf
// is one "FusedProbe" morsel on the run's scheduler with its own
// aggregation state; foldLeaves merges the leaf aggregates in leaf
// order. The contract is "fold order = leaf order, leaves = fixed page
// ranges": serial execution runs the same leaves in the same order, so
// the answer is bit-identical at every Parallelism and over every page
// layout, and no join output or partition is ever materialized. A probe
// of at most one leaf folds in plain scan order. A pipelined probe
// (pipe.go) is a Select or join output that is never materialized
// either: its leaves are those of the heap it streams, and each leaf
// runs the stage over its batches and folds the stage's output chunks
// here as plain batches.
//
// Inside a leaf the kernel reads only the probe columns feeding the
// join key or the group key, decoded (ColView.Flat), and never
// materializes probe rows: a chunk of rows resolves to build key groups,
// then the matches are slotted and folded (DESIGN.md, "Batch
// execution"). The one exception is a single-column join key that
// run-length encodes (ColView.Runs): it probes the build table once per
// run, and within a run a maximal sub-span over which every probe-side
// group column is constant contributes to each matching build row's
// group with ONE key lookup, its measure vector folding through
// absorbMulSpan (collapsing repeated measures in O(1) when the
// semiring's RunFolder proves it exact). It is the only encoding-aware
// kernel left; rleBatch gives the measurements it is kept on.
//
// Byte-identity across page layouts within a leaf: spans fold each build
// row's contributions in probe-row order, and span folding is used only
// when every matching build row lands in a DISTINCT aggregation group
// (or there is just one match) — otherwise two build rows would
// interleave into one accumulator, and the run's rows take the staged
// slot and fold passes instead. Group creation therefore happens in
// probe-row first-touch order and every accumulator sees the per-row
// Add sequence, whatever the encoding, through the same batch fold.

import (
	"context"
	"math"
	"sync/atomic"

	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// absorbMulSpan folds a probe measure span into the group with the given
// key: each row contributes Mul(build measure, row measure) (in the
// join's left/right argument order) and spans of bit-identical measures
// collapse through the RunFolder when exact. Products and element-wise
// Adds go through the batch fold, as on every other path, so the Add
// sequence and its bits equal per-row folding of this (group, span)
// pair exactly. sc.a is scratch.
func (a *batchAgg) absorbMulSpan(e *Engine, rf semiring.RunFolder, key []int32, bm float64, buildIsLeft bool, meas []float64, sc *foldScratch) {
	bms := sc.a[:min(len(meas), foldChunk)]
	for j := range bms {
		bms[j] = bm
	}
	// mulAdd folds Mul(bm, m) for every m of ms into dst[0], storing the
	// first product when first.
	mulAdd := func(dst []float64, ms []float64, first bool) {
		f := [1]bool{true}
		for len(ms) > 0 {
			n := min(len(ms), foldChunk)
			var fs []bool
			if first {
				n, fs = 1, f[:]
			}
			l, r := bms[:n], ms[:n]
			if !buildIsLeft {
				l, r = r, l
			}
			semiring.MulAddAt(e.Sr, dst, zeroSlots[:n], l, r, fs)
			ms, first = ms[n:], false
		}
	}
	gi, added := a.group(key)
	acc := [1]float64{a.meas[gi]}
	i := 0
	if added {
		mulAdd(acc[:], meas[:1], true)
		i = 1
	}
	for i < len(meas) {
		j := len(meas)
		if rf != nil {
			mb := math.Float64bits(meas[i])
			for j = i + 1; j < len(meas) && math.Float64bits(meas[j]) == mb; j++ {
			}
			if j-i > 1 {
				var mm [1]float64
				mulAdd(mm[:], meas[i:i+1], true)
				if res, ok := rf.FoldAdd(acc[0], mm[0], j-i); ok {
					acc[0], i = res, j
					continue
				}
			}
		}
		mulAdd(acc[:], meas[i:j], false)
		i = j
	}
	a.meas[gi] = acc[0]
}

// fusedProbe is the shared state of one fused join+aggregate probe:
// the build table, where the group key's columns come from, and the
// span-safety memo. Leaves share it; each folds through a fusedLeaf of
// its own.
type fusedProbe struct {
	e           *Engine
	rf          semiring.RunFolder
	hb          *hashBuild
	probeCols   []int // the join key's columns in the probe
	buildIsLeft bool
	// pgCols/bgCols are the probe-/build-side source columns of the
	// group key, pgPos/bgPos their positions in it.
	pgPos, pgCols, bgPos, bgCols []int
	groupArity                   int
	// safe caches, per build key group, whether span folding preserves
	// the per-row accumulation order: it does when every matching
	// build row lands in a distinct aggregation group (always true for
	// single-row matches). 0 = unknown, 1 = span-safe, 2 = per-row.
	// Leaves share the cache; the verdict is a function of the build
	// table alone, so racing leaves store the same value.
	safe []atomic.Int32
	// need marks the probe columns the kernel reads: the join key and
	// the probe side of the group key.
	need []bool
}

// fusedLeaf is one leaf's fold of a fused probe into agg, with the
// leaf's own scratch.
type fusedLeaf struct {
	*fusedProbe
	agg      *batchAgg
	probeKey []int32
	groupKey []int32
	kf, pf   [][]int32 // flattened join key / probe-side group columns
	pfDone   bool      // pf holds the current batch's columns
	wide     [][]int32 // a chunk's group keys, one column per key column (groupArity > 1)
	sc       foldScratch
}

// leaf returns the fold of one leaf into agg.
func (p *fusedProbe) leaf(agg *batchAgg) *fusedLeaf {
	f := &fusedLeaf{fusedProbe: p, agg: agg, probeKey: make([]int32, len(p.probeCols)), groupKey: make([]int32, p.groupArity)}
	if p.groupArity > 1 {
		f.wide = make([][]int32, p.groupArity)
		for k := range f.wide {
			f.wide[k] = make([]int32, foldChunk)
		}
	}
	return f
}

// spanSafe reports whether the build rows of key group gi may fold
// span-at-a-time (see safe).
func (p *fusedProbe) spanSafe(rows rowSpan, gi int) bool {
	if rows.len() == 1 {
		return true
	}
	if s := p.safe[gi].Load(); s != 0 {
		return s == 1
	}
	hb := p.hb
	for i := rows.lo + 1; i < rows.hi; i++ {
		for j := rows.lo; j < i; j++ {
			same := true
			for _, c := range p.bgCols {
				if hb.row(i)[c] != hb.row(j)[c] {
					same = false
					break
				}
			}
			if same {
				p.safe[gi].Store(2)
				return false
			}
		}
	}
	p.safe[gi].Store(1)
	return true
}

// groupFlats returns the batch's probe-side group columns, flattened on
// first use within the batch.
func (f *fusedLeaf) groupFlats(cb *storage.ColBatch) [][]int32 {
	if !f.pfDone {
		f.pf = flatCols(cb, f.pgCols, f.pf)
		f.pfDone = true
	}
	return f.pf
}

// setGroupKey fills the group key for probe row i and build row r.
func (f *fusedLeaf) setGroupKey(pf [][]int32, i int, r int32) {
	for k := range pf {
		f.groupKey[f.pgPos[k]] = pf[k][i]
	}
	bv := f.hb.row(r)
	for k, c := range f.bgCols {
		f.groupKey[f.bgPos[k]] = bv[c]
	}
}

// batch folds one probe batch into the leaf's aggregate. A
// single-column RLE join key probes once per run and folds span-safe
// runs span-at-a-time; every other key resolves a chunk of rows to
// build key groups over the flattened key columns (probe rows are never
// fully gathered), then slots and folds the chunk's matches.
func (f *fusedLeaf) batch(cb *storage.ColBatch) {
	f.pfDone = false
	if len(f.probeCols) == 1 {
		if runs := cb.Cols[f.probeCols[0]].Runs(); runs != nil {
			f.rleBatch(cb, runs)
			return
		}
	}
	f.kf = flatCols(cb, f.probeCols, f.kf)
	n := cb.Len()
	for i0 := 0; i0 < n; i0 += foldChunk {
		at := f.sc.at[:min(foldChunk, n-i0)]
		f.hb.idx.getRows(f.kf, i0, at, f.probeKey)
		f.foldMatches(cb, i0, at)
	}
}

// rleBatch is batch over a single-column run-length-encoded join key.
// Within a key run, a maximal sub-span over which every probe-side
// group column is constant contributes to each matching build row's
// group with one key lookup, its measures folding through
// absorbMulSpan — when the run's build rows are span-safe; otherwise the
// run's rows take the staged slot and fold passes. It is kept on a
// 4-pair ds_adhoc run (10 s runs, 2-CPU machine) in which routing these
// batches through the staged passes instead cost 6.8 % of
// queries_per_s, every pair lost. Later measurements read the other
// way — a 10-pair ds_adhoc run +7.4 % queries_per_s (8 of 10 pairs won)
// and BenchmarkColumnarFusedJoinGroupBy/columnar about 30 % faster
// without it — so whether it stays is open (ROADMAP item 4(b″)).
func (f *fusedLeaf) rleBatch(cb *storage.ColBatch, runs []storage.ColRun) {
	i := 0
	for _, run := range runs {
		f.probeKey[0] = run.Val
		rows, gi := f.hb.lookup(f.probeKey)
		if rows.len() == 0 {
			i += run.Len
			continue
		}
		end := i + run.Len
		if f.spanSafe(rows, gi) {
			pf := f.groupFlats(cb)
			for s := i; s < end; {
				t := s + 1
			extend:
				for t < end {
					for k := range pf {
						if pf[k][t] != pf[k][s] {
							break extend
						}
					}
					t++
				}
				for r := rows.lo; r < rows.hi; r++ {
					f.setGroupKey(pf, s, r)
					f.agg.absorbMulSpan(f.e, f.rf, f.groupKey, f.hb.meas[r], f.buildIsLeft, cb.Measures[s:t], &f.sc)
				}
				s = t
			}
		} else {
			// Every row of the run matches key group gi.
			for i0 := i; i0 < end; i0 += foldChunk {
				at := f.sc.at[:min(foldChunk, end-i0)]
				for j := range at {
					at[j] = int32(gi)
				}
				f.foldMatches(cb, i0, at)
			}
		}
		i = end
	}
}

// foldMatches is the slot and fold passes over rows i0+j of cb whose
// build key groups the resolve pass left in at (−1 on a miss): it walks
// the (row, build row) pairs in row order, gathering each pair's group
// key and its two measures, and slots and folds the gathered pairs in
// one pass each whenever a chunk's worth is gathered, and at the end.
// Unique build keys with a one-column probe-side group key take a
// one-pair-per-row loop.
func (f *fusedLeaf) foldMatches(cb *storage.ColBatch, i0 int, at []int32) {
	sc, hb := &f.sc, f.hb
	np := 0
	if hb.off == nil && f.groupArity == 1 && len(f.pgCols) == 1 {
		// Each matching row is one pair, and len(at) ≤ foldChunk.
		var keys []int32 // flattened on the first match
		meas := cb.Measures[i0 : i0+len(at)]
		for j, gi := range at {
			if gi < 0 {
				continue
			}
			if keys == nil {
				keys = f.groupFlats(cb)[0][i0 : i0+len(at)]
			}
			sc.keys[np], sc.a[np], sc.b[np] = keys[j], hb.meas[gi], meas[j]
			np++
		}
		f.foldPairs(np)
		return
	}
	var pf [][]int32 // flattened on the first match: all-miss chunks skip decode
	for j, gi := range at {
		if gi < 0 {
			continue
		}
		if pf == nil {
			pf = f.groupFlats(cb)
		}
		i := i0 + j
		pm := cb.Measures[i]
		rows := hb.span(gi)
		for r := rows.lo; r < rows.hi; r++ {
			if np == foldChunk {
				f.foldPairs(np)
				np = 0
			}
			switch {
			case f.groupArity == 1 && len(f.pgCols) == 1:
				sc.keys[np] = pf[0][i]
			case f.groupArity == 1:
				sc.keys[np] = hb.row(r)[f.bgCols[0]]
			default:
				for k, col := range pf {
					f.wide[f.pgPos[k]][np] = col[i]
				}
				bv := hb.row(r)
				for k, c := range f.bgCols {
					f.wide[f.bgPos[k]][np] = bv[c]
				}
			}
			sc.a[np], sc.b[np] = hb.meas[r], pm
			np++
		}
	}
	f.foldPairs(np)
}

// foldPairs slots the first n gathered pairs' group keys — in pair
// order, a chunk at a time — and folds their products Mul(build, probe),
// in the join's left/right argument order, in one batch call.
func (f *fusedLeaf) foldPairs(n int) {
	if n == 0 {
		return
	}
	sc, agg := &f.sc, f.agg
	slots, first := sc.slots[:n], sc.first[:n]
	var created bool
	if f.groupArity == 1 {
		created = agg.slotCol(sc.keys[:n], slots, first)
	} else {
		created = agg.slotRows(f.wide, 0, slots, first, f.groupKey)
	}
	l, r := sc.a[:n], sc.b[:n]
	if !f.buildIsLeft {
		l, r = r, l
	}
	semiring.MulAddAt(f.e.Sr, agg.meas, slots, l, r, firstIf(created, first))
}

// fusedColBatch is the fused join+aggregate over column batches (see
// the file comment). l and r are the join's inputs in output-schema order;
// build/probe are the same two tables in build order, and groupCols
// index the virtual join output (l's columns, then r's rExtra columns).
// A non-nil stage pipelines the probe: its rows are those of probe.Heap
// through stage (pipe.go), never materialized, and the leaves are that
// heap's.
func (e *Engine) fusedColBatch(ctx context.Context, l, r, build, probe *Table, stage *pipeStage, buildCols, probeCols, rExtra, groupCols []int, aggAttrs []relation.Attr, buildIsLeft bool, st *RunStats) (*Table, error) {
	hb, err := e.buildBatch(ctx, build, buildCols, st)
	if err != nil {
		return nil, err
	}
	nl := len(l.Attrs)
	rf, _ := e.Sr.(semiring.RunFolder) // nil: spans fold row by row
	p := &fusedProbe{e: e, rf: rf, hb: hb, probeCols: probeCols, buildIsLeft: buildIsLeft, groupArity: len(groupCols),
		need: make([]bool, len(probe.Attrs))}
	// Split the group columns by source side. A join-output position
	// g < nl reads the left relation's column g; g >= nl reads r's
	// column rExtra[g-nl].
	for k, g := range groupCols {
		src := g
		if g >= nl {
			src = rExtra[g-nl]
		}
		if (buildIsLeft && g >= nl) || (!buildIsLeft && g < nl) {
			p.pgPos = append(p.pgPos, k)
			p.pgCols = append(p.pgCols, src)
			p.need[src] = true
		} else {
			p.bgPos = append(p.bgPos, k)
			p.bgCols = append(p.bgCols, src)
		}
	}
	for _, c := range probeCols {
		p.need[c] = true
	}
	if hb.off != nil { // unique build keys never consult it
		p.safe = make([]atomic.Int32, hb.idx.len())
	}

	// probeLeaf folds one leaf of the probe — the batches of it, or of
	// its streamed heap through the stage — into agg.
	probeLeaf := func(it *storage.ColBatchIterator, agg *batchAgg, lb *leafBudget) error {
		f := p.leaf(agg)
		var run *stageRun
		var emit func() error
		if stage != nil {
			run = stage.run()
			emit = func() error {
				f.batch(run.view(p.need))
				return nil
			}
			defer func() { stage.rows.Add(run.rows) }()
		}
		for {
			cb, ok := it.Next()
			if !ok {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			st.addBatches(1)
			if run == nil {
				f.batch(cb)
			} else if err := run.push(cb, emit); err != nil {
				return err
			}
			if err := lb.check(len(agg.meas)); err != nil {
				return err
			}
		}
	}
	agg, err := e.foldLeaves(ctx, "FusedProbe", probe.Heap, aggAttrs, st, probeLeaf)
	if err != nil {
		return nil, err
	}
	return e.emitAgg(ctx, agg, "γ⋈("+l.Name+","+r.Name+")", aggAttrs, st)
}
