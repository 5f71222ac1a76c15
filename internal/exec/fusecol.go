package exec

// Fused join+aggregate over encoded batches: the executor's one hot
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
// of at most one leaf folds in plain scan order.
//
// Inside a leaf the kernel consumes ENCODED probe batches and never
// materializes probe rows — the only probe columns ever decoded are the
// ones feeding the join key or the group key. A single-column RLE key
// probes the build table once per run and folds aggregates
// run-at-a-time: within a key run, a
// maximal sub-span over which every probe-side group column is constant
// contributes to each matching build row's group with ONE key lookup,
// and its measure vector folds through absorbMulSpan (collapsing
// repeated measures in O(1) when the semiring's RunFolder proves it
// exact — fold.go). Every other key takes the staged resolve/slot/fold
// passes of DESIGN.md, "Batch execution".
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

// fusedColBatch is the encoded-batch fused join+aggregate (see the file
// comment). l and r are the join's inputs in output-schema order;
// build/probe are the same two tables in build order, and groupCols
// index the virtual join output (l's columns, then r's rExtra columns).
func (e *Engine) fusedColBatch(ctx context.Context, l, r, build, probe *Table, buildCols, probeCols, rExtra, groupCols []int, aggAttrs []relation.Attr, buildIsLeft bool, st *RunStats) (*Table, error) {
	hb, err := e.buildBatch(ctx, build, buildCols, st)
	if err != nil {
		return nil, err
	}
	rf := e.runFolder()
	nl := len(l.Attrs)

	// Split the group columns by source side. A join-output position
	// g < nl reads the left relation's column g; g >= nl reads r's
	// column rExtra[g-nl]. pgCols/bgCols are the probe-/build-side source
	// columns, pgPos/bgPos their positions in the group key.
	var pgPos, pgCols, bgPos, bgCols []int
	for k, g := range groupCols {
		src := g
		if g >= nl {
			src = rExtra[g-nl]
		}
		if (buildIsLeft && g >= nl) || (!buildIsLeft && g < nl) {
			pgPos = append(pgPos, k)
			pgCols = append(pgCols, src)
		} else {
			bgPos = append(bgPos, k)
			bgCols = append(bgCols, src)
		}
	}
	single := len(probeCols) == 1
	// safe caches, per build key group, whether span folding preserves
	// the per-row accumulation order: it does when every matching
	// build row lands in a distinct aggregation group (always true for
	// single-row matches). 0 = unknown, 1 = span-safe, 2 = per-row.
	// Leaves share the cache; the verdict is a function of the build
	// table alone, so racing leaves store the same value.
	var safe []atomic.Int32
	if hb.off != nil { // unique build keys never consult it
		safe = make([]atomic.Int32, hb.idx.len())
	}
	spanSafe := func(rows rowSpan, gi int) bool {
		if rows.len() == 1 {
			return true
		}
		if s := safe[gi].Load(); s != 0 {
			return s == 1
		}
		for i := rows.lo + 1; i < rows.hi; i++ {
			for j := rows.lo; j < i; j++ {
				same := true
				for _, c := range bgCols {
					if hb.row(i)[c] != hb.row(j)[c] {
						same = false
						break
					}
				}
				if same {
					safe[gi].Store(2)
					return false
				}
			}
		}
		safe[gi].Store(1)
		return true
	}
	oneKey := len(groupCols) == 1

	// probeLeaf folds one leaf of the probe — the batches of it — into
	// agg. All scratch state is the leaf's own; hb and safe are shared.
	probeLeaf := func(it *storage.ColBatchIterator, agg *batchAgg, lb *leafBudget) error {
		probeKey := make([]int32, len(probeCols))
		groupKey := make([]int32, len(groupCols))
		var pgfBuf, kfBuf [][]int32
		var sc foldScratch
		for {
			cb, ok := it.Next()
			if !ok {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			st.addBatches(1)
			n := cb.Len()
			pgfDone := false
			groupFlats := func() [][]int32 { // probe-side group columns, flattened on first match
				if !pgfDone {
					pgfBuf = pgfBuf[:0]
					for _, c := range pgCols {
						pgfBuf = append(pgfBuf, cb.Cols[c].Flat())
					}
					pgfDone = true
				}
				return pgfBuf
			}
			// setGroupKey fills the group key for probe row i and build row r.
			setGroupKey := func(pf [][]int32, i int, r int32) {
				for k := range pf {
					groupKey[pgPos[k]] = pf[k][i]
				}
				bv := hb.row(r)
				for k, c := range bgCols {
					groupKey[bgPos[k]] = bv[c]
				}
			}
			// foldMatches is the slot and fold passes over rows i0+j whose
			// build key groups the resolve pass left in at (−1 on a miss):
			// it walks the (row, build row) pairs in row order — a
			// one-column group key is gathered and slotted per chunk
			// (batchAgg.slotCol), wider keys are slotted per pair — and
			// folds the scratch in one batch call whenever it fills, and
			// at the end.
			foldMatches := func(i0 int, at []int32) {
				np, created := 0, false
				var pf [][]int32
				for j, gi := range at {
					if gi < 0 {
						continue
					}
					if pf == nil {
						pf = groupFlats()
					}
					i := i0 + j
					pm := cb.Measures[i]
					rows := hb.span(gi)
					for r := rows.lo; r < rows.hi; r++ {
						if np == foldChunk {
							sc.foldPairs(e, agg, np, oneKey, created, buildIsLeft)
							np, created = 0, false
						}
						switch {
						case oneKey && len(pgCols) == 1:
							sc.keys[np] = pf[0][i]
						case oneKey:
							sc.keys[np] = hb.row(r)[bgCols[0]]
						default:
							setGroupKey(pf, i, r)
							sc.slots[np], sc.first[np] = agg.group(groupKey)
							created = created || sc.first[np]
						}
						sc.a[np], sc.b[np] = hb.meas[r], pm
						np++
					}
				}
				sc.foldPairs(e, agg, np, oneKey, created, buildIsLeft)
			}
			// Only a single-column key can use its encoding; wider keys
			// take the plain path whatever their columns' encodings.
			if single && cb.Cols[probeCols[0]].Enc == storage.EncRLE {
				i := 0
				for _, run := range cb.Cols[probeCols[0]].Runs {
					probeKey[0] = run.Val
					rows, gi := hb.lookup(probeKey)
					if rows.len() == 0 {
						i += run.Len
						continue
					}
					end := i + run.Len
					if spanSafe(rows, gi) {
						pf := groupFlats()
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
								setGroupKey(pf, s, r)
								agg.absorbMulSpan(e, rf, groupKey, hb.meas[r], buildIsLeft, cb.Measures[s:t], &sc)
							}
							s = t
						}
					} else {
						// Every row of the run matches key group gi.
						for i0 := i; i0 < end; i0 += foldChunk {
							at := sc.at[:min(foldChunk, end-i0)]
							for j := range at {
								at[j] = int32(gi)
							}
							foldMatches(i0, at)
						}
					}
					i = end
				}
			} else {
				// Every other key: resolve a chunk of rows to build key
				// groups over the flattened key columns (probe rows are
				// never fully gathered), then slot and fold its matches.
				kfBuf = kfBuf[:0]
				for _, c := range probeCols {
					kfBuf = append(kfBuf, cb.Cols[c].Flat())
				}
				for i0 := 0; i0 < n; i0 += foldChunk {
					at := sc.at[:min(foldChunk, n-i0)]
					hb.idx.getRows(kfBuf, i0, at, probeKey)
					foldMatches(i0, at)
				}
			}
			if err := lb.check(agg); err != nil {
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
