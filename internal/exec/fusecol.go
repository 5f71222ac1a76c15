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
// ones feeding the join key or the group key. Per batch it probes the
// build table once per RLE key run (or once per distinct byte/dict code,
// memoized), and folds aggregates run-at-a-time: within a key run, a
// maximal sub-span over which every probe-side group column is constant
// contributes to each matching build row's group with ONE key lookup,
// and its measure vector folds through absorbMulSpan (collapsing
// repeated measures in O(1) when the semiring's RunFolder proves it
// exact — fold.go).
//
// Byte-identity across page layouts within a leaf: spans fold each build
// row's contributions in probe-row order, and span folding is used only
// when every matching build row lands in a DISTINCT aggregation group
// (or there is just one match) — otherwise two build rows would
// interleave into one accumulator under per-row absorption, which is
// then used instead. Group creation therefore happens in probe-row
// first-touch order and every accumulator sees the per-row Add sequence,
// whatever the encoding.

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
// collapse through the RunFolder when exact. The Add sequence equals
// per-row absorbs for this (group, span) pair exactly.
func (a *batchAgg) absorbMulSpan(e *Engine, rf semiring.RunFolder, key []int32, bm float64, buildIsLeft bool, meas []float64) {
	mul := func(m float64) float64 {
		if buildIsLeft {
			return e.Sr.Mul(bm, m)
		}
		return e.Sr.Mul(m, bm)
	}
	gi, added := a.group(key)
	i := 0
	if added {
		a.meas[gi] = mul(meas[0])
		i = 1
	}
	acc := a.meas[gi]
	for i < len(meas) {
		m := meas[i]
		j := i + 1
		mb := math.Float64bits(m)
		for j < len(meas) && math.Float64bits(meas[j]) == mb {
			j++
		}
		mm := mul(m)
		if k := j - i; k > 1 && rf != nil {
			if res, ok := rf.FoldAdd(acc, mm, k); ok {
				acc, i = res, j
				continue
			}
		}
		for ; i < j; i++ {
			acc = e.Sr.Add(acc, mm)
		}
	}
	a.meas[gi] = acc
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
	// pgOnlyKey: the group key is a function of the join-key value and
	// the build row alone, so byte/dict batches can memoize the group
	// slot per code for single-match keys.
	pgOnlyKey := single
	for _, c := range pgCols {
		if pgOnlyKey && c != probeCols[0] { // probeCols is empty on a key-less join
			pgOnlyKey = false
		}
	}

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
	mul := func(bm, pm float64) float64 {
		if buildIsLeft {
			return e.Sr.Mul(bm, pm)
		}
		return e.Sr.Mul(pm, bm)
	}

	// probeLeaf folds one leaf of the probe — the batches of it — into
	// agg. All scratch state is the leaf's own; hb and safe are shared.
	probeLeaf := func(it *storage.ColBatchIterator, agg *batchAgg, lb *leafBudget) error {
		probeKey := make([]int32, len(probeCols))
		groupKey := make([]int32, len(groupCols))
		var pgfBuf, kfBuf [][]int32
		var memoRows [256]rowSpan
		var memoSet [256]bool
		var slotMemo [256]int32 // group slot + 1 per code, per batch
		lookup1 := func(val int32) (rowSpan, int) {
			probeKey[0] = val
			return hb.lookup(probeKey)
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
			absorbOne := func(rows rowSpan, i int, pf [][]int32, pm float64) {
				for r := rows.lo; r < rows.hi; r++ {
					setGroupKey(pf, i, r)
					agg.absorb(e, groupKey, mul(hb.meas[r], pm))
				}
			}
			// Only a single-column key can use its encoding; wider keys
			// take the plain path whatever their columns' encodings.
			var v *storage.ColView
			enc := storage.EncPlain
			if single {
				v = &cb.Cols[probeCols[0]]
				enc = v.Enc
			}
			switch enc {
			case storage.EncRLE:
				i := 0
				for _, run := range v.Runs {
					rows, gi := lookup1(run.Val)
					if rows.len() == 0 {
						i += run.Len
						continue
					}
					end := i + run.Len
					pf := groupFlats()
					if spanSafe(rows, gi) {
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
								agg.absorbMulSpan(e, rf, groupKey, hb.meas[r], buildIsLeft, cb.Measures[s:t])
							}
							s = t
						}
					} else {
						for j := i; j < end; j++ {
							absorbOne(rows, j, pf, cb.Measures[j])
						}
					}
					i = end
				}
			case storage.EncByte, storage.EncDict:
				ncodes := len(v.Dict)
				if v.Enc == storage.EncByte {
					ncodes = 256
				}
				for c := 0; c < ncodes; c++ {
					memoSet[c] = false
					slotMemo[c] = 0
				}
				for i := 0; i < n; i++ {
					code := v.Codes[i]
					if !memoSet[code] {
						val := int32(code)
						if v.Enc == storage.EncDict {
							val = v.Dict[code]
						}
						memoRows[code], _ = lookup1(val)
						memoSet[code] = true
					}
					rows := memoRows[code]
					if rows.len() == 0 {
						continue
					}
					if pgOnlyKey && rows.len() == 1 {
						m := mul(hb.meas[rows.lo], cb.Measures[i])
						if sm := slotMemo[code]; sm != 0 {
							agg.meas[sm-1] = e.Sr.Add(agg.meas[sm-1], m)
							continue
						}
						setGroupKey(groupFlats(), i, rows.lo)
						slotMemo[code] = int32(agg.absorb(e, groupKey, m)) + 1
						continue
					}
					absorbOne(rows, i, groupFlats(), cb.Measures[i])
				}
			default:
				// Multi-column or plain-encoded keys: gather the probe key
				// from the flattened key columns; probe rows are never
				// fully gathered.
				kfBuf = kfBuf[:0]
				for _, c := range probeCols {
					kfBuf = append(kfBuf, cb.Cols[c].Flat())
				}
				for i := 0; i < n; i++ {
					for k := range kfBuf {
						probeKey[k] = kfBuf[k][i]
					}
					rows, _ := hb.lookup(probeKey)
					if rows.len() == 0 {
						continue
					}
					absorbOne(rows, i, groupFlats(), cb.Measures[i])
				}
			}
			if err := lb.check(agg); err != nil {
				return err
			}
		}
	}
	agg, err := e.foldLeaves(ctx, "FusedProbe", probe.Heap, len(groupCols), st, probeLeaf)
	if err != nil {
		return nil, err
	}
	return e.emitAgg(ctx, agg, "γ⋈("+l.Name+","+r.Name+")", aggAttrs, st)
}
