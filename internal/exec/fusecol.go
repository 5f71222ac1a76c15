package exec

// Fused join+aggregate over encoded batches. The kernel consumes ENCODED
// probe batches and never materializes probe rows or the join output —
// the only probe columns ever decoded are the ones feeding the join key
// or the group key. Per batch it probes the build table once per RLE key
// run (or once per distinct byte/dict code, memoized), and folds
// aggregates run-at-a-time: within a key run, a maximal sub-span over
// which every probe-side group column is constant contributes to each
// matching build row's group with ONE key encode + ONE slot lookup, and
// its measure vector folds through absorbMulSpan (collapsing repeated
// measures in O(1) when the semiring's RunFolder proves it exact —
// fold.go).
//
// Byte-identity across page layouts: spans fold each build row's
// contributions in probe-row order, and span folding is used only when
// every matching build row lands in a DISTINCT aggregation group (or
// there is just one match) — otherwise two build rows would interleave
// into one accumulator under per-row absorption, which is then used
// instead. Group creation therefore happens in probe-row first-touch
// order and every accumulator sees the per-row Add sequence, so results
// are byte-identical whatever the encoding, float order included.

import (
	"context"
	"encoding/binary"
	"math"

	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// absorbMulSpan folds a probe measure span into the group keyed by
// buf[:n]: each row contributes Mul(build measure, row measure) (in the
// join's left/right argument order) and spans of bit-identical measures
// collapse through the RunFolder when exact. The Add sequence equals
// per-row absorbs for this (group, span) pair exactly.
func (a *batchAgg) absorbMulSpan(e *Engine, rf semiring.RunFolder, buf []byte, n int, row []int32, cols []int, bm float64, buildIsLeft bool, meas []float64) {
	mul := func(m float64) float64 {
		if buildIsLeft {
			return e.Sr.Mul(bm, m)
		}
		return e.Sr.Mul(m, bm)
	}
	gi, seen := a.idx.get(buf, n)
	i := 0
	if !seen {
		gi = len(a.meas)
		for _, c := range cols {
			a.vals = append(a.vals, row[c])
		}
		a.meas = append(a.meas, mul(meas[0]))
		a.idx.put(buf, n, gi)
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
// build/probe are the same two tables in build order, groupCols index
// the virtual join output, and outArity is its width.
func (e *Engine) fusedColBatch(ctx context.Context, l, r, build, probe *Table, buildCols, probeCols, rExtra, groupCols []int, aggAttrs []relation.Attr, buildIsLeft bool, outArity int, st *RunStats) (*Table, error) {
	hb, err := e.buildBatch(ctx, build, buildCols, st)
	if err != nil {
		return nil, err
	}
	agg := newBatchAgg(len(groupCols))
	rf := e.runFolder()
	nl := len(l.Attrs)

	// Split the group columns by source side. A join-output position
	// g < nl reads the left relation's column g; g >= nl reads r's
	// column rExtra[g-nl]. pg* index the probe side, bg* the build side;
	// rowBuf only ever has its groupCols positions written and read.
	var pgJoin, pgCols, bgJoin, bgCols []int
	for _, g := range groupCols {
		src := g
		if g >= nl {
			src = rExtra[g-nl]
		}
		if (buildIsLeft && g >= nl) || (!buildIsLeft && g < nl) {
			pgJoin = append(pgJoin, g)
			pgCols = append(pgCols, src)
		} else {
			bgJoin = append(bgJoin, g)
			bgCols = append(bgCols, src)
		}
	}
	probeBuf := keyBufFor(probeCols)
	groupBuf := keyBufFor(groupCols)
	rowBuf := make([]int32, outArity)
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
	safe := make([]int8, len(hb.groups))
	spanSafe := func(rows []buildRow, gi int) bool {
		if len(rows) == 1 {
			return true
		}
		if s := safe[gi]; s != 0 {
			return s == 1
		}
		for i := 1; i < len(rows); i++ {
			for j := 0; j < i; j++ {
				same := true
				for _, c := range bgCols {
					if rows[i].vals[c] != rows[j].vals[c] {
						same = false
						break
					}
				}
				if same {
					safe[gi] = 2
					return false
				}
			}
		}
		safe[gi] = 1
		return true
	}
	mul := func(bm, pm float64) float64 {
		if buildIsLeft {
			return e.Sr.Mul(bm, pm)
		}
		return e.Sr.Mul(pm, bm)
	}
	lookup1 := func(val int32) ([]buildRow, int) {
		binary.LittleEndian.PutUint32(probeBuf, uint32(val))
		return hb.lookupIdx(probeBuf, 4)
	}

	var pgfBuf, kfBuf [][]int32
	var memoRows [256][]buildRow
	var memoSet [256]bool
	var slotMemo [256]int32 // group slot + 1 per code, per batch
	it := e.scanCB(ctx, probe.Heap)
	defer it.Close()
	for {
		cb, ok := it.Next()
		if !ok {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
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
		absorbOne := func(rows []buildRow, i int, pf [][]int32, pm float64) {
			for k := range pf {
				rowBuf[pgJoin[k]] = pf[k][i]
			}
			for _, br := range rows {
				for k, c := range bgCols {
					rowBuf[bgJoin[k]] = br.vals[c]
				}
				gn := encodeKey(rowBuf, groupCols, groupBuf)
				agg.absorb(e, groupBuf, gn, rowBuf, groupCols, mul(br.measure, pm))
			}
		}
		if single {
			v := &cb.Cols[probeCols[0]]
			switch v.Enc {
			case storage.EncRLE:
				i := 0
				for _, run := range v.Runs {
					rows, gi := lookup1(run.Val)
					if len(rows) == 0 {
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
							for k := range pf {
								rowBuf[pgJoin[k]] = pf[k][s]
							}
							for _, br := range rows {
								for k, c := range bgCols {
									rowBuf[bgJoin[k]] = br.vals[c]
								}
								gn := encodeKey(rowBuf, groupCols, groupBuf)
								agg.absorbMulSpan(e, rf, groupBuf, gn, rowBuf, groupCols, br.measure, buildIsLeft, cb.Measures[s:t])
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
				continue
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
					if len(rows) == 0 {
						continue
					}
					if pgOnlyKey && len(rows) == 1 {
						if sm := slotMemo[code]; sm != 0 {
							agg.meas[sm-1] = e.Sr.Add(agg.meas[sm-1], mul(rows[0].measure, cb.Measures[i]))
							continue
						}
						pf := groupFlats()
						for k := range pf {
							rowBuf[pgJoin[k]] = pf[k][i]
						}
						br := rows[0]
						for k, c := range bgCols {
							rowBuf[bgJoin[k]] = br.vals[c]
						}
						gn := encodeKey(rowBuf, groupCols, groupBuf)
						slotMemo[code] = int32(agg.absorb(e, groupBuf, gn, rowBuf, groupCols, mul(br.measure, cb.Measures[i]))) + 1
						continue
					}
					absorbOne(rows, i, groupFlats(), cb.Measures[i])
				}
				continue
			}
		}
		// Multi-column or plain-encoded keys: encode the probe key from
		// the flattened key columns; probe rows are never fully gathered.
		kfBuf = kfBuf[:0]
		for _, c := range probeCols {
			kfBuf = append(kfBuf, cb.Cols[c].Flat())
		}
		for i := 0; i < n; i++ {
			for k := range kfBuf {
				binary.LittleEndian.PutUint32(probeBuf[4*k:], uint32(kfBuf[k][i]))
			}
			rows, _ := hb.lookupIdx(probeBuf, 4*len(probeCols))
			if len(rows) == 0 {
				continue
			}
			absorbOne(rows, i, groupFlats(), cb.Measures[i])
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	out, err := e.newOutTemp(ctx, "γ⋈("+l.Name+","+r.Name+")", aggAttrs)
	if err != nil {
		return nil, err
	}
	if err := agg.emit(ctx, out, false, st); err != nil {
		out.Drop()
		return nil, err
	}
	return out, nil
}
