package exec

// Encoded-batch operator kernels — the executor's only tier. They
// consume storage.ColBatch views and operate on the page encodings
// directly: an equality predicate is checked once per RLE run instead of
// once per row, a group-by or join probe looks a single-column key up
// once per RLE run, and selection and partitioning compare or hash
// byte/dictionary codes once per distinct code per batch. Row-major
// pages arrive as all-plain views (storage.ColBatchIterator does the
// transposition), so they take the same kernels through the plain
// branches. The canonical hash key is always the decoded column values
// through the keyIndex — per-page dictionary codes never key a table —
// so mixed columnar/row-major/fallback pages aggregate and join
// consistently. Every other key of the aggregating kernels and of the
// hash-join probe takes the staged resolve/slot/fold passes of
// DESIGN.md, "Batch execution". Selection and the in-memory join probe
// run as pipeline stages (pipe.go). Every kernel emits rows in scan
// order, and aggregation folds measures in row order — RLE runs
// collapse a measure span in O(1) only when the semiring proves the
// collapsed result bit-identical to the iterated fold (fold.go) — so
// results are byte-identical across page layouts, float accumulation
// order included.

import (
	"context"

	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// flatCols materializes every column of cb as a plain value slice
// (cached inside each view; a passthrough for plain columns), so gather
// loops index slices directly instead of switching on the encoding per
// value. Costs one decode pass per encoded column.
func flatCols(cb *storage.ColBatch, buf [][]int32) [][]int32 {
	buf = buf[:0]
	for c := range cb.Cols {
		buf = append(buf, cb.Cols[c].Flat())
	}
	return buf
}

// gatherRow copies row i of the flattened columns into dst.
func gatherRow(fs [][]int32, i int, dst []int32) {
	for c, f := range fs {
		dst[c] = f[i]
	}
}

// markMismatches clears mask entries whose value in v differs from want,
// using the encoding: whole RLE runs are accepted or rejected at once,
// and byte/dict views compare codes without decoding.
func markMismatches(v *storage.ColView, want int32, mask []bool) {
	switch v.Enc {
	case storage.EncRLE:
		i := 0
		for _, r := range v.Runs {
			if r.Val != want {
				for j := 0; j < r.Len; j++ {
					mask[i+j] = false
				}
			}
			i += r.Len
		}
	case storage.EncByte:
		if want < 0 || want > 255 {
			for i := range mask {
				mask[i] = false
			}
			return
		}
		wb := uint8(want)
		for i, c := range v.Codes {
			if c != wb {
				mask[i] = false
			}
		}
	case storage.EncDict:
		code := -1
		for d, dv := range v.Dict {
			if dv == want {
				code = d
				break
			}
		}
		if code < 0 {
			for i := range mask {
				mask[i] = false
			}
			return
		}
		wc := uint8(code)
		for i, c := range v.Codes {
			if c != wc {
				mask[i] = false
			}
		}
	default:
		for i, x := range v.Plain {
			if x != want {
				mask[i] = false
			}
		}
	}
}

// absorbRun folds one RLE run's measures into the group with the given
// key, in row order — one key lookup for the run, with spans of
// repeated measures collapsed in O(1) when the semiring's RunFolder
// proves the collapse bit-identical to the iterated per-row fold.
func (a *batchAgg) absorbRun(e *Engine, rf semiring.RunFolder, key []int32, meas []float64) {
	gi, added := a.group(key)
	if added {
		a.meas[gi], meas = meas[0], meas[1:]
	}
	a.meas[gi] = foldMeasures(e.Sr, rf, a.meas[gi], meas)
}

// aggregateColBatch is one leaf of the encoded hash aggregation: it
// folds the batches of it, grouped on cols, into agg. A single-column
// RLE key does one lookup per run; every other key runs the staged slot
// and fold passes over the flattened key columns.
func (e *Engine) aggregateColBatch(ctx context.Context, it *storage.ColBatchIterator, cols []int, agg *batchAgg, lb *leafBudget, st *RunStats) error {
	rf := e.runFolder()
	key := make([]int32, len(cols))
	kf := make([][]int32, 0, len(cols)) // flattened key columns
	single := len(cols) == 1
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
		if single {
			v := &cb.Cols[cols[0]]
			switch v.Enc {
			case storage.EncRLE:
				i := 0
				for _, r := range v.Runs {
					key[0] = r.Val
					agg.absorbRun(e, rf, key, cb.Measures[i:i+r.Len])
					i += r.Len
				}
			default:
				agg.foldRows(e, [][]int32{v.Flat()}, cb.Measures, key, &sc)
			}
		} else {
			// Only the key columns are read, so only they are flattened.
			kf = kf[:0]
			for _, c := range cols {
				kf = append(kf, cb.Cols[c].Flat())
			}
			agg.foldRows(e, kf, cb.Measures, key, &sc)
		}
		if err := lb.check(len(agg.meas)); err != nil {
			return err
		}
	}
}

// foldRows aggregates rows of flattened key columns kf with measures
// meas, a chunk at a time: the slot pass resolves every row's group,
// then one batch fold adds the chunk's measures in row order.
func (a *batchAgg) foldRows(e *Engine, kf [][]int32, meas []float64, key []int32, sc *foldScratch) {
	for i0 := 0; i0 < len(meas); i0 += foldChunk {
		n := min(foldChunk, len(meas)-i0)
		slots, first := sc.slots[:n], sc.first[:n]
		created := a.slotRows(kf, i0, slots, first, key)
		semiring.AddAt(e.Sr, a.meas, slots, meas[i0:i0+n], firstIf(created, first))
	}
}

// partitionColBatch is the encoded Grace partition pass: bucket numbers
// come from the encodings (one hash per RLE run, one per distinct
// byte/dict code per batch on single-column keys) while rows are
// gathered and routed in scan order, so every partition holds its rows
// in scan order whatever the page layout.
func (e *Engine) partitionColBatch(ctx context.Context, t *Table, cols []int, depth int, parts []*Table, st *RunStats) error {
	writers := make([]*batchWriter, len(parts))
	for i, p := range parts {
		writers[i] = newBatchWriter(p, false, st)
	}
	rowBuf := make([]int32, len(t.Attrs))
	fbuf := make([][]int32, 0, len(t.Attrs))
	single := len(cols) == 1
	var memo [256]int16 // bucket + 1 per code, per batch
	it := t.Heap.ScanColBatchesContext(ctx)
	defer it.Close()
	for {
		cb, ok := it.Next()
		if !ok {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		st.addBatches(1)
		fs := flatCols(cb, fbuf) // every row is routed, so decode up front
		fbuf = fs
		if single {
			c := cols[0]
			v := &cb.Cols[c]
			switch v.Enc {
			case storage.EncRLE:
				i := 0
				for _, r := range v.Runs {
					rowBuf[c] = r.Val
					w := writers[partitionHash(rowBuf, cols, depth)]
					for j := i; j < i+r.Len; j++ {
						gatherRow(fs, j, rowBuf)
						if err := w.append(rowBuf, cb.Measures[j]); err != nil {
							return err
						}
					}
					i += r.Len
				}
				continue
			case storage.EncByte, storage.EncDict:
				ncodes := len(v.Dict)
				if v.Enc == storage.EncByte {
					ncodes = 256
				}
				for i := 0; i < ncodes; i++ {
					memo[i] = 0
				}
				for i, code := range v.Codes {
					b := memo[code]
					if b == 0 {
						val := int32(code)
						if v.Enc == storage.EncDict {
							val = v.Dict[code]
						}
						rowBuf[c] = val
						b = int16(partitionHash(rowBuf, cols, depth)) + 1
						memo[code] = b
					}
					gatherRow(fs, i, rowBuf)
					if err := writers[b-1].append(rowBuf, cb.Measures[i]); err != nil {
						return err
					}
				}
				continue
			}
		}
		for i := 0; i < cb.Len(); i++ {
			gatherRow(fs, i, rowBuf)
			w := writers[partitionHash(rowBuf, cols, depth)]
			if err := w.append(rowBuf, cb.Measures[i]); err != nil {
				return err
			}
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	for _, w := range writers {
		if err := w.flush(); err != nil {
			return err
		}
	}
	return nil
}
