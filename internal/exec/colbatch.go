package exec

// Batch operator kernels — the executor's only tier. They consume
// storage.ColBatch views through their decoded columns (ColView.Flat,
// decoded once per view and cached), so a row-major page, a columnar
// page and a mixed heap take the same code: hash group-by and the
// hash-join probe run the staged resolve/slot/fold passes of DESIGN.md,
// "Batch execution", selection is one compare per row, and the Grace
// partition pass hashes every row. Selection and the in-memory join
// probe run as pipeline stages (pipe.go), and the fused join+aggregate
// probe takes the same passes (fusecol.go). No kernel reads a page
// encoding. Every kernel emits rows in scan order and folds measures in
// row order, so results are byte-identical across page layouts, float
// accumulation order included.

import (
	"context"

	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// flatCols returns the decoded columns cols of cb in buf's backing.
func flatCols(cb *storage.ColBatch, cols []int, buf [][]int32) [][]int32 {
	buf = buf[:0]
	for _, c := range cols {
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

// aggregateColBatch is one leaf of the hash aggregation: it folds the
// batches of it, grouped on cols, into agg through the staged slot and
// fold passes over the decoded key columns.
func (e *Engine) aggregateColBatch(ctx context.Context, it *storage.ColBatchIterator, cols []int, agg *batchAgg, lb *leafBudget, st *RunStats) error {
	key := make([]int32, len(cols))
	kf := make([][]int32, 0, len(cols))
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
		kf = flatCols(cb, cols, kf)
		agg.foldRows(e, kf, cb.Measures, key, &sc)
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

// partitionColBatch is the Grace partition pass: every row is gathered,
// hashed on cols and routed in scan order, so every partition holds its
// rows in scan order whatever the page layout.
func (e *Engine) partitionColBatch(ctx context.Context, t *Table, cols []int, depth int, parts []*Table, st *RunStats) error {
	writers := make([]*batchWriter, len(parts))
	for i, p := range parts {
		writers[i] = newBatchWriter(p, false, st)
	}
	rowBuf := make([]int32, len(t.Attrs))
	fs := make([][]int32, 0, len(t.Attrs))
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
		fs = fs[:0] // every row is routed, so every column is decoded
		for c := range cb.Cols {
			fs = append(fs, cb.Cols[c].Flat())
		}
		for i := 0; i < cb.Len(); i++ {
			gatherRow(fs, i, rowBuf)
			if err := writers[partitionHash(rowBuf, cols, depth)].append(rowBuf, cb.Measures[i]); err != nil {
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
