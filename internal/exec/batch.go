package exec

// Shared pieces of the batch kernels: the scan helper, allocation-free
// key encoding and the keyIndex, the page-at-a-time output writer, the
// hash-join build table and the aggregation state. The kernels
// themselves (colbatch.go, colsort.go, fusecol.go) consume heap pages as
// storage.ColBatch views — one pin and one decode loop per page — and
// produce output through page-sized bulk appends. Batch boundaries are
// the cancellation check points: a batch never exceeds one page, so a
// canceled query stops within a page's worth of work.

import (
	"context"
	"encoding/binary"

	"mpf/internal/storage"
)

// scanB returns a row-major batch iterator over h configured with the
// engine's read-ahead distance.
func (e *Engine) scanB(ctx context.Context, h *storage.Heap) *storage.BatchIterator {
	it := h.ScanBatchesContext(ctx)
	if e.ReadAhead > 0 {
		it.SetReadAhead(e.ReadAhead)
	}
	return it
}

// encodeKey writes the projection of vals onto cols into buf and returns
// the encoded length. Callers index maps with string(buf[:n]) inline —
// the compiler recognizes that form and performs the lookup without
// allocating the string, which is what keeps batch probe and aggregate
// loops allocation-free per tuple.
func encodeKey(vals []int32, cols []int, buf []byte) int {
	for i, c := range cols {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(vals[c]))
	}
	return 4 * len(cols)
}

// keyBufFor returns a zeroed key buffer for a cols-wide key, at least 8
// bytes so narrow keyIndexes can read a full uint64 from it. Buffers
// must not be shared between differently-shaped keys: a keyIndex relies
// on the bytes past the encoded key staying zero.
func keyBufFor(cols []int) []byte {
	n := 4 * len(cols)
	if n < 8 {
		n = 8
	}
	return make([]byte, n)
}

// keyIndex maps encoded keys to dense positions. Keys of at most 8
// bytes — one- and two-column join and group keys, the overwhelmingly
// common case — use an integer-keyed map, which hashes without touching
// memory beyond the key and never allocates on insert; wider keys fall
// back to a string-keyed map that allocates once per distinct key.
type keyIndex struct {
	i64 map[uint64]int // nil when keys are wide
	str map[string]int
}

// newKeyIndex returns an index for keys of width keyBytes.
func newKeyIndex(keyBytes, sizeHint int) *keyIndex {
	if keyBytes <= 8 {
		return &keyIndex{i64: make(map[uint64]int, sizeHint)}
	}
	return &keyIndex{str: make(map[string]int, sizeHint)}
}

// get looks up the key encoded in buf[:n]. Narrow reads decode a full
// uint64 from buf, which is why key buffers are ≥8 bytes and zero past n.
func (k *keyIndex) get(buf []byte, n int) (int, bool) {
	if k.i64 != nil {
		v, ok := k.i64[binary.LittleEndian.Uint64(buf)]
		return v, ok
	}
	v, ok := k.str[string(buf[:n])] // no-alloc map read
	return v, ok
}

// put records the key encoded in buf[:n] at position pos.
func (k *keyIndex) put(buf []byte, n, pos int) {
	if k.i64 != nil {
		k.i64[binary.LittleEndian.Uint64(buf)] = pos
		return
	}
	k.str[string(buf[:n])] = pos // allocates the key string once
}

// batchWriter accumulates output rows and flushes them to a table one
// page-sized batch at a time, replacing per-row Append (a pool pin, a
// header rewrite, and for shared outputs a mutex acquisition per row)
// with one AppendRows per page of output. Each flush charges the run's
// TempTuples counter immediately, which is also where the per-query
// temp-tuple budget is enforced: an exploding join output is stopped
// within one page of output of crossing its bound.
type batchWriter struct {
	t      *Table
	locked bool // flush under t's mutex (shared outputs of parallel producers)
	st     *RunStats
	b      storage.Batch
	limit  int
	rows   int64 // total rows written by this writer
}

// newBatchWriter returns a writer into t charging st; locked selects
// LockedAppend semantics for outputs shared between goroutines.
func newBatchWriter(t *Table, locked bool, st *RunStats) *batchWriter {
	w := &batchWriter{t: t, locked: locked, st: st, limit: storage.TuplesPerPage(len(t.Attrs))}
	w.b.Reset(len(t.Attrs))
	return w
}

// append buffers one row, flushing when a page's worth is buffered.
func (w *batchWriter) append(vals []int32, m float64) error {
	w.b.Append(vals, m)
	if w.b.Len() >= w.limit {
		return w.flush()
	}
	return nil
}

// flush writes the buffered rows out, resets the buffer, charges the
// run's temp-tuple accounting, and enforces the temp-tuple budget.
func (w *batchWriter) flush() error {
	if w.b.Len() == 0 {
		return nil
	}
	var err error
	if w.locked {
		err = w.t.LockedAppendBatch(&w.b)
	} else {
		err = w.t.Heap.AppendBatch(&w.b)
	}
	n := int64(w.b.Len())
	w.rows += n
	w.b.Reset(w.b.Arity)
	w.st.addTempTuples(n)
	if err != nil {
		return err
	}
	return w.st.overTemp()
}

// hashBuild is the build side of a hash join. Row values live
// in per-batch arena chunks and the key index maps encoded join keys to
// group positions, so the build pass allocates O(pages + distinct keys)
// instead of O(rows), and probe lookups allocate nothing at all.
type hashBuild struct {
	idx    *keyIndex
	groups [][]buildRow
}

// lookup returns the build rows matching the key encoded in buf[:n].
func (h *hashBuild) lookup(buf []byte, n int) []buildRow {
	gi, ok := h.idx.get(buf, n)
	if !ok {
		return nil
	}
	return h.groups[gi]
}

// lookupIdx is lookup returning the dense key-group index as well, for
// callers that cache per-group facts (the fused columnar kernel's
// span-safety memo). gi is -1 on a miss.
func (h *hashBuild) lookupIdx(buf []byte, n int) ([]buildRow, int) {
	gi, ok := h.idx.get(buf, n)
	if !ok {
		return nil, -1
	}
	return h.groups[gi], gi
}

// buildBatch scans build's heap into a hashBuild keyed on buildCols.
func (e *Engine) buildBatch(ctx context.Context, build *Table, buildCols []int, st *RunStats) (*hashBuild, error) {
	hb := &hashBuild{idx: newKeyIndex(4*len(buildCols), int(build.Heap.NumTuples()))}
	arity := len(build.Attrs)
	keyBuf := keyBufFor(buildCols)
	it := e.scanB(ctx, build.Heap)
	defer it.Close()
	for {
		b, ok := it.Next()
		if !ok {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st.addBatches(1)
		// One arena chunk per batch: rows are sliced out of a single copy
		// of the batch's value array, which stays live as long as any of
		// its rows is referenced from a group.
		chunk := append([]int32(nil), b.Vals...)
		for i := 0; i < b.Len(); i++ {
			row := chunk[i*arity : (i+1)*arity : (i+1)*arity]
			n := encodeKey(row, buildCols, keyBuf)
			gi, seen := hb.idx.get(keyBuf, n)
			if !seen {
				gi = len(hb.groups)
				hb.groups = append(hb.groups, nil)
				hb.idx.put(keyBuf, n, gi)
			}
			hb.groups[gi] = append(hb.groups[gi], buildRow{vals: row, measure: b.Measures[i]})
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return hb, nil
}

// batchAgg is the aggregation state: group keys live row-major in one
// arena (insertion order — the scan order of first appearance) and the
// key index maps encoded keys to positions, so absorbing a tuple into an
// existing group allocates nothing.
type batchAgg struct {
	idx   *keyIndex
	vals  []int32 // row-major group keys, arity = len(cols)
	meas  []float64
	arity int
}

// newBatchAgg returns an empty aggregation over keys of the given arity.
func newBatchAgg(arity int) *batchAgg {
	return &batchAgg{idx: newKeyIndex(4*arity, 0), arity: arity}
}

// absorb folds one row's measure into its group, creating the group on
// first sight, and returns the group's position (for memo fast paths
// that cache positions per dictionary code). buf[:n] holds the row's
// encoded group key; the group's values are projected from row only
// when the group is new, so the common absorb-into-existing-group case
// copies nothing.
func (a *batchAgg) absorb(e *Engine, buf []byte, n int, row []int32, cols []int, m float64) int {
	gi, seen := a.idx.get(buf, n)
	if seen {
		a.meas[gi] = e.Sr.Add(a.meas[gi], m)
		return gi
	}
	gi = len(a.meas)
	for _, c := range cols {
		a.vals = append(a.vals, row[c])
	}
	a.meas = append(a.meas, m)
	a.idx.put(buf, n, gi)
	return gi
}

// emit appends the groups to out in first-seen order with one bulk
// append; locked selects the shared-output path for parallel callers.
func (a *batchAgg) emit(ctx context.Context, out *Table, locked bool, st *RunStats) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var err error
	if locked {
		err = out.LockedAppendRows(a.vals, a.meas)
	} else {
		err = out.Heap.AppendRows(a.vals, a.meas)
	}
	if err != nil {
		return err
	}
	st.addTempTuples(int64(len(a.meas)))
	return st.overTemp()
}
