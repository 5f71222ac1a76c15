package storage

// Encoded batch views. A ColBatch exposes one page's tuples column by
// column in their on-page encodings (columnar.go) so operators can work
// on codes and runs directly — comparing a predicate against one RLE run
// instead of its every row, or memoizing a hash-table lookup per
// dictionary code instead of per tuple. Row-major pages surface as
// all-plain views, so a scan over a mixed-format heap hands every
// operator the same interface.

import stdcontext "context"

// ColRun is one run of a run-length-encoded column view: Len consecutive
// rows with value Val.
type ColRun struct {
	// Len is the number of rows in the run.
	Len int
	// Val is the value repeated across the run.
	Val int32
}

// ColView is one column of a ColBatch in its page encoding. Exactly the
// fields for its Enc are populated:
//
//	EncPlain: Plain (one value per row)
//	EncByte:  Codes (one byte per row; the code IS the value)
//	EncDict:  Codes + Dict (per-page dictionary, first-occurrence order)
//	EncRLE:   Runs (covering the view's rows in order)
type ColView struct {
	// Enc is the column's encoding tag (EncPlain, EncByte, EncRLE, EncDict).
	Enc byte
	// Plain holds the decoded values of an EncPlain view.
	Plain []int32
	// Codes holds the per-row codes of an EncByte or EncDict view.
	Codes []uint8
	// Dict maps an EncDict view's codes to values.
	Dict []int32
	// Runs holds the clipped runs of an EncRLE view.
	Runs    []ColRun
	n       int
	flat    []int32 // cached Flat() result; nil until materialized
	flatBuf []int32 // reusable backing for flat
}

// Len returns the number of rows in the view.
func (v *ColView) Len() int { return v.n }

// Flat returns the view fully decoded as one value per row, materializing
// and caching it on first use (EncPlain views return Plain directly).
func (v *ColView) Flat() []int32 {
	if v.Enc == EncPlain {
		return v.Plain
	}
	if v.flat != nil {
		return v.flat
	}
	v.flatBuf = resize(v.flatBuf, v.n)
	v.decodeInto(v.flatBuf, 1)
	v.flat = v.flatBuf
	return v.flat
}

// decodeInto writes the view's values to dst[0], dst[stride], … — the one
// expansion of an encoded view, shared by Flat and the row-major batch.
func (v *ColView) decodeInto(dst []int32, stride int) {
	switch v.Enc {
	case EncPlain:
		for r, x := range v.Plain {
			dst[r*stride] = x
		}
	case EncByte:
		for r, c := range v.Codes {
			dst[r*stride] = int32(c)
		}
	case EncDict:
		for r, c := range v.Codes {
			dst[r*stride] = v.Dict[c]
		}
	case EncRLE:
		r := 0
		for _, run := range v.Runs {
			for j := 0; j < run.Len; j++ {
				dst[r*stride] = run.Val
				r++
			}
		}
	}
}

// reset prepares the view for refilling with n rows, retaining backing
// capacity and invalidating the Flat cache.
func (v *ColView) reset(n int) {
	v.n = n
	v.Plain = v.Plain[:0]
	v.Codes = v.Codes[:0]
	v.Dict = v.Dict[:0]
	v.Runs = v.Runs[:0]
	v.flat = nil
}

// ColBatch is a block of tuples exposed column-wise in page encodings,
// the unit a ColBatchIterator yields. Cols holds one view per attribute;
// Measures is always fully decoded (measures are never value-encoded).
type ColBatch struct {
	// Arity is the number of attribute columns.
	Arity int
	// Cols holds one encoded view per attribute column.
	Cols []ColView
	// Measures holds one semiring measure per row.
	Measures []float64
	flat     []int32 // backing of a row-major page's plain views, column-major
}

// Len returns the number of rows in the batch.
func (cb *ColBatch) Len() int { return len(cb.Measures) }

// views resizes the batch to arity columns and returns them, each reset
// for refilling with n rows.
func (cb *ColBatch) views(arity, n int) []ColView {
	cb.Arity = arity
	cb.Cols = resize(cb.Cols, arity)
	for c := range cb.Cols {
		cb.Cols[c].reset(n)
	}
	return cb.Cols
}

// ColBatchIterator streams a heap's tuples in storage order as encoded
// column batches, one page per batch (see pageCursor): every column
// segment is copied out of the pinned page, so no pin outlives a Next
// call. Row-major pages yield all-plain views.
type ColBatchIterator struct {
	pageCursor
	cb ColBatch
}

// ScanColBatchesContext returns an encoded-batch iterator over the heap,
// whose page fetches observe ctx at every buffer-pool miss. The iterator
// must be Closed. Appending during a scan is not supported.
func (h *Heap) ScanColBatchesContext(ctx stdcontext.Context) *ColBatchIterator {
	return &ColBatchIterator{pageCursor: h.cursor(ctx)}
}

// SetPageRange restricts the scan to pages [lo, hi) of the heap, clipped
// to the pages it has; call it before the first Next. Iterators over
// disjoint ranges of one heap may run concurrently — each pins only its
// own pages — which is how the executor cuts a probe into leaves.
func (it *ColBatchIterator) SetPageRange(lo, hi int64) {
	it.next = max(lo, 0)
	it.end = min(hi, it.end)
}

// Next fills and returns the next page's encoded batch, or ok=false at
// the end. The batch and its views are reused between calls: callers
// must consume a batch before requesting the next one.
func (it *ColBatchIterator) Next() (cb *ColBatch, ok bool) {
	if !it.advance(it.fill) {
		return nil, false
	}
	return &it.cb, true
}

// fill decodes a validated page's n tuples into it.cb: row-major pages
// through readRowMajor as plain views over one column-major array,
// columnar pages through the one format v1 parser.
func (it *ColBatchIterator) fill(buf []byte, n int) error {
	arity := it.h.arity
	views := it.cb.views(arity, n)
	it.cb.Measures = resize(it.cb.Measures, n)
	if pageFormat(buf) == formatColumnar {
		return parseColumnar(buf, arity, n, views, it.cb.Measures)
	}
	it.cb.flat = resize(it.cb.flat, n*arity)
	readRowMajor(buf, arity, n, it.cb.flat, n, 1, it.cb.Measures)
	for c := range views {
		views[c].Enc = EncPlain
		views[c].Plain = it.cb.flat[c*n : (c+1)*n : (c+1)*n]
	}
	return nil
}
