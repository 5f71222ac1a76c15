package storage

// Column batch views. A ColBatch exposes one page's tuples column by
// column; each ColView holds its column in the page's segment encoding
// (columnar.go) and hands the executor decoded values through Flat,
// decoded once per view and cached. The encoding stays inside this
// package. Row-major pages surface as plain views, so a scan over a
// mixed-format heap hands every operator the same interface.

import stdcontext "context"

// colRun is one run of a run-length-encoded column view: n consecutive
// rows with value val.
type colRun struct {
	n   int
	val int32
}

// ColView is one column of a ColBatch in its page encoding. Exactly the
// fields for its enc are populated:
//
//	EncPlain: flat (one value per row)
//	EncByte:  codes (one byte per row; the code IS the value)
//	EncDict:  codes + dict (per-page dictionary, first-occurrence order)
//	EncRLE:   runs (covering the view's rows in order)
type ColView struct {
	enc     byte
	codes   []uint8
	dict    []int32
	runs    []colRun
	n       int
	flat    []int32 // the decoded values; nil until Flat materializes them
	flatBuf []int32 // reusable backing for flat
}

// PlainView returns a view of the decoded values vals.
func PlainView(vals []int32) ColView {
	return ColView{enc: EncPlain, flat: vals, n: len(vals)}
}

// Flat returns the view fully decoded as one value per row, materializing
// and caching it on first use.
func (v *ColView) Flat() []int32 {
	if v.flat == nil {
		v.flatBuf = resize(v.flatBuf, v.n)
		v.decodeInto(v.flatBuf, 1)
		v.flat = v.flatBuf
	}
	return v.flat
}

// decodeInto writes the view's values to dst[0], dst[stride], … — the one
// expansion of an encoded view, shared by Flat and the row-major batch.
func (v *ColView) decodeInto(dst []int32, stride int) {
	switch v.enc {
	case EncPlain:
		for r, x := range v.flat {
			dst[r*stride] = x
		}
	case EncByte:
		for r, c := range v.codes {
			dst[r*stride] = int32(c)
		}
	case EncDict:
		for r, c := range v.codes {
			dst[r*stride] = v.dict[c]
		}
	case EncRLE:
		r := 0
		for _, run := range v.runs {
			for j := 0; j < run.n; j++ {
				dst[r*stride] = run.val
				r++
			}
		}
	}
}

// reset prepares the view for refilling with n rows, retaining backing
// capacity and invalidating the Flat cache.
func (v *ColView) reset(n int) {
	v.n = n
	v.codes = v.codes[:0]
	v.dict = v.dict[:0]
	v.runs = v.runs[:0]
	v.flat = nil
}

// ColBatch is a block of tuples exposed column-wise in page encodings,
// the unit a ColBatchIterator yields. Cols holds one view per attribute;
// Measures is always fully decoded (measures are never value-encoded).
type ColBatch struct {
	// Cols holds one view per attribute column.
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
		views[c].enc, views[c].flat = EncPlain, it.cb.flat[c*n:(c+1)*n:(c+1)*n]
	}
	return nil
}
