package storage

// Encoded batch views. A ColBatch exposes one page's tuples column by
// column in their on-page encodings (columnar.go) so operators can work
// on codes and runs directly — comparing a predicate against one RLE run
// instead of its every row, or memoizing a hash-table lookup per
// dictionary code instead of per tuple. Row-major pages surface as
// all-plain views, so a scan over a mixed-format heap hands every
// operator the same interface.

import (
	stdcontext "context"
	"encoding/binary"
	"math"
)

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

// Value returns row i's decoded value. For EncRLE views it materializes
// the column once (see Flat); encoding-aware operators avoid it on hot
// paths in favor of the encoded fields.
func (v *ColView) Value(i int) int32 {
	switch v.Enc {
	case EncPlain:
		return v.Plain[i]
	case EncByte:
		return int32(v.Codes[i])
	case EncDict:
		return v.Dict[v.Codes[i]]
	default:
		return v.Flat()[i]
	}
}

// Flat returns the view fully decoded as one value per row, materializing
// and caching it on first use (EncPlain views return Plain directly).
func (v *ColView) Flat() []int32 {
	if v.Enc == EncPlain {
		return v.Plain
	}
	if v.flat != nil {
		return v.flat
	}
	if cap(v.flatBuf) < v.n {
		v.flatBuf = make([]int32, v.n)
	}
	f := v.flatBuf[:v.n]
	switch v.Enc {
	case EncByte:
		for i, c := range v.Codes {
			f[i] = int32(c)
		}
	case EncDict:
		for i, c := range v.Codes {
			f[i] = v.Dict[c]
		}
	case EncRLE:
		i := 0
		for _, r := range v.Runs {
			for j := 0; j < r.Len; j++ {
				f[i] = r.Val
				i++
			}
		}
	}
	v.flat = f
	return f
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
}

// Len returns the number of rows in the batch.
func (cb *ColBatch) Len() int { return len(cb.Measures) }

// Row gathers row i's values across all columns into dst, which must
// have length Arity.
func (cb *ColBatch) Row(i int, dst []int32) {
	for c := range cb.Cols {
		dst[c] = cb.Cols[c].Value(i)
	}
}

// ColBatchIterator streams a heap's tuples in storage order as encoded
// column batches, one page per batch: each Next pins one page, copies
// every column segment out (so no pin outlives the call), and unpins.
// Row-major pages yield all-plain views.
type ColBatchIterator struct {
	h       *Heap
	ctx     stdcontext.Context
	pageNo  int64
	npages  int64
	cb      ColBatch
	started bool
	done    bool
	err     error
	ra      readAhead
}

// ScanColBatches returns an encoded-batch iterator over the heap. The
// iterator must be Closed. Appending during a scan is not supported.
func (h *Heap) ScanColBatches() *ColBatchIterator { return h.ScanColBatchesContext(h.context()) }

// ScanColBatchesContext is ScanColBatches with per-scan cancellation:
// page fetches observe ctx at every buffer-pool miss.
func (h *Heap) ScanColBatchesContext(ctx stdcontext.Context) *ColBatchIterator {
	return &ColBatchIterator{h: h, ctx: ctx, npages: h.disk.NumPages()}
}

// SetReadAhead declares the scan sequential: before pinning each page the
// iterator asks the pool to prefetch up to k following pages.
func (it *ColBatchIterator) SetReadAhead(k int) { it.ra.k = k }

// fail ends the scan with err once its read-ahead loads have settled.
func (it *ColBatchIterator) fail(err error) {
	it.ra.inflight.Wait()
	it.err = err
	it.done = true
}

// SetPageRange restricts the scan to pages [lo, hi) of the heap, clipped
// to the pages it has; call it before the first Next. Iterators over
// disjoint ranges of one heap may run concurrently — each pins only its
// own pages — which is how the executor cuts a probe into leaves.
func (it *ColBatchIterator) SetPageRange(lo, hi int64) {
	it.pageNo = max(lo, 0)
	it.npages = min(hi, it.npages)
}

// Next fills and returns the next page's encoded batch, or ok=false at
// the end. The batch and its views are reused between calls: callers
// must consume a batch before requesting the next one.
func (it *ColBatchIterator) Next() (cb *ColBatch, ok bool) {
	if it.done || it.err != nil {
		return nil, false
	}
	for {
		if it.started {
			it.pageNo++
		}
		it.started = true
		if it.pageNo >= it.npages {
			it.done = true
			return nil, false
		}
		it.h.prefetchAhead(it.ctx, it.pageNo, &it.ra, it.npages)
		buf, err := it.h.pool.PinContext(it.ctx, it.h.handle, it.pageNo)
		if err != nil {
			it.fail(err)
			return nil, false
		}
		n := int(binary.LittleEndian.Uint16(buf[0:]))
		var fillErr error
		if n > 0 {
			fillErr = it.fill(buf, n)
		}
		if err := it.h.pool.Unpin(it.h.handle, it.pageNo, false); err != nil && fillErr == nil {
			fillErr = err
		}
		if fillErr != nil {
			it.fail(fillErr)
			return nil, false
		}
		if n > 0 {
			return &it.cb, true
		}
	}
}

// fill copies the pinned page's n rows into it.cb.
func (it *ColBatchIterator) fill(buf []byte, n int) error {
	arity := it.h.arity
	it.cb.Arity = arity
	if cap(it.cb.Cols) < arity {
		it.cb.Cols = make([]ColView, arity)
	}
	it.cb.Cols = it.cb.Cols[:arity]
	if cap(it.cb.Measures) < n {
		it.cb.Measures = make([]float64, 0, it.h.perPage)
	}
	it.cb.Measures = it.cb.Measures[:n]
	for c := range it.cb.Cols {
		it.cb.Cols[c].reset(n)
	}
	if pageFormat(buf) != formatColumnar {
		ts := it.h.tupleSize
		for c := 0; c < arity; c++ {
			v := &it.cb.Cols[c]
			v.Enc = EncPlain
			if cap(v.Plain) < n {
				v.Plain = make([]int32, 0, it.h.perPage)
			}
			v.Plain = v.Plain[:n]
			off := pageHeaderSize + 4*c
			for r := 0; r < n; r++ {
				v.Plain[r] = int32(binary.LittleEndian.Uint32(buf[off:]))
				off += ts
			}
		}
		off := pageHeaderSize + 4*arity
		for r := 0; r < n; r++ {
			it.cb.Measures[r] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += ts
		}
		return nil
	}
	if int(buf[3]) != arity {
		return errCorruptColumnar("page arity mismatch")
	}
	for c := 0; c < arity; c++ {
		if err := it.fillCol(&it.cb.Cols[c], buf, colSegOff(buf, c), n); err != nil {
			return err
		}
	}
	moff := colSegOff(buf, arity)
	if moff <= 0 || moff >= PageDataSize || buf[moff] != EncPlain {
		return errCorruptColumnar("measure segment")
	}
	p := moff + 1
	for r := 0; r < n; r++ {
		it.cb.Measures[r] = math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
		p += 8
	}
	return nil
}

// fillCol copies one column segment's n rows out of the pinned page into
// the view.
func (it *ColBatchIterator) fillCol(v *ColView, buf []byte, off, n int) error {
	if off <= 0 || off >= PageDataSize {
		return errCorruptColumnar("segment offset out of range")
	}
	v.Enc = buf[off]
	p := off + 1
	switch v.Enc {
	case EncPlain:
		if cap(v.Plain) < n {
			v.Plain = make([]int32, 0, it.h.perPage)
		}
		v.Plain = v.Plain[:n]
		for r := 0; r < n; r++ {
			v.Plain[r] = int32(binary.LittleEndian.Uint32(buf[p+4*r:]))
		}
	case EncByte:
		v.Codes = append(v.Codes[:0], buf[p:p+n]...)
	case EncDict:
		nd := int(buf[p])
		p++
		for d := 0; d < nd; d++ {
			v.Dict = append(v.Dict, int32(binary.LittleEndian.Uint32(buf[p+4*d:])))
		}
		codes := buf[p+4*nd : p+4*nd+n]
		for _, c := range codes {
			if int(c) >= nd {
				return errCorruptColumnar("dictionary code out of range")
			}
		}
		v.Codes = append(v.Codes[:0], codes...)
	case EncRLE:
		nruns := int(binary.LittleEndian.Uint16(buf[p:]))
		p += 2
		emitted := 0
		for i := 0; i < nruns && emitted < n; i++ {
			l := int(binary.LittleEndian.Uint16(buf[p:]))
			val := int32(binary.LittleEndian.Uint32(buf[p+2:]))
			p += 6
			if l > n-emitted { // a corrupt run must not overrun the page's row count
				l = n - emitted
			}
			if l > 0 {
				v.Runs = append(v.Runs, ColRun{Len: l, Val: val})
				emitted += l
			}
		}
		if emitted < n {
			return errCorruptColumnar("RLE runs cover fewer rows than requested")
		}
	default:
		return errCorruptColumnar("unknown segment encoding")
	}
	return nil
}

// Err returns the first error encountered during iteration.
func (it *ColBatchIterator) Err() error { return it.err }

// Close ends the iteration once the scan's read-ahead loads have
// settled, and reports Err. Encoded-batch iterators hold no pin of their
// own between Next calls.
func (it *ColBatchIterator) Close() error {
	it.ra.inflight.Wait()
	it.done = true
	return it.err
}
