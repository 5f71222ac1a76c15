package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
)

// Heap page layout (row-major, format 0; columnar.go has format 1):
//
//	offset 0: uint16 tuple count
//	offset 2: format byte (0), then 5 reserved zero bytes
//	offset 8: packed fixed-width tuples
//
// A tuple is arity little-endian int32 variable values followed by a
// float64 measure (IEEE bits, little endian).
const pageHeaderSize = 8

// Heap is a heap file of fixed-width functional-relation tuples accessed
// through a buffer pool. A Heap knows its tuple arity but not attribute
// names; schema bookkeeping lives in the catalog.
type Heap struct {
	pool       *Pool
	disk       Disk
	handle     int64
	arity      int
	tupleSize  int
	perPage    int
	ntuples    int64
	lastPage   int64 // -1 when empty
	lastCount  int   // tuples on last page
	statsOwned bool
	ctx        context.Context // nil means context.Background()
	// columnar re-encodes each page into the columnar format (columnar.go)
	// the moment it fills; partial pages are always row-major.
	columnar bool
	colEnc   colScratch
}

// SetColumnar selects the page format for subsequent appends: when on,
// every page is re-encoded in place into the columnar layout as it fills
// (falling back to row-major page by page when encoding does not pay).
// Reads always dispatch on each page's own format byte, so a heap may
// freely mix formats and the flag may be toggled at any append boundary.
func (h *Heap) SetColumnar(on bool) { h.columnar = on }

// maybeEncodePage re-encodes the just-filled pinned page in place when
// the heap is in columnar mode, updating the pool's encoding counters.
func (h *Heap) maybeEncodePage(buf []byte) {
	if !h.columnar {
		return
	}
	if segs, saved, ok := encodePageColumnar(buf, h.arity, h.perPage, &h.colEnc); ok {
		h.pool.noteEncoded(segs, saved)
	} else {
		h.pool.noteEncodeFallback()
	}
}

// SetContext attaches a cancellation context to the heap: subsequent
// appends and scans observe it on every buffer-pool miss. Intended for
// query-private temporary heaps (set once at creation, before any use);
// shared base-table heaps must keep the default background context and
// pass a per-query context to ScanBatchesContext or
// ScanColBatchesContext instead.
func (h *Heap) SetContext(ctx context.Context) { h.ctx = ctx }

// context returns the heap's context, defaulting to Background.
func (h *Heap) context() context.Context {
	if h.ctx == nil {
		return context.Background()
	}
	return h.ctx
}

// tupleSize returns the byte width of a tuple with the given arity.
func tupleSize(arity int) int { return 4*arity + 8 }

// TuplesPerPage returns how many tuples of the given arity fit on a
// page's payload (the checksum trailer is off-limits to tuples).
func TuplesPerPage(arity int) int {
	return (PageDataSize - pageHeaderSize) / tupleSize(arity)
}

// PagesFor returns the number of pages a heap with the given arity needs
// to hold n tuples; the unit of the engine's IO-based cost model.
func PagesFor(arity int, n int64) int64 {
	per := int64(TuplesPerPage(arity))
	if n == 0 {
		return 0
	}
	return (n + per - 1) / per
}

// NewHeap creates an empty heap of the given arity on a fresh disk from
// the pool's registered disk d.
func NewHeap(pool *Pool, d Disk, arity int) (*Heap, error) {
	if arity < 0 {
		return nil, fmt.Errorf("heap: negative arity %d", arity)
	}
	per := TuplesPerPage(arity)
	if per <= 0 {
		return nil, fmt.Errorf("heap: arity %d tuples do not fit in a page", arity)
	}
	if d.NumPages() != 0 {
		return nil, fmt.Errorf("heap: disk not empty (%d pages)", d.NumPages())
	}
	return &Heap{
		pool:      pool,
		disk:      d,
		handle:    pool.Register(d),
		arity:     arity,
		tupleSize: tupleSize(arity),
		perPage:   per,
		lastPage:  -1,
	}, nil
}

// NewTempHeap creates a heap on a disk from the factory. The disk is
// closed when the heap is Dropped. A
// factory failure is reported as an "alloc" *IOError (matching ErrIO).
func NewTempHeap(pool *Pool, factory DiskFactory, arity int) (*Heap, error) {
	d, err := factory()
	if err != nil {
		return nil, &IOError{Op: "alloc", Err: err}
	}
	h, err := NewHeap(pool, d, arity)
	if err != nil {
		d.Close()
		return nil, err
	}
	h.statsOwned = true
	return h, nil
}

// Arity returns the tuple arity.
func (h *Heap) Arity() int { return h.arity }

// Handle returns the heap's buffer-pool disk handle — the Handle carried
// by the pool's typed IO errors, letting callers map a fault back to the
// table whose heap it struck.
func (h *Heap) Handle() int64 { return h.handle }

// NumTuples returns the number of tuples in the heap.
func (h *Heap) NumTuples() int64 { return h.ntuples }

// NumPages returns the number of allocated pages.
func (h *Heap) NumPages() int64 { return h.disk.NumPages() }

// Bytes returns the heap's allocated size in bytes (pages × PageSize),
// the unit the engine's result cache budgets and accounts in.
func (h *Heap) Bytes() int64 { return h.disk.NumPages() * PageSize }

// AppendRows adds n tuples in one call from row-major arrays: vals holds
// n*arity int32 values and measures holds n measures. Each page on the
// fill path is pinned once and its header rewritten once, amortizing the
// pool round-trip across a page of tuples.
func (h *Heap) AppendRows(vals []int32, measures []float64) error {
	n := len(measures)
	if len(vals) != n*h.arity {
		return fmt.Errorf("heap: AppendRows of %d values for %d arity-%d tuples", len(vals), n, h.arity)
	}
	i := 0
	for i < n {
		var (
			pageNo int64
			buf    []byte
			err    error
		)
		if h.lastPage >= 0 && h.lastCount < h.perPage {
			pageNo = h.lastPage
			buf, err = h.pool.PinContext(h.context(), h.handle, pageNo)
		} else {
			pageNo, buf, err = h.pool.NewPageContext(h.context(), h.handle)
			if err == nil {
				h.lastPage = pageNo
				h.lastCount = 0
			}
		}
		if err != nil {
			return err
		}
		k := h.perPage - h.lastCount
		if k > n-i {
			k = n - i
		}
		off := pageHeaderSize + h.lastCount*h.tupleSize
		for j := i; j < i+k; j++ {
			row := vals[j*h.arity : (j+1)*h.arity]
			for c, v := range row {
				binary.LittleEndian.PutUint32(buf[off+4*c:], uint32(v))
			}
			binary.LittleEndian.PutUint64(buf[off+4*h.arity:], math.Float64bits(measures[j]))
			off += h.tupleSize
		}
		h.lastCount += k
		binary.LittleEndian.PutUint16(buf[0:], uint16(h.lastCount))
		h.ntuples += int64(k)
		i += k
		if h.lastCount == h.perPage {
			h.maybeEncodePage(buf)
		}
		if err := h.pool.Unpin(h.handle, pageNo, true); err != nil {
			return err
		}
	}
	return nil
}

// AppendBatch appends every tuple of the batch; see AppendRows.
func (h *Heap) AppendBatch(b *Batch) error {
	if b.Arity != h.arity {
		return fmt.Errorf("heap: AppendBatch of arity-%d batch to arity-%d heap", b.Arity, h.arity)
	}
	return h.AppendRows(b.Vals, b.Measures)
}

// Batch is a block of decoded tuples in row-major layout: Vals holds
// Len()*Arity int32 values (row i at Vals[i*Arity:(i+1)*Arity]) and
// Measures holds one float64 per row. A batch is sized to a heap page —
// the unit one pin and one decode loop produce — and its arrays are
// plain Go slices so operators index them in tight loops with no
// per-tuple interface calls.
type Batch struct {
	// Arity is the number of int32 values per row.
	Arity int
	// Vals holds the rows' values back to back, row-major.
	Vals []int32
	// Measures holds one semiring measure per row.
	Measures []float64
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.Measures) }

// Row returns row i's values as a view into Vals. The view aliases the
// batch's backing array: it is valid until the batch is Reset or
// refilled by its producer.
func (b *Batch) Row(i int) []int32 {
	return b.Vals[i*b.Arity : (i+1)*b.Arity : (i+1)*b.Arity]
}

// Reset empties the batch and sets its arity, retaining capacity.
func (b *Batch) Reset(arity int) {
	b.Arity = arity
	b.Vals = b.Vals[:0]
	b.Measures = b.Measures[:0]
}

// Append adds one row to the batch.
func (b *Batch) Append(vals []int32, measure float64) {
	b.Vals = append(b.Vals, vals...)
	b.Measures = append(b.Measures, measure)
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pageCursor is the one walk over a heap's pages behind every scan: for
// each page of its range it pins the page under the scan's context,
// validates the header, hands a non-empty page to the scan's decoder and
// unpins it (readPage), so no pin outlives a Next call.
type pageCursor struct {
	h    *Heap
	ctx  context.Context
	next int64 // next page to visit
	end  int64 // one past the last page to visit
	page int64 // page of the current batch
	done bool
	err  error
}

// cursor returns a cursor over all of h's pages under ctx.
func (h *Heap) cursor(ctx context.Context) pageCursor {
	return pageCursor{h: h, ctx: ctx, end: h.disk.NumPages()}
}

// advance moves to the next non-empty page and decodes it with decode;
// it returns false at the end of the range or on the first error.
func (c *pageCursor) advance(decode func(buf []byte, n int) error) bool {
	for !c.done && c.next < c.end {
		p := c.next
		c.next++
		n, err := c.h.readPage(c.ctx, p, decode)
		if err != nil {
			c.err, c.done = err, true
			return false
		}
		if n > 0 {
			c.page = p
			return true
		}
	}
	c.done = true
	return false
}

// Err returns the first error encountered during iteration.
func (c *pageCursor) Err() error { return c.err }

// Close ends the scan and reports Err. A scan holds no pin of its own
// between Next calls.
func (c *pageCursor) Close() error {
	c.done = true
	return c.err
}

// readPage pins page pageNo under ctx, validates its header, hands a
// non-empty page to decode (when non-nil) and unpins it, returning the
// page's tuple count. A page that passed its checksum but breaks the
// format — in its header or under decode — fails with a
// *CorruptPageError naming it, never with a panic.
func (h *Heap) readPage(ctx context.Context, pageNo int64, decode func(buf []byte, n int) error) (int, error) {
	buf, err := h.pool.PinContext(ctx, h.handle, pageNo)
	if err != nil {
		return 0, err
	}
	n, err := h.pageCount(buf)
	if err == nil && n > 0 && decode != nil {
		err = decode(buf, n)
	}
	if err != nil {
		err = &CorruptPageError{Handle: h.handle, Page: pageNo, Reason: err.Error()}
	}
	if uerr := h.pool.Unpin(h.handle, pageNo, false); err == nil {
		err = uerr
	}
	return n, err
}

// pageCount validates a page header against the heap and returns the
// page's tuple count.
func (h *Heap) pageCount(buf []byte) (int, error) {
	n := int(binary.LittleEndian.Uint16(buf))
	if n > h.perPage {
		return 0, fmt.Errorf("tuple count %d exceeds the %d an arity-%d page holds", n, h.perPage, h.arity)
	}
	if f := pageFormat(buf); f != formatRowMajor && f != formatColumnar {
		return 0, fmt.Errorf("unknown page format %d", f)
	}
	return n, nil
}

// readRowMajor is the one decode loop of row-major (format 0) pages:
// value c of row r lands in dst[c*cstride+r*rstride] and row r's measure
// in meas[r], so it fills a row-major Batch (cstride 1, rstride arity)
// and a ColBatch's column-major plain views (cstride n, rstride 1) alike.
func readRowMajor(buf []byte, arity, n int, dst []int32, cstride, rstride int, meas []float64) {
	ts := tupleSize(arity)
	for c := 0; c < arity; c++ {
		d, off := dst[c*cstride:], pageHeaderSize+4*c
		for r := 0; r < n; r++ {
			d[r*rstride] = int32(binary.LittleEndian.Uint32(buf[off:]))
			off += ts
		}
	}
	off := pageHeaderSize + 4*arity
	for r := range meas[:n] {
		meas[r] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += ts
	}
}

// BatchIterator streams a heap's tuples in storage order as row-major
// batches, one page per batch (see pageCursor): no per-tuple pool
// round-trips and no per-tuple allocation.
type BatchIterator struct {
	pageCursor
	batch Batch
	cols  ColBatch // a columnar page's views, before row-major expansion
}

// ScanBatches returns a batch iterator over the heap. The iterator must
// be Closed. Appending to the heap during a scan is not supported. Page
// fetches observe the heap's context (see SetContext).
func (h *Heap) ScanBatches() *BatchIterator { return h.ScanBatchesContext(h.context()) }

// ScanBatchesContext is ScanBatches with per-scan cancellation: page
// fetches observe ctx at every buffer-pool miss.
func (h *Heap) ScanBatchesContext(ctx context.Context) *BatchIterator {
	return &BatchIterator{pageCursor: h.cursor(ctx)}
}

// Next decodes and returns the next page's tuples, or ok=false at the
// end. The returned batch and its arrays are reused between calls:
// callers must consume (or copy) a batch before requesting the next one.
func (it *BatchIterator) Next() (b *Batch, ok bool) {
	if !it.advance(it.decode) {
		return nil, false
	}
	return &it.batch, true
}

// decode fills it.batch with a validated page's n tuples.
func (it *BatchIterator) decode(buf []byte, n int) error {
	return it.h.decodeRows(buf, n, &it.batch, &it.cols)
}

// decodeRows decodes a validated page's n tuples into b, row-major:
// row-major pages through readRowMajor, columnar pages through the one
// format v1 parser into cols, expanded from there.
func (h *Heap) decodeRows(buf []byte, n int, b *Batch, cols *ColBatch) error {
	b.Arity = h.arity
	b.Vals = resize(b.Vals, n*h.arity)
	b.Measures = resize(b.Measures, n)
	if pageFormat(buf) == formatRowMajor {
		readRowMajor(buf, h.arity, n, b.Vals, 1, h.arity, b.Measures)
		return nil
	}
	views := cols.views(h.arity, n)
	if err := parseColumnar(buf, h.arity, n, views, b.Measures); err != nil {
		return err
	}
	for c := range views {
		views[c].decodeInto(b.Vals[c:], h.arity)
	}
	return nil
}

// Drop detaches the heap from the pool and, for temp heaps, discards
// dirty pages (their contents are dead) and closes the underlying disk.
func (h *Heap) Drop() error {
	if h.statsOwned {
		if err := h.pool.Discard(h.handle); err != nil {
			return err
		}
		return h.disk.Close()
	}
	return h.pool.Unregister(h.handle)
}
