package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Heap page layout:
//
//	offset 0: uint16 tuple count
//	offset 2: 6 reserved bytes
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
// pass a per-query context to ScanContext instead.
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

// OpenHeap attaches to a non-empty disk previously written by a Heap of
// the same arity. Heaps are append-only with every page except the last
// filled to capacity, which lets the tuple count be recovered from the
// page count and the last page's header.
func OpenHeap(pool *Pool, d Disk, arity int) (*Heap, error) {
	per := TuplesPerPage(arity)
	if per <= 0 {
		return nil, fmt.Errorf("heap: arity %d tuples do not fit in a page", arity)
	}
	h := &Heap{
		pool:      pool,
		disk:      d,
		handle:    pool.Register(d),
		arity:     arity,
		tupleSize: tupleSize(arity),
		perPage:   per,
		lastPage:  -1,
	}
	npages := d.NumPages()
	if npages == 0 {
		return h, nil
	}
	buf, err := pool.Pin(h.handle, npages-1)
	if err != nil {
		pool.Unregister(h.handle)
		return nil, err
	}
	lastCount := int(binary.LittleEndian.Uint16(buf[0:]))
	if err := pool.Unpin(h.handle, npages-1, false); err != nil {
		return nil, err
	}
	if lastCount > per {
		pool.Unregister(h.handle)
		return nil, fmt.Errorf("heap: last page holds %d tuples but arity-%d pages fit %d — wrong arity?", lastCount, arity, per)
	}
	h.lastPage = npages - 1
	h.lastCount = lastCount
	h.ntuples = (npages-1)*int64(per) + int64(lastCount)
	return h, nil
}

// NewTempHeap creates a heap on a disk from the factory. The disk is
// closed (removing any backing temp file) when the heap is Dropped. A
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

// Append adds one tuple. vals must have length equal to the heap's arity.
func (h *Heap) Append(vals []int32, measure float64) error {
	_, _, err := h.AppendLocated(vals, measure)
	return err
}

// AppendLocated adds one tuple and returns its (page, slot) address, for
// callers maintaining indexes.
func (h *Heap) AppendLocated(vals []int32, measure float64) (pageNo int64, slot int, err error) {
	if len(vals) != h.arity {
		return 0, 0, fmt.Errorf("heap: append of %d values to arity-%d heap", len(vals), h.arity)
	}
	var buf []byte
	if h.lastPage >= 0 && h.lastCount < h.perPage {
		pageNo = h.lastPage
		buf, err = h.pool.PinContext(h.context(), h.handle, pageNo)
		if err != nil {
			return 0, 0, err
		}
	} else {
		pageNo, buf, err = h.pool.NewPageContext(h.context(), h.handle)
		if err != nil {
			return 0, 0, err
		}
		h.lastPage = pageNo
		h.lastCount = 0
	}
	slot = h.lastCount
	off := pageHeaderSize + h.lastCount*h.tupleSize
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[off+4*i:], uint32(v))
	}
	binary.LittleEndian.PutUint64(buf[off+4*h.arity:], math.Float64bits(measure))
	h.lastCount++
	binary.LittleEndian.PutUint16(buf[0:], uint16(h.lastCount))
	h.ntuples++
	if h.lastCount == h.perPage {
		h.maybeEncodePage(buf)
	}
	return pageNo, slot, h.pool.Unpin(h.handle, pageNo, true)
}

// AppendRows adds n tuples in one call from row-major arrays: vals holds
// n*arity int32 values and measures holds n measures. Each page on the
// fill path is pinned once and its header rewritten once, amortizing the
// per-tuple pool round-trip of Append across a page of tuples.
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

// readAhead is one sequential scan's prefetch state: the distance k
// (0 = off), the watermark of pages already requested, and the loads
// still in flight. A scan waits for its in-flight loads when it ends —
// at Close or on its first error — so no frame a read-ahead load pins
// outlives the scan, and a query that returns leaves nothing pinned.
type readAhead struct {
	k        int
	mark     int64
	inflight sync.WaitGroup
}

// prefetchAhead issues read-ahead for up to ra.k pages past cur, each
// page at most once per scan.
func (h *Heap) prefetchAhead(ctx context.Context, cur int64, ra *readAhead, npages int64) {
	if ra.k <= 0 {
		return
	}
	hi := min(cur+int64(ra.k), npages-1)
	for p := max(cur+1, ra.mark); p <= hi; p++ {
		h.pool.prefetch(ctx, h.handle, p, &ra.inflight)
	}
	ra.mark = max(ra.mark, hi+1)
}

// Iterator streams a heap's tuples in storage order.
type Iterator struct {
	h       *Heap
	ctx     context.Context
	pageNo  int64
	buf     []byte
	inPage  int
	count   int
	valBuf  []int32
	done    bool
	err     error
	pinned  bool
	npages  int64
	started bool
	ra      readAhead
	// Columnar pages are decoded whole on pin into these scratch arrays
	// (isCol marks the current page's format); rows are then served from
	// them with the same per-row interface as row-major pages.
	isCol   bool
	colVals []int32
	colMeas []float64
}

// Scan returns an iterator over the heap. The iterator must be Closed.
// Appending to the heap during a scan is not supported. Page fetches
// observe the heap's context (see SetContext).
func (h *Heap) Scan() *Iterator { return h.ScanContext(h.context()) }

// ScanContext returns an iterator whose page fetches observe ctx: a scan
// of a shared base table under a canceled query context stops at the
// next buffer-pool miss instead of stalling on disk.
func (h *Heap) ScanContext(ctx context.Context) *Iterator {
	return &Iterator{h: h, ctx: ctx, valBuf: make([]int32, h.arity), npages: h.disk.NumPages()}
}

// SetReadAhead declares the scan sequential: before pinning each page the
// iterator asks the pool to prefetch up to k following pages (see
// Pool.prefetch). Zero (the default) disables read-ahead.
func (it *Iterator) SetReadAhead(k int) { it.ra.k = k }

// fail ends the scan with err once its read-ahead loads have settled.
func (it *Iterator) fail(err error) {
	it.ra.inflight.Wait()
	it.err = err
	it.done = true
}

// Next returns the next tuple, or ok=false at the end. The returned slice
// is reused between calls; callers must copy values they retain.
func (it *Iterator) Next() (vals []int32, measure float64, ok bool) {
	if it.done || it.err != nil {
		return nil, 0, false
	}
	for {
		if !it.pinned {
			if it.started {
				it.pageNo++
			}
			it.started = true
			if it.pageNo >= it.npages {
				it.done = true
				return nil, 0, false
			}
			it.h.prefetchAhead(it.ctx, it.pageNo, &it.ra, it.npages)
			buf, err := it.h.pool.PinContext(it.ctx, it.h.handle, it.pageNo)
			if err != nil {
				it.fail(err)
				return nil, 0, false
			}
			it.buf = buf
			it.pinned = true
			it.inPage = 0
			it.count = int(binary.LittleEndian.Uint16(buf[0:]))
			it.isCol = it.count > 0 && pageFormat(buf) == formatColumnar
			if it.isCol {
				if cap(it.colVals) < it.count*it.h.arity {
					it.colVals = make([]int32, it.count*it.h.arity)
					it.colMeas = make([]float64, it.count)
				}
				it.colVals = it.colVals[:it.count*it.h.arity]
				it.colMeas = it.colMeas[:it.count]
				if err := decodeColumnarRows(buf, it.h.arity, 0, it.count, it.colVals, it.colMeas); err != nil {
					it.fail(err)
					return nil, 0, false
				}
			}
		}
		if it.inPage < it.count {
			if it.isCol {
				copy(it.valBuf, it.colVals[it.inPage*it.h.arity:(it.inPage+1)*it.h.arity])
				m := it.colMeas[it.inPage]
				it.inPage++
				return it.valBuf, m, true
			}
			off := pageHeaderSize + it.inPage*it.h.tupleSize
			for i := 0; i < it.h.arity; i++ {
				it.valBuf[i] = int32(binary.LittleEndian.Uint32(it.buf[off+4*i:]))
			}
			m := math.Float64frombits(binary.LittleEndian.Uint64(it.buf[off+4*it.h.arity:]))
			it.inPage++
			return it.valBuf, m, true
		}
		if err := it.h.pool.Unpin(it.h.handle, it.pageNo, false); err != nil {
			it.fail(err)
			return nil, 0, false
		}
		it.pinned = false
	}
}

// Location returns the (page, slot) address of the tuple most recently
// returned by Next; it is only valid after a successful Next. Locations
// feed index construction.
func (it *Iterator) Location() (pageNo int64, slot int) {
	return it.pageNo, it.inPage - 1
}

// Err returns the first error encountered during iteration.
func (it *Iterator) Err() error { return it.err }

// Close releases any pinned page, after the scan's read-ahead loads have
// settled.
func (it *Iterator) Close() error {
	it.ra.inflight.Wait()
	if it.pinned {
		it.pinned = false
		if err := it.h.pool.Unpin(it.h.handle, it.pageNo, false); err != nil && it.err == nil {
			it.err = err
		}
	}
	it.done = true
	return it.err
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

// BatchIterator streams a heap's tuples in storage order, one page per
// batch: each Next pins one page, decodes every tuple in a single loop,
// and unpins — no per-tuple pool round-trips and no per-tuple
// allocation.
type BatchIterator struct {
	h       *Heap
	ctx     context.Context
	pageNo  int64
	npages  int64
	batch   Batch
	started bool
	done    bool
	err     error
	ra      readAhead
}

// ScanBatches returns a batch iterator over the heap. The iterator must
// be Closed. Appending to the heap during a scan is not supported. Page
// fetches observe the heap's context (see SetContext).
func (h *Heap) ScanBatches() *BatchIterator { return h.ScanBatchesContext(h.context()) }

// ScanBatchesContext is ScanBatches with per-scan cancellation: page
// fetches observe ctx at every buffer-pool miss.
func (h *Heap) ScanBatchesContext(ctx context.Context) *BatchIterator {
	return &BatchIterator{h: h, ctx: ctx, npages: h.disk.NumPages()}
}

// SetReadAhead declares the scan sequential: before pinning each page the
// iterator asks the pool to prefetch up to k following pages (see
// Pool.prefetch). Zero (the default) disables read-ahead.
func (it *BatchIterator) SetReadAhead(k int) { it.ra.k = k }

// fail ends the scan with err once its read-ahead loads have settled.
func (it *BatchIterator) fail(err error) {
	it.ra.inflight.Wait()
	it.err = err
	it.done = true
}

// Next decodes and returns the next page's tuples, or ok=false at the
// end. The returned batch and its arrays are reused between calls:
// callers must consume (or copy) a batch before requesting the next one.
func (it *BatchIterator) Next() (b *Batch, ok bool) {
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
		if n > 0 {
			if err := it.decode(buf, n); err != nil {
				it.h.pool.Unpin(it.h.handle, it.pageNo, false)
				it.fail(err)
				return nil, false
			}
		}
		if err := it.h.pool.Unpin(it.h.handle, it.pageNo, false); err != nil {
			it.fail(err)
			return nil, false
		}
		if n > 0 {
			return &it.batch, true
		}
		// Empty page (possible only for an empty heap's zero pages): loop on.
	}
}

// decode fills it.batch with the pinned page's n tuples, reusing the
// batch's backing arrays. It dispatches on the page's format byte, so
// row-major and columnar pages interleave transparently within one scan.
func (it *BatchIterator) decode(buf []byte, n int) error {
	arity := it.h.arity
	it.batch.Reset(arity)
	if cap(it.batch.Vals) < n*arity {
		it.batch.Vals = make([]int32, 0, it.h.perPage*arity)
	}
	if cap(it.batch.Measures) < n {
		it.batch.Measures = make([]float64, 0, it.h.perPage)
	}
	vals := it.batch.Vals[:n*arity]
	meas := it.batch.Measures[:n]
	if pageFormat(buf) == formatColumnar {
		if err := decodeColumnarRows(buf, arity, 0, n, vals, meas); err != nil {
			return err
		}
	} else {
		off := pageHeaderSize
		vi := 0
		for j := 0; j < n; j++ {
			for c := 0; c < arity; c++ {
				vals[vi] = int32(binary.LittleEndian.Uint32(buf[off+4*c:]))
				vi++
			}
			meas[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4*arity:]))
			off += it.h.tupleSize
		}
	}
	it.batch.Vals = vals
	it.batch.Measures = meas
	return nil
}

// Err returns the first error encountered during iteration.
func (it *BatchIterator) Err() error { return it.err }

// Close ends the iteration once the scan's read-ahead loads have
// settled, and reports Err. Batch iterators hold no pin of their own
// between Next calls.
func (it *BatchIterator) Close() error {
	it.ra.inflight.Wait()
	it.done = true
	return it.err
}

// ReadTuple fetches the tuple at (pageNo, slot) through the buffer pool.
// The returned value slice is freshly allocated.
func (h *Heap) ReadTuple(pageNo int64, slot int) ([]int32, float64, error) {
	if pageNo < 0 || pageNo >= h.disk.NumPages() {
		return nil, 0, fmt.Errorf("heap: page %d out of range", pageNo)
	}
	buf, err := h.pool.Pin(h.handle, pageNo)
	if err != nil {
		return nil, 0, err
	}
	defer h.pool.Unpin(h.handle, pageNo, false)
	count := int(binary.LittleEndian.Uint16(buf[0:]))
	if slot < 0 || slot >= count {
		return nil, 0, fmt.Errorf("heap: slot %d out of range on page %d (%d tuples)", slot, pageNo, count)
	}
	vals := make([]int32, h.arity)
	if pageFormat(buf) == formatColumnar {
		var m [1]float64
		if err := decodeColumnarRows(buf, h.arity, slot, 1, vals, m[:]); err != nil {
			return nil, 0, err
		}
		return vals, m[0], nil
	}
	off := pageHeaderSize + slot*h.tupleSize
	for i := 0; i < h.arity; i++ {
		vals[i] = int32(binary.LittleEndian.Uint32(buf[off+4*i:]))
	}
	m := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4*h.arity:]))
	return vals, m, nil
}

// ReadTupleBatch fetches several tuples from one page under a single pin,
// invoking fn for each requested slot in order. The vals slice passed to
// fn is reused between calls.
func (h *Heap) ReadTupleBatch(pageNo int64, slots []int32, fn func(vals []int32, measure float64) error) error {
	return h.ReadTupleBatchContext(h.context(), pageNo, slots, fn)
}

// ReadTupleBatchContext is ReadTupleBatch with cancellation: the page pin
// observes ctx before stalling on a miss.
func (h *Heap) ReadTupleBatchContext(ctx context.Context, pageNo int64, slots []int32, fn func(vals []int32, measure float64) error) error {
	if pageNo < 0 || pageNo >= h.disk.NumPages() {
		return fmt.Errorf("heap: page %d out of range", pageNo)
	}
	buf, err := h.pool.PinContext(ctx, h.handle, pageNo)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(h.handle, pageNo, false)
	count := int(binary.LittleEndian.Uint16(buf[0:]))
	vals := make([]int32, h.arity)
	if count > 0 && pageFormat(buf) == formatColumnar {
		// Decode the page once; slot lookups then index the decoded arrays
		// (a per-slot RLE decode would rewalk the runs for every probe).
		all := make([]int32, count*h.arity)
		meas := make([]float64, count)
		if err := decodeColumnarRows(buf, h.arity, 0, count, all, meas); err != nil {
			return err
		}
		for _, slot := range slots {
			if slot < 0 || int(slot) >= count {
				return fmt.Errorf("heap: slot %d out of range on page %d (%d tuples)", slot, pageNo, count)
			}
			copy(vals, all[int(slot)*h.arity:(int(slot)+1)*h.arity])
			if err := fn(vals, meas[slot]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, slot := range slots {
		if slot < 0 || int(slot) >= count {
			return fmt.Errorf("heap: slot %d out of range on page %d (%d tuples)", slot, pageNo, count)
		}
		off := pageHeaderSize + int(slot)*h.tupleSize
		for i := 0; i < h.arity; i++ {
			vals[i] = int32(binary.LittleEndian.Uint32(buf[off+4*i:]))
		}
		m := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4*h.arity:]))
		if err := fn(vals, m); err != nil {
			return err
		}
	}
	return nil
}

// Drop detaches the heap from the pool and, for temp heaps, discards
// dirty pages (their contents are dead) and closes the underlying disk,
// removing backing temp files.
func (h *Heap) Drop() error {
	if h.statsOwned {
		if err := h.pool.Discard(h.handle); err != nil {
			return err
		}
		return h.disk.Close()
	}
	return h.pool.Unregister(h.handle)
}
