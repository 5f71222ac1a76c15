package storage

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fillHeap appends n pseudo-random arity-2 tuples via AppendRows and
// returns the flat arrays for comparison.
func fillHeap(t testing.TB, h *Heap, n int, seed int64) ([]int32, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int32, n*h.Arity())
	meas := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Int31n(1000)
	}
	for i := range meas {
		meas[i] = rng.NormFloat64()
	}
	if err := h.AppendRows(vals, meas); err != nil {
		t.Fatal(err)
	}
	return vals, meas
}

// TestAppendRowsMatchesAppend: bulk append must produce the same pages
// as the equivalent per-tuple appends — same tuple count, page count,
// and scan contents.
func TestAppendRowsMatchesAppend(t *testing.T) {
	pool := NewPool(16)
	one, err := NewHeap(pool, NewMemDisk(), 2)
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := NewHeap(pool, NewMemDisk(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// An odd count not aligned to the page capacity, appended in uneven
	// chunks so AppendRows exercises mid-page starts and page spills.
	const n = 1234
	rng := rand.New(rand.NewSource(9))
	allVals := make([]int32, 0, n*2)
	allMeas := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := []int32{rng.Int31n(50), rng.Int31n(50)}
		m := rng.NormFloat64()
		allVals = append(allVals, v...)
		allMeas = append(allMeas, m)
		if err := one.Append(v, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; {
		k := int(rng.Int31n(300)) + 1
		if i+k > n {
			k = n - i
		}
		if err := bulk.AppendRows(allVals[i*2:(i+k)*2], allMeas[i:i+k]); err != nil {
			t.Fatal(err)
		}
		i += k
	}
	if one.NumTuples() != bulk.NumTuples() || one.NumPages() != bulk.NumPages() {
		t.Fatalf("bulk heap shape (%d tuples, %d pages) != per-tuple shape (%d tuples, %d pages)",
			bulk.NumTuples(), bulk.NumPages(), one.NumTuples(), one.NumPages())
	}
	rows := func(h *Heap) ([]int32, []float64) {
		var vals []int32
		var meas []float64
		it := h.ScanBatches()
		defer it.Close()
		for b, ok := it.Next(); ok; b, ok = it.Next() {
			vals = append(vals, b.Vals...)
			meas = append(meas, b.Measures...)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return vals, meas
	}
	v1, m1 := rows(one)
	v2, m2 := rows(bulk)
	if len(v1) != len(v2) || len(m1) != len(m2) {
		t.Fatal("scan lengths differ")
	}
	for i := range m1 {
		if v1[2*i] != v2[2*i] || v1[2*i+1] != v2[2*i+1] || math.Float64bits(m1[i]) != math.Float64bits(m2[i]) {
			t.Fatalf("tuple %d mismatch: %v/%v vs %v/%v", i, v1[2*i:2*i+2], m1[i], v2[2*i:2*i+2], m2[i])
		}
	}
}

// TestBatchScanMatchesTupleScan: the batch iterator must yield exactly
// the tuple iterator's stream, one whole page per batch.
func TestBatchScanMatchesTupleScan(t *testing.T) {
	pool := NewPool(16)
	h, err := NewHeap(pool, NewMemDisk(), 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3001
	vals, meas := fillHeap(t, h, n, 2)
	it := h.ScanBatches()
	i := 0
	for {
		b, ok := it.Next()
		if !ok {
			break
		}
		if want := min(TuplesPerPage(2), n-i); b.Len() != want {
			t.Fatalf("batch of %d rows at tuple %d, want the page's %d", b.Len(), i, want)
		}
		for j := 0; j < b.Len(); j++ {
			row := b.Row(j)
			if row[0] != vals[i*2] || row[1] != vals[i*2+1] ||
				math.Float64bits(b.Measures[j]) != math.Float64bits(meas[i]) {
				t.Fatalf("tuple %d mismatch", i)
			}
			i++
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d tuples, want %d", i, n)
	}
}

// TestScanReadAhead: read-ahead must not change the scanned stream, must
// record prefetches in the pool stats, and must not inflate physical
// reads (each page is read once, by prefetch or by the scan).
func TestScanReadAhead(t *testing.T) {
	wpool := NewPool(64)
	d := NewMemDisk()
	hw, err := NewHeap(wpool, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	vals, meas := fillHeap(t, hw, n, 3)
	npages := hw.NumPages()
	if err := wpool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	scan := func(ra int) Stats {
		// A fresh pool per scan so every page access starts cold, over a
		// latency-wrapped view of the data: reads take long enough that
		// prefetchers actually get ahead of the scan (with an instant disk
		// on one CPU the scan wins every race and read-ahead is a no-op).
		pool := NewPool(64)
		h, err := OpenHeap(pool, NewLatencyDisk(d, time.Millisecond, 0), 2)
		if err != nil {
			t.Fatal(err)
		}
		before := pool.Stats()
		it := h.ScanBatches()
		it.SetReadAhead(ra)
		i := 0
		for {
			b, ok := it.Next()
			if !ok {
				break
			}
			for j := 0; j < b.Len(); j++ {
				row := b.Row(j)
				if row[0] != vals[i*2] || row[1] != vals[i*2+1] ||
					math.Float64bits(b.Measures[j]) != math.Float64bits(meas[i]) {
					t.Fatalf("ra %d: tuple %d mismatch", ra, i)
				}
				i++
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if i != n {
			t.Fatalf("ra %d: scanned %d tuples, want %d", ra, i, n)
		}
		return pool.Stats().Sub(before)
	}

	plain := scan(0)
	if plain.Prefetches != 0 {
		t.Fatalf("read-ahead off recorded %d prefetches", plain.Prefetches)
	}
	ahead := scan(4)
	if ahead.Prefetches == 0 {
		t.Fatal("read-ahead recorded no prefetches")
	}
	if ahead.Reads > plain.Reads {
		t.Fatalf("read-ahead inflated physical reads: %d > %d", ahead.Reads, plain.Reads)
	}
	// OpenHeap already faulted in the last page (outside the measured
	// window), so a cold scan reads every page but that one.
	if plain.Reads < npages-1 {
		t.Fatalf("cold scan read %d pages, heap has %d", plain.Reads, npages)
	}
}

// TestScanReadAheadCanceled: a canceled context stops issuing prefetches
// and the scan surfaces the cancellation.
func TestScanReadAheadCanceled(t *testing.T) {
	wpool := NewPool(64)
	d := NewMemDisk()
	hw, err := NewHeap(wpool, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	fillHeap(t, hw, 4000, 4)
	if err := wpool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// A fresh pool so the scan's first page is a miss, where cancellation
	// is observed.
	pool := NewPool(64)
	h, err := OpenHeap(pool, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	it := h.ScanBatchesContext(ctx)
	it.SetReadAhead(4)
	if _, ok := it.Next(); ok {
		t.Fatal("scan under canceled context returned a batch")
	}
	if it.Err() == nil {
		t.Fatal("canceled scan reported no error")
	}
	if p := pool.Stats().Prefetches; p != 0 {
		t.Fatalf("canceled scan still prefetched %d pages", p)
	}
}

// TestReadAheadSettlesBeforeScanEnds is the regression test for read-ahead
// outliving the scan that issued it: a prefetch pins its frame for the
// whole disk read, so a scan that fails on a permanent read fault while
// slow prefetches of the pages ahead are still loading must wait for
// them — nothing may be pinned the moment the scan reports its error.
func TestReadAheadSettlesBeforeScanEnds(t *testing.T) {
	src := NewMemDisk()
	w, err := NewHeap(NewPool(64), src, 2)
	if err != nil {
		t.Fatal(err)
	}
	fillHeap(t, w, 40*TuplesPerPage(2), 7)
	if err := w.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	failures := 0
	for rep := 0; rep < 24; rep++ {
		pool := NewPool(16)
		d := NewFaultDisk(NewLatencyDisk(src, time.Millisecond, 0), FaultPlan{})
		h, err := OpenHeap(pool, d, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Faults fail a read at once; the prefetches of the pages after it
		// are still sleeping on the latency disk.
		d.SetPlan(FaultPlan{Seed: int64(rep), PermReadErr: 0.15})
		var it interface{ Close() error }
		var scanErr error
		switch rep % 2 {
		case 0:
			bi := h.ScanBatches()
			bi.SetReadAhead(4)
			for _, ok := bi.Next(); ok; _, ok = bi.Next() {
			}
			it, scanErr = bi, bi.Err()
		default:
			ci := h.ScanColBatches()
			ci.SetReadAhead(4)
			for _, ok := ci.Next(); ok; _, ok = ci.Next() {
			}
			it, scanErr = ci, ci.Err()
		}
		if scanErr != nil {
			failures++
			if n := pool.Pinned(); n != 0 {
				t.Fatalf("rep %d: %d frames pinned when the scan reported %v", rep, n, scanErr)
			}
		}
		it.Close()
		if n := pool.Pinned(); n != 0 {
			t.Fatalf("rep %d: %d frames pinned after Close", rep, n)
		}
	}
	if failures == 0 {
		t.Fatal("no scan hit a fault; the test exercised nothing")
	}
}

// TestScanAllocsPerOp is the allocation-regression guard: steady-state
// iteration must not allocate — both batch shapes reuse their decode
// arrays page after page — so whole-heap scans cost O(1) allocations
// regardless of tuple count.
func TestScanAllocsPerOp(t *testing.T) {
	pool := NewPool(64)
	h, err := NewHeap(pool, NewMemDisk(), 2)
	if err != nil {
		t.Fatal(err)
	}
	fillHeap(t, h, 20000, 5)

	// Column-batch iterator: the iterator struct, its views, their one
	// column-major backing array and the measures.
	colScan := func() {
		it := h.ScanColBatches()
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Batch iterator: the iterator struct and two decode arrays.
	batchScan := func() {
		it := h.ScanBatches()
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if g := testing.AllocsPerRun(10, colScan); g > 4 {
		t.Fatalf("column-batch scan of 20000 tuples allocates %v objects, want ≤ 4", g)
	}
	if g := testing.AllocsPerRun(10, batchScan); g > 4 {
		t.Fatalf("batch scan of 20000 tuples allocates %v objects, want ≤ 4", g)
	}
}

// TestPrefetchConcurrentScan exercises prefetch racing a same-heap scan
// under a small pool: whatever interleaving occurs, the scan must see
// every tuple exactly once.
func TestPrefetchConcurrentScan(t *testing.T) {
	pool := NewPool(8)
	h, err := NewHeap(pool, NewMemDisk(), 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	vals, _ := fillHeap(t, h, n, 6)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var loads sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := int64(0); p < h.NumPages(); p++ {
			pool.prefetch(context.Background(), h.handle, p, &loads)
		}
	}()
	it := h.ScanBatches()
	it.SetReadAhead(3)
	i := 0
	for {
		b, ok := it.Next()
		if !ok {
			break
		}
		for j := 0; j < b.Len(); j++ {
			if b.Row(j)[0] != vals[i*2] {
				t.Fatalf("tuple %d mismatch under concurrent prefetch", i)
			}
			i++
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d tuples, want %d", i, n)
	}
	<-done
	loads.Wait()
}

// FuzzHeapPageRoundTrip drives arbitrary tuple streams through append
// and both batch shapes, guarding the one row-major decode loop in both
// of its layouts: for any arity, tuple count, value pattern, and measure
// bit pattern (including NaNs), both iterators must reproduce the
// appended stream bit for bit.
func FuzzHeapPageRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint16(300), int64(1))
	f.Add(uint8(0), uint16(1), int64(2))
	f.Add(uint8(13), uint16(511), int64(3))
	f.Add(uint8(1), uint16(0), int64(4))
	f.Fuzz(func(t *testing.T, arityB uint8, countB uint16, seed int64) {
		arity := int(arityB % 16)
		n := int(countB % 2048)
		pool := NewPool(16)
		h, err := NewHeap(pool, NewMemDisk(), arity)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int32, n*arity)
		meas := make([]float64, n)
		for i := range vals {
			vals[i] = int32(rng.Uint32())
		}
		for i := range meas {
			// Raw bit patterns: exercises NaN payloads, infinities, and
			// denormals through the measure codec.
			meas[i] = math.Float64frombits(rng.Uint64())
		}
		half := n / 2
		for i := 0; i < half; i++ {
			if err := h.Append(vals[i*arity:(i+1)*arity], meas[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.AppendRows(vals[half*arity:], meas[half:]); err != nil {
			t.Fatal(err)
		}
		if h.NumTuples() != int64(n) {
			t.Fatalf("NumTuples = %d, want %d", h.NumTuples(), n)
		}

		check := func(i int, row []int32, m float64) {
			t.Helper()
			for c := 0; c < arity; c++ {
				if row[c] != vals[i*arity+c] {
					t.Fatalf("tuple %d col %d: %d != %d", i, c, row[c], vals[i*arity+c])
				}
			}
			if math.Float64bits(m) != math.Float64bits(meas[i]) {
				t.Fatalf("tuple %d measure bits %x != %x", i, math.Float64bits(m), math.Float64bits(meas[i]))
			}
		}
		it := h.ScanColBatches()
		i := 0
		row := make([]int32, arity)
		for {
			cb, ok := it.Next()
			if !ok {
				break
			}
			for j := 0; j < cb.Len(); j++ {
				cb.Row(j, row)
				check(i, row, cb.Measures[j])
				i++
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if i != n {
			t.Fatalf("column-batch scan returned %d tuples, want %d", i, n)
		}
		bit := h.ScanBatches()
		i = 0
		for {
			b, ok := bit.Next()
			if !ok {
				break
			}
			for j := 0; j < b.Len(); j++ {
				check(i, b.Row(j), b.Measures[j])
				i++
			}
		}
		if err := bit.Close(); err != nil {
			t.Fatal(err)
		}
		if i != n {
			t.Fatalf("batch scan returned %d tuples, want %d", i, n)
		}
		// The on-page bytes themselves: the last page's header count must
		// agree with the recovered tuple total.
		if n > 0 {
			buf, err := pool.Pin(h.handle, h.NumPages()-1)
			if err != nil {
				t.Fatal(err)
			}
			last := int(binary.LittleEndian.Uint16(buf[0:]))
			pool.Unpin(h.handle, h.NumPages()-1, false)
			per := TuplesPerPage(arity)
			if want := n - (int(h.NumPages())-1)*per; last != want {
				t.Fatalf("last page header %d, want %d", last, want)
			}
		}
	})
}
