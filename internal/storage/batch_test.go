package storage

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
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

// failedScanSource writes a 40-page arity-2 heap for the failed-scan
// tests and returns its disk, flushed, for them to reopen under a cold
// pool.
func failedScanSource(t *testing.T) *MemDisk {
	t.Helper()
	src := NewMemDisk()
	w, err := NewHeap(NewPool(64), src, 2)
	if err != nil {
		t.Fatal(err)
	}
	fillHeap(t, w, 40*TuplesPerPage(2), 7)
	if err := w.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return src
}

// attachHeap attaches a heap of the given arity to n tuples already on
// d's pages, every page full but the last.
func attachHeap(pool *Pool, d Disk, arity int, n int64) *Heap {
	per := int64(TuplesPerPage(arity))
	last := d.NumPages() - 1
	return &Heap{pool: pool, disk: d, handle: pool.Register(d), arity: arity, tupleSize: tupleSize(arity),
		perPage: int(per), ntuples: n, lastPage: last, lastCount: int(n - last*per)}
}

// runFailedScan scans h to its end under ctx, in the column-batch shape
// when columns is set and the row-major one otherwise, and returns the
// error the scan reported. When there is one, it checks that the scan
// reported it with no frame pinned, that calling Next again issues no
// further read, and that Close reports the same error and unpins all.
func runFailedScan(t *testing.T, rep int, pool *Pool, h *Heap, ctx context.Context, columns bool) error {
	t.Helper()
	var next func() bool
	var it interface {
		Err() error
		Close() error
	}
	if columns {
		ci := h.ScanColBatchesContext(ctx)
		next, it = func() bool { _, ok := ci.Next(); return ok }, ci
	} else {
		bi := h.ScanBatchesContext(ctx)
		next, it = func() bool { _, ok := bi.Next(); return ok }, bi
	}
	for next() {
	}
	scanErr := it.Err()
	if scanErr == nil {
		if err := it.Close(); err != nil {
			t.Fatalf("rep %d: Close after a clean scan: %v", rep, err)
		}
		return nil
	}
	if n := pool.Pinned(); n != 0 {
		t.Fatalf("rep %d: %d frames pinned when the scan reported %v", rep, n, scanErr)
	}
	reads := pool.Stats().Reads
	if next() || pool.Stats().Reads != reads {
		t.Fatalf("rep %d: scan went on after reporting %v", rep, scanErr)
	}
	if err := it.Close(); err != scanErr {
		t.Fatalf("rep %d: Close reported %v, want %v", rep, err, scanErr)
	}
	if n := pool.Pinned(); n != 0 {
		t.Fatalf("rep %d: %d frames pinned after Close", rep, n)
	}
	return scanErr
}

// TestScanReadAheadCanceled: a scan under a canceled context reads no
// page, reports the cancellation, and leaves nothing pinned, in both
// batch shapes.
func TestScanReadAheadCanceled(t *testing.T) {
	src := failedScanSource(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for rep, columns := range []bool{false, true} {
		pool := NewPool(16)
		h := attachHeap(pool, src, 2, int64(40*TuplesPerPage(2)))
		before := pool.Stats().Reads
		if runFailedScan(t, rep, pool, h, ctx, columns) == nil {
			t.Fatalf("rep %d: scan under a canceled context reported no error", rep)
		}
		if reads := pool.Stats().Reads; reads != before {
			t.Fatalf("rep %d: canceled scan read %d pages", rep, reads-before)
		}
	}
}

// TestReadAheadSettlesBeforeScanEnds: a scan that fails on a permanent
// read fault has nothing pinned the moment it reports the error, reads
// no further page, and Close reports the same error. Reps alternate the
// two batch shapes, which walk the same cursor.
func TestReadAheadSettlesBeforeScanEnds(t *testing.T) {
	src := failedScanSource(t)
	failures := 0
	for rep := 0; rep < 24; rep++ {
		pool := NewPool(16)
		d := NewFaultDisk(src, FaultPlan{})
		h := attachHeap(pool, d, 2, int64(40*TuplesPerPage(2)))
		d.SetPlan(FaultPlan{Seed: int64(rep), PermReadErr: 0.15})
		if runFailedScan(t, rep, pool, h, context.Background(), rep%2 == 1) != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no scan hit a read fault; the test exercised nothing")
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
