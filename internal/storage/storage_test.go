package storage

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemDiskRoundTrip(t *testing.T) {
	d := NewMemDisk()
	no, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := d.WritePage(no, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(no, got); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], buf[i])
		}
	}
	if err := d.ReadPage(5, got); err == nil {
		t.Fatal("read of unallocated page should error")
	}
	if err := d.WritePage(5, got); err == nil {
		t.Fatal("write of unallocated page should error")
	}
}

func TestPoolHitAndMissAccounting(t *testing.T) {
	pool := NewPool(4)
	d := NewMemDisk()
	h := pool.Register(d)
	no, buf, err := pool.NewPage(h)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 42
	if err := pool.Unpin(h, no, true); err != nil {
		t.Fatal(err)
	}
	// Hit: still resident.
	b2, err := pool.Pin(h, no)
	if err != nil {
		t.Fatal(err)
	}
	if b2[0] != 42 {
		t.Fatal("page content lost")
	}
	if err := pool.Unpin(h, no, false); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
	if st.Reads != 0 {
		t.Fatalf("reads = %d, want 0 (never evicted)", st.Reads)
	}
}

func TestPoolEvictionWritesBackDirty(t *testing.T) {
	pool := NewPool(2)
	d := NewMemDisk()
	h := pool.Register(d)
	// Create 4 dirty pages through a 2-frame pool: evictions must write.
	var nos []int64
	for i := 0; i < 4; i++ {
		no, buf, err := pool.NewPage(h)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i + 1)
		if err := pool.Unpin(h, no, true); err != nil {
			t.Fatal(err)
		}
		nos = append(nos, no)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// All pages must be durable.
	page := make([]byte, PageSize)
	for i, no := range nos {
		if err := d.ReadPage(no, page); err != nil {
			t.Fatal(err)
		}
		if page[0] != byte(i+1) {
			t.Fatalf("page %d lost its data: %d", no, page[0])
		}
	}
	st := pool.Stats()
	if st.Writes < 4 {
		t.Fatalf("writes = %d, want >= 4", st.Writes)
	}
}

func TestPoolAllPinnedError(t *testing.T) {
	pool := NewPool(2)
	d := NewMemDisk()
	h := pool.Register(d)
	for i := 0; i < 2; i++ {
		if _, _, err := pool.NewPage(h); err != nil {
			t.Fatal(err)
		}
		// Intentionally left pinned.
	}
	_, _, err := pool.NewPage(h)
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("allocating with all frames pinned: %v, want ErrPoolExhausted", err)
	}
}

func TestPoolUnpinErrors(t *testing.T) {
	pool := NewPool(2)
	d := NewMemDisk()
	h := pool.Register(d)
	if err := pool.Unpin(h, 0, false); err == nil {
		t.Fatal("unpin of non-resident page should error")
	}
	no, _, err := pool.NewPage(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(h, no, false); err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(h, no, false); err == nil {
		t.Fatal("double unpin should error")
	}
}

func TestPoolUnregisterFlushes(t *testing.T) {
	pool := NewPool(4)
	d := NewMemDisk()
	h := pool.Register(d)
	no, buf, err := pool.NewPage(h)
	if err != nil {
		t.Fatal(err)
	}
	buf[7] = 9
	if err := pool.Unpin(h, no, true); err != nil {
		t.Fatal(err)
	}
	if err := pool.Unregister(h); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	if err := d.ReadPage(no, page); err != nil {
		t.Fatal(err)
	}
	if page[7] != 9 {
		t.Fatal("unregister dropped dirty data")
	}
	if _, err := pool.Pin(h, no); err == nil {
		t.Fatal("pin after unregister should error")
	}
	if err := pool.Unregister(h); err == nil {
		t.Fatal("double unregister should error")
	}
}

func TestHeapAppendScanRoundTrip(t *testing.T) {
	pool := NewPool(8)
	h, err := NewHeap(pool, NewMemDisk(), 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	rng := rand.New(rand.NewSource(3))
	wantVals := make([][3]int32, n)
	wantM := make([]float64, n)
	for i := 0; i < n; i++ {
		wantVals[i] = [3]int32{rng.Int31n(100), rng.Int31n(100), rng.Int31n(100)}
		wantM[i] = rng.NormFloat64()
		if err := h.Append(wantVals[i][:], wantM[i]); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumTuples() != n {
		t.Fatalf("NumTuples = %d, want %d", h.NumTuples(), n)
	}
	if got, want := h.NumPages(), PagesFor(3, n); got != want {
		t.Fatalf("NumPages = %d, want %d", got, want)
	}
	it := h.ScanBatches()
	defer it.Close()
	i := 0
	for {
		b, ok := it.Next()
		if !ok {
			break
		}
		for r := 0; r < b.Len(); r++ {
			if i >= n {
				t.Fatal("scan returned too many tuples")
			}
			vals, m := b.Row(r), b.Measures[r]
			for j := 0; j < 3; j++ {
				if vals[j] != wantVals[i][j] {
					t.Fatalf("tuple %d val %d: %d != %d", i, j, vals[j], wantVals[i][j])
				}
			}
			if m != wantM[i] {
				t.Fatalf("tuple %d measure %v != %v", i, m, wantM[i])
			}
			i++
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d tuples, want %d", i, n)
	}
}

func TestHeapArityValidation(t *testing.T) {
	pool := NewPool(4)
	h, err := NewHeap(pool, NewMemDisk(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append([]int32{1}, 0); err == nil {
		t.Fatal("wrong arity should error")
	}
	if _, err := NewHeap(pool, NewMemDisk(), -1); err == nil {
		t.Fatal("negative arity should error")
	}
	// Arity so large a tuple cannot fit in a page.
	if _, err := NewHeap(pool, NewMemDisk(), PageSize); err == nil {
		t.Fatal("oversized arity should error")
	}
}

func TestHeapZeroArity(t *testing.T) {
	pool := NewPool(4)
	h, err := NewHeap(pool, NewMemDisk(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append(nil, 3.5); err != nil {
		t.Fatal(err)
	}
	it := h.ScanBatches()
	defer it.Close()
	b, ok := it.Next()
	if !ok || b.Len() != 1 || b.Measures[0] != 3.5 {
		t.Fatalf("zero-arity scan: ok=%v batch=%+v", ok, b)
	}
	if _, ok := it.Next(); ok {
		t.Fatal("expected one tuple")
	}
}

func TestHeapScanEmptyHeap(t *testing.T) {
	pool := NewPool(4)
	h, err := NewHeap(pool, NewMemDisk(), 2)
	if err != nil {
		t.Fatal(err)
	}
	it := h.ScanBatches()
	if _, ok := it.Next(); ok {
		t.Fatal("empty heap should yield nothing")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapSurvivesPoolPressure(t *testing.T) {
	pool := NewPool(3) // tiny pool forces constant eviction
	h, err := NewHeap(pool, NewMemDisk(), 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	for i := 0; i < n; i++ {
		if err := h.Append([]int32{int32(i % 1000)}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	it := h.ScanBatches()
	defer it.Close()
	var count int
	var sum float64
	for {
		b, ok := it.Next()
		if !ok {
			break
		}
		for _, m := range b.Measures {
			sum += m
			count++
		}
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	if want := float64(n) * float64(n-1) / 2; sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
	st := pool.Stats()
	if st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("expected physical IO with a 3-frame pool, got %+v", st)
	}
	if err := h.Drop(); err != nil {
		t.Fatal(err)
	}
}

func TestTempHeapDropClosesDisk(t *testing.T) {
	pool := NewPool(4)
	d := NewMemDisk()
	h, err := NewTempHeap(pool, func() (Disk, error) { return d, nil }, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append([]int32{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Drop(); err != nil {
		t.Fatal(err)
	}
	if n := d.NumPages(); n != 0 {
		t.Fatalf("temp disk still holds %d pages after Drop", n)
	}
}

func TestPagesForProperty(t *testing.T) {
	f := func(arity8 uint8, n16 uint16) bool {
		arity := int(arity8%20) + 1
		n := int64(n16)
		pages := PagesFor(arity, n)
		per := int64(TuplesPerPage(arity))
		if n == 0 {
			return pages == 0
		}
		return pages*per >= n && (pages-1)*per < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{Reads: 10, Writes: 4, Hits: 7}
	b := Stats{Reads: 3, Writes: 1, Hits: 2}
	d := a.Sub(b)
	if d.Reads != 7 || d.Writes != 3 || d.Hits != 5 {
		t.Fatalf("Sub = %+v", d)
	}
	if a.IO() != 14 {
		t.Fatalf("IO = %d", a.IO())
	}
}

// Pin is PinContext without cancellation.
func (p *Pool) Pin(h, no int64) ([]byte, error) {
	return p.PinContext(context.Background(), h, no)
}

// ResetStats zeroes the IO counters.
func (p *Pool) ResetStats() {
	p.mu.Lock()
	p.stats = Stats{}
	p.mu.Unlock()
	p.retryN.Store(0)
	p.transientN.Store(0)
	p.permanentN.Store(0)
	p.checksumN.Store(0)
	p.encPages.Store(0)
	p.encFallback.Store(0)
	p.encSegPlain.Store(0)
	p.encSegByte.Store(0)
	p.encSegRLE.Store(0)
	p.encSegDict.Store(0)
	p.encSaved.Store(0)
}

// Append adds one tuple; vals must have length equal to the heap's
// arity.
func (h *Heap) Append(vals []int32, measure float64) error {
	return h.AppendRows(vals, []float64{measure})
}

// Page returns the heap page the current batch was decoded from; a row's
// slot on that page is its index in the batch.
func (c *pageCursor) Page() int64 { return c.page }

// ScanColBatches is ScanColBatchesContext under the heap's context.
func (h *Heap) ScanColBatches() *ColBatchIterator { return h.ScanColBatchesContext(h.context()) }

// Row gathers row i's values across all columns into dst, which must
// have length Arity.
func (cb *ColBatch) Row(i int, dst []int32) {
	for c := range cb.Cols {
		dst[c] = cb.Cols[c].Flat()[i]
	}
}
