package storage

import (
	"context"
	"errors"
	"testing"
	"time"
)

// countdownFaultDisk wraps a fresh MemDisk in a FaultDisk whose schedule
// fails deterministically: reads from the failReads-th successful read
// on, writes likewise, allocations always when failAlloc. failReads /
// failWrites of -1 never fail (the FaultPlan countdowns are 1-based and
// 0 disables them).
func countdownFaultDisk(failReads, failWrites int, failAlloc bool) *FaultDisk {
	plan := FaultPlan{FailAlloc: failAlloc}
	if failReads >= 0 {
		plan.FailReadOp = failReads + 1
	}
	if failWrites >= 0 {
		plan.FailWriteOp = failWrites + 1
	}
	return NewFaultDisk(NewMemDisk(), plan)
}

func TestPinSurfacesReadFault(t *testing.T) {
	pool := NewPool(2)
	d := countdownFaultDisk(0, -1, false)
	h := pool.Register(d)
	no, _, err := pool.NewPage(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(h, no, true); err != nil {
		t.Fatal(err)
	}
	// Force eviction so the page must be re-read, which fails.
	for i := 0; i < 2; i++ {
		n2, _, err := pool.NewPage(h)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(h, n2, false)
	}
	_, err = pool.Pin(h, no)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("expected injected read fault, got %v", err)
	}
	if !errors.Is(err, ErrIO) {
		t.Fatalf("read fault should match ErrIO, got %v", err)
	}
	var ioe *IOError
	if !errors.As(err, &ioe) || ioe.Op != "read" || ioe.Handle != h || ioe.Page != no {
		t.Fatalf("expected *IOError{read, %d, %d}, got %#v", h, no, err)
	}
}

func TestEvictionSurfacesWritebackError(t *testing.T) {
	pool := NewPool(2)
	d := countdownFaultDisk(-1, 0, false)
	h := pool.Register(d)
	// Two dirty pages fill the pool; the third allocation must evict and
	// write back, which fails.
	var dirty []int64
	for i := 0; i < 2; i++ {
		no, _, err := pool.NewPage(h)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(h, no, true)
		dirty = append(dirty, no)
	}
	_, _, err := pool.NewPage(h)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("expected injected write fault on eviction, got %v", err)
	}
	// The failure must be attributed to the dirty VICTIM, not the page the
	// caller asked for, and must match the IO category.
	var wbe *WritebackError
	if !errors.As(err, &wbe) {
		t.Fatalf("expected *WritebackError, got %#v", err)
	}
	if wbe.Handle != h || (wbe.Page != dirty[0] && wbe.Page != dirty[1]) {
		t.Fatalf("writeback error names %d/%d, want a dirty victim of %v", wbe.Handle, wbe.Page, dirty)
	}
	if !errors.Is(err, ErrIO) {
		t.Fatalf("writeback fault should match ErrIO, got %v", err)
	}
	// The victim frame stayed dirty and resident: the data is not lost.
	// Heal the disk; both dirty pages must still flush.
	d.SetPlan(FaultPlan{})
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("flush after healing: %v", err)
	}
	for _, no := range dirty {
		if _, err := pool.Pin(h, no); err != nil {
			t.Fatalf("pin of preserved page %d: %v", no, err)
		}
		pool.Unpin(h, no, false)
	}
}

func TestAllocateFaultSurfacesInNewPage(t *testing.T) {
	pool := NewPool(2)
	d := countdownFaultDisk(-1, -1, true)
	h := pool.Register(d)
	_, _, err := pool.NewPage(h)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("expected injected alloc fault, got %v", err)
	}
	var ioe *IOError
	if !errors.As(err, &ioe) || ioe.Op != "alloc" {
		t.Fatalf("expected *IOError{alloc}, got %#v", err)
	}
}

func TestFlushAllSurfacesWriteFault(t *testing.T) {
	pool := NewPool(4)
	d := countdownFaultDisk(-1, 0, false)
	h := pool.Register(d)
	no, _, err := pool.NewPage(h)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(h, no, true)
	ferr := pool.FlushAll()
	if !errors.Is(ferr, ErrInjected) {
		t.Fatalf("expected injected write fault from FlushAll, got %v", ferr)
	}
	var wbe *WritebackError
	if !errors.As(ferr, &wbe) || wbe.Page != no {
		t.Fatalf("expected *WritebackError for page %d, got %#v", no, ferr)
	}
}

func TestHeapAppendSurfacesFault(t *testing.T) {
	pool := NewPool(4)
	d := countdownFaultDisk(-1, -1, true)
	heap, err := NewHeap(pool, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := heap.Append([]int32{0}, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("expected injected fault from Append, got %v", err)
	}
}

func TestScanSurfacesReadFault(t *testing.T) {
	pool := NewPool(2)
	d := countdownFaultDisk(-1, -1, false)
	heap, err := NewHeap(pool, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	per := TuplesPerPage(1)
	for i := 0; i < per*3; i++ {
		if err := heap.Append([]int32{int32(i % 100)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Now fail all further reads; the scan must stop with the error.
	d.SetPlan(FaultPlan{FailReadOp: int(d.Stats().Reads) + 1})
	// Evict everything by filling the pool from another disk.
	d2 := NewMemDisk()
	h2 := pool.Register(d2)
	for i := 0; i < 2; i++ {
		no, _, err := pool.NewPage(h2)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(h2, no, false)
	}
	it := heap.ScanBatches()
	defer it.Close()
	count := 0
	for {
		b, ok := it.Next()
		if !ok {
			break
		}
		count += b.Len()
	}
	if !errors.Is(it.Err(), ErrInjected) {
		t.Fatalf("expected injected fault from scan (after %d tuples), got %v", count, it.Err())
	}
}

func TestDiscardSkipsWriteback(t *testing.T) {
	pool := NewPool(4)
	d := countdownFaultDisk(-1, 0, false) // any writeback would fail
	h := pool.Register(d)
	no, _, err := pool.NewPage(h)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(h, no, true)
	// Discard must succeed despite the dirty page because it never writes.
	if err := pool.Discard(h); err != nil {
		t.Fatalf("Discard should skip writeback: %v", err)
	}
}

func TestRetryAbsorbsTransientReadFault(t *testing.T) {
	pool := NewPool(2)
	pool.SetRetry(8, time.Microsecond, 10*time.Microsecond)
	// Seed 7 at p=0.25 injects transient read faults frequently; every
	// one must be absorbed by retry with the page contents intact (eight
	// retries put exhaustion at 0.25^9 per operation).
	d := NewFaultDisk(NewMemDisk(), FaultPlan{Seed: 7, ReadErr: 0.25})
	h := pool.Register(d)
	const pages = 8
	for i := 0; i < pages; i++ {
		no, buf, err := pool.NewPage(h)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(no + 1)
		pool.Unpin(h, no, true)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		for no := int64(0); no < pages; no++ {
			buf, err := pool.Pin(h, no)
			if err != nil {
				t.Fatalf("round %d page %d: %v", round, no, err)
			}
			if buf[0] != byte(no+1) {
				t.Fatalf("page %d holds byte %d after retries", no, buf[0])
			}
			pool.Unpin(h, no, false)
		}
	}
	st := pool.Stats()
	if st.TransientFaults == 0 || st.Retries == 0 {
		t.Fatalf("fault schedule never fired: %+v", st)
	}
	if st.PermanentFaults != 0 {
		t.Fatalf("transient-only schedule escaped retry %d times", st.PermanentFaults)
	}
}

func TestRetryExhaustionIsPermanent(t *testing.T) {
	pool := NewPool(2)
	pool.SetRetry(2, time.Microsecond, 10*time.Microsecond)
	d := NewFaultDisk(NewMemDisk(), FaultPlan{Seed: 1, ReadErr: 1}) // every read faults
	h := pool.Register(d)
	no, _, err := pool.NewPage(h)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(h, no, true)
	for i := 0; i < 2; i++ { // evict page no
		n2, _, err := pool.NewPage(h)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(h, n2, false)
	}
	_, perr := pool.Pin(h, no)
	if !errors.Is(perr, ErrIO) || !errors.Is(perr, ErrInjected) {
		t.Fatalf("exhausted retries should surface as ErrIO, got %v", perr)
	}
	st := pool.Stats()
	if st.Retries != 2 || st.PermanentFaults != 1 {
		t.Fatalf("want 2 retries then permanent, got %+v", st)
	}
}

func TestRetryBackoffObservesCancellation(t *testing.T) {
	pool := NewPool(2)
	pool.SetRetry(5, time.Hour, time.Hour) // a real wait: only ctx can end it
	d := NewFaultDisk(NewMemDisk(), FaultPlan{Seed: 1, ReadErr: 1})
	h := pool.Register(d)
	no, _, err := pool.NewPage(h)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(h, no, true)
	for i := 0; i < 2; i++ {
		n2, _, err := pool.NewPage(h)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(h, n2, false)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, perr := pool.PinContext(ctx, h, no)
	if !errors.Is(perr, context.DeadlineExceeded) {
		t.Fatalf("expected ctx deadline from backoff wait, got %v", perr)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("backoff ignored cancellation for %v", waited)
	}
	if pool.Pinned() != 0 {
		t.Fatalf("canceled pin left %d frames pinned", pool.Pinned())
	}
}

func TestCorruptPageDetectedOnFill(t *testing.T) {
	pool := NewPool(2)
	pool.SetRetry(3, time.Microsecond, 10*time.Microsecond)
	inner := NewMemDisk()
	d := NewFaultDisk(inner, FaultPlan{})
	h := pool.Register(d)
	no, buf, err := pool.NewPage(h)
	if err != nil {
		t.Fatal(err)
	}
	buf[10] = 0xAB
	pool.Unpin(h, no, true)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Flip one bit on the underlying media, bypassing the pool.
	raw := make([]byte, PageSize)
	if err := inner.ReadPage(no, raw); err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0x01
	if err := inner.WritePage(no, raw); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // evict page no
		n2, _, err := pool.NewPage(h)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(h, n2, false)
	}
	_, perr := pool.Pin(h, no)
	if !errors.Is(perr, ErrCorruptPage) {
		t.Fatalf("expected checksum failure, got %v", perr)
	}
	var cpe *CorruptPageError
	if !errors.As(perr, &cpe) || cpe.Handle != h || cpe.Page != no {
		t.Fatalf("expected *CorruptPageError{%d, %d}, got %#v", h, no, perr)
	}
	st := pool.Stats()
	if st.ChecksumFailures != 1 {
		t.Fatalf("want 1 checksum failure, got %+v", st)
	}
	if st.Retries != 0 {
		t.Fatalf("checksum failures must not be retried, got %d retries", st.Retries)
	}
	if pool.Pinned() != 0 {
		t.Fatalf("corrupt fill left %d frames pinned", pool.Pinned())
	}
}

func TestFaultDiskScheduleDeterministic(t *testing.T) {
	run := func() FaultStats {
		d := NewFaultDisk(NewMemDisk(), FaultPlan{Seed: 42, ReadErr: 0.2, WriteErr: 0.2, Corrupt: 0.1, Torn: 0.05})
		buf := make([]byte, PageSize)
		no, err := d.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			d.WritePage(no, buf)
			d.ReadPage(no, buf)
		}
		return d.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different schedules:\n%+v\n%+v", a, b)
	}
	if a.Injected() == 0 {
		t.Fatal("schedule injected nothing")
	}
}
