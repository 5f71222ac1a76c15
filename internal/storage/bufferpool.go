package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stats aggregates the physical IO performed through a buffer pool,
// together with the fault counters of its resilience machinery (retry,
// checksum verification).
type Stats struct {
	Reads  int64 `json:"reads"`  // pages fetched from a Disk
	Writes int64 `json:"writes"` // pages written back to a Disk
	Hits   int64 `json:"hits"`   // page requests satisfied from the pool
	// Retries counts IO re-attempts issued after transient faults
	// (SetRetry); zero in a fault-free run.
	Retries int64 `json:"retries,omitempty"`
	// TransientFaults counts transient IO faults observed (injected by a
	// FaultDisk or real errno-class faults), whether or not a retry
	// ultimately succeeded.
	TransientFaults int64 `json:"transient_faults,omitempty"`
	// PermanentFaults counts IO errors the pool propagated to callers:
	// non-transient faults, and transient faults that exhausted their
	// retries. Checksum failures are counted separately.
	PermanentFaults int64 `json:"permanent_faults,omitempty"`
	// ChecksumFailures counts page fills whose contents failed checksum
	// verification (surfaced as *CorruptPageError, never retried).
	ChecksumFailures int64 `json:"checksum_failures,omitempty"`
}

// IO returns total physical page transfers (reads + writes), the quantity
// the paper's cost model minimizes for disk-resident operands.
func (s Stats) IO() int64 { return s.Reads + s.Writes }

// Sub returns s - o, useful for measuring the IO of one query by
// snapshotting before and after.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:            s.Reads - o.Reads,
		Writes:           s.Writes - o.Writes,
		Hits:             s.Hits - o.Hits,
		Retries:          s.Retries - o.Retries,
		TransientFaults:  s.TransientFaults - o.TransientFaults,
		PermanentFaults:  s.PermanentFaults - o.PermanentFaults,
		ChecksumFailures: s.ChecksumFailures - o.ChecksumFailures,
	}
}

// Add returns s + o, useful for accumulating per-operator deltas.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:            s.Reads + o.Reads,
		Writes:           s.Writes + o.Writes,
		Hits:             s.Hits + o.Hits,
		Retries:          s.Retries + o.Retries,
		TransientFaults:  s.TransientFaults + o.TransientFaults,
		PermanentFaults:  s.PermanentFaults + o.PermanentFaults,
		ChecksumFailures: s.ChecksumFailures + o.ChecksumFailures,
	}
}

type pageKey struct {
	disk int64
	no   int64
}

type frame struct {
	key     pageKey
	buf     []byte
	pins    int
	dirty   bool
	ref     bool // clock reference bit
	valid   bool
	loading bool // a pinner is filling buf from disk outside the pool lock
}

// Pool is a shared buffer pool with clock (second-chance) eviction. All
// page access in the engine flows through a Pool so that Stats faithfully
// reflect every plan's physical IO.
//
// A Pool is safe for concurrent use. The critical sections under the pool
// mutex are kept short: a miss reserves a frame under the lock but
// performs the physical page read with the lock released, so concurrent
// pins — the access pattern of the engine's intra-query parallel
// operators — overlap their IO waits instead of serializing on the pool.
type Pool struct {
	mu      sync.Mutex
	loaded  sync.Cond // signaled when a loading frame settles
	frames  []frame
	table   map[pageKey]int
	hand    int
	stats   Stats
	disks   map[int64]Disk
	diskSeq int64
	// retries/backoffBase/backoffCap configure transient-fault retry
	// (SetRetry); set before the pool is shared, never concurrently with
	// page traffic.
	retries     int
	backoffBase time.Duration
	backoffCap  time.Duration
	// Fault counters live outside p.stats because the read path observes
	// faults with the pool lock released; Stats() folds them in.
	retryN, transientN, permanentN, checksumN atomic.Int64
	// Columnar page-encoding counters (EncodingStats); atomics for the
	// same reason — heaps encode pages with the pool lock released.
	encPages, encFallback, encSegPlain, encSegByte, encSegRLE, encSegDict, encSaved atomic.Int64
}

// NewPool returns a pool with the given number of page frames. At least
// two frames are required (one being evicted, one being filled).
func NewPool(frames int) *Pool {
	if frames < 2 {
		frames = 2
	}
	p := &Pool{
		frames: make([]frame, frames),
		table:  make(map[pageKey]int, frames),
		disks:  make(map[int64]Disk),
	}
	p.loaded.L = &p.mu
	for i := range p.frames {
		p.frames[i].buf = make([]byte, PageSize)
	}
	return p
}

// Register attaches a disk to the pool, returning a handle used in page
// requests. A disk must be registered with exactly one pool.
func (p *Pool) Register(d Disk) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.diskSeq++
	p.disks[p.diskSeq] = d
	return p.diskSeq
}

// Unregister flushes and forgets all of the disk's pages, then removes the
// handle. The disk itself is not closed.
func (p *Pool) Unregister(h int64) error { return p.unregister(h, false) }

// Discard forgets all of the disk's pages WITHOUT writing dirty ones back,
// then removes the handle. It is the right way to release a temporary
// table: its contents are dead, so eviction writeback would be wasted IO.
func (p *Pool) Discard(h int64) error { return p.unregister(h, true) }

func (p *Pool) unregister(h int64, discard bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.disks[h]
	if !ok {
		return fmt.Errorf("bufferpool: unregister of unknown disk %d", h)
	}
	for i := range p.frames {
		f := &p.frames[i]
		if !f.valid || f.key.disk != h {
			continue
		}
		if f.pins != 0 {
			return fmt.Errorf("bufferpool: disk %d page %d still pinned", h, f.key.no)
		}
		if f.dirty && !discard {
			if err := p.diskWrite(context.Background(), d, f.key.no, f.buf); err != nil {
				return &WritebackError{Handle: f.key.disk, Page: f.key.no, Err: err}
			}
			p.stats.Writes++
		}
		delete(p.table, f.key)
		f.valid = false
		f.dirty = false
	}
	delete(p.disks, h)
	return nil
}

// Stats returns a snapshot of the pool's IO counters, fault counters
// included.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	s := p.stats
	p.mu.Unlock()
	s.Retries = p.retryN.Load()
	s.TransientFaults = p.transientN.Load()
	s.PermanentFaults = p.permanentN.Load()
	s.ChecksumFailures = p.checksumN.Load()
	return s
}

// Default retry backoff: the first re-attempt waits retryBackoffBase,
// doubling per attempt up to retryBackoffCap.
const (
	retryBackoffBase = 200 * time.Microsecond
	retryBackoffCap  = 10 * time.Millisecond
)

// SetRetry configures transient-fault retry: an IO operation (page read,
// dirty writeback, allocation) that fails with a transient fault (see
// IsTransient) is re-attempted up to retries times with capped
// exponential backoff, observing ctx cancellation between attempts.
// Permanent faults and checksum failures are never retried. base and
// max bound the backoff; zero values select the defaults (200µs base
// doubling to a 10ms cap). retries <= 0 disables retry (the default).
// Configure before sharing the pool; SetRetry is not synchronized with
// page traffic.
func (p *Pool) SetRetry(retries int, base, max time.Duration) {
	if retries < 0 {
		retries = 0
	}
	if base <= 0 {
		base = retryBackoffBase
	}
	if max <= 0 {
		max = retryBackoffCap
	}
	p.retries = retries
	p.backoffBase = base
	p.backoffCap = max
}

// backoff returns the capped exponential delay before retry attempt n.
func (p *Pool) backoff(attempt int) time.Duration {
	d := p.backoffBase
	for i := 0; i < attempt && d < p.backoffCap; i++ {
		d *= 2
	}
	if d > p.backoffCap {
		d = p.backoffCap
	}
	return d
}

// sleepBackoff waits for d or until ctx is canceled, returning ctx's
// error in the latter case.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retry runs op, re-attempting a transient fault (IsTransient) up to the
// pool's retry bound with capped exponential backoff, and counts every
// fault it observes. An error that escapes retry is returned through
// wrap; ctx's error, when cancellation interrupts a backoff wait, is
// returned unwrapped.
func (p *Pool) retry(ctx context.Context, op func() error, wrap func(error) error) error {
	err := op()
	for attempt := 0; err != nil; attempt++ {
		transient := IsTransient(err)
		if transient {
			p.transientN.Add(1)
		}
		if !transient || attempt >= p.retries {
			p.permanentN.Add(1)
			return wrap(err)
		}
		if serr := sleepBackoff(ctx, p.backoff(attempt)); serr != nil {
			return serr
		}
		p.retryN.Add(1)
		err = op()
	}
	return nil
}

// diskRead fills buf from page no of disk d under the retry policy and
// verifies the page checksum on success. Errors are typed: *IOError for
// faults that escaped retry, *CorruptPageError for checksum mismatches,
// and ctx's error when cancellation interrupts a backoff wait. Runs with
// the pool lock released (the caller reserved a loading frame).
func (p *Pool) diskRead(ctx context.Context, d Disk, h, no int64, buf []byte) error {
	err := p.retry(ctx, func() error { return d.ReadPage(no, buf) }, func(err error) error {
		return &IOError{Op: "read", Handle: h, Page: no, Err: err}
	})
	if err != nil {
		return err
	}
	if !VerifyPage(buf) {
		p.checksumN.Add(1)
		return &CorruptPageError{Handle: h, Page: no}
	}
	return nil
}

// diskWrite seals the page trailer and writes the page back under the
// retry policy. The last disk error is returned unwrapped; callers wrap
// it in *WritebackError with the victim's identity. Writebacks run while
// the caller holds p.mu, so a retry's backoff briefly stalls other pool
// clients — writeback faults are rare and the backoff is capped, and
// releasing the lock around an eviction write would let racing pins
// resurrect the half-evicted frame.
func (p *Pool) diskWrite(ctx context.Context, d Disk, no int64, buf []byte) error {
	SealPage(buf)
	return p.retry(ctx, func() error { return d.WritePage(no, buf) }, func(err error) error { return err })
}

// diskAlloc grows the disk by one page under the retry policy. Faults
// that escape retry are wrapped in *IOError (Page = -1: the page never
// existed).
func (p *Pool) diskAlloc(ctx context.Context, d Disk, h int64) (int64, error) {
	var no int64
	err := p.retry(ctx, func() (err error) {
		no, err = d.Allocate()
		return err
	}, func(err error) error {
		return &IOError{Op: "alloc", Handle: h, Page: -1, Err: err}
	})
	return no, err
}

// Pinned returns the total number of outstanding pins across all frames.
// A quiescent pool — no query in flight — must report zero; a non-zero
// value after a query returns (successfully or not) is a pin leak.
func (p *Pool) Pinned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.frames {
		n += p.frames[i].pins
	}
	return n
}

// Registered returns the number of disks currently attached to the pool.
// Temporary tables register a disk each, so a query that cleans up after
// itself leaves this count where it found it.
func (p *Pool) Registered() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.disks)
}

// ErrPoolExhausted reports a pin or page allocation that found every
// frame of the pool pinned: the pool reserves no frames per query, so
// enough concurrent scans can hold all of them at once. Match it with
// errors.Is.
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted")

// victim finds a frame to reuse using the clock algorithm, writing it back
// if dirty. A writeback failure is returned as a *WritebackError naming
// the VICTIM page (not the page the caller was pinning), and the victim
// frame stays dirty and resident so its data is not lost — a later
// eviction or FlushAll re-attempts the write. Caller holds p.mu.
func (p *Pool) victim(ctx context.Context) (int, error) {
	n := len(p.frames)
	for spin := 0; spin < 2*n+1; spin++ {
		f := &p.frames[p.hand]
		idx := p.hand
		p.hand = (p.hand + 1) % n
		if !f.valid {
			return idx, nil
		}
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if f.dirty {
			d, ok := p.disks[f.key.disk]
			if !ok {
				return 0, fmt.Errorf("bufferpool: dirty page for unregistered disk %d", f.key.disk)
			}
			if err := p.diskWrite(ctx, d, f.key.no, f.buf); err != nil {
				return 0, &WritebackError{Handle: f.key.disk, Page: f.key.no, Err: err}
			}
			p.stats.Writes++
			f.dirty = false
		}
		delete(p.table, f.key)
		f.valid = false
		return idx, nil
	}
	return 0, fmt.Errorf("bufferpool: all %d frames pinned: %w", n, ErrPoolExhausted)
}

// PinContext fetches the page into the pool (reading from disk on a
// miss), pins it, and returns the frame's buffer. The buffer remains
// valid until the matching Unpin. Callers that modify the buffer must
// pass dirty=true to Unpin.
//
// On a miss the frame is reserved under the pool lock but filled from
// disk with the lock released, so concurrent pins of other pages proceed
// while the read is in flight. Concurrent pins of the SAME page wait for
// the in-flight read and then share the frame, counting a hit — exactly
// the accounting a serial execution of the same accesses would produce.
//
// A request that would miss and stall on a disk read (or on a dirty-page writeback during eviction)
// first observes ctx and returns its error instead of starting the IO.
// Hits are served unconditionally — they perform no IO, and refusing
// them would only delay the caller's own cleanup.
func (p *Pool) PinContext(ctx context.Context, h, no int64) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := pageKey{h, no}
	for {
		idx, ok := p.table[k]
		if !ok {
			break
		}
		f := &p.frames[idx]
		if f.loading {
			// Re-look-up after waiting: a failed load vacates the frame.
			p.loaded.Wait()
			continue
		}
		f.pins++
		f.ref = true
		p.stats.Hits++
		return f.buf, nil
	}
	d, ok := p.disks[h]
	if !ok {
		return nil, fmt.Errorf("bufferpool: pin on unregistered disk %d", h)
	}
	// Miss: about to stall on physical IO (possibly twice — a dirty
	// eviction writeback and then the read). A canceled request stops
	// here, before any state changes.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	idx, err := p.victim(ctx)
	if err != nil {
		return nil, err
	}
	// Reserve the frame (pinned + loading) so neither the clock hand nor a
	// concurrent pin of the same page can touch it, then read unlocked.
	f := &p.frames[idx]
	f.key = k
	f.pins = 1
	f.ref = true
	f.dirty = false
	f.valid = true
	f.loading = true
	p.table[k] = idx
	p.stats.Reads++
	p.mu.Unlock()
	rerr := p.diskRead(ctx, d, h, no, f.buf)
	p.mu.Lock()
	f.loading = false
	if rerr != nil {
		// Undo the reservation: the page never made it into the pool, so
		// the read must not be counted and waiters must retry the miss.
		f.pins--
		f.valid = false
		p.stats.Reads--
		delete(p.table, k)
		p.loaded.Broadcast()
		return nil, rerr
	}
	p.loaded.Broadcast()
	return f.buf, nil
}

// NewPage allocates a fresh page on the disk, pins it and returns its
// number and buffer. The page starts zeroed and dirty.
func (p *Pool) NewPage(h int64) (int64, []byte, error) {
	return p.NewPageContext(context.Background(), h)
}

// NewPageContext is NewPage with cancellation: the allocation (which may
// grow a file and evict a dirty frame with a writeback stall) observes
// ctx before starting.
func (p *Pool) NewPageContext(ctx context.Context, h int64) (int64, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	p.mu.Lock()
	d, ok := p.disks[h]
	p.mu.Unlock()
	if !ok {
		return 0, nil, fmt.Errorf("bufferpool: NewPage on unregistered disk %d", h)
	}
	no, err := p.diskAlloc(ctx, d, h)
	if err != nil {
		return 0, nil, err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	idx, err := p.victim(ctx)
	if err != nil {
		return 0, nil, err
	}
	f := &p.frames[idx]
	for i := range f.buf {
		f.buf[i] = 0
	}
	f.key = pageKey{h, no}
	f.pins = 1
	f.ref = true
	f.dirty = true
	f.valid = true
	p.table[f.key] = idx
	return no, f.buf, nil
}

// Unpin releases one pin on the page, marking it dirty if modified.
func (p *Pool) Unpin(h, no int64, dirty bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx, ok := p.table[pageKey{h, no}]
	if !ok {
		return fmt.Errorf("bufferpool: unpin of non-resident page %d/%d", h, no)
	}
	f := &p.frames[idx]
	if f.pins <= 0 {
		return fmt.Errorf("bufferpool: unpin of unpinned page %d/%d", h, no)
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
	return nil
}

// FlushDisk writes back every dirty unpinned page of one registered
// disk, leaving other disks' dirty pages resident. Commit paths use it
// to make a freshly built heap durable before the owning catalog
// version becomes visible: a write fault surfaces to the committing
// writer here, instead of to an innocent reader at a later eviction.
// Pinned dirty pages of the disk are an error.
func (p *Pool) FlushDisk(h int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.disks[h]
	if !ok {
		return fmt.Errorf("bufferpool: flush of unregistered disk %d", h)
	}
	for i := range p.frames {
		f := &p.frames[i]
		if !f.valid || !f.dirty || f.key.disk != h {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("bufferpool: flush with pinned dirty page %d/%d", f.key.disk, f.key.no)
		}
		if err := p.diskWrite(context.Background(), d, f.key.no, f.buf); err != nil {
			return &WritebackError{Handle: f.key.disk, Page: f.key.no, Err: err}
		}
		p.stats.Writes++
		f.dirty = false
	}
	return nil
}

// FlushAll writes back every dirty unpinned page. Pinned dirty pages are
// an error.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if !f.valid || !f.dirty {
			continue
		}
		if f.pins > 0 {
			return fmt.Errorf("bufferpool: flush with pinned dirty page %d/%d", f.key.disk, f.key.no)
		}
		d, ok := p.disks[f.key.disk]
		if !ok {
			return fmt.Errorf("bufferpool: dirty page for unregistered disk %d", f.key.disk)
		}
		if err := p.diskWrite(context.Background(), d, f.key.no, f.buf); err != nil {
			return &WritebackError{Handle: f.key.disk, Page: f.key.no, Err: err}
		}
		p.stats.Writes++
		f.dirty = false
	}
	return nil
}
