// Package storage provides the disk substrate for the MPF engine: fixed
// size pages, disk managers, a shared buffer pool with IO accounting, and
// slotted heap files storing fixed-width functional-relation tuples.
//
// The paper evaluates its optimizers inside PostgreSQL, where plan cost is
// dominated by IO on disk-resident operands. This package reproduces that
// regime: every tuple flows through 8 KiB pages cached by a buffer pool of
// bounded size, and the pool counts physical reads, writes and hits so
// that experiments can report IO alongside wall-clock time. Pages live on
// an in-memory disk; wrappers add latency (LatencyDisk) or injected faults
// (FaultDisk) without changing IO counts.
package storage

import (
	"fmt"
	"sync"
	"time"
)

// PageSize is the size of every page in bytes.
const PageSize = 8192

// Disk stores numbered pages durably (or pretends to). Implementations
// must support growing the page space via Allocate.
type Disk interface {
	// ReadPage fills buf (len PageSize) with the contents of page no.
	ReadPage(no int64, buf []byte) error
	// WritePage persists buf (len PageSize) as page no.
	WritePage(no int64, buf []byte) error
	// Allocate extends the file by one zeroed page, returning its number.
	Allocate() (int64, error)
	// NumPages returns the current number of pages.
	NumPages() int64
	// Close releases resources.
	Close() error
}

// MemDisk is an in-memory Disk: the engine's page store. Every page
// still moves through the buffer pool, so IO accounting is page-granular
// and deterministic.
type MemDisk struct {
	mu    sync.Mutex
	pages [][]byte
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// ReadPage implements Disk.
func (d *MemDisk) ReadPage(no int64, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if no < 0 || no >= int64(len(d.pages)) {
		return fmt.Errorf("memdisk: read of unallocated page %d (have %d)", no, len(d.pages))
	}
	copy(buf, d.pages[no])
	return nil
}

// WritePage implements Disk.
func (d *MemDisk) WritePage(no int64, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if no < 0 || no >= int64(len(d.pages)) {
		return fmt.Errorf("memdisk: write of unallocated page %d (have %d)", no, len(d.pages))
	}
	copy(d.pages[no], buf)
	return nil
}

// Allocate implements Disk.
func (d *MemDisk) Allocate() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, make([]byte, PageSize))
	return int64(len(d.pages) - 1), nil
}

// NumPages implements Disk.
func (d *MemDisk) NumPages() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.pages))
}

// Close implements Disk.
func (d *MemDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = nil
	return nil
}

// LatencyDisk wraps a Disk and sleeps for a fixed duration on every page
// read and/or write. It models a storage device with non-trivial access
// latency, letting tests and benchmarks reproduce the paper's
// disk-resident regime — where execution time is dominated by page IO —
// on top of a MemDisk, deterministically and without real files. Because
// the buffer pool issues reads with its lock released, concurrent
// pinners overlap these stalls, which is what intra-query parallelism
// exploits.
type LatencyDisk struct {
	d          Disk
	readDelay  time.Duration
	writeDelay time.Duration
}

// NewLatencyDisk wraps d, adding readDelay to every ReadPage and
// writeDelay to every WritePage.
func NewLatencyDisk(d Disk, readDelay, writeDelay time.Duration) *LatencyDisk {
	return &LatencyDisk{d: d, readDelay: readDelay, writeDelay: writeDelay}
}

// ReadPage implements Disk.
func (d *LatencyDisk) ReadPage(no int64, buf []byte) error {
	if d.readDelay > 0 {
		time.Sleep(d.readDelay)
	}
	return d.d.ReadPage(no, buf)
}

// WritePage implements Disk.
func (d *LatencyDisk) WritePage(no int64, buf []byte) error {
	if d.writeDelay > 0 {
		time.Sleep(d.writeDelay)
	}
	return d.d.WritePage(no, buf)
}

// Allocate implements Disk.
func (d *LatencyDisk) Allocate() (int64, error) { return d.d.Allocate() }

// NumPages implements Disk.
func (d *LatencyDisk) NumPages() int64 { return d.d.NumPages() }

// Close implements Disk.
func (d *LatencyDisk) Close() error { return d.d.Close() }

// DiskFactory creates fresh disks; the engine uses one to allocate
// temporary heap files for intermediate results.
type DiskFactory func() (Disk, error)

// MemDiskFactory returns a factory producing in-memory disks.
func MemDiskFactory() DiskFactory {
	return func() (Disk, error) { return NewMemDisk(), nil }
}

// LatencyMemDiskFactory returns a factory producing in-memory disks with
// the given per-page read/write latency.
func LatencyMemDiskFactory(readDelay, writeDelay time.Duration) DiskFactory {
	return func() (Disk, error) { return NewLatencyDisk(NewMemDisk(), readDelay, writeDelay), nil }
}
