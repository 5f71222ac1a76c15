package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Page integrity. Every page reserves a PageTrailerSize-byte trailer at
// its end holding a CRC32-C (Castagnoli) checksum of the payload
// (buf[:PageDataSize]). The buffer pool seals pages on every writeback
// and verifies them on every fill, so a page that was corrupted on disk
// — a flipped bit, a torn write, a misdirected sector — is reported as a
// *CorruptPageError instead of flowing into query answers. The trailer
// lives inside the page so the layout is identical for every Disk
// implementation.

// PageTrailerSize is the number of bytes reserved at the end of every
// page for the integrity checksum.
const PageTrailerSize = 4

// PageDataSize is the number of page bytes available to payload (heap
// header plus tuples); the trailing PageTrailerSize bytes hold the
// checksum and must not be written by page producers.
const PageDataSize = PageSize - PageTrailerSize

// castagnoli is the CRC32-C table; the Castagnoli polynomial has
// hardware support (SSE4.2 / ARMv8 CRC) through hash/crc32, keeping
// verification far below the cost of the page read it guards.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PageChecksum computes the CRC32-C of the page's payload
// (buf[:PageDataSize]). buf must be a full PageSize page.
func PageChecksum(buf []byte) uint32 {
	return crc32.Checksum(buf[:PageDataSize:PageDataSize], castagnoli)
}

// SealPage stamps the payload's checksum into the page trailer. The
// buffer pool seals every page it writes back; after SealPage,
// VerifyPage accepts the page.
func SealPage(buf []byte) {
	c := PageChecksum(buf)
	buf[PageDataSize] = byte(c)
	buf[PageDataSize+1] = byte(c >> 8)
	buf[PageDataSize+2] = byte(c >> 16)
	buf[PageDataSize+3] = byte(c >> 24)
}

// pageTrailer reads the stored checksum from the page trailer.
func pageTrailer(buf []byte) uint32 {
	return uint32(buf[PageDataSize]) |
		uint32(buf[PageDataSize+1])<<8 |
		uint32(buf[PageDataSize+2])<<16 |
		uint32(buf[PageDataSize+3])<<24
}

// VerifyPage reports whether the page's stored checksum matches its
// payload. A page that is entirely zero — trailer included — is valid:
// it is a freshly allocated page that no writeback has sealed yet
// (Disk.Allocate zero-fills), and it decodes as an empty heap page.
// The zero exemption cannot mask corruption of a sealed page: the
// checksum of an all-zero payload is 0xfc1c38a5 (16 bits set, all four
// bytes non-zero), so no single-bit or single-byte corruption of a
// sealed page can produce the all-zero form (see TestZeroPayloadChecksum).
func VerifyPage(buf []byte) bool {
	if pageTrailer(buf) == PageChecksum(buf) {
		return true
	}
	for _, b := range buf[:PageSize] {
		if b != 0 {
			return false
		}
	}
	return true
}

// ErrCorruptPage is the category sentinel for pages that cannot be
// trusted: checksum failures and checksum-valid pages that break the page
// format. Every *CorruptPageError matches it (and mpf.ErrCorrupt aliases
// it) via errors.Is.
var ErrCorruptPage = errors.New("storage: corrupt page")

// CorruptPageError reports a page that cannot be read: its contents
// failed checksum verification on a buffer-pool fill (Reason empty; the
// frame is vacated before the error is returned, so corrupt bytes never
// reach the executor), or it passed its checksum but breaks the page
// format (Reason names the violation; docs/PAGE_FORMAT.md, "Corruption
// handling"). Neither is retried: re-reading stable corruption would
// only repeat it.
type CorruptPageError struct {
	// Handle identifies the pool-registered disk.
	Handle int64
	// Page is the corrupt page's number on that disk.
	Page int64
	// Reason names the format violation of a malformed page; empty for a
	// checksum failure.
	Reason string
}

// Error describes the corrupt page.
func (e *CorruptPageError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("storage: page %d on disk %d is malformed: %s", e.Page, e.Handle, e.Reason)
	}
	return fmt.Sprintf("storage: page %d on disk %d failed checksum verification", e.Page, e.Handle)
}

// Is matches the ErrCorruptPage category sentinel.
func (e *CorruptPageError) Is(target error) bool { return target == ErrCorruptPage }
