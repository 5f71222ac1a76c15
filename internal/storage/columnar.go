package storage

// Columnar in-page layout (page format v1). A heap page holds exactly the
// same tuples as its row-major (v0) form — TuplesPerPage is unchanged, so
// page counts and the IO cost model are format-independent — but a full
// page's payload is stored per attribute as column segments with per-page
// dictionary and run-length encodings chosen column by column. Scans
// hand the executor decoded columns (ColView.Flat); the one kernel that
// reads an encoding is the fused join+aggregate probe, which folds a
// run-length-encoded join key a span at a time (ColView.Runs). The
// encodings buy CPU only: page counts, and so IO, are those of
// row-major pages. The precise on-disk byte layout, with a worked
// example, is specified in docs/PAGE_FORMAT.md; this file is its
// implementation and the two must change together.
//
// Layout summary:
//
//	offset 0: uint16 tuple count (all formats)
//	offset 2: format version byte (0 row-major, 1 columnar)
//	offset 3: arity byte (columnar pages; 0 on row-major pages)
//	offset 4: 4 reserved zero bytes
//	offset 8: row-major → packed tuples
//	          columnar  → segment directory: (arity+1) uint16 offsets
//	          from page start, one per attribute column then one for the
//	          measure column; each segment is a tag byte then its payload
//	trailer:  uint32 CRC32-C over the whole payload (checksum.go), format
//	          agnostic
//
// Only exactly-full pages are ever columnar: appends always write
// row-major, and the page is re-encoded in place the moment it fills (see
// Heap.maybeEncodePage). A full page whose encoded form would not fit the
// payload — or would not beat row-major — simply stays row-major; that
// per-page fallback is counted in the pool's EncodingStats.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Page format versions stored in the header's version byte (offset 2).
// Row-major pages have always written zeroes into the reserved header
// bytes, so pages from before the columnar format read back as
// formatRowMajor with no migration.
const (
	formatRowMajor = 0
	formatColumnar = 1
)

// Column segment encodings, the tag byte leading every segment.
const (
	// EncPlain stores 4-byte little-endian int32 values, one per row.
	EncPlain byte = 0
	// EncByte stores one byte per row; valid when every value in the page
	// lies in [0,255]. The code IS the value (an identity dictionary), so
	// codes are stable across pages and can key hash tables directly.
	EncByte byte = 1
	// EncRLE stores a uint16 run count followed by (uint16 length, int32
	// value) runs covering the page's rows in order.
	EncRLE byte = 2
	// EncDict stores a per-page dictionary (uint8 entry count, then the
	// int32 values in first-occurrence order) followed by one uint8 code
	// per row indexing it. Valid when the page has at most 255 distinct
	// values; overflow falls back to EncPlain.
	EncDict byte = 3
)

// colDirOff is the page offset of the columnar segment directory.
const colDirOff = pageHeaderSize

// maxDictEntries bounds a per-page dictionary (codes are one byte and
// code 255 is usable, but the entry-count byte caps entries at 255).
const maxDictEntries = 255

// pageFormat reads a page's format version byte.
func pageFormat(buf []byte) byte { return buf[2] }

// colScratch holds a heap's reusable page-encoding buffers.
type colScratch struct {
	col []int32 // one column's values, gathered from the row-major page
	enc []byte  // the encoded page image under construction
}

// chooseEncoding scans one column's page values and returns the encoding
// with the smallest segment size, its size in bytes, and (for EncDict)
// the dictionary in first-occurrence order. Ties prefer EncRLE, then
// EncByte, then EncDict, then EncPlain — a fixed rule so encoded pages
// are deterministic for identical contents.
func chooseEncoding(col []int32) (tag byte, size int, dict []int32) {
	n := len(col)
	nruns := 1
	allByte := col[0] >= 0 && col[0] <= 255
	for i := 1; i < n; i++ {
		if col[i] != col[i-1] {
			nruns++
		}
		if col[i] < 0 || col[i] > 255 {
			allByte = false
		}
	}
	plainSz := 4 * n
	rleSz := 2 + 6*nruns
	byteSz := -1
	if allByte {
		byteSz = n
	}
	dictSz := -1
	if !allByte { // a dictionary can never beat EncByte when EncByte is valid
		seen := make(map[int32]struct{}, maxDictEntries+1)
		for _, v := range col {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				if len(seen) > maxDictEntries {
					dict = nil
					break
				}
				dict = append(dict, v)
			}
		}
		if dict != nil {
			dictSz = 1 + 4*len(dict) + n
		}
	}
	best, bestSz := EncPlain, plainSz
	if dictSz >= 0 && dictSz < bestSz {
		best, bestSz = EncDict, dictSz
	}
	if byteSz >= 0 && byteSz < bestSz {
		best, bestSz = EncByte, byteSz
	}
	if rleSz < bestSz {
		best, bestSz = EncRLE, rleSz
	}
	if best != EncDict {
		dict = nil
	}
	return best, bestSz, dict
}

// encodeColumn appends one column segment (tag + payload) to enc and
// returns the extended slice and the chosen tag.
func encodeColumn(enc []byte, col []int32) ([]byte, byte) {
	tag, _, dict := chooseEncoding(col)
	enc = append(enc, tag)
	switch tag {
	case EncPlain:
		for _, v := range col {
			enc = binary.LittleEndian.AppendUint32(enc, uint32(v))
		}
	case EncByte:
		for _, v := range col {
			enc = append(enc, byte(v))
		}
	case EncRLE:
		runsAt := len(enc)
		enc = append(enc, 0, 0) // run count, patched below
		nruns := 0
		for i := 0; i < len(col); {
			j := i + 1
			for j < len(col) && col[j] == col[i] {
				j++
			}
			enc = binary.LittleEndian.AppendUint16(enc, uint16(j-i))
			enc = binary.LittleEndian.AppendUint32(enc, uint32(col[i]))
			nruns++
			i = j
		}
		binary.LittleEndian.PutUint16(enc[runsAt:], uint16(nruns))
	case EncDict:
		enc = append(enc, byte(len(dict)))
		code := make(map[int32]uint8, len(dict))
		for i, v := range dict {
			enc = binary.LittleEndian.AppendUint32(enc, uint32(v))
			code[v] = uint8(i)
		}
		for _, v := range col {
			enc = append(enc, code[v])
		}
	}
	return enc, tag
}

// encodePageColumnar re-encodes a full row-major page in place into the
// columnar format. It returns per-encoding segment counts and the bytes
// saved versus row-major, and ok=false — leaving buf untouched — when the
// encoded form would not fit the page payload or no column segment beats
// plain (the per-page row-major fallback).
func encodePageColumnar(buf []byte, arity, n int, s *colScratch) (segs [4]int64, saved int64, ok bool) {
	if arity < 1 || arity > 255 || n < 1 || n > 0xffff {
		return segs, 0, false
	}
	ts := tupleSize(arity)
	dirLen := 2 * (arity + 1)
	if cap(s.col) < n {
		s.col = make([]int32, n)
	}
	col := s.col[:n]
	enc := s.enc[:0]
	// Segment bodies are appended to enc; directory offsets are relative
	// to the final page (header + directory precede the segments).
	base := pageHeaderSize + dirLen
	dir := make([]uint16, arity+1)
	nonPlain := false
	for c := 0; c < arity; c++ {
		for r := 0; r < n; r++ {
			col[r] = int32(binary.LittleEndian.Uint32(buf[pageHeaderSize+r*ts+4*c:]))
		}
		dir[c] = uint16(base + len(enc))
		var tag byte
		enc, tag = encodeColumn(enc, col)
		segs[tag]++
		if tag != EncPlain {
			nonPlain = true
		}
	}
	// Measures are always a plain segment: 8 IEEE-bits bytes per row.
	dir[arity] = uint16(base + len(enc))
	enc = append(enc, EncPlain)
	for r := 0; r < n; r++ {
		enc = append(enc, buf[pageHeaderSize+r*ts+4*arity:pageHeaderSize+r*ts+ts]...)
	}
	s.enc = enc[:0] // retain capacity for the next page
	total := base + len(enc)
	// Commit only when the encoded image is strictly smaller than the
	// row-major one: directory and tag overhead can otherwise exceed the
	// savings of a barely-compressible column.
	if !nonPlain || total >= pageHeaderSize+n*ts {
		return [4]int64{}, 0, false
	}
	// Commit: header, directory, segments, zeroed tail. The tuple count at
	// offset 0 is already n.
	buf[2] = formatColumnar
	buf[3] = byte(arity)
	buf[4], buf[5], buf[6], buf[7] = 0, 0, 0, 0
	for i, off := range dir {
		binary.LittleEndian.PutUint16(buf[colDirOff+2*i:], off)
	}
	copy(buf[base:total], enc)
	for i := total; i < PageDataSize; i++ {
		buf[i] = 0
	}
	saved = int64(pageHeaderSize+n*ts) - int64(total)
	return segs, saved, true
}

// colSegOff reads column c's segment offset from a columnar page's
// directory (c == arity addresses the measure segment).
func colSegOff(buf []byte, c int) int {
	return int(binary.LittleEndian.Uint16(buf[colDirOff+2*c:]))
}

// parseColumnar is the one parser of page format v1, behind both batch
// shapes: it checks a columnar page of n rows against the heap's arity,
// parses each attribute column's segment into its view, and decodes the
// measure segment into meas. Every offset and length is checked against
// the payload before it is read, so a malformed page that passed its
// checksum fails with an error naming the violation instead of a panic.
func parseColumnar(buf []byte, arity, n int, cols []ColView, meas []float64) error {
	if int(buf[3]) != arity {
		return fmt.Errorf("columnar page arity %d, heap arity %d", buf[3], arity)
	}
	for c := range cols {
		if err := parseSegment(buf, arity, colSegOff(buf, c), n, &cols[c]); err != nil {
			return fmt.Errorf("column %d: %w", c, err)
		}
	}
	moff := colSegOff(buf, arity)
	body, err := segBody(buf, arity, moff)
	if err != nil {
		return fmt.Errorf("measures: %w", err)
	}
	if buf[moff] != EncPlain || len(body) < 8*n {
		return fmt.Errorf("measures: not a plain segment of %d rows", n)
	}
	for r := range meas {
		meas[r] = math.Float64frombits(binary.LittleEndian.Uint64(body))
		body = body[8:]
	}
	return nil
}

// segBody returns the bytes from just past the tag of the segment at off
// to the end of the payload, after checking off lies past the directory
// of an arity-column page and inside the payload.
func segBody(buf []byte, arity, off int) ([]byte, error) {
	if lo := colDirOff + 2*(arity+1); off < lo || off >= PageDataSize {
		return nil, fmt.Errorf("segment offset %d outside [%d, %d)", off, lo, PageDataSize)
	}
	return buf[off+1 : PageDataSize], nil
}

// parseSegment parses the attribute column segment at off of an n-row
// page into v: plain 4n payload bytes, byte n, dict 1+4d+n with every
// code below d, RLE 2+6r with runs covering exactly n rows.
func parseSegment(buf []byte, arity, off, n int, v *ColView) error {
	body, err := segBody(buf, arity, off)
	if err != nil {
		return err
	}
	v.enc = buf[off]
	short := func(need int) error {
		return fmt.Errorf("encoding %d needs %d payload bytes, %d remain", v.enc, need, len(body))
	}
	switch v.enc {
	case EncPlain:
		if len(body) < 4*n {
			return short(4 * n)
		}
		v.flatBuf = resize(v.flatBuf, n)
		for r := range v.flatBuf {
			v.flatBuf[r] = int32(binary.LittleEndian.Uint32(body))
			body = body[4:]
		}
		v.flat = v.flatBuf
	case EncByte:
		if len(body) < n {
			return short(n)
		}
		v.codes = append(v.codes, body[:n]...)
	case EncDict:
		if len(body) < 1 {
			return short(1)
		}
		d := int(body[0])
		if len(body) < 1+4*d+n {
			return short(1 + 4*d + n)
		}
		for i := 0; i < d; i++ {
			v.dict = append(v.dict, int32(binary.LittleEndian.Uint32(body[1+4*i:])))
		}
		codes := body[1+4*d : 1+4*d+n]
		for _, c := range codes {
			if int(c) >= d {
				return fmt.Errorf("dictionary code %d, %d entries", c, d)
			}
		}
		v.codes = append(v.codes, codes...)
	case EncRLE:
		if len(body) < 2 {
			return short(2)
		}
		nruns := int(binary.LittleEndian.Uint16(body))
		if len(body) < 2+6*nruns {
			return short(2 + 6*nruns)
		}
		covered := 0
		for i := 0; i < nruns; i++ {
			l := int(binary.LittleEndian.Uint16(body[2+6*i:]))
			if l > n-covered {
				return fmt.Errorf("RLE runs cover more than %d rows", n)
			}
			if l > 0 {
				v.runs = append(v.runs, ColRun{Len: l, Val: int32(binary.LittleEndian.Uint32(body[4+6*i:]))})
				covered += l
			}
		}
		if covered != n {
			return fmt.Errorf("RLE runs cover %d of %d rows", covered, n)
		}
	default:
		return fmt.Errorf("unknown segment encoding %d", v.enc)
	}
	return nil
}

// EncodingStats counts columnar page-encoding outcomes across every heap
// attached to a pool: pages committed columnar vs left row-major, the
// segment-encoding mix, and payload bytes saved versus row-major.
type EncodingStats struct {
	// PagesEncoded counts full pages committed in the columnar format.
	PagesEncoded int64 `json:"pages_encoded"`
	// PagesFallback counts full pages left row-major because encoding
	// would not fit the payload or no column segment beat plain.
	PagesFallback int64 `json:"pages_fallback"`
	// SegPlain counts attribute column segments stored as EncPlain.
	SegPlain int64 `json:"seg_plain"`
	// SegByte counts attribute column segments stored as EncByte.
	SegByte int64 `json:"seg_byte"`
	// SegRLE counts attribute column segments stored as EncRLE.
	SegRLE int64 `json:"seg_rle"`
	// SegDict counts attribute column segments stored as EncDict.
	SegDict int64 `json:"seg_dict"`
	// BytesSaved is the total payload bytes saved versus row-major across
	// all encoded pages (pages on disk stay PageSize; the saving is decode
	// work, not IO).
	BytesSaved int64 `json:"bytes_saved"`
}

// EncodingStats returns a snapshot of the pool's columnar page-encoding
// counters.
func (p *Pool) EncodingStats() EncodingStats {
	return EncodingStats{
		PagesEncoded:  p.encPages.Load(),
		PagesFallback: p.encFallback.Load(),
		SegPlain:      p.encSegPlain.Load(),
		SegByte:       p.encSegByte.Load(),
		SegRLE:        p.encSegRLE.Load(),
		SegDict:       p.encSegDict.Load(),
		BytesSaved:    p.encSaved.Load(),
	}
}

// noteEncoded records a committed columnar page.
func (p *Pool) noteEncoded(segs [4]int64, saved int64) {
	p.encPages.Add(1)
	p.encSegPlain.Add(segs[EncPlain])
	p.encSegByte.Add(segs[EncByte])
	p.encSegRLE.Add(segs[EncRLE])
	p.encSegDict.Add(segs[EncDict])
	p.encSaved.Add(saved)
}

// noteEncodeFallback records a full page left row-major.
func (p *Pool) noteEncodeFallback() { p.encFallback.Add(1) }
