package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
)

// fillHeap appends n deterministic tuples via gen and returns the
// expected rows for comparison.
func fillHeapGen(t *testing.T, h *Heap, n int, gen func(i int) ([]int32, float64)) (vals [][]int32, meas []float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, m := gen(i)
		if err := h.Append(v, m); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		vals = append(vals, append([]int32(nil), v...))
		meas = append(meas, m)
	}
	return vals, meas
}

// checkScan asserts every read path of the heap — both batch shapes and
// random access — returns exactly the expected rows, bit for bit.
func checkScan(t *testing.T, h *Heap, vals [][]int32, meas []float64) {
	t.Helper()
	// Batch iterator.
	bit := h.ScanBatches()
	i := 0
	for {
		b, ok := bit.Next()
		if !ok {
			break
		}
		for r := 0; r < b.Len(); r++ {
			if !int32sEqual(b.Row(r), vals[i]) || math.Float64bits(b.Measures[r]) != math.Float64bits(meas[i]) {
				t.Fatalf("ScanBatches row %d: got %v %v want %v %v", i, b.Row(r), b.Measures[r], vals[i], meas[i])
			}
			i++
		}
	}
	if err := bit.Close(); err != nil || i != len(vals) {
		t.Fatalf("ScanBatches: %d rows err %v, want %d", i, err, len(vals))
	}
	// Encoded column-batch iterator.
	cit := h.ScanColBatches()
	i = 0
	row := make([]int32, h.Arity())
	for {
		cb, ok := cit.Next()
		if !ok {
			break
		}
		for r := 0; r < cb.Len(); r++ {
			cb.Row(r, row)
			if !int32sEqual(row, vals[i]) || math.Float64bits(cb.Measures[r]) != math.Float64bits(meas[i]) {
				t.Fatalf("ScanColBatches row %d: got %v %v want %v %v", i, row, cb.Measures[r], vals[i], meas[i])
			}
			i++
		}
	}
	if err := cit.Close(); err != nil || i != len(vals) {
		t.Fatalf("ScanColBatches: %d rows err %v, want %d", i, err, len(vals))
	}
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func newColumnarHeap(t *testing.T, frames, arity int) (*Pool, *Heap) {
	t.Helper()
	pool := NewPool(frames)
	h, err := NewHeap(pool, NewMemDisk(), arity)
	if err != nil {
		t.Fatalf("NewHeap: %v", err)
	}
	h.SetColumnar(true)
	return pool, h
}

// TestColumnarRoundTrip covers the encoding mix: a long-runs column
// (RLE), a tiny-domain column (byte codes), a sparse large-value column
// (dictionary), and an incompressible column (plain), across several
// full pages plus a row-major partial tail.
func TestColumnarRoundTrip(t *testing.T) {
	pool, h := newColumnarHeap(t, 8, 4)
	per := TuplesPerPage(4)
	n := 3*per + per/3 // three encoded pages + a row-major tail
	vals, meas := fillHeapGen(t, h, n, func(i int) ([]int32, float64) {
		return []int32{
			int32(i / 64),              // long runs → RLE
			int32(i % 7),               // tiny domain → byte codes
			1_000_000 + int32(i%5)*777, // few large values → dictionary
			int32(i*2654435761 + 17),   // incompressible → plain
		}, float64(i) * 0.25
	})
	checkScan(t, h, vals, meas)
	st := pool.EncodingStats()
	if st.PagesEncoded != 3 {
		t.Fatalf("expected 3 encoded pages, got %+v", st)
	}
	if st.SegRLE == 0 || st.SegByte == 0 || st.SegDict == 0 || st.SegPlain == 0 {
		t.Fatalf("expected all four encodings present, got %+v", st)
	}
	if st.BytesSaved <= 0 {
		t.Fatalf("expected positive bytes saved, got %+v", st)
	}
}

// TestColumnarDictOverflow drives a column past 255 distinct non-byte
// values so the dictionary overflows and the column falls back to plain,
// while a companion RLE column keeps the page encodable.
func TestColumnarDictOverflow(t *testing.T) {
	pool, h := newColumnarHeap(t, 8, 2)
	per := TuplesPerPage(2)
	vals, meas := fillHeapGen(t, h, per, func(i int) ([]int32, float64) {
		return []int32{7, 100_000 + int32(i)}, float64(i)
	})
	checkScan(t, h, vals, meas)
	st := pool.EncodingStats()
	if st.PagesEncoded != 1 || st.SegPlain != 1 || st.SegRLE != 1 {
		t.Fatalf("expected one encoded page with one plain + one RLE segment, got %+v", st)
	}
}

// TestColumnarFallback fills a page where no column compresses; the page
// must stay row-major and be counted as a fallback.
func TestColumnarFallback(t *testing.T) {
	pool, h := newColumnarHeap(t, 8, 1)
	per := TuplesPerPage(1)
	vals, meas := fillHeapGen(t, h, per, func(i int) ([]int32, float64) {
		return []int32{int32(i*2654435761 + 1_000_003)}, float64(i)
	})
	checkScan(t, h, vals, meas)
	st := pool.EncodingStats()
	if st.PagesEncoded != 0 || st.PagesFallback != 1 {
		t.Fatalf("expected one fallback page, got %+v", st)
	}
}

// TestColumnarRLERunsCoverBatch checks the encoded view of an RLE page:
// its runs sum to exactly the batch's row count and Flat decodes them to
// the appended values.
func TestColumnarRLERunsCoverBatch(t *testing.T) {
	_, h := newColumnarHeap(t, 8, 1)
	per := TuplesPerPage(1)
	vals, meas := fillHeapGen(t, h, per, func(i int) ([]int32, float64) {
		return []int32{int32(i / 100)}, float64(i)
	})
	checkScan(t, h, vals, meas)
	cit := h.ScanColBatches()
	defer cit.Close()
	cb, ok := cit.Next()
	if !ok || cb.Cols[0].enc != EncRLE {
		t.Fatalf("want one RLE batch, got ok=%v err=%v", ok, cit.Err())
	}
	sum := 0
	for _, r := range cb.Cols[0].runs {
		sum += r.n
	}
	if sum != cb.Len() || cb.Len() != per {
		t.Fatalf("runs sum %d, batch len %d, page holds %d", sum, cb.Len(), per)
	}
	for r, v := range cb.Cols[0].Flat() {
		if v != vals[r][0] {
			t.Fatalf("Flat row %d = %d, appended %d", r, v, vals[r][0])
		}
	}
}

// TestColumnarMixedFormats toggles columnar mode mid-append so the heap
// interleaves row-major and columnar pages within one file.
func TestColumnarMixedFormats(t *testing.T) {
	pool := NewPool(8)
	h, err := NewHeap(pool, NewMemDisk(), 2)
	if err != nil {
		t.Fatalf("NewHeap: %v", err)
	}
	per := TuplesPerPage(2)
	gen := func(i int) ([]int32, float64) { return []int32{int32(i / 50), int32(i % 4)}, float64(i) }
	var vals [][]int32
	var meas []float64
	for i := 0; i < 4*per; i++ {
		h.SetColumnar(i/per%2 == 1) // pages 0,2 row-major; 1,3 columnar
		v, m := gen(i)
		if err := h.Append(v, m); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		vals = append(vals, append([]int32(nil), v...))
		meas = append(meas, m)
	}
	checkScan(t, h, vals, meas)
	if st := pool.EncodingStats(); st.PagesEncoded != 2 {
		t.Fatalf("expected 2 encoded pages, got %+v", st)
	}
}

// FuzzColumnarPageRoundTrip encodes an arbitrary full page and asserts
// the parser returns exactly the original rows.
func FuzzColumnarPageRoundTrip(f *testing.F) {
	f.Add(int64(1), 2, 4)
	f.Add(int64(7), 1, 1)
	f.Add(int64(42), 6, 300)
	f.Add(int64(99), 3, 1_000_000)
	f.Fuzz(func(t *testing.T, seed int64, arity, domain int) {
		if arity < 1 || arity > 8 {
			return
		}
		if domain < 1 {
			domain = 1
		}
		n := TuplesPerPage(arity)
		// Build a row-major page image directly.
		buf := make([]byte, PageSize)
		binary.LittleEndian.PutUint16(buf[0:], uint16(n))
		rnd := seed
		next := func() int64 {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			return rnd
		}
		ts := tupleSize(arity)
		want := make([]int32, n*arity)
		wantM := make([]float64, n)
		for r := 0; r < n; r++ {
			off := pageHeaderSize + r*ts
			for c := 0; c < arity; c++ {
				v := int32(next() % int64(domain))
				if next()%17 == 0 {
					v = -v // negative values must survive too
				}
				want[r*arity+c] = v
				binary.LittleEndian.PutUint32(buf[off+4*c:], uint32(v))
			}
			m := math.Float64frombits(uint64(next()))
			if math.IsNaN(m) {
				m = 0.5
			}
			wantM[r] = m
			binary.LittleEndian.PutUint64(buf[off+4*arity:], math.Float64bits(m))
		}
		orig := append([]byte(nil), buf...)
		var s colScratch
		_, saved, ok := encodePageColumnar(buf, arity, n, &s)
		if !ok {
			if !bytes.Equal(buf, orig) {
				t.Fatalf("fallback mutated the page")
			}
			return
		}
		if saved <= 0 {
			t.Fatalf("encoded page saved %d bytes", saved)
		}
		var cb ColBatch
		views := cb.views(arity, n)
		gotM := make([]float64, n)
		if err := parseColumnar(buf, arity, n, views, gotM); err != nil {
			t.Fatalf("parse: %v", err)
		}
		got := make([]int32, n*arity)
		for c := range views {
			views[c].decodeInto(got[c:], arity)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("value %d: got %d want %d", i, got[i], want[i])
			}
		}
		for i := range wantM {
			if math.Float64bits(gotM[i]) != math.Float64bits(wantM[i]) {
				t.Fatalf("measure %d: got %x want %x", i, math.Float64bits(gotM[i]), math.Float64bits(wantM[i]))
			}
		}
	})
}

// TestColumnarChecksumRoundTrip seals and verifies encoded pages — the
// checksum trailer is format-agnostic and must hold for columnar pages.
func TestColumnarChecksumRoundTrip(t *testing.T) {
	_, h := newColumnarHeap(t, 4, 2)
	per := TuplesPerPage(2)
	fillHeapGen(t, h, per, func(i int) ([]int32, float64) {
		return []int32{int32(i % 5), int32(i / 200)}, float64(i)
	})
	buf, err := h.pool.Pin(h.handle, 0)
	if err != nil {
		t.Fatalf("pin: %v", err)
	}
	if pageFormat(buf) != formatColumnar {
		t.Fatalf("page 0 not columnar")
	}
	page := append([]byte(nil), buf...)
	if err := h.pool.Unpin(h.handle, 0, false); err != nil {
		t.Fatalf("unpin: %v", err)
	}
	SealPage(page)
	if !VerifyPage(page) {
		t.Fatalf("sealed columnar page failed verification")
	}
	page[pageHeaderSize+3] ^= 0x40
	if VerifyPage(page) {
		t.Fatalf("corrupted columnar page passed verification")
	}
}

// TestColumnarEncodeDeterminism encodes the same logical page twice and
// requires byte-identical images — the chooser's tie-break is fixed.
func TestColumnarEncodeDeterminism(t *testing.T) {
	image := func() []byte {
		_, h := newColumnarHeap(t, 4, 3)
		per := TuplesPerPage(3)
		fillHeapGen(t, h, per, func(i int) ([]int32, float64) {
			return []int32{int32(i / 31), int32(i % 9), 500 + int32(i%11)}, float64(i) * 1.5
		})
		buf, err := h.pool.Pin(h.handle, 0)
		if err != nil {
			t.Fatalf("pin: %v", err)
		}
		defer h.pool.Unpin(h.handle, 0, false)
		return append([]byte(nil), buf...)
	}
	a, b := image(), image()
	if !bytes.Equal(a, b) {
		t.Fatalf("same page contents encoded to different images")
	}
}

// TestColumnarStatsString sanity-checks the EncodingStats JSON tags stay
// distinct (a rename here would silently break metrics consumers).
func TestColumnarStatsString(t *testing.T) {
	st := EncodingStats{PagesEncoded: 1, PagesFallback: 2, SegPlain: 3, SegByte: 4, SegRLE: 5, SegDict: 6, BytesSaved: 7}
	s := fmt.Sprintf("%+v", st)
	if s == "" {
		t.Fatal("empty stats string")
	}
}

// probePage is a fuzz seed for FuzzPageDecode: a payload and the heap
// arity it is read under.
type probePage struct {
	arity   uint8
	payload []byte
}

// probePages returns FuzzPageDecode's seed corpus: an empty page, a
// valid columnar page, a row-major page claiming 50 tuples more than fit,
// and columnar pages whose first segment sits 4 bytes before the trailer
// as a plain, a byte and a dictionary segment.
func probePages() []probePage {
	const arity = 2
	per := TuplesPerPage(arity)
	overCount := make([]byte, pageHeaderSize)
	binary.LittleEndian.PutUint16(overCount, uint16(per+50))
	encoded := make([]byte, PageSize)
	binary.LittleEndian.PutUint16(encoded, uint16(per))
	for r := 0; r < per; r++ {
		off := pageHeaderSize + r*tupleSize(arity)
		binary.LittleEndian.PutUint32(encoded[off:], uint32(r/64))
		binary.LittleEndian.PutUint32(encoded[off+4:], uint32(r%7))
		binary.LittleEndian.PutUint64(encoded[off+8:], math.Float64bits(float64(r)))
	}
	if _, _, ok := encodePageColumnar(encoded, arity, per, &colScratch{}); !ok {
		panic("probe page did not encode")
	}
	seeds := []probePage{{arity, nil}, {arity, encoded[:PageDataSize]}, {arity, overCount}}
	for _, tag := range []byte{EncPlain, EncByte, EncDict} {
		img := append([]byte(nil), encoded[:PageDataSize]...)
		binary.LittleEndian.PutUint16(img[colDirOff:], PageDataSize-4)
		img[PageDataSize-4] = tag
		seeds = append(seeds, probePage{arity, img})
	}
	return seeds
}

// pageRows is what one reader made of a heap's first page: its rows and
// measure bits, or the error that ended the read.
type pageRows struct {
	vals []int32
	meas []uint64
	err  error
}

// FuzzPageDecode reads arbitrary checksum-valid page payloads, placed
// before a valid one-tuple page, through both batch shapes. No reader
// may panic, both must agree — the same rows of the fuzzed page, or both
// failing with ErrCorruptPage — and nothing may stay pinned.
func FuzzPageDecode(f *testing.F) {
	for _, p := range probePages() {
		f.Add(p.arity, p.payload)
	}
	f.Fuzz(func(t *testing.T, arityB uint8, payload []byte) {
		arity := int(arityB % 9)
		page := make([]byte, PageSize)
		copy(page[:PageDataSize], payload)
		SealPage(page)
		tail := make([]byte, PageSize)
		binary.LittleEndian.PutUint16(tail, 1)
		SealPage(tail)
		d := NewMemDisk()
		for _, img := range [][]byte{page, tail} {
			no, _ := d.Allocate()
			if err := d.WritePage(no, img); err != nil {
				t.Fatal(err)
			}
		}
		pool := NewPool(4)
		h := attachHeap(pool, d, arity, int64(TuplesPerPage(arity))+1)
		defer h.Drop()

		var batches, cols pageRows
		bi := h.ScanBatches()
		for b, ok := bi.Next(); ok && bi.Page() == 0; b, ok = bi.Next() {
			batches.vals = append(batches.vals, b.Vals...)
			for _, m := range b.Measures {
				batches.meas = append(batches.meas, math.Float64bits(m))
			}
		}
		batches.err = bi.Close()
		ci := h.ScanColBatches()
		row := make([]int32, arity)
		for cb, ok := ci.Next(); ok && ci.Page() == 0; cb, ok = ci.Next() {
			for r := 0; r < cb.Len(); r++ {
				cb.Row(r, row)
				cols.vals = append(cols.vals, row...)
				cols.meas = append(cols.meas, math.Float64bits(cb.Measures[r]))
			}
		}
		cols.err = ci.Close()
		if (batches.err == nil) != (cols.err == nil) {
			t.Fatalf("batches err %v, column batches err %v", batches.err, cols.err)
		}
		if cols.err == nil {
			if !int32sEqual(cols.vals, batches.vals) || len(cols.meas) != len(batches.meas) {
				t.Fatalf("column batches read %v, batches %v", cols.vals, batches.vals)
			}
			for i := range cols.meas {
				if cols.meas[i] != batches.meas[i] {
					t.Fatalf("column batches measure %d bits %x, batches %x", i, cols.meas[i], batches.meas[i])
				}
			}
		}
		for _, err := range []error{batches.err, cols.err} {
			if err != nil && !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("malformed page failed with %v, want ErrCorruptPage", err)
			}
		}
		if n := pool.Pinned(); n != 0 {
			t.Fatalf("%d frames pinned after the reads", n)
		}
	})
}
