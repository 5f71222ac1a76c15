package exec

// Shared pieces of the batch kernels: the scan helper, the
// page-at-a-time output writer, the hash-join build table and the
// aggregation state (both over the keyIndex of keyindex.go). The kernels
// themselves (colbatch.go, fusecol.go, pipe.go) consume heap pages as
// storage.ColBatch views — one pin and one decode loop per page — and
// produce output through page-sized bulk appends. Batch boundaries are
// the cancellation check points: a batch never exceeds one page, so a
// canceled query stops within a page's worth of work.

import (
	"context"
	"math"

	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// projectKey writes the projection of vals onto cols into key, the
// form every keyIndex lookup takes.
func projectKey(vals []int32, cols []int, key []int32) {
	for i, c := range cols {
		key[i] = vals[c]
	}
}

// batchWriter accumulates output rows and flushes them to a table one
// page-sized batch at a time: one AppendRows (one pool pin, one header
// rewrite, and for shared outputs one mutex acquisition) per page of
// output. Each flush charges the run's TempTuples counter immediately,
// which is also where the per-query temp-tuple budget is enforced: an
// exploding join output is stopped within one page of output of crossing
// its bound.
type batchWriter struct {
	t      *Table
	locked bool // flush under t's mutex (shared outputs of parallel producers)
	st     *RunStats
	b      storage.Batch
	limit  int
	rows   int64 // total rows written by this writer
}

// newBatchWriter returns a writer into t charging st (nil for a load,
// which is no query's work); locked serializes flushes on t's mutex, for
// outputs shared between goroutines.
func newBatchWriter(t *Table, locked bool, st *RunStats) *batchWriter {
	w := &batchWriter{t: t, locked: locked, st: st, limit: storage.TuplesPerPage(len(t.Attrs))}
	w.b.Reset(len(t.Attrs))
	return w
}

// append buffers one row, flushing when a page's worth is buffered.
func (w *batchWriter) append(vals []int32, m float64) error {
	w.b.Append(vals, m)
	if w.b.Len() >= w.limit {
		return w.flush()
	}
	return nil
}

// flush writes the buffered rows out, resets the buffer, charges the
// run's temp-tuple accounting, and enforces the temp-tuple budget.
func (w *batchWriter) flush() error {
	if w.b.Len() == 0 {
		return nil
	}
	err := w.write(w.b.Vals, w.b.Measures)
	w.b.Reset(w.b.Arity)
	return err
}

// flushPages writes the buffered rows out a page's worth at a time while
// a page's worth is buffered, and keeps the rest: after a bulk add to
// w.b it makes exactly the flushes append would have made, so the pages
// pinned — and the buffer pool's hits and evictions — are the same.
func (w *batchWriter) flushPages() error {
	k := 0
	for w.b.Len()-k >= w.limit {
		if err := w.write(w.b.Vals[k*w.b.Arity:(k+w.limit)*w.b.Arity], w.b.Measures[k:k+w.limit]); err != nil {
			return err
		}
		k += w.limit
	}
	if k > 0 {
		w.b.Vals = w.b.Vals[:copy(w.b.Vals, w.b.Vals[k*w.b.Arity:])]
		w.b.Measures = w.b.Measures[:copy(w.b.Measures, w.b.Measures[k:])]
	}
	return nil
}

// write appends rows to the table and charges them.
func (w *batchWriter) write(vals []int32, meas []float64) error {
	if w.locked {
		w.t.mu.Lock()
	}
	err := w.t.Heap.AppendRows(vals, meas)
	if w.locked {
		w.t.mu.Unlock()
	}
	n := int64(len(meas))
	w.rows += n
	if err != nil || w.st == nil {
		return err
	}
	w.st.addTempTuples(n)
	return w.st.overTemp()
}

// hashBuild is the build side of a hash join: the build rows in flat
// row-major arrays, grouped by join key, and the key index mapping a
// join key to its group. No per-row or per-group object exists — the
// build pass makes a handful of allocations whatever the row count, the
// arrays hold no pointers for the collector to trace, and a probe is one
// index lookup plus (for repeated keys) one offset read. Once built it
// is read-only, so concurrent probe leaves share it.
type hashBuild struct {
	idx   *keyIndex
	arity int
	// off[gi]..off[gi+1] are the rows of key group gi, in build scan
	// order. nil when every key is unique: row r is then group r.
	off  []int32
	vals []int32 // arity values per row
	meas []float64
}

// rowSpan is a run of consecutive build rows [lo, hi).
type rowSpan struct{ lo, hi int32 }

// row returns build row r's values.
func (h *hashBuild) row(r int32) []int32 {
	return h.vals[int(r)*h.arity : (int(r)+1)*h.arity]
}

// span returns the build rows of key group gi.
func (h *hashBuild) span(gi int32) rowSpan {
	if h.off == nil {
		return rowSpan{gi, gi + 1}
	}
	return rowSpan{h.off[gi], h.off[gi+1]}
}

// buildBatch scans build's heap into a hashBuild keyed on buildCols.
func (e *Engine) buildBatch(ctx context.Context, build *Table, buildCols []int, st *RunStats) (*hashBuild, error) {
	n := int(build.Heap.NumTuples())
	arity := len(build.Attrs)
	var ka [maxRadixCols]relation.Attr
	keyAttrs := ka[:0]
	for _, c := range buildCols {
		keyAttrs = append(keyAttrs, build.Attrs[c])
	}
	hb := &hashBuild{
		idx:   newAttrKeyIndex(keyAttrs, n),
		arity: arity,
		vals:  make([]int32, 0, n*arity),
		meas:  make([]float64, 0, n),
	}
	gid := make([]int32, 0, n) // key group of each row, in scan order
	key := make([]int32, len(buildCols))
	it := build.Heap.ScanBatchesContext(ctx)
	defer it.Close()
	for {
		b, ok := it.Next()
		if !ok {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st.addBatches(1)
		hb.vals = append(hb.vals, b.Vals...)
		hb.meas = append(hb.meas, b.Measures...)
		for i := 0; i < b.Len(); i++ {
			projectKey(b.Vals[i*arity:(i+1)*arity], buildCols, key)
			gi, _ := hb.idx.put(key)
			gid = append(gid, int32(gi))
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	if hb.idx.len() < len(gid) {
		hb.groupRows(gid)
	}
	return hb, nil
}

// groupRows reorders the rows so each key group is contiguous (a stable
// counting sort on gid, so a group keeps build scan order) and records
// the group offsets.
func (h *hashBuild) groupRows(gid []int32) {
	g := h.idx.len()
	h.off = make([]int32, g+1)
	for _, x := range gid {
		h.off[x+1]++
	}
	for i := 0; i < g; i++ {
		h.off[i+1] += h.off[i]
	}
	next := append([]int32(nil), h.off[:g]...)
	vals := make([]int32, len(h.vals))
	meas := make([]float64, len(h.meas))
	for r, x := range gid {
		d := int(next[x])
		next[x]++
		copy(vals[d*h.arity:(d+1)*h.arity], h.vals[r*h.arity:(r+1)*h.arity])
		meas[d] = h.meas[r]
	}
	h.vals, h.meas = vals, meas
}

// batchAgg is the aggregation state: group keys live row-major in one
// arena (insertion order — the scan order of first appearance) and the
// key index maps them to positions, so absorbing a tuple into an
// existing group allocates nothing.
type batchAgg struct {
	idx   *keyIndex
	vals  []int32 // row-major group keys, arity values each
	meas  []float64
	arity int
}

// newBatchAgg returns an empty aggregation keyed on attrs, the group
// key's attributes, expecting about hint input rows (0 when unknown).
// Its arenas are sized for the smaller of hint and the key's domain
// product (at most maxKeyIndexHint groups).
func newBatchAgg(attrs []relation.Attr, hint int) *batchAgg {
	a := newBatchArena(attrs, hint)
	a.idx = newAttrKeyIndex(attrs, hint)
	return a
}

// newBatchArena is newBatchAgg without the key index, for an aggregate
// that is given one later (leafFold.ready).
func newBatchArena(attrs []relation.Attr, hint int) *batchAgg {
	a := &batchAgg{arity: len(attrs)}
	hint = min(hint, maxKeyIndexHint)
	doms, n := attrDomains(attrs)
	if cells := domainCells(len(attrs), doms[:n]); cells > 0 {
		hint = int(min(int64(hint), cells))
	}
	a.vals = make([]int32, 0, hint*a.arity)
	a.meas = make([]float64, 0, hint)
	return a
}

// attrDomains returns the declared domains of a key's attributes in
// doms[:n], the first maxRadixCols of them.
func attrDomains(attrs []relation.Attr) (doms [maxRadixCols]int32, n int) {
	n = min(len(attrs), maxRadixCols)
	for j, a := range attrs[:n] {
		doms[j] = int32(min(a.Domain, math.MaxInt32))
	}
	return doms, n
}

// newAttrKeyIndex is newKeyIndex over a key of the attributes attrs,
// passing their declared domains.
func newAttrKeyIndex(attrs []relation.Attr, hint int) *keyIndex {
	doms, n := attrDomains(attrs)
	return newKeyIndex(len(attrs), hint, doms[:n]...)
}

// slotCol is the slot pass over single-column keys: out[j] becomes the
// group of vals[j], groups new to a are created in row order and
// flagged in first, and the result reports whether any was.
func (a *batchAgg) slotCol(vals, out []int32, first []bool) (created bool) {
	if !a.idx.putCol(vals, out, first) {
		return false
	}
	for j, f := range first[:len(vals)] {
		if f {
			a.vals = append(a.vals, vals[j])
			a.meas = append(a.meas, 0)
		}
	}
	return true
}

// slotRows is slotCol over keys spread across columns: row lo+j of cols
// (one slice per key column) is key j; key is scratch of arity values.
func (a *batchAgg) slotRows(cols [][]int32, lo int, out []int32, first []bool, key []int32) (created bool) {
	if a.arity == 1 {
		return a.slotCol(cols[0][lo:lo+len(out)], out, first)
	}
	if !a.idx.putRows(cols, lo, out, first, key) {
		return false
	}
	for j, f := range first[:len(out)] {
		if f {
			for _, col := range cols {
				a.vals = append(a.vals, col[lo+j])
			}
			a.meas = append(a.meas, 0)
		}
	}
	return true
}

// slotKeys is slotCol over keys stored row-major in vals, arity values
// each: the slot pass of a merge, whose keys are another aggregate's
// key arena.
func (a *batchAgg) slotKeys(vals, out []int32, first []bool) (created bool) {
	if a.arity == 1 {
		return a.slotCol(vals, out, first)
	}
	if !a.idx.putKeys(vals, out, first) {
		return false
	}
	for j, f := range first[:len(out)] {
		if f {
			a.vals = append(a.vals, vals[j*a.arity:(j+1)*a.arity]...)
			a.meas = append(a.meas, 0)
		}
	}
	return true
}

// mergeGroups is the group count of one part of a merge (merge).
const mergeGroups = 4096

// merge absorbs every group of b, in b's first-seen order: a shared
// group's measure becomes Add(a's, b's), and b's groups new to a are
// appended after a's own. It runs in two passes. The first resolves b's
// groups against a and folds the shared ones, in parts of mergeGroups
// groups — a count that depends on b alone, never on Parallelism — one
// morsel each under kind on st's scheduler: b holds each key once, so
// no two parts touch one of a's groups, and a's index is only read. The
// second slots the groups a lacks, in b's order, on the calling
// goroutine. at is scratch of len(b.meas) resolved groups.
func (a *batchAgg) merge(e *Engine, b *batchAgg, at []int32, st *RunStats, kind string) error {
	n, w := len(b.meas), a.arity
	resolve := func(p int) error {
		var sc foldScratch
		for g0 := p * mergeGroups; g0 < min((p+1)*mergeGroups, n); g0 += foldChunk {
			g1 := min(g0+foldChunk, n, (p+1)*mergeGroups)
			a.idx.getKeys(b.vals[g0*w:g1*w], at[g0:g1])
			hits := 0
			for g, pos := range at[g0:g1] {
				if pos >= 0 {
					sc.slots[hits], sc.a[hits] = pos, b.meas[g0+g]
					hits++
				}
			}
			semiring.AddAt(e.Sr, a.meas, sc.slots[:hits], sc.a[:hits], nil)
		}
		return nil
	}
	if parts := (n + mergeGroups - 1) / mergeGroups; parts > 1 {
		if err := st.parallelFor(kind, parts, resolve); err != nil {
			return err
		}
	} else {
		resolve(0)
	}
	var sc foldScratch
	keys := make([]int32, 0, foldChunk*w)
	miss := 0
	flush := func() {
		slots, first := sc.slots[:miss], sc.first[:miss]
		created := a.slotKeys(keys, slots, first)
		semiring.AddAt(e.Sr, a.meas, slots, sc.a[:miss], firstIf(created, first))
		keys, miss = keys[:0], 0
	}
	for g, pos := range at[:n] {
		if pos >= 0 {
			continue
		}
		keys = append(keys, b.vals[g*w:(g+1)*w]...)
		sc.a[miss] = b.meas[g]
		if miss++; miss == foldChunk {
			flush()
		}
	}
	if miss > 0 {
		flush()
	}
	return nil
}

// foldChunk is the row count of one staged pass of the aggregating
// kernels (DESIGN.md, "Batch execution"): at most a page of rows, small
// enough that the scratch stays in L1.
const foldChunk = 256

// foldScratch is one chunk's scratch: the resolved build groups per
// input row, and per fold element its one-column group key, group slot,
// first-contribution flag and the fold's two measures. Kernels declare it
// as a local, so it lives on the goroutine's stack and is never
// allocated.
type foldScratch struct {
	at    [foldChunk]int32
	keys  [foldChunk]int32
	slots [foldChunk]int32
	first [foldChunk]bool
	a, b  [foldChunk]float64
}

// firstIf returns first when some group was created in the chunk, nil
// (no first contributions) otherwise.
func firstIf(created bool, first []bool) []bool {
	if created {
		return first
	}
	return nil
}

// reset empties a for reuse, keeping its allocations.
func (a *batchAgg) reset() {
	if a.idx != nil {
		a.idx.resetKeys(a.vals)
	}
	a.vals, a.meas = a.vals[:0], a.meas[:0]
}

// emit appends the groups to out in first-seen order with one bulk
// append.
func (a *batchAgg) emit(ctx context.Context, out *Table, st *RunStats) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := out.Heap.AppendRows(a.vals, a.meas); err != nil {
		return err
	}
	st.addTempTuples(int64(len(a.meas)))
	return st.overTemp()
}
