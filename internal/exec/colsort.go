package exec

// Sort-run generation over encoded batches. Runs are built as row-major
// arrays for spilling, with one CONTIGUOUS key array per sort column
// extracted straight from the page encodings — plain columns copy, byte
// codes widen directly (the code IS the value), dictionary codes map
// through the per-page dictionary (the order mapping, built once per
// page because EncDict is not order-preserving; see
// storage.OrderPreserving), and RLE runs expand run-wise. RLE runs of the
// leading sort column are additionally kept as pre-sorted block
// descriptors: when a single-column sort's run is fully covered by them,
// sorting degenerates to a stable sort of the O(runs) blocks plus
// contiguous memmoves instead of an O(n log n) row comparison sort.
// Stable sorts are uniquely determined by keys and input order, so the
// block sort and the key-array sort yield the identical permutation, and
// the spilled runs (and therefore the merged output) are byte-identical
// across page layouts.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"mpf/internal/relation"
	"mpf/internal/storage"
)

// colBlock is one pre-sorted block of a columnar sort run: rows
// [start, start+n) all carry leading-sort-key value val.
type colBlock struct {
	start, n int
	val      int32
}

// colMemRun is an in-memory sort run built from encoded batches: the
// row-major vals/measures (for spilling) plus one contiguous key array
// per sort column and, when every contributing page encoded the leading
// sort column as RLE, block descriptors covering the whole run.
type colMemRun struct {
	arity    int
	vals     []int32
	measures []float64
	keys     [][]int32  // decoded sort keys, one contiguous slice per sort column
	blocks   []colBlock // leading-column RLE blocks, adjacent equal values merged
	blocksOK bool       // blocks cover every row (leading column RLE in all batches)
}

func (r *colMemRun) len() int          { return len(r.measures) }
func (r *colMemRun) row(i int) []int32 { return r.vals[i*r.arity : (i+1)*r.arity] }

// sorted reports whether the run's keys are already in non-decreasing
// lexicographic order. A stable sort of sorted input is the identity
// permutation, so a sorted run skips sorting AND permuting — the common
// case when the leading sort key is the table's clustering key.
func (r *colMemRun) sorted() bool {
	n := r.len()
	keys := r.keys
	for i := 1; i < n; i++ {
		for _, k := range keys {
			if a, b := k[i-1], k[i]; a != b {
				if a > b {
					return false
				}
				break
			}
		}
	}
	return true
}

// sortBy sorts the run on its extracted keys. Already-sorted runs are
// returned untouched (identity permutation). A single-column run fully
// covered by RLE blocks stable-sorts the block descriptors and moves
// whole blocks; otherwise a stable index sort compares the contiguous
// key arrays. Both orders equal a stable row sort on the keys exactly.
func (r *colMemRun) sortBy() {
	if r.sorted() {
		return
	}
	n := r.len()
	nv := make([]int32, len(r.vals))
	nm := make([]float64, n)
	if len(r.keys) == 1 && r.blocksOK {
		sort.SliceStable(r.blocks, func(i, j int) bool { return r.blocks[i].val < r.blocks[j].val })
		to := 0
		for _, b := range r.blocks {
			copy(nv[to*r.arity:], r.vals[b.start*r.arity:(b.start+b.n)*r.arity])
			copy(nm[to:], r.measures[b.start:b.start+b.n])
			to += b.n
		}
		r.vals, r.measures = nv, nm
		return
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	keys := r.keys
	sort.SliceStable(idx, func(x, y int) bool {
		ix, iy := idx[x], idx[y]
		for _, k := range keys {
			if a, b := k[ix], k[iy]; a != b {
				return a < b
			}
		}
		return false
	})
	for to, from := range idx {
		copy(nv[to*r.arity:(to+1)*r.arity], r.row(from))
		nm[to] = r.measures[from]
	}
	r.vals, r.measures = nv, nm
}

// spillColRun sorts one columnar run and bulk-spills it to a fresh temp
// heap. Safe to call concurrently for distinct runs.
func (e *Engine) spillColRun(ctx context.Context, run *colMemRun, attrs []relation.Attr, st *RunStats) (*Table, error) {
	run.sortBy()
	rt, err := e.newTemp(ctx, "sortrun", attrs)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		rt.Drop()
		return nil, err
	}
	if err := rt.Heap.AppendRows(run.vals, run.measures); err != nil {
		rt.Drop()
		return nil, err
	}
	st.addTempTuples(int64(run.len()))
	return rt, nil
}

// appendColKeys extracts one batch's decoded sort keys for column view v
// into dst, encoding-aware: plain copies, byte widens codes (code ==
// value), dict maps codes through the per-page dictionary, RLE expands
// runs. Format v1 has no other encoding; an unknown tag is an internal
// error.
func appendColKeys(dst []int32, v *storage.ColView) ([]int32, error) {
	switch v.Enc {
	case storage.EncPlain:
		return append(dst, v.Plain...), nil
	case storage.EncByte:
		for _, c := range v.Codes {
			dst = append(dst, int32(c))
		}
		return dst, nil
	case storage.EncDict:
		for _, c := range v.Codes {
			dst = append(dst, v.Dict[c])
		}
		return dst, nil
	case storage.EncRLE:
		for _, r := range v.Runs {
			for j := 0; j < r.Len; j++ {
				dst = append(dst, r.Val)
			}
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("exec: internal: sort over unknown segment encoding %d", v.Enc)
	}
}

// scanColRuns streams in's tuples from encoded batches into colMemRuns of
// exactly runSize tuples (the last may be short), invoking spill at each
// boundary. Batches split at run boundaries, so run contents — and the
// sorted output — do not depend on the page layout.
func (e *Engine) scanColRuns(ctx context.Context, in *Table, cols []int, runSize int, st *RunStats, spill func(*colMemRun) error) error {
	arity := len(in.Attrs)
	newRun := func() *colMemRun {
		r := &colMemRun{arity: arity, vals: make([]int32, 0, runSize*arity),
			measures: make([]float64, 0, runSize), keys: make([][]int32, len(cols)), blocksOK: true}
		for ki := range r.keys {
			r.keys[ki] = make([]int32, 0, runSize)
		}
		return r
	}
	cur := newRun()
	var fbuf [][]int32
	skeys := make([][]int32, len(cols)) // per-batch scratch key arrays
	var sblocks []colBlock              // per-batch leading-column RLE blocks
	it := e.scanCB(ctx, in.Heap)
	defer it.Close()
	for {
		cb, ok := it.Next()
		if !ok {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		st.addBatches(1)
		for ki, c := range cols {
			var err error
			skeys[ki], err = appendColKeys(skeys[ki][:0], &cb.Cols[c])
			if err != nil {
				return err
			}
		}
		// cols is empty when sorting for a total aggregate (no group
		// variables): every order is sorted, and there is no leading column.
		leadRLE := len(cols) > 0 && cb.Cols[cols[0]].Enc == storage.EncRLE
		if leadRLE {
			sblocks = sblocks[:0]
			i := 0
			for _, r := range cb.Cols[cols[0]].Runs {
				sblocks = append(sblocks, colBlock{start: i, n: r.Len, val: r.Val})
				i += r.Len
			}
		}
		fs := flatCols(cb, fbuf)
		fbuf = fs
		for off, n := 0, cb.Len(); off < n; {
			take := runSize - cur.len()
			if take > n-off {
				take = n - off
			}
			base := cur.len()
			// Transpose column flats into the run's row-major spill image
			// with one indexed pass per column: contiguous reads, strided
			// writes, no per-value append bookkeeping.
			cur.vals = cur.vals[:(base+take)*arity]
			dst := cur.vals[base*arity:]
			for ci, f := range fs {
				j := ci
				for r := off; r < off+take; r++ {
					dst[j] = f[r]
					j += arity
				}
			}
			cur.measures = append(cur.measures, cb.Measures[off:off+take]...)
			for ki := range cols {
				cur.keys[ki] = append(cur.keys[ki], skeys[ki][off:off+take]...)
			}
			if leadRLE {
				for _, b := range sblocks {
					lo, hi := b.start, b.start+b.n
					if lo < off {
						lo = off
					}
					if hi > off+take {
						hi = off + take
					}
					if hi <= lo {
						continue
					}
					start := base + lo - off
					if nb := len(cur.blocks); nb > 0 && cur.blocks[nb-1].val == b.val &&
						cur.blocks[nb-1].start+cur.blocks[nb-1].n == start {
						cur.blocks[nb-1].n += hi - lo
					} else {
						cur.blocks = append(cur.blocks, colBlock{start: start, n: hi - lo, val: b.val})
					}
				}
			} else {
				cur.blocksOK = false
			}
			off += take
			if cur.len() >= runSize {
				if err := spill(cur); err != nil {
					return err
				}
				cur = newRun()
			}
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	if cur.len() > 0 {
		return spill(cur)
	}
	return nil
}

// colSortedAgg is the encoded streaming-aggregation pass over an
// already-sorted table: groups are contiguous, so boundaries come from
// comparing the flattened key columns (no per-row gather or allocation)
// and each group's measures fold span-wise through the semiring's
// RunFolder — collapsing a span in O(1) only when the collapse is
// provably bit-identical to the per-row left fold, so the output is
// byte-identical across page layouts.
func (e *Engine) colSortedAgg(ctx context.Context, sorted *Table, cols []int, out *Table, st *RunStats) error {
	rf := e.runFolder()
	kf := make([][]int32, len(cols))
	curKey := make([]int32, len(cols))
	var acc float64
	have := false
	w := newBatchWriter(out, false, st)
	emit := func() error {
		if !have {
			return nil
		}
		return w.append(curKey, acc)
	}
	it := e.scanCB(ctx, sorted.Heap)
	defer it.Close()
	for {
		cb, ok := it.Next()
		if !ok {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		st.addBatches(1)
		n := cb.Len()
		for k, c := range cols {
			kf[k] = cb.Cols[c].Flat()
		}
		for i := 0; i < n; {
			j := i + 1
		grow:
			for j < n {
				for k := range kf {
					if kf[k][j] != kf[k][i] {
						break grow
					}
				}
				j++
			}
			cont := have
			if cont {
				for k := range kf {
					if kf[k][i] != curKey[k] {
						cont = false
						break
					}
				}
			}
			if cont {
				acc = foldMeasures(e.Sr, rf, acc, cb.Measures[i:j])
			} else {
				if err := emit(); err != nil {
					return err
				}
				for k := range kf {
					curKey[k] = kf[k][i]
				}
				acc, have = cb.Measures[i], true
				acc = foldMeasures(e.Sr, rf, acc, cb.Measures[i+1:j])
			}
			i = j
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	if err := emit(); err != nil {
		return err
	}
	return w.flush()
}

// colRuns generates sorted runs over encoded batches, serially or — when
// the run has a morsel scheduler and the input spans several runs — with
// sort+spill morsels submitted under the "Sort" kind. On error any
// partial runs are dropped.
func (e *Engine) colRuns(ctx context.Context, in *Table, cols []int, runSize int, parallel bool, st *RunStats) ([]*Table, error) {
	var mu sync.Mutex
	var runs []*Table
	var g *morselGroup
	if parallel {
		g = st.sched.newGroup("Sort")
	}
	err := e.scanColRuns(ctx, in, cols, runSize, st, func(run *colMemRun) error {
		if g == nil {
			rt, err := e.spillColRun(ctx, run, in.Attrs, st)
			if err != nil {
				return err
			}
			runs = append(runs, rt)
			return nil
		}
		mu.Lock()
		idx := len(runs)
		runs = append(runs, nil)
		mu.Unlock()
		return g.submit(func() error {
			rt, err := e.spillColRun(ctx, run, in.Attrs, st)
			if err != nil {
				return err
			}
			mu.Lock()
			runs[idx] = rt
			mu.Unlock()
			return nil
		})
	})
	if g != nil {
		if werr := g.wait(); err == nil {
			err = werr
		}
	}
	if err != nil {
		dropAll(runs)
		return nil, err
	}
	return runs, nil
}
