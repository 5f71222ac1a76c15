package exec

import (
	"container/heap"
	"context"

	"mpf/internal/relation"
)

const defaultSortRunTuples = 1 << 17

// compareCols lexicographically compares the projections of two rows onto
// cols (cols may index the rows differently via aCols/bCols).
func compareCols(a []int32, aCols []int, b []int32, bCols []int) int {
	for i := range aCols {
		av, bv := a[aCols[i]], b[bCols[i]]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// externalSort sorts the input table by cols, producing a temporary table.
// Runs of at most SortRunTuples tuples are sorted in memory and spilled to
// temp heaps (concurrently when Engine.Parallelism > 1), then merged with
// a k-way merge.
func (e *Engine) externalSort(ctx context.Context, in *Table, cols []int, st *RunStats) (*Table, error) {
	runSize := e.SortRunTuples
	if runSize <= 0 {
		runSize = defaultSortRunTuples
	}

	parallel := st != nil && st.sched != nil && in.Heap.NumTuples() > int64(runSize)
	runs, err := e.colRuns(ctx, in, cols, runSize, parallel, st)
	if err != nil {
		return nil, err
	}

	if len(runs) == 0 {
		// Empty input: empty output table.
		return e.newTemp(ctx, "sorted("+in.Name+")", in.Attrs)
	}

	// Multi-pass merge with fan-in bounded by the buffer pool: each open
	// cursor pins one page for the whole pass, and the pool is shared, so
	// a merge takes at most a quarter of it — concurrent queries sorting
	// at once must not find every frame pinned.
	fanIn := max(2, e.Pool.Size()/4)
	for len(runs) > 1 {
		var next []*Table
		var mergeErr error
		for i := 0; i < len(runs) && mergeErr == nil; i += fanIn {
			j := i + fanIn
			if j > len(runs) {
				j = len(runs)
			}
			if j-i == 1 {
				next = append(next, runs[i])
				runs[i] = nil
				continue
			}
			var merged *Table
			merged, mergeErr = e.mergeRuns(ctx, runs[i:j], cols, in.Attrs, st)
			if mergeErr != nil {
				break
			}
			for k := i; k < j; k++ {
				runs[k].Drop()
				runs[k] = nil
			}
			next = append(next, merged)
		}
		if mergeErr != nil {
			for _, r := range runs {
				if r != nil {
					r.Drop()
				}
			}
			for _, r := range next {
				r.Drop()
			}
			return nil, mergeErr
		}
		runs = next
	}
	runs[0].Name = "sorted(" + in.Name + ")"
	return runs[0], nil
}

// mergeCursor is one run's head during a k-way merge.
type mergeCursor struct {
	it      *rowIter
	vals    []int32
	measure float64
}

// mergeHeap orders cursors by their head row on cols.
type mergeHeap struct {
	cursors []*mergeCursor
	cols    []int
}

func (h *mergeHeap) Len() int { return len(h.cursors) }
func (h *mergeHeap) Less(i, j int) bool {
	return compareCols(h.cursors[i].vals, h.cols, h.cursors[j].vals, h.cols) < 0
}
func (h *mergeHeap) Swap(i, j int) { h.cursors[i], h.cursors[j] = h.cursors[j], h.cursors[i] }
func (h *mergeHeap) Push(x any)    { h.cursors = append(h.cursors, x.(*mergeCursor)) }
func (h *mergeHeap) Pop() any {
	old := h.cursors
	n := len(old)
	c := old[n-1]
	h.cursors = old[:n-1]
	return c
}

func (e *Engine) mergeRuns(ctx context.Context, runs []*Table, cols []int, attrs []relation.Attr, st *RunStats) (*Table, error) {
	out, err := e.newTemp(ctx, "merge", attrs)
	if err != nil {
		return nil, err
	}
	mh := &mergeHeap{cols: cols}
	var iters []*rowIter
	defer func() {
		for _, it := range iters {
			it.Close()
		}
	}()
	for _, r := range runs {
		it := newRowIter(ctx, r)
		iters = append(iters, it)
		vals, m, ok, err := it.Next()
		if err != nil {
			out.Drop()
			return nil, err
		}
		if ok {
			mh.cursors = append(mh.cursors, &mergeCursor{it: it, vals: vals, measure: m})
		}
	}
	heap.Init(mh)
	poll := poller{ctx: ctx, st: st}
	for mh.Len() > 0 {
		c := mh.cursors[0]
		if err := poll.check(); err != nil {
			out.Drop()
			return nil, err
		}
		if err := out.Heap.Append(c.vals, c.measure); err != nil {
			out.Drop()
			return nil, err
		}
		st.TempTuples++
		vals, m, ok, err := c.it.Next()
		if err != nil {
			out.Drop()
			return nil, err
		}
		if ok {
			c.vals, c.measure = vals, m
			heap.Fix(mh, 0)
		} else {
			heap.Pop(mh)
		}
	}
	return out, nil
}

// rowIter wraps a heap iterator, copying rows so callers may retain them.
type rowIter struct {
	it interface {
		Next() ([]int32, float64, bool)
		Err() error
		Close() error
	}
}

func newRowIter(ctx context.Context, t *Table) *rowIter {
	return &rowIter{it: t.Heap.ScanContext(ctx)}
}

func (r *rowIter) Next() ([]int32, float64, bool, error) {
	vals, m, ok := r.it.Next()
	if !ok {
		return nil, 0, false, r.it.Err()
	}
	return append([]int32(nil), vals...), m, true, nil
}

func (r *rowIter) Close() error { return r.it.Close() }

// sortGroupBy implements marginalization by external sort on the group
// columns followed by a streaming aggregation pass.
func (e *Engine) sortGroupBy(ctx context.Context, in *Table, groupVars []string, st *RunStats) (*Table, error) {
	cols, outAttrs, err := groupSchema(in, groupVars)
	if err != nil {
		return nil, err
	}
	sorted, err := e.externalSort(ctx, in, cols, st)
	if err != nil {
		return nil, err
	}
	defer sorted.Drop()

	out, err := e.newOutTemp(ctx, "γ("+in.Name+")", outAttrs)
	if err != nil {
		return nil, err
	}
	if err := e.colSortedAgg(ctx, sorted, cols, out, st); err != nil {
		out.Drop()
		return nil, err
	}
	return out, nil
}

// sortMergeJoin implements the product join by sorting both inputs on the
// shared variables and merging, emitting the cross product of each pair of
// matching key groups. Inputs without shared variables fall back to the
// hash join (which degenerates to a nested cross product).
func (e *Engine) sortMergeJoin(ctx context.Context, l, r *Table, st *RunStats) (*Table, error) {
	lCols, rCols, rExtra, outAttrs, err := joinSchema(l, r)
	if err != nil {
		return nil, err
	}
	if len(lCols) == 0 {
		return e.hashJoin(ctx, l, r, st)
	}
	ls, err := e.externalSort(ctx, l, lCols, st)
	if err != nil {
		return nil, err
	}
	defer ls.Drop()
	rs, err := e.externalSort(ctx, r, rCols, st)
	if err != nil {
		return nil, err
	}
	defer rs.Drop()

	out, err := e.newOutTemp(ctx, "("+l.Name+"⋈*"+r.Name+")", outAttrs)
	if err != nil {
		return nil, err
	}
	lit, rit := newRowIter(ctx, ls), newRowIter(ctx, rs)
	defer lit.Close()
	defer rit.Close()

	type row struct {
		vals []int32
		m    float64
	}
	lv, lm, lok, err := lit.Next()
	if err != nil {
		out.Drop()
		return nil, err
	}
	rv, rm, rok, err := rit.Next()
	if err != nil {
		out.Drop()
		return nil, err
	}
	rowBuf := make([]int32, len(outAttrs))
	poll := poller{ctx: ctx, st: st}
	for lok && rok {
		if err := poll.check(); err != nil {
			out.Drop()
			return nil, err
		}
		c := compareCols(lv, lCols, rv, rCols)
		if c < 0 {
			lv, lm, lok, err = lit.Next()
		} else if c > 0 {
			rv, rm, rok, err = rit.Next()
		} else {
			// Gather the full groups with this key from both sides.
			var lg, rg []row
			keyRow := lv
			for lok && compareCols(lv, lCols, keyRow, lCols) == 0 {
				lg = append(lg, row{lv, lm})
				lv, lm, lok, err = lit.Next()
				if err != nil {
					out.Drop()
					return nil, err
				}
			}
			for rok && compareCols(rv, rCols, keyRow, lCols) == 0 {
				rg = append(rg, row{rv, rm})
				rv, rm, rok, err = rit.Next()
				if err != nil {
					out.Drop()
					return nil, err
				}
			}
			for _, a := range lg {
				for _, b := range rg {
					copy(rowBuf, a.vals)
					for i, cc := range rExtra {
						rowBuf[len(l.Attrs)+i] = b.vals[cc]
					}
					if err := out.Heap.Append(rowBuf, e.Sr.Mul(a.m, b.m)); err != nil {
						out.Drop()
						return nil, err
					}
					st.TempTuples++
				}
			}
			continue
		}
		if err != nil {
			out.Drop()
			return nil, err
		}
	}
	return out, nil
}
