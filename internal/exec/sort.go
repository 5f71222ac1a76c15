package exec

import (
	"container/heap"
	"context"

	"mpf/internal/relation"
	"mpf/internal/storage"
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

	// Multi-pass merge with fan-in bounded by the buffer pool. A merge
	// cursor holds no pin between page batches (each batch is a decoded
	// copy of one page), so the bound no longer guards against pinning
	// the pool out; it keeps a pass's working set — one page per run — to
	// a quarter of a pool that concurrent queries share.
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

// runCursor walks a sorted table row by row over its page batches. It
// holds no pin: each batch is a decoded copy of one page.
type runCursor struct {
	it *storage.BatchIterator
	b  *storage.Batch // current batch; nil once the table is exhausted
	i  int            // current row within b
}

// openRunCursor positions a cursor on t's first row (b is nil when t is
// empty). The caller must close it.
func openRunCursor(ctx context.Context, t *Table) (*runCursor, error) {
	c := &runCursor{it: t.Heap.ScanBatchesContext(ctx), i: -1}
	return c, c.next()
}

// next advances to the following row, decoding the table's next page
// when the current batch is used up.
func (c *runCursor) next() error {
	c.i++
	if c.b != nil && c.i < c.b.Len() {
		return nil
	}
	c.b, c.i = nil, 0
	if b, ok := c.it.Next(); ok {
		c.b = b
		return nil
	}
	return c.it.Err()
}

func (c *runCursor) row() []int32     { return c.b.Row(c.i) }
func (c *runCursor) measure() float64 { return c.b.Measures[c.i] }

// mergeHeap orders live cursors by their current row on cols.
type mergeHeap struct {
	cursors []*runCursor
	cols    []int
}

func (h *mergeHeap) Len() int { return len(h.cursors) }
func (h *mergeHeap) Less(i, j int) bool {
	return compareCols(h.cursors[i].row(), h.cols, h.cursors[j].row(), h.cols) < 0
}
func (h *mergeHeap) Swap(i, j int) { h.cursors[i], h.cursors[j] = h.cursors[j], h.cursors[i] }
func (h *mergeHeap) Push(x any)    { h.cursors = append(h.cursors, x.(*runCursor)) }
func (h *mergeHeap) Pop() any {
	old := h.cursors
	n := len(old)
	c := old[n-1]
	h.cursors = old[:n-1]
	return c
}

// mergeRuns k-way merges sorted runs into one sorted temp table.
func (e *Engine) mergeRuns(ctx context.Context, runs []*Table, cols []int, attrs []relation.Attr, st *RunStats) (*Table, error) {
	out, err := e.newTemp(ctx, "merge", attrs)
	if err != nil {
		return nil, err
	}
	if err := e.mergeInto(ctx, out, runs, cols, st); err != nil {
		out.Drop()
		return nil, err
	}
	return out, nil
}

// mergeInto writes the merge of runs to out through a batchWriter.
func (e *Engine) mergeInto(ctx context.Context, out *Table, runs []*Table, cols []int, st *RunStats) error {
	mh := &mergeHeap{cols: cols}
	var all []*runCursor
	defer func() {
		for _, c := range all {
			c.it.Close()
		}
	}()
	for _, r := range runs {
		c, err := openRunCursor(ctx, r)
		all = append(all, c)
		if err != nil {
			return err
		}
		if c.b != nil {
			mh.cursors = append(mh.cursors, c)
		}
	}
	heap.Init(mh)
	w := newBatchWriter(out, false, st)
	poll := poller{ctx: ctx, st: st}
	for mh.Len() > 0 {
		c := mh.cursors[0]
		if err := poll.check(); err != nil {
			return err
		}
		if err := w.append(c.row(), c.measure()); err != nil {
			return err
		}
		if err := c.next(); err != nil {
			return err
		}
		if c.b != nil {
			heap.Fix(mh, 0)
		} else {
			heap.Pop(mh)
		}
	}
	return w.flush()
}

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
	if err := e.mergeJoinInto(ctx, out, ls, rs, lCols, rCols, rExtra, st); err != nil {
		out.Drop()
		return nil, err
	}
	return out, nil
}

// keyGroup buffers the rows of one side's current join-key group, which
// may span page batches.
type keyGroup struct {
	vals []int32
	meas []float64
}

// gather moves c's rows whose cols equal key into g, replacing g's
// previous group.
func (g *keyGroup) gather(c *runCursor, cols []int, key []int32, keyCols []int) error {
	g.vals, g.meas = g.vals[:0], g.meas[:0]
	for c.b != nil && compareCols(c.row(), cols, key, keyCols) == 0 {
		g.vals = append(g.vals, c.row()...)
		g.meas = append(g.meas, c.measure())
		if err := c.next(); err != nil {
			return err
		}
	}
	return nil
}

// mergeJoinInto merges the sorted inputs ls and rs on their key columns
// and writes the cross product of each pair of matching key groups to
// out through a batchWriter.
func (e *Engine) mergeJoinInto(ctx context.Context, out, ls, rs *Table, lCols, rCols, rExtra []int, st *RunStats) error {
	lc, err := openRunCursor(ctx, ls)
	defer lc.it.Close()
	if err != nil {
		return err
	}
	rc, err := openRunCursor(ctx, rs)
	defer rc.it.Close()
	if err != nil {
		return err
	}
	la, ra := len(ls.Attrs), len(rs.Attrs)
	w := newBatchWriter(out, false, st)
	rowBuf := make([]int32, len(out.Attrs))
	key := make([]int32, la)
	var lg, rg keyGroup
	poll := poller{ctx: ctx, st: st}
	for lc.b != nil && rc.b != nil {
		if err := poll.check(); err != nil {
			return err
		}
		switch c := compareCols(lc.row(), lCols, rc.row(), rCols); {
		case c < 0:
			err = lc.next()
		case c > 0:
			err = rc.next()
		default:
			copy(key, lc.row())
			if err := lg.gather(lc, lCols, key, lCols); err != nil {
				return err
			}
			if err := rg.gather(rc, rCols, key, lCols); err != nil {
				return err
			}
			for i, lm := range lg.meas {
				copy(rowBuf, lg.vals[i*la:(i+1)*la])
				for j, rm := range rg.meas {
					for k, cc := range rExtra {
						rowBuf[la+k] = rg.vals[j*ra+cc]
					}
					if err := w.append(rowBuf, e.Sr.Mul(lm, rm)); err != nil {
						return err
					}
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return w.flush()
}
