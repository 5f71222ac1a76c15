package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"mpf/internal/relation"
	"mpf/internal/storage"
)

// workers returns the bounded worker count for parallel operators; 1
// means serial execution.
func (e *Engine) workers() int {
	if e.Parallelism <= 1 {
		return 1
	}
	return e.Parallelism
}

// addTempTuples merges a worker-local intermediate-tuple count into the
// run's shared counter.
func (st *RunStats) addTempTuples(n int64) {
	if n != 0 {
		atomic.AddInt64(&st.TempTuples, n)
	}
}

// addBatches counts consumed tuple batches; atomic because parallel
// operators scan from several goroutines into one RunStats.
func (st *RunStats) addBatches(n int64) {
	if n != 0 {
		atomic.AddInt64(&st.Batches, n)
	}
}

// leafPages is the size of an aggregation leaf in pages. Leaves are a
// function of the input heap's page count alone — never of Parallelism —
// because they define the fold order of every hash aggregation (see
// foldLeaves); an input of at most leafPages pages is one leaf and folds
// in plain scan order.
const leafPages = 32

// Pacing of a leaf fold (leafFold.mayStart). Neither constant touches
// what is merged into what, only when a worker may begin its next leaf.
const (
	// leafRunAhead × workers is how far past the merge a leaf may start
	// while the finished leaves waiting to merge are small. Without that
	// slack the workers run in lock-step — one that finishes its leaf
	// before an older leaf is merged can only wait — and every hiccup of
	// one core (a preempted thread, a slow page) stalls the other.
	leafRunAhead = 4
	// leafBacklogGroups is "small": once the waiting leaves hold this
	// many groups the slack is withdrawn, so their memory stays bounded
	// when merging into a large result is slower than probing.
	leafBacklogGroups = 1 << 15
)

// foldLeaves is the executor's one parallel aggregation scheme, shared by
// hash group-by and the fused join+aggregate probe. It cuts in into
// leaves of leafPages consecutive pages, submits one morsel per leaf to
// the run's scheduler under kind — each fills its own batchAgg, keyed on
// attrs (the group key's attributes), by calling leaf with an iterator
// over its page range — and merges the leaf aggregates IN LEAF ORDER
// into the result. That ordered merge is
// the definition of the fold order: a group's measure is
// Add(…Add(leaf₀, leaf₁)…, leafₙ) over the leaves it occurs in, each
// leaf value itself folded in scan order, and groups appear in the
// order leaf order then scan order first touches them. Serial execution
// runs the same leaves in the same order, so results are bit-identical
// at every worker count and — leaves being page ranges, and page counts
// layout-independent — across page layouts.
//
// Merging is pipelined (leafFold): whichever worker completes the next
// leaf in order merges it, and any successors already waiting, while the
// others keep probing. The groups of all live aggregates count against
// the query's temp-tuple budget at every batch boundary (leafBudget). On
// an error the scheduler drops the pending leaves, in-flight ones stop
// at their next batch boundary or finish, and every aggregate is
// garbage.
func (e *Engine) foldLeaves(ctx context.Context, kind string, in *storage.Heap, attrs []relation.Attr, st *RunStats,
	leaf func(it *storage.ColBatchIterator, agg *batchAgg, lb *leafBudget) error) (*batchAgg, error) {
	pages := in.NumPages()
	n := int((pages + leafPages - 1) / leafPages)
	f := &leafFold{e: e, attrs: attrs, done: make([]*batchAgg, n), window: e.workers(), maxBacklog: leafBacklogGroups}
	if pages > 0 {
		f.hint = int(in.NumTuples() * min(pages, leafPages) / pages)
	}
	f.advanced.L = &f.mu
	err := st.parallelFor(kind, n, func(i int) error {
		agg := f.start(i)
		if agg == nil {
			return nil // another leaf failed; its error ends the set
		}
		err := ctx.Err()
		if err == nil {
			it := in.ScanColBatchesContext(ctx)
			it.SetPageRange(int64(i)*leafPages, int64(i+1)*leafPages)
			if err = leaf(it, agg, &leafBudget{st: st, live: &f.live}); err == nil {
				err = it.Err()
			}
			it.Close()
		}
		if err != nil {
			f.fail()
			return err
		}
		f.finish(i, agg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if f.out == nil {
		f.out = newBatchAgg(attrs, 0)
	}
	return f.out, nil
}

// leafFold is the merge state of one foldLeaves call.
type leafFold struct {
	e     *Engine
	attrs []relation.Attr // the group key's attributes
	hint  int             // rows per leaf, about
	live  atomic.Int64    // groups held by leaf aggregates and out

	mu       sync.Mutex
	advanced sync.Cond   // signalled when next moves or a leaf fails
	done     []*batchAgg // finished leaves waiting for their turn to merge
	next     int         // the leaf to merge next
	merging  bool        // a worker is merging; it will pick up new arrivals
	failed   bool
	free     []*batchAgg // merged leaf aggregates, reset for reuse
	out      *batchAgg   // owned by the worker that set merging
	// window and maxBacklog pace the workers: a leaf may start only
	// window leaves past next, or leafRunAhead times as far while the
	// finished leaves waiting to merge hold fewer than maxBacklog groups
	// (backlog). The bound keeps the leaf aggregates alive at once few
	// when merging into a large result is slower than probing — a high
	// fan-out join under a high-cardinality group-by — where the probing
	// workers would otherwise run the whole input ahead of the one
	// merging and hold every leaf's groups in memory; the slack keeps
	// workers with small aggregates from waiting on each other. What is
	// merged into what never depends on either.
	window, maxBacklog int
	backlog            int
}

// start returns the aggregation state for leaf i, first waiting until i
// may start. Morsels start in leaf order, so leaf next is always running
// or done and the wait ends. It returns nil when the fold has failed.
func (f *leafFold) start(i int) *batchAgg {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.mayStart(i) && !f.failed {
		f.advanced.Wait()
	}
	if f.failed {
		return nil
	}
	if k := len(f.free); k > 0 {
		agg := f.free[k-1]
		f.free = f.free[:k-1]
		return agg
	}
	return newBatchAgg(f.attrs, f.hint)
}

// mayStart reports whether leaf i is close enough to the merge to begin.
// Called with f.mu held.
func (f *leafFold) mayStart(i int) bool {
	ahead := f.window
	if f.backlog < f.maxBacklog {
		ahead *= leafRunAhead
	}
	return i < f.next+ahead
}

// fail releases the leaves waiting in start.
func (f *leafFold) fail() {
	f.mu.Lock()
	f.failed = true
	f.advanced.Broadcast()
	f.mu.Unlock()
}

// finish hands in leaf i's aggregate and, unless another worker is
// already merging, merges every leaf that is next in order: the first
// becomes the result, the others are absorbed into it and recycled.
func (f *leafFold) finish(i int, agg *batchAgg) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.done[i] = agg
	f.backlog += len(agg.meas)
	if f.merging {
		return
	}
	f.merging = true
	for f.next < len(f.done) && f.done[f.next] != nil {
		a := f.done[f.next]
		f.done[f.next] = nil
		groups := len(a.meas)
		if f.out == nil {
			f.out = a
		} else {
			f.mu.Unlock()
			before := len(f.out.meas)
			f.out.merge(f.e, a)
			f.live.Add(int64(len(f.out.meas) - before - groups))
			a.reset()
			f.mu.Lock()
			f.free = append(f.free, a)
		}
		f.backlog -= groups
		f.next++
		f.advanced.Broadcast()
	}
	f.merging = false
}

// leafBudget charges one leaf aggregate's groups against the query's
// temp-tuple budget while the aggregation is still running — the groups
// reach RunStats.TempTuples only when the result is emitted, and a
// key-less join under a wide group-by can grow them without bound long
// before that. live sums the groups of every aggregate of the operator
// still alive, across in-flight leaves.
type leafBudget struct {
	st      *RunStats
	live    *atomic.Int64
	charged int
}

// check publishes agg's growth since the last call and reports whether
// the run's temp tuples plus the operator's live groups exceed the
// bound. Kernels call it at every batch boundary.
func (lb *leafBudget) check(agg *batchAgg) error {
	live := lb.live.Add(int64(len(agg.meas) - lb.charged))
	lb.charged = len(agg.meas)
	return lb.st.overTempWith(live)
}
