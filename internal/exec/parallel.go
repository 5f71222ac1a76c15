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
// Merging is pipelined (leafOrder): whichever worker completes the next
// leaf in order merges it, and any successors already waiting, while
// the others keep probing. A leaf of many groups merges in parts
// (batchAgg.merge), morsels that idle workers take before new leaves;
// every part of one leaf is merged before the next leaf, so the Add
// sequence of every group is the one above, and the groups new to the
// result are appended in the leaf's order. The groups of all live
// aggregates count against the query's temp-tuple budget at every batch
// boundary (leafBudget). On an error the scheduler drops the pending
// leaves, in-flight ones stop at their next batch boundary or finish,
// and every aggregate is garbage.
func (e *Engine) foldLeaves(ctx context.Context, kind string, in *storage.Heap, attrs []relation.Attr, st *RunStats,
	leaf func(it *storage.ColBatchIterator, agg *batchAgg, lb *leafBudget) error) (*batchAgg, error) {
	pages := in.NumPages()
	hint := 0
	if pages > 0 {
		hint = int(in.NumTuples() * min(pages, leafPages) / pages)
	}
	f := newLeafFold(e, attrs, leafCount(pages), e.workers(), hint)
	f.st, f.kind = st, kind
	f.maxBacklog = leafBacklogGroups
	// A leaf takes its key index when it starts (ready), so the fold
	// holds one per running leaf beside out's, however many leaf states
	// the pacing lets exist.
	f.fresh = func(int) *batchAgg { return newBatchArena(attrs, hint) }
	err := f.run(ctx, st, kind, in, func(i int, it *storage.ColBatchIterator, agg *batchAgg) error {
		f.ready(agg)
		if err := leaf(it, agg, &leafBudget{st: st, live: &f.live}); err != nil {
			return err
		}
		if i > 0 {
			f.release(agg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if f.out == nil {
		return &batchAgg{arity: len(attrs)}, nil
	}
	return f.out, nil
}

// leafCount is the number of leaves of a heap of the given page count.
func leafCount(pages int64) int {
	return int((pages + leafPages - 1) / leafPages)
}

// leafOrder is the leaf scheduling every leaf-parallel operator shares:
// one morsel per leaf of a heap, each filling a leaf state L of its own,
// and the finished states handed to absorb strictly in leaf order. The
// fold of an aggregation (leafFold) absorbs a leaf aggregate by merging
// it into the result; the ordered heap sink (pipe.go) by appending a
// leaf's rows to the output heap.
type leafOrder[L any] struct {
	mu       sync.Mutex
	advanced sync.Cond // signalled when next moves or a leaf fails
	done     []*L      // finished leaves waiting for their turn to be absorbed
	next     int       // the leaf to absorb next
	merging  bool      // a worker is absorbing; it will pick up new arrivals
	failed   bool
	free     []*L // absorbed leaf states, reset for reuse
	// window and maxBacklog pace the workers: a leaf may start only
	// window leaves past next, or leafRunAhead times as far while the
	// finished leaves waiting to be absorbed hold fewer than maxBacklog
	// groups or rows (backlog). The bound keeps the leaf states alive at
	// once few when absorbing is slower than producing — a high fan-out
	// join under a high-cardinality group-by — where the producing
	// workers would otherwise run the whole input ahead of the one
	// absorbing and hold every leaf in memory; the slack keeps workers
	// with small leaves from waiting on each other. What is absorbed into
	// what never depends on either.
	window, maxBacklog int
	backlog            int

	fresh func(i int) *L // a new state for leaf i, when none is free
	size  func(*L) int   // a leaf's groups or rows, for the backlog
	// absorb takes in the next leaf in order. It runs on one worker at a
	// time, without mu; keep=false recycles the state, which absorb has
	// reset.
	absorb func(*L) (keep bool, err error)
}

// init prepares o for n leaves, paced by window.
func (o *leafOrder[L]) init(n, window int) {
	o.done = make([]*L, n)
	o.window = window
	o.advanced.L = &o.mu
}

// run submits one morsel per leaf of in under kind: each takes a leaf
// state (start), calls leaf with the leaf's index and an iterator over
// its page range, and hands the state in (finish). The first error
// fails the set.
func (o *leafOrder[L]) run(ctx context.Context, st *RunStats, kind string, in *storage.Heap,
	leaf func(i int, it *storage.ColBatchIterator, l *L) error) error {
	return st.parallelFor(kind, len(o.done), func(i int) error {
		l := o.start(i)
		if l == nil {
			return nil // another leaf failed; its error ends the set
		}
		err := ctx.Err()
		if err == nil {
			it := in.ScanColBatchesContext(ctx)
			it.SetPageRange(int64(i)*leafPages, int64(i+1)*leafPages)
			if err = leaf(i, it, l); err == nil {
				err = it.Err()
			}
			it.Close()
		}
		if err == nil {
			err = o.finish(i, l)
		}
		if err != nil {
			o.fail()
			return err
		}
		return nil
	})
}

// start returns the state for leaf i, first waiting until i may start.
// Morsels start in leaf order, so leaf next is always running or done
// and the wait ends. It returns nil when the set has failed.
func (o *leafOrder[L]) start(i int) *L {
	o.mu.Lock()
	defer o.mu.Unlock()
	for !o.mayStart(i) && !o.failed {
		o.advanced.Wait()
	}
	if o.failed {
		return nil
	}
	if k := len(o.free); k > 0 {
		l := o.free[k-1]
		o.free = o.free[:k-1]
		return l
	}
	return o.fresh(i)
}

// mayStart reports whether leaf i is close enough to the absorbed ones
// to begin. Called with o.mu held.
func (o *leafOrder[L]) mayStart(i int) bool {
	ahead := o.window
	if o.backlog < o.maxBacklog {
		ahead *= leafRunAhead
	}
	return i < o.next+ahead
}

// fail releases the leaves waiting in start and stops absorbing.
func (o *leafOrder[L]) fail() {
	o.mu.Lock()
	o.failed = true
	o.advanced.Broadcast()
	o.mu.Unlock()
}

// finish hands in leaf i's state and, unless another worker is already
// absorbing, absorbs every leaf that is next in order.
func (o *leafOrder[L]) finish(i int, l *L) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.done[i] = l
	o.backlog += o.size(l)
	if o.merging {
		return nil
	}
	o.merging = true
	defer func() { o.merging = false }()
	for o.next < len(o.done) && o.done[o.next] != nil && !o.failed {
		l := o.done[o.next]
		o.done[o.next] = nil
		size := o.size(l)
		o.mu.Unlock()
		keep, err := o.absorb(l)
		o.mu.Lock()
		if err != nil {
			return err
		}
		if !keep {
			o.free = append(o.free, l)
		}
		o.backlog -= size
		o.next++
		o.advanced.Broadcast()
	}
	return nil
}

// leafFold is the merge state of one foldLeaves call: the first leaf
// aggregate in order (out) becomes the result, and every later one is
// merged into it (batchAgg.merge, whose parts run as morsels) and
// recycled.
type leafFold struct {
	leafOrder[batchAgg]
	e     *Engine
	attrs []relation.Attr
	st    *RunStats
	kind  string
	hint  int
	live  atomic.Int64 // groups held by leaf aggregates and out
	// out and at, the merge's resolved groups, are owned by the worker
	// absorbing.
	out *batchAgg
	at  []int32
	// idle holds the key indexes of finished later leaves, which their
	// merge does not read, for the next leaves to take (ready).
	idleMu sync.Mutex
	idle   []*keyIndex
}

// newLeafFold returns the fold of n leaves keyed on attrs, paced by
// window, whose leaf aggregates expect about hint rows. The merge's
// morsels run on the scheduler of st (set by foldLeaves; serially while
// it is nil) under kind.
func newLeafFold(e *Engine, attrs []relation.Attr, n, window, hint int) *leafFold {
	f := &leafFold{e: e, attrs: attrs, hint: hint}
	f.init(n, window)
	f.fresh = func(int) *batchAgg { return newBatchAgg(attrs, hint) }
	f.size = func(a *batchAgg) int { return len(a.meas) }
	f.absorb = f.merge
	return f
}

// ready gives leaf aggregate a a key index before its leaf runs.
func (f *leafFold) ready(a *batchAgg) {
	if a.idx != nil {
		return
	}
	f.idleMu.Lock()
	if k := len(f.idle); k > 0 {
		a.idx = f.idle[k-1]
		f.idle = f.idle[:k-1]
	}
	f.idleMu.Unlock()
	if a.idx == nil {
		a.idx = newAttrKeyIndex(f.attrs, f.hint)
	}
}

// release empties the key index of a finished later leaf — one that
// will not become out — and hands it to the next leaf: the merge reads
// only the leaf's arenas, so a leaf waiting to be merged holds no index.
func (f *leafFold) release(a *batchAgg) {
	a.idx.resetKeys(a.vals)
	f.idleMu.Lock()
	f.idle = append(f.idle, a.idx)
	f.idleMu.Unlock()
	a.idx = nil
}

// merge absorbs leaf aggregate a into the result.
func (f *leafFold) merge(a *batchAgg) (keep bool, err error) {
	if f.out == nil {
		f.out = a
		return true, nil
	}
	groups, before := len(a.meas), len(f.out.meas)
	f.at = grow(f.at, groups)
	if err := f.out.merge(f.e, a, f.at, f.st, f.kind); err != nil {
		return false, err
	}
	f.live.Add(int64(len(f.out.meas) - before - groups))
	a.reset()
	return false, nil
}

// leafBudget charges one leaf's in-memory state — an aggregate's groups,
// or the rows an ordered sink buffers — against the query's temp-tuple
// budget while the operator is still running: they reach
// RunStats.TempTuples only when they are written, and a key-less join
// under a wide group-by can grow them without bound long before that.
// live sums the state of every leaf of the operator still alive, across
// in-flight leaves.
type leafBudget struct {
	st      *RunStats
	live    *atomic.Int64
	charged int
}

// check publishes the leaf's growth to n groups or rows since the last
// call and reports whether the run's temp tuples plus the operator's
// live state exceed the bound. Kernels call it at every batch boundary.
func (lb *leafBudget) check(n int) error {
	live := lb.live.Add(int64(n - lb.charged))
	lb.charged = n
	return lb.st.overTempWith(live)
}
