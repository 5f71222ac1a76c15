package exec

// Probe pipelines. A Select, or the probe of an in-memory hash-join
// build, is a stage: it turns each batch of a streamed heap into output
// rows without reading any other input. A pipeline scans the heap's
// fixed leaves (leafPages pages each, the leaves foldLeaves cuts) as
// morsels, runs each leaf's batches through its stage, and hands the
// output to one of two sinks:
//
//   - the fused aggregate: when the stage's output is the probe input
//     of a fused GroupBy(Join), each FusedProbe leaf runs the stage over
//     the streamed heap and folds its output directly (fusecol.go), so
//     the intermediate is never written;
//   - the ordered heap sink (runPipe): everywhere else each leaf's
//     output is buffered and appended to the operator's output heap in
//     leaf order, one bulk append per leaf, so the heap is byte-identical
//     to the one a serial scan writes.
//
// Output rows keep the materializing operator's order — scan order, and
// for a probe the matching build rows in build scan order — and a
// probe's measure is Mul(left, right) in the join's argument order.

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// pipeStage is one pipeline stage: an equality selection, or the probe
// of an in-memory hash-join build. It is read-only once made, so the
// leaves of a pipeline share it; each runs it through a stageRun of its
// own.
type pipeStage struct {
	sr semiring.Semiring
	// A selection keeps the rows whose columns cols equal want.
	cols []int
	want []int32
	// A probe (hb != nil) joins every row to the build rows that match it
	// on keyCols.
	hb          *hashBuild
	keyCols     []int
	buildIsLeft bool
	// out maps each output column to its source: c >= 0 is the streamed
	// row's column c, c < 0 the build row's column -1-c.
	out []int
	// rows counts the output rows of a pipelined stage, whose output is
	// never materialized, for its trace span.
	rows atomic.Int64
}

// newSelectStage returns the selection of in's rows matching pred.
func newSelectStage(sr semiring.Semiring, in *Table, pred relation.Predicate) (*pipeStage, error) {
	s := &pipeStage{sr: sr, out: make([]int, len(in.Attrs))}
	for c := range s.out {
		s.out[c] = c
	}
	for v, val := range pred {
		c := in.ColIndex(v)
		if c < 0 {
			return nil, fmt.Errorf("exec: selection variable %s not in %s", v, in.Name)
		}
		s.cols = append(s.cols, c)
		s.want = append(s.want, val)
	}
	return s, nil
}

// newProbeStage hashes the smaller of l and r — l on a tie — and
// returns the stage that probes it with the other input, the one to
// stream. Its output schema is the join's: l's columns, then r's
// columns rExtra.
func (e *Engine) newProbeStage(ctx context.Context, l, r *Table, lCols, rCols, rExtra []int, st *RunStats) (s *pipeStage, stream *Table, err error) {
	build, stream := l, r
	buildCols, keyCols := lCols, rCols
	buildIsLeft := buildLeft(l, r)
	if !buildIsLeft {
		build, stream = r, l
		buildCols, keyCols = rCols, lCols
	}
	hb, err := e.buildBatch(ctx, build, buildCols, st)
	if err != nil {
		return nil, nil, err
	}
	nl := len(l.Attrs)
	out := make([]int, nl+len(rExtra))
	for c := 0; c < nl; c++ {
		out[c] = c
		if buildIsLeft {
			out[c] = -1 - c
		}
	}
	for j, c := range rExtra {
		out[nl+j] = -1 - c
		if buildIsLeft {
			out[nl+j] = c
		}
	}
	return &pipeStage{sr: e.Sr, hb: hb, keyCols: keyCols, buildIsLeft: buildIsLeft, out: out}, stream, nil
}

// buildLeft reports whether a hash join of l and r builds on l: it
// builds on the smaller input, l on a tie.
func buildLeft(l, r *Table) bool {
	return r.Heap.NumTuples() >= l.Heap.NumTuples()
}

// stageRun runs a stage over one leaf's batches. push hands the output
// to its consumer a chunk of at most foldChunk rows at a time: output
// row j of a chunk is row src[j] of the batch pushed (joined to build
// row bld[j], for a probe) with measure meas[j].
type stageRun struct {
	s    *pipeStage
	cb   *storage.ColBatch // the batch being pushed
	n    int               // rows in the chunk
	rows int64             // rows output so far
	src  [foldChunk]int32
	bld  [foldChunk]int32
	meas [foldChunk]float64
	ma   [foldChunk]float64 // a probe chunk's build measures
	mb   [foldChunk]float64 // and its streamed rows' measures

	at    []int32   // a probe's build key group per row, −1 on a miss
	key   []int32   // probe key scratch
	kf    [][]int32 // decoded predicate or key columns
	vb    storage.ColBatch
	vcols [][]int32 // backing of vb's columns
}

// run returns a stageRun for one leaf.
func (s *pipeStage) run() *stageRun {
	return &stageRun{s: s, key: make([]int32, len(s.keyCols))}
}

// push runs the stage over cb, calling emit for every output chunk in
// order; the chunk is valid only during the call.
func (r *stageRun) push(cb *storage.ColBatch, emit func() error) error {
	r.cb = cb
	if r.s.hb == nil {
		return r.pushSelect(emit)
	}
	return r.pushProbe(emit)
}

// pushSelect emits the rows of the batch the selection keeps, comparing
// the decoded predicate columns row by row.
func (r *stageRun) pushSelect(emit func() error) error {
	cb, s := r.cb, r.s
	r.kf = flatCols(cb, s.cols, r.kf)
rows:
	for i := 0; i < cb.Len(); i++ {
		for j, col := range r.kf {
			if col[i] != s.want[j] {
				continue rows
			}
		}
		r.src[r.n], r.meas[r.n] = int32(i), cb.Measures[i]
		if r.n++; r.n == foldChunk {
			if err := r.flush(emit); err != nil {
				return err
			}
		}
	}
	return r.flush(emit)
}

// pushProbe emits the batch's join rows: every row, in scan order, with
// each build row of its key group, in build scan order.
func (r *stageRun) pushProbe(emit func() error) error {
	cb, hb := r.cb, r.s.hb
	for i, gi := range r.resolve() {
		if gi < 0 {
			continue
		}
		rows := hb.span(gi)
		for b := rows.lo; b < rows.hi; b++ {
			r.src[r.n], r.bld[r.n] = int32(i), b
			r.ma[r.n], r.mb[r.n] = hb.meas[b], cb.Measures[i]
			if r.n++; r.n == foldChunk {
				if err := r.flush(emit); err != nil {
					return err
				}
			}
		}
	}
	return r.flush(emit)
}

// resolve is the probe's resolve pass: it maps every row of the batch
// to its build key group through the index's column pass over the
// decoded key columns.
func (r *stageRun) resolve() []int32 {
	r.at = grow(r.at, r.cb.Len())
	r.kf = flatCols(r.cb, r.s.keyCols, r.kf)
	r.s.hb.idx.getRows(r.kf, 0, r.at, r.key)
	return r.at
}

// iotaSlots addresses foldChunk accumulators in order and allFirst
// stores every element: with them the batch fold computes products
// (semiring.MulAddAt) into a plain vector.
var (
	iotaSlots [foldChunk]int32
	allFirst  [foldChunk]bool
)

func init() {
	for j := range iotaSlots {
		iotaSlots[j], allFirst[j] = int32(j), true
	}
}

// flush completes the chunk — a probe's measures are the products of
// its measure pairs, in the join's argument order — and emits it.
func (r *stageRun) flush(emit func() error) error {
	n := r.n
	if n == 0 {
		return nil
	}
	if r.s.hb != nil {
		a, b := r.ma[:n], r.mb[:n]
		if !r.s.buildIsLeft {
			a, b = b, a
		}
		semiring.MulAddAt(r.s.sr, r.meas[:n], iotaSlots[:n], a, b, allFirst[:n])
	}
	r.rows += int64(n)
	err := emit()
	r.n = 0
	return err
}

// gather writes output column k of the chunk to dst[0], dst[stride], ….
func (r *stageRun) gather(k int, dst []int32, stride int) {
	if c := r.s.out[k]; c >= 0 {
		col := r.cb.Cols[c].Flat()
		for j, i := range r.src[:r.n] {
			dst[j*stride] = col[i]
		}
	} else {
		hb, c := r.s.hb, -1-c
		for j, b := range r.bld[:r.n] {
			dst[j*stride] = hb.vals[int(b)*hb.arity+c]
		}
	}
}

// appendRows appends the chunk's rows to the row-major vals and their
// measures to meas.
func (r *stageRun) appendRows(vals []int32, meas []float64) ([]int32, []float64) {
	arity := len(r.s.out)
	base := len(vals)
	vals = slices.Grow(vals, r.n*arity)[:base+r.n*arity]
	for k := range r.s.out {
		r.gather(k, vals[base+k:], arity)
	}
	return vals, append(meas, r.meas[:r.n]...)
}

// view presents the chunk as a batch of plain columns to a consumer
// that reads only the columns need marks; the others stay empty.
func (r *stageRun) view(need []bool) *storage.ColBatch {
	arity := len(r.s.out)
	if r.vcols == nil {
		r.vb.Cols = make([]storage.ColView, arity)
		r.vcols = make([][]int32, arity)
		for k, ok := range need {
			if ok {
				r.vcols[k] = make([]int32, foldChunk)
			}
		}
	}
	for k, ok := range need {
		if ok {
			dst := r.vcols[k][:r.n]
			r.gather(k, dst, 1)
			r.vb.Cols[k] = storage.PlainView(dst)
		}
	}
	r.vb.Measures = r.meas[:r.n]
	return &r.vb
}

// grow returns s resized to n, reusing its backing array when it is
// large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// runPipe streams src through stage s into out, the ordered heap sink.
// A run with a scheduler and more than one leaf submits one morsel per
// leaf under kind; each buffers its leaf's output rows, which are
// appended to out strictly in leaf order (leafOrder), one AppendRows per
// leaf — page packing is that of one sequential append, so out is
// byte-identical to what a serial scan writes. Buffered rows count
// against the temp-tuple budget as they fill, and the leaves waiting to
// be appended are paced like a fold's. Otherwise the scan runs on the
// calling goroutine and writes straight through.
func (e *Engine) runPipe(ctx context.Context, kind string, src *Table, s *pipeStage, out *Table, st *RunStats) error {
	n := leafCount(src.Heap.NumPages())
	if st.sched == nil || n <= 1 {
		return e.pipeSerial(ctx, src, s, newBatchWriter(out, false, st), st)
	}
	var live atomic.Int64 // rows buffered by the leaves
	o := &leafOrder[sinkLeaf]{}
	o.init(n, e.workers())
	o.maxBacklog = leafBacklogGroups
	o.fresh = func(int) *sinkLeaf { return &sinkLeaf{run: s.run()} }
	o.size = func(l *sinkLeaf) int { return len(l.meas) }
	o.absorb = func(l *sinkLeaf) (bool, error) {
		rows := int64(len(l.meas))
		err := out.Heap.AppendRows(l.vals, l.meas)
		l.vals, l.meas = l.vals[:0], l.meas[:0]
		live.Add(-rows)
		if err != nil {
			return false, err
		}
		st.addTempTuples(rows)
		return false, st.overTemp()
	}
	return o.run(ctx, st, kind, src.Heap, func(_ int, it *storage.ColBatchIterator, l *sinkLeaf) error {
		lb := leafBudget{st: st, live: &live}
		emit := func() error {
			l.vals, l.meas = l.run.appendRows(l.vals, l.meas)
			return lb.check(len(l.meas))
		}
		for {
			cb, ok := it.Next()
			if !ok {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			st.addBatches(1)
			if err := l.run.push(cb, emit); err != nil {
				return err
			}
		}
	})
}

// sinkLeaf is one leaf of an ordered heap sink: its output rows,
// buffered until their turn, and the stage scratch that produced them.
// Both are recycled from leaf to leaf.
type sinkLeaf struct {
	vals []int32
	meas []float64
	run  *stageRun
}

// pipeSerial streams src through stage s into w on the calling
// goroutine, in scan order.
func (e *Engine) pipeSerial(ctx context.Context, src *Table, s *pipeStage, w *batchWriter, st *RunStats) error {
	r := s.run()
	emit := func() error {
		w.b.Vals, w.b.Measures = r.appendRows(w.b.Vals, w.b.Measures)
		return w.flushPages()
	}
	it := src.Heap.ScanColBatchesContext(ctx)
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
		if err := r.push(cb, emit); err != nil {
			return err
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	return w.flush()
}
