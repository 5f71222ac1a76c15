package exec

import (
	"context"
	"sync/atomic"

	"mpf/internal/relation"
)

// defaultParallelGroupByMinTuples is the input size below which parallel
// group-by is not worth the extra partition pass.
const defaultParallelGroupByMinTuples = 1 << 13

// workers returns the bounded worker count for parallel operators; 1
// means serial execution.
func (e *Engine) workers() int {
	if e.Parallelism <= 1 {
		return 1
	}
	return e.Parallelism
}

// parallelGroupByMin returns the tuple threshold for parallel group-by.
func (e *Engine) parallelGroupByMin() int64 {
	if e.ParallelGroupByMinTuples > 0 {
		return int64(e.ParallelGroupByMinTuples)
	}
	return defaultParallelGroupByMinTuples
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

// parallelHashGroupBy partitions the input on the group-key hash, runs the
// in-memory aggregation on each partition as concurrent morsels on the
// run's scheduler, and concatenates the partition results. Rows of one
// group always land in one partition, and partitioning preserves scan
// order within a partition, so every group's measures are accumulated in
// exactly the serial order — results are bit-identical to serial hash
// aggregation (only output row order differs, which is immaterial for a
// functional relation).
func (e *Engine) parallelHashGroupBy(ctx context.Context, in *Table, cols []int, outAttrs []relation.Attr, st *RunStats) (*Table, error) {
	parts, err := e.partition(ctx, in, cols, 0, st)
	if err != nil {
		return nil, err
	}
	defer dropAll(parts)
	out, err := e.newOutTemp(ctx, "γ("+in.Name+")", outAttrs)
	if err != nil {
		return nil, err
	}
	err = st.parallelFor("GroupBy", len(parts), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := parts[i]
		if p.Heap.NumTuples() == 0 {
			return nil
		}
		agg, err := e.aggregateColBatch(ctx, p, cols, st)
		if err != nil {
			return err
		}
		return agg.emit(ctx, out, true, st)
	})
	if err != nil {
		out.Drop()
		return nil, err
	}
	return out, nil
}
