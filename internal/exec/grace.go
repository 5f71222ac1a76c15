package exec

import (
	"context"
	"sync/atomic"
)

// graceFanOut is the number of partitions per Grace hash-join pass.
const graceFanOut = 16

// MaxBuildTuples caps the in-memory hash-join build side; larger builds
// switch to the Grace strategy: both inputs are hash-partitioned on the
// join key into temp heaps, and partition pairs are joined independently
// (recursively re-partitioning with a different hash seed if a partition
// is still too large). Zero means 1<<20 tuples (~16 MiB of build rows).
const defaultMaxBuildTuples = 1 << 20

// graceDepthLimit stops pathological recursion when all join-key values
// collide (e.g. a single hot key); such partitions fall back to the
// in-memory join regardless of size.
const graceDepthLimit = 3

// partitionHash buckets a join key for pass depth. The seed is
// (depth+1)·2654435761 so that depth 0 already mixes a non-zero seed into
// the FNV state — depth·K would be a zero-byte no-op on the first pass.
// The final avalanche (murmur3 fmix32) is load-bearing: raw FNV mod a
// power-of-two fan-out keys the bucket off the hash's low bits, which for
// short keys depend only on the key's low bits regardless of the seed —
// the same keys would then collide at EVERY depth and recursive
// repartitioning could never split a colliding pair, driving every such
// partition to the depth-limit fallback.
// The FNV-1a state is threaded through fnvMix4 manually rather than a
// hash/fnv object: this runs once per tuple on the Grace partition pass
// and the hash.Hash32 interface's Write cost is measurable there. The
// byte order matches the little-endian encoding the fnv object consumed,
// so bucket assignments are identical.
func partitionHash(vals []int32, cols []int, depth int) int {
	const fnvOffset32 = 2166136261
	h := fnvMix4(fnvOffset32, (uint32(depth)+1)*2654435761)
	for _, c := range cols {
		h = fnvMix4(h, uint32(vals[c]))
	}
	s := h
	s ^= s >> 16
	s *= 0x85ebca6b
	s ^= s >> 13
	s *= 0xc2b2ae35
	s ^= s >> 16
	return int(s % graceFanOut)
}

// fnvMix4 folds v's four bytes, least significant first, into an FNV-1a
// state — exactly what writing v's little-endian encoding to an fnv
// hasher does.
func fnvMix4(h, v uint32) uint32 {
	const prime32 = 16777619
	h = (h ^ (v & 0xff)) * prime32
	h = (h ^ ((v >> 8) & 0xff)) * prime32
	h = (h ^ ((v >> 16) & 0xff)) * prime32
	h = (h ^ (v >> 24)) * prime32
	return h
}

// maxBuild returns the engine's build-side cap.
func (e *Engine) maxBuild() int64 {
	if e.HashJoinMaxBuild > 0 {
		return e.HashJoinMaxBuild
	}
	return defaultMaxBuildTuples
}

// graceJoin hash-partitions both inputs on the shared variables and joins
// partition pairs, appending results to out. With a morsel scheduler
// attached to the run (Engine.Parallelism > 1) the two partition passes
// run as concurrent morsels and the partition pairs are morsels spread
// over the run's shared worker pool, each pair appending into out under
// its lock; recursive repartitioning stays serial inside its morsel.
// Partition pairs touch disjoint pages and every result row performs the
// same appends as in serial order, so (absent pool eviction) the IO
// counters match serial execution exactly.
func (e *Engine) graceJoin(ctx context.Context, l, r *Table, lCols, rCols, rExtra []int, out *Table, depth int, st *RunStats) error {
	parallel := depth == 0 && st != nil && st.sched != nil
	var lParts, rParts []*Table
	var lErr, rErr error
	if parallel {
		// Both partition passes as one morsel set: whichever the caller
		// does not run itself lands on a pool worker.
		st.sched.parallelFor("ProductJoin", 2, func(i int) error {
			if i == 0 {
				lParts, lErr = e.partition(ctx, l, lCols, depth, st)
			} else {
				rParts, rErr = e.partition(ctx, r, rCols, depth, st)
			}
			return nil
		})
	} else {
		lParts, lErr = e.partition(ctx, l, lCols, depth, st)
		if lErr == nil {
			rParts, rErr = e.partition(ctx, r, rCols, depth, st)
		}
	}
	defer dropAll(lParts)
	defer dropAll(rParts)
	if lErr != nil {
		return lErr
	}
	if rErr != nil {
		return rErr
	}
	pair := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		lp, rp := lParts[i], rParts[i]
		if lp.Heap.NumTuples() == 0 || rp.Heap.NumTuples() == 0 {
			return nil
		}
		small := lp.Heap.NumTuples()
		if rp.Heap.NumTuples() < small {
			small = rp.Heap.NumTuples()
		}
		if small > e.maxBuild() {
			if depth < graceDepthLimit {
				return e.graceJoin(ctx, lp, rp, lCols, rCols, rExtra, out, depth+1, st)
			}
			// Hot key: every repartition left this pair oversized, so join
			// it in memory anyway and surface the event.
			atomic.AddInt64(&st.HotKeyFallbacks, 1)
		}
		return e.hashJoinInto(ctx, lp, rp, lCols, rCols, rExtra, out, st)
	}
	if parallel {
		return st.sched.parallelFor("ProductJoin", graceFanOut, pair)
	}
	for i := 0; i < graceFanOut; i++ {
		if err := pair(i); err != nil {
			return err
		}
	}
	return nil
}

// partition splits t into graceFanOut temp heaps by join-key hash.
func (e *Engine) partition(ctx context.Context, t *Table, cols []int, depth int, st *RunStats) ([]*Table, error) {
	parts := make([]*Table, graceFanOut)
	for i := range parts {
		p, err := e.newTemp(ctx, "part", t.Attrs)
		if err != nil {
			dropAll(parts[:i])
			return nil, err
		}
		parts[i] = p
	}
	if err := e.partitionColBatch(ctx, t, cols, depth, parts, st); err != nil {
		dropAll(parts)
		return nil, err
	}
	return parts, nil
}

func dropAll(ts []*Table) {
	for _, t := range ts {
		if t != nil {
			t.Drop()
		}
	}
}
