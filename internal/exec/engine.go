package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// Engine evaluates logical plans with materializing physical operators.
type Engine struct {
	Pool    *storage.Pool
	Factory storage.DiskFactory
	Sr      semiring.Semiring

	// HashJoinMaxBuild caps the in-memory hash-join build side in tuples;
	// larger builds use the Grace (partitioned) strategy. Zero selects a
	// default of 1<<20.
	HashJoinMaxBuild int64
	// FuseJoinGroupBy pipelines GroupBy-over-Join pairs through a single
	// fused operator, skipping the join's materialization. Off by default
	// so operator IO matches the paper's materializing cost model.
	FuseJoinGroupBy bool
	// Parallelism bounds the worker goroutines used inside a single query:
	// Grace-join partition pairs, the leaves of hash group-by, of the
	// fused join+aggregate probe, of selections and of in-memory join
	// probes all fan out across this many workers. 0 or 1 runs the same
	// morsels serially on the calling goroutine. Aggregation folds in leaf
	// order whatever the worker count (foldLeaves), and selection and
	// probe outputs are appended in leaf order (runPipe), so parallel
	// execution of a plan produces the bit-identical result relation, and
	// (absent buffer-pool eviction) the same physical IO counts, as serial
	// execution. The one exception is a Grace join: its partition pairs
	// append to the join's output in completion order (hashJoinInto
	// through a locked writer), so the output's row order, and float sums
	// folded over it, may differ from serial execution's in the last
	// bits.
	Parallelism int
	// Columnar is a page-layout choice for the operator outputs the
	// result cache keeps: when set, their pages are re-encoded in the
	// columnar format as they fill (storage.SetColumnar), because later
	// queries re-read them. Every other temp — join outputs, Grace
	// partitions, the plan root's result — is read once and
	// stays row-major whatever this says. It does not select kernels —
	// every operator reads decoded column views, row-major pages and
	// columnar pages alike — so results are byte-identical and page
	// counts (and so IO) unchanged either way.
	Columnar bool
}

// NewEngine returns an engine with hash-based operators.
func NewEngine(pool *storage.Pool, factory storage.DiskFactory, sr semiring.Semiring) *Engine {
	return &Engine{Pool: pool, Factory: factory, Sr: sr}
}

// Span is one operator's execution window within a query trace (EXPLAIN
// ANALYZE's data source): what ran, its kind and tree depth, how many
// rows it produced, its start/stop timestamps relative to the run's
// start, its exclusive wall time — the operator's own work with its
// children's time subtracted, PostgreSQL's per-node "actual time" — and
// the buffer-pool stats delta observed over its own window (children
// subtracted, like Wall). Spans are recorded in completion order,
// post-order over the plan tree.
// Under concurrent queries on one Database the pool is shared, so IO
// attribution is approximate: pages another query moved during this
// operator's window land in its delta.
type Span struct {
	// Desc is the operator description, e.g. "Scan(contracts)".
	Desc string `json:"desc"`
	// Kind is the operator kind, e.g. "Scan", "ProductJoin", "GroupBy".
	Kind string `json:"kind"`
	// Depth is the operator's distance from the plan root (root = 0).
	Depth int `json:"depth"`
	// Rows is the operator's output cardinality.
	Rows int64 `json:"rows"`
	// Start and Stop are offsets from the run's start time.
	Start time.Duration `json:"start_ns"`
	Stop  time.Duration `json:"stop_ns"`
	// Wall is exclusive (self) time, children subtracted.
	Wall time.Duration `json:"wall_ns"`
	// IO is the pool-stats delta attributed to this operator alone.
	IO storage.Stats `json:"io"`
}

// RunStats describes one plan execution. On error the counters hold the
// partial work done up to the failure (Wall and IO included), so EXPLAIN
// ANALYZE of a failed query still reports what was spent.
type RunStats struct {
	Wall       time.Duration `json:"wall_ns"`
	IO         storage.Stats `json:"io"`
	RowsOut    int64         `json:"rows_out"`
	Operators  int           `json:"operators"`
	TempTuples int64         `json:"temp_tuples"` // tuples written to intermediate tables
	// HotKeyFallbacks counts Grace-join partitions that hit the recursion
	// depth limit still oversized (a hot join key) and fell back to an
	// in-memory join above the build cap. Non-zero means pathological
	// skew worth knowing about.
	HotKeyFallbacks int64 `json:"hot_key_fallbacks,omitempty"`
	// CacheHits counts result-cache hits spliced into this run: subtrees
	// whose execution was replaced by a scan of a cached materialization.
	CacheHits int64 `json:"cache_hits,omitempty"`
	// CacheMisses counts cacheable nodes of this run that probed the
	// result cache and found nothing.
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// Batches counts the page-sized tuple batches the operators consumed.
	// A batch boundary is the executor's cancellation check point.
	Batches int64 `json:"batches,omitempty"`
	// Planner is the report name of the planner that produced this run's
	// plan (the budget-race winner for budgeted planning). Filled by core,
	// not the engine; empty when the caller did not plan through core.
	Planner string `json:"planner,omitempty"`
	// PlanCacheHit marks a run whose plan came from the plan cache rather
	// than a fresh optimization. Filled by core.
	PlanCacheHit bool `json:"plan_cache_hit,omitempty"`
	// Trace lists per-operator spans in completion (bottom-up) order.
	Trace []Span `json:"trace,omitempty"`
	// Morsels lists per-operator-kind morsel-scheduler totals (tasks run
	// and worker busy time) for runs with Parallelism > 1. Busy time is
	// attributed to the kind that submitted each morsel, not the operator
	// whose goroutine blocked waiting — the truthful decomposition of
	// where parallel workers spent their time.
	Morsels []MorselStat `json:"morsels,omitempty"`

	// budget holds the per-query resource bounds read from the context
	// at run start (WithBudget); unexported so it never appears in the
	// wire encoding of RunStats.
	budget Budget
	// sched is the run's morsel scheduler (nil when serial); unexported
	// for the same wire-encoding reason.
	sched *morselSched
}

// Run executes the plan and returns the result as an in-memory relation
// together with execution statistics. Intermediate tables are dropped
// before returning.
func (e *Engine) Run(p *plan.Node, resolve Resolver) (*relation.Relation, RunStats, error) {
	return e.RunContext(context.Background(), p, resolve)
}

// RunContext is Run with cancellation: ctx is observed at every operator
// boundary, inside operator inner loops (join build/probe, aggregation,
// Grace partitioning — including the
// parallel worker pools), and by the buffer pool on page misses. A
// canceled run returns ctx's error with all temporary tables dropped and
// every buffer-pool pin released; RunStats still reports the partial
// work done up to the cancellation.
func (e *Engine) RunContext(ctx context.Context, p *plan.Node, resolve Resolver) (*relation.Relation, RunStats, error) {
	return e.RunCachedContext(ctx, p, resolve, nil, nil)
}

// RunCachedContext is RunContext with a shared result cache spliced in:
// before executing a cacheable node (a GroupBy over at least one product
// join — a VE intermediate) whose fingerprint appears in fps, the engine
// probes cache and, on a hit, scans the cached materialization instead
// of executing the subtree; on a miss it executes normally and registers
// the materialized output as a side effect. A nil cache (or nil fps)
// degrades to plain RunContext. Hits appear in the trace as CacheHit
// operators.
func (e *Engine) RunCachedContext(ctx context.Context, p *plan.Node, resolve Resolver, cache *ResultCache, fps map[*plan.Node]string) (*relation.Relation, RunStats, error) {
	if err := plan.Validate(p); err != nil {
		return nil, RunStats{}, err
	}
	start := time.Now()
	before := e.Pool.Stats()
	st := &RunStats{}
	if b, ok := BudgetFromContext(ctx); ok {
		st.budget = b
	}
	if w := e.workers(); w > 1 {
		st.sched = newMorselSched(w)
		defer st.sched.close()
	}
	if fps == nil {
		cache = nil
	}
	env := &runEnv{resolve: resolve, st: st, start: start, cache: cache, fps: fps}
	// finish stamps Wall and IO on every exit, error paths included, so
	// callers always see the true partial work.
	finish := func() {
		st.Wall = time.Since(start)
		st.IO = e.Pool.Stats().Sub(before)
		if st.sched != nil {
			st.Morsels = st.sched.snapshot()
		}
	}
	out, _, _, err := e.exec(ctx, p, env, 0)
	if err != nil {
		finish()
		return nil, *st, err
	}
	rel, err := readRelationContext(ctx, out)
	if err != nil {
		err = errors.Join(err, out.Drop())
		finish()
		return nil, *st, err
	}
	if err := out.Drop(); err != nil {
		finish()
		return nil, *st, err
	}
	finish()
	st.RowsOut = int64(rel.Len())
	if err := st.overRows(st.RowsOut); err != nil {
		return nil, *st, err
	}
	return rel, *st, nil
}

// runEnv carries per-run state through the operator tree: the base-table
// resolver, the stats sink, the run's start time (the zero point for
// trace-span timestamps), and the optional result cache with the plan's
// precomputed node fingerprints.
type runEnv struct {
	resolve Resolver
	st      *RunStats
	start   time.Time
	cache   *ResultCache
	fps     map[*plan.Node]string
}

// cacheKey returns the result-cache key for a node, and whether the node
// is on the cacheable cut: a GroupBy whose subtree contains at least one
// product join (the paper's VE intermediates — aggregated join outputs
// small enough to be worth keeping, unlike raw join results), with a
// fingerprint (its whole subtree versionable).
func (env *runEnv) cacheKey(p *plan.Node) (string, bool) {
	if env.cache == nil || p.Op != plan.OpGroupBy || plan.CountOps(p, plan.OpJoin) == 0 {
		return "", false
	}
	fp, ok := env.fps[p]
	return fp, ok
}

// exec evaluates one node, recording its trace Span. The
// returned duration and stats delta are the node's inclusive wall time
// and IO (children included); parents subtract them so that recorded
// exclusive figures are self-only. The returned table is temporary
// unless it is a base table.
func (e *Engine) exec(ctx context.Context, p *plan.Node, env *runEnv, depth int) (*Table, time.Duration, storage.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, storage.Stats{}, err
	}
	start := time.Now()
	ioBefore := e.Pool.Stats()
	key, cacheable := env.cacheKey(p)
	if cacheable {
		if t, ok := env.cache.Lookup(key); ok {
			// Splice: the cached materialization stands in for the whole
			// subtree. The hit is recorded as its own operator so EXPLAIN
			// ANALYZE and per-kind metrics show reuse explicitly.
			env.st.Operators++
			env.st.CacheHits++
			rows := t.Heap.NumTuples()
			incl := time.Since(start)
			desc := "CacheHit(" + opDesc(p) + ")"
			env.st.Trace = append(env.st.Trace, Span{
				Desc:  desc,
				Kind:  "CacheHit",
				Depth: depth,
				Rows:  rows,
				Start: start.Sub(env.start),
				Stop:  start.Sub(env.start) + incl,
				Wall:  incl,
			})
			return t, incl, storage.Stats{}, nil
		}
		env.cache.Miss()
		env.st.CacheMisses++
	}
	out, childWall, childIO, err := e.execOp(ctx, p, env, depth, cacheable)
	if err == nil && out != nil {
		// Operator-boundary budget backstop: loops enforce the temp-tuple
		// bound at poll/flush cadence; this catches paths that only tally
		// on completion.
		if berr := env.st.overTemp(); berr != nil {
			dropInput(out)
			out, err = nil, berr
		}
	}
	incl := time.Since(start)
	inclIO := e.Pool.Stats().Sub(ioBefore)
	if err == nil && out != nil {
		env.addSpan(p, opDesc(p), depth, start, start.Add(incl), out.Heap.NumTuples(), incl-childWall, inclIO.Sub(childIO))
		if cacheable && out.temp {
			// Materialize-and-register: the output was produced anyway;
			// adopting it into the cache costs no extra IO. The subtree's
			// inclusive IO is its rebuild cost.
			env.cache.Register(key, out, sortedTables(p), inclIO.IO())
		}
	}
	return out, incl, inclIO, err
}

// addSpan records the trace span of node p at depth, run from start to
// stop: rows is its output cardinality, self and selfIO its exclusive
// wall time and IO (floored at zero).
func (env *runEnv) addSpan(p *plan.Node, desc string, depth int, start, stop time.Time, rows int64, self time.Duration, selfIO storage.Stats) {
	env.st.Trace = append(env.st.Trace, Span{
		Desc:  desc,
		Kind:  opKind(p),
		Depth: depth,
		Rows:  rows,
		Start: start.Sub(env.start),
		Stop:  stop.Sub(env.start),
		Wall:  max(self, 0),
		IO:    clampStats(selfIO),
	})
}

// sortedTables lists the base tables under a plan node in sorted order,
// the dependency set recorded with a cache entry for invalidation.
func sortedTables(p *plan.Node) []string {
	m := plan.Tables(p)
	out := make([]string, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// clampStats floors each counter at zero. Exclusive per-operator deltas
// are computed by subtraction and can dip below zero when a concurrent
// query's IO lands in a child's window but not the parent's.
func clampStats(s storage.Stats) storage.Stats {
	if s.Reads < 0 {
		s.Reads = 0
	}
	if s.Writes < 0 {
		s.Writes = 0
	}
	if s.Hits < 0 {
		s.Hits = 0
	}
	if s.Retries < 0 {
		s.Retries = 0
	}
	if s.TransientFaults < 0 {
		s.TransientFaults = 0
	}
	if s.PermanentFaults < 0 {
		s.PermanentFaults = 0
	}
	if s.ChecksumFailures < 0 {
		s.ChecksumFailures = 0
	}
	return s
}

// opDesc renders a short operator description for a Span.
func opDesc(p *plan.Node) string {
	if p.Op == plan.OpScan {
		return "Scan(" + p.Table + ")"
	}
	return opKind(p)
}

// opKind names the operator kind, the key for per-kind engine metrics.
func opKind(p *plan.Node) string {
	switch p.Op {
	case plan.OpScan:
		return "Scan"
	case plan.OpSelect:
		return "Select"
	case plan.OpJoin:
		return "ProductJoin"
	case plan.OpGroupBy:
		return "GroupBy"
	default:
		return p.Op.String()
	}
}

// execOp dispatches one operator. The returned duration and stats sum
// the inclusive wall time and IO of the operator's direct children,
// letting exec compute exclusive self figures. cacheable says exec will
// register the node's output with the result cache: the operator body
// then runs under a cached-output marker (see newOutTemp), while
// children still execute unmarked, so only that output heap is
// columnar-encoded.
func (e *Engine) execOp(ctx context.Context, p *plan.Node, env *runEnv, depth int, cacheable bool) (*Table, time.Duration, storage.Stats, error) {
	st := env.st
	st.Operators++
	bctx := ctx
	if cacheable {
		bctx = context.WithValue(ctx, cachedOutCtxKey{}, true)
	}
	switch p.Op {
	case plan.OpScan:
		out, err := env.resolve(p.Table)
		return out, 0, storage.Stats{}, err
	case plan.OpSelect:
		in, childWall, childIO, err := e.exec(ctx, p.Left, env, depth+1)
		if err != nil {
			return nil, childWall, childIO, err
		}
		out, err := e.selectOp(bctx, in, p.Pred, st)
		dropInput(in)
		return out, childWall, childIO, err
	case plan.OpJoin:
		l, lWall, lIO, err := e.exec(ctx, p.Left, env, depth+1)
		if err != nil {
			return nil, lWall, lIO, err
		}
		r, rWall, rIO, err := e.exec(ctx, p.Right, env, depth+1)
		childIO := lIO.Add(rIO)
		if err != nil {
			l.Drop()
			return nil, lWall + rWall, childIO, err
		}
		out, err := e.hashJoin(bctx, l, r, st)
		dropInput(l)
		dropInput(r)
		return out, lWall + rWall, childIO, err
	case plan.OpGroupBy:
		if fused, childWall, childIO, err := e.tryFuse(ctx, bctx, p, env, depth); err != nil || fused != nil {
			return fused, childWall, childIO, err
		}
		in, childWall, childIO, err := e.exec(ctx, p.Left, env, depth+1)
		if err != nil {
			return nil, childWall, childIO, err
		}
		out, err := e.hashGroupBy(bctx, in, p.GroupVars, st)
		dropInput(in)
		return out, childWall, childIO, err
	default:
		return nil, 0, storage.Stats{}, fmt.Errorf("exec: unknown op %v", p.Op)
	}
}

// dropInput releases an operator input if it was temporary. A failed
// drop is not the query's failure: the heap is in memory and is
// reclaimed either way.
func dropInput(t *Table) {
	if t != nil {
		t.Drop()
	}
}

// newTemp creates a temporary output table with the given schema. The
// heap is bound to ctx: appends that miss in the pool observe it.
func (e *Engine) newTemp(ctx context.Context, name string, attrs []relation.Attr) (*Table, error) {
	h, err := storage.NewTempHeap(e.Pool, e.Factory, len(attrs))
	if err != nil {
		return nil, err
	}
	h.SetContext(ctx)
	return &Table{Name: name, Attrs: attrs, Heap: h, temp: true}, nil
}

// cachedOutCtxKey marks an operator-body context whose output temp the
// result cache will adopt: later queries re-scan it, so encoding it pays.
// Every other temp — an output consumed by exactly one parent, the plan
// root's result, intra-operator scratch (Grace partitions,
// created through newTemp) — is written once, read once and dropped, and
// re-encoding it is pure overhead.
type cachedOutCtxKey struct{}

// newOutTemp creates an operator's output temp, row-major unless
// Engine.Columnar is set and ctx carries the cached-output marker.
func (e *Engine) newOutTemp(ctx context.Context, name string, attrs []relation.Attr) (*Table, error) {
	t, err := e.newTemp(ctx, name, attrs)
	if err != nil {
		return nil, err
	}
	t.Heap.SetColumnar(e.Columnar && ctx.Value(cachedOutCtxKey{}) != nil)
	return t, nil
}

// selectOp filters the input by the equality predicate: a one-stage
// pipeline into the ordered heap sink (pipe.go).
func (e *Engine) selectOp(ctx context.Context, in *Table, pred relation.Predicate, st *RunStats) (*Table, error) {
	s, err := newSelectStage(e.Sr, in, pred)
	if err != nil {
		return nil, err
	}
	out, err := e.newOutTemp(ctx, "σ("+in.Name+")", in.Attrs)
	if err != nil {
		return nil, err
	}
	if err := e.runPipe(ctx, "Select", in, s, out, st); err != nil {
		out.Drop()
		return nil, err
	}
	return out, nil
}

// joinSchema computes shared columns and the output schema of l ⋈* r.
func joinSchema(l, r *Table) (lCols, rCols, rExtra []int, outAttrs []relation.Attr, err error) {
	shared := l.Vars().Intersect(r.Vars()).Sorted()
	lCols = make([]int, len(shared))
	rCols = make([]int, len(shared))
	for i, v := range shared {
		lc, rc := l.ColIndex(v), r.ColIndex(v)
		if l.Attrs[lc].Domain != r.Attrs[rc].Domain {
			return nil, nil, nil, nil, fmt.Errorf("exec: join %s/%s: domain mismatch on %s", l.Name, r.Name, v)
		}
		lCols[i], rCols[i] = lc, rc
	}
	outAttrs = append([]relation.Attr(nil), l.Attrs...)
	for i, a := range r.Attrs {
		if l.ColIndex(a.Name) < 0 {
			outAttrs = append(outAttrs, a)
			rExtra = append(rExtra, i)
		}
	}
	return lCols, rCols, rExtra, outAttrs, nil
}

// hashJoin implements the product join by building an in-memory hash
// table on the smaller input and probing with the larger; when even the
// smaller input exceeds the build cap, the Grace partitioned strategy is
// used instead (classic hybrid behaviour for disk-resident operands).
func (e *Engine) hashJoin(ctx context.Context, l, r *Table, st *RunStats) (*Table, error) {
	lCols, rCols, rExtra, outAttrs, err := joinSchema(l, r)
	if err != nil {
		return nil, err
	}
	out, err := e.newOutTemp(ctx, "("+l.Name+"⋈*"+r.Name+")", outAttrs)
	if err != nil {
		return nil, err
	}
	smaller := l.Heap.NumTuples()
	if r.Heap.NumTuples() < smaller {
		smaller = r.Heap.NumTuples()
	}
	if smaller > e.maxBuild() && len(lCols) > 0 {
		if err := e.graceJoin(ctx, l, r, lCols, rCols, rExtra, out, 0, st); err != nil {
			out.Drop()
			return nil, err
		}
		return out, nil
	}
	s, stream, err := e.newProbeStage(ctx, l, r, lCols, rCols, rExtra, st)
	if err == nil {
		err = e.runPipe(ctx, "ProductJoin", stream, s, out, st)
	}
	if err != nil {
		out.Drop()
		return nil, err
	}
	return out, nil
}

// hashJoinInto performs an in-memory-build hash join of l and r on the
// calling goroutine, appending result tuples to out. It is safe to run
// concurrently with other appenders to the same out (Grace partition
// pairs do): appends go through a locked batchWriter on out and shared
// counters are merged atomically.
func (e *Engine) hashJoinInto(ctx context.Context, l, r *Table, lCols, rCols, rExtra []int, out *Table, st *RunStats) error {
	s, stream, err := e.newProbeStage(ctx, l, r, lCols, rCols, rExtra, st)
	if err != nil {
		return err
	}
	return e.pipeSerial(ctx, stream, s, newBatchWriter(out, true, st), st)
}

// groupSchema resolves the group variables to column indexes and the
// aggregate output schema.
func groupSchema(in *Table, groupVars []string) (cols []int, outAttrs []relation.Attr, err error) {
	cols = make([]int, len(groupVars))
	outAttrs = make([]relation.Attr, len(groupVars))
	for i, v := range groupVars {
		c := in.ColIndex(v)
		if c < 0 {
			return nil, nil, fmt.Errorf("exec: group variable %s not in %s", v, in.Name)
		}
		cols[i] = c
		outAttrs[i] = in.Attrs[c]
	}
	return cols, outAttrs, nil
}

// hashGroupBy implements marginalization with in-memory hash
// aggregation, leaf by leaf (foldLeaves).
func (e *Engine) hashGroupBy(ctx context.Context, in *Table, groupVars []string, st *RunStats) (*Table, error) {
	cols, outAttrs, err := groupSchema(in, groupVars)
	if err != nil {
		return nil, err
	}
	agg, err := e.foldLeaves(ctx, "GroupBy", in.Heap, outAttrs, st,
		func(it *storage.ColBatchIterator, agg *batchAgg, lb *leafBudget) error {
			return e.aggregateColBatch(ctx, it, cols, agg, lb, st)
		})
	if err != nil {
		return nil, err
	}
	return e.emitAgg(ctx, agg, "γ("+in.Name+")", outAttrs, st)
}

// emitAgg materializes an aggregation's groups as an operator output.
func (e *Engine) emitAgg(ctx context.Context, agg *batchAgg, name string, attrs []relation.Attr, st *RunStats) (*Table, error) {
	out, err := e.newOutTemp(ctx, name, attrs)
	if err != nil {
		return nil, err
	}
	if err := agg.emit(ctx, out, st); err != nil {
		out.Drop()
		return nil, err
	}
	return out, nil
}
