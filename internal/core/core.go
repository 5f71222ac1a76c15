// Package core integrates the MPF engine: a Database holds functional
// relations (disk-resident behind a buffer pool), view definitions, and
// statistics, optimizes MPF queries with a selectable algorithm (CS, CS+,
// VE, VE+ — internal/opt), executes plans either on the paged engine
// (internal/exec) or in memory, and maintains VE-cache materializations
// for query workloads (internal/infer).
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"mpf/internal/catalog"
	"mpf/internal/cost"
	"mpf/internal/exec"
	"mpf/internal/infer"
	"mpf/internal/metrics"
	"mpf/internal/opt"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// Config parameterizes a Database.
type Config struct {
	// Semiring for measures; nil defaults to sum-product.
	Semiring semiring.Semiring
	// PoolFrames is the buffer pool size in pages; 0 defaults to 256
	// (2 MiB), deliberately small so the disk-resident regime of the
	// paper is observable.
	PoolFrames int
	// DiskFactory, when non-nil, supplies the disks backing heap files;
	// nil keeps pages in memory. Tests set it to inject latency
	// (storage.LatencyMemDiskFactory) or faults (storage.FaultDiskFactory).
	DiskFactory storage.DiskFactory
	// CostModel for the optimizers; nil defaults to cost.Simple.
	CostModel cost.Model
	// Optimizer is the default planning algorithm; nil defaults to
	// nonlinear CS+.
	Optimizer opt.Optimizer
	// Parallelism is the engine's intra-query worker bound; 0 or 1 keeps
	// execution strictly serial (see exec.Engine.Parallelism).
	Parallelism int
	// ResultCacheBytes, when positive, enables the engine-level shared
	// subplan result cache with this byte budget: aggregated join outputs
	// (the paper's VE intermediates) are materialized once and reused by
	// later queries whose plans contain an identical subtree over the same
	// base-table versions. Zero (the default) disables the cache, keeping
	// every query's physical IO exactly reproducible.
	ResultCacheBytes int64
	// Columnar is a page-layout choice for the heaps that are read many
	// times: when true, every page that fills of a base table or of an
	// operator output the result cache keeps is re-encoded with the
	// per-page columnar layout (dictionary/run-length column segments
	// where they pay for themselves). Read-once intermediates stay
	// row-major. The executor runs the same encoded-batch kernels either
	// way (row-major pages read as all-plain column views), so results
	// are byte-identical; page counts, and therefore the paper's IO cost
	// model, are unchanged (the encoding compresses within pages, never
	// across them).
	Columnar bool
	// FuseJoinGroupBy, when true, pipelines GroupBy-over-Join plan pairs
	// through a single fused operator that aggregates probe matches as
	// they are produced, never materializing the join output (see
	// exec.Engine.FuseJoinGroupBy). Results are byte-identical to the
	// materializing pipeline.
	FuseJoinGroupBy bool
	// PlanCacheEntries, when positive, enables the engine-level plan cache
	// with this many LRU slots: finished plans are cached under a canonical
	// query fingerprint embedding the semiring, optimizer, and base-table
	// versions, so a repeated query skips the optimizer entirely and any
	// base-table write retires the stale plans. Zero (the default) disables
	// the cache, re-planning every query. Hypothetical queries are never
	// cached.
	PlanCacheEntries int
	// PlanBudget, when positive, bounds planning wall time: the selected
	// optimizer (the database default or a per-query override) runs under
	// this budget, and when it exceeds it the statistics-free greedy
	// planner's plan is used instead (opt.Budgeted). RunStats.Planner
	// reports which planner actually produced each query's plan. Zero (the
	// default) leaves planning unbounded.
	PlanBudget time.Duration
}

// Database is the engine facade. It is safe for fully concurrent use:
// every query runs against an immutable catalog version pinned at
// admission (a Snapshot, acquired per query or threaded explicitly via
// WithSnapshot), and every write — CreateTable, CreateView, Insert,
// Delete, DeclareKey, DropTable, DropView, Materialize — is a
// serialized copy-on-write commit that publishes a new catalog version
// without touching the one readers hold (see mvcc.go). Reads never
// block behind writes and writes never block behind reads; superseded
// versions are reclaimed when their last in-flight query finishes.
type Database struct {
	cfg     Config
	pool    *storage.Pool
	factory storage.DiskFactory
	engine  *exec.Engine
	metrics *metrics.Registry
	rcache  *exec.ResultCache
	pcache  *planCache

	// commitMu serializes writers: one commit clones, builds, and
	// publishes at a time. Readers never take it; the reader-visible
	// effect of a commit is a single pointer swap under mv.mu.
	commitMu sync.Mutex

	// mv is the multi-version catalog state: the visible version
	// pointer, snapshot pins, and reclamation counters (mvcc.go).
	mv mvccState

	// cachesMu guards the workload-cache registry (BuildCache,
	// QueryCached); the caches themselves are immutable once built.
	cachesMu sync.Mutex
	caches   map[string]*infer.Cache
	// beforeCacheInstall, when set, runs between BuildCache's build and
	// its install; tests commit a write there.
	beforeCacheInstall func()
}

// transientRetries bounds how many times a database's buffer pool
// re-attempts an IO operation that failed with a transient fault
// (storage.IsTransient), with capped exponential backoff between
// attempts. Permanent faults and checksum failures are never retried.
const transientRetries = 3

// Open creates a database with the given configuration.
func Open(cfg Config) (*Database, error) {
	if cfg.Semiring == nil {
		cfg.Semiring = semiring.SumProduct
	}
	if cfg.PoolFrames == 0 {
		cfg.PoolFrames = 256
	}
	if cfg.CostModel == nil {
		cfg.CostModel = cost.Simple{}
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = opt.CSPlus{}
	}
	pool := storage.NewPool(cfg.PoolFrames)
	pool.SetRetry(transientRetries, 0, 0)
	factory := cfg.DiskFactory
	if factory == nil {
		factory = storage.MemDiskFactory()
	}
	engine := exec.NewEngine(pool, factory, cfg.Semiring)
	engine.Parallelism = cfg.Parallelism
	engine.Columnar = cfg.Columnar
	engine.FuseJoinGroupBy = cfg.FuseJoinGroupBy
	db := &Database{
		cfg:     cfg,
		pool:    pool,
		factory: factory,
		engine:  engine,
		caches:  make(map[string]*infer.Cache),
		metrics: metrics.NewRegistry(),
	}
	db.initMVCC()
	if cfg.ResultCacheBytes > 0 {
		db.rcache = exec.NewResultCache(cfg.ResultCacheBytes)
	}
	if cfg.PlanCacheEntries > 0 {
		db.pcache = newPlanCache(cfg.PlanCacheEntries)
	}
	return db, nil
}

// Close releases all storage, result-cache materializations included.
// Close requires quiescence: in-flight queries must have finished and
// their snapshots been released (a version still pinned at Close leaks
// until process exit). It reports the first heap-drop failure seen
// during reclamation, including any page left pinned at drop time.
func (db *Database) Close() error {
	if db.rcache != nil {
		db.rcache.Close()
	}
	db.mv.mu.Lock()
	cur := db.mv.cur
	var drop []*tableVersion
	if cur.current {
		cur.current = false
		if cur.pins == 0 {
			drop = cur.releaseTablesLocked()
			db.mv.live--
			db.mv.reclaimed++
		}
	}
	db.mv.mu.Unlock()
	db.dropGenerations(drop)
	db.mv.mu.Lock()
	err := db.mv.dropErr
	db.mv.mu.Unlock()
	return err
}

// Semiring returns the database's measure semiring.
func (db *Database) Semiring() semiring.Semiring { return db.cfg.Semiring }

// Catalog returns a copy of the current version's statistics catalog:
// table schemas, cardinalities, distinct counts, declared keys and view
// definitions. Editing the copy changes nothing in the database — a
// published version is immutable; statistics change only through
// commits (DeclareKey for keys).
func (db *Database) Catalog() *catalog.Catalog { return db.currentVersion().cat.Clone() }

// Pool exposes the buffer pool (for IO statistics).
func (db *Database) Pool() *storage.Pool { return db.pool }

// Engine exposes the physical engine (for operator knobs).
func (db *Database) Engine() *exec.Engine { return db.engine }

// Metrics returns a snapshot of the engine-wide metrics: query lifecycle
// counts, cumulative buffer-pool IO, result-cache counters, and
// per-operator-kind totals. Safe to call concurrently with running
// queries.
func (db *Database) Metrics() metrics.Snapshot {
	s := db.metrics.Snapshot(db.pool.Stats())
	s.Encoding = db.pool.EncodingStats()
	if db.rcache != nil {
		cs := db.rcache.Snapshot()
		s.ResultCache = metrics.ResultCacheStats{
			Enabled:       true,
			Entries:       cs.Entries,
			Bytes:         cs.Bytes,
			BudgetBytes:   cs.BudgetBytes,
			Hits:          cs.Hits,
			Misses:        cs.Misses,
			Inserts:       cs.Inserts,
			Evictions:     cs.Evictions,
			Invalidations: cs.Invalidations,
			IOSavedPages:  cs.IOSavedPages,
		}
	}
	if db.pcache != nil {
		s.PlanCache = db.pcache.snapshot()
	}
	s.MVCC = db.mvccStats()
	return s
}

// ResultCache exposes the shared subplan result cache, or nil when the
// database was opened without a cache budget (Config.ResultCacheBytes).
func (db *Database) ResultCache() *exec.ResultCache { return db.rcache }

// CreateTable validates the relation as an FR, loads it into paged
// storage, and publishes a new catalog version containing it. The heap
// is the database's only copy of the rows; r stays the caller's.
func (db *Database) CreateTable(r *relation.Relation) error {
	if r.Name() == "" {
		return fmt.Errorf("core: relation needs a name")
	}
	if err := r.CheckFD(); err != nil {
		return fmt.Errorf("core: %w: %w", ErrNotFunctional, err)
	}
	c := db.beginCommit()
	if _, dup := c.next.tables[r.Name()]; dup {
		return c.abort(fmt.Errorf("core: %w: %q", ErrDuplicateTable, r.Name()))
	}
	t, err := c.loadTable(r)
	if err != nil {
		return c.abort(err)
	}
	c.install(t)
	if err := c.restat(catalog.AnalyzeRelation(r)); err != nil {
		return c.abort(err)
	}
	return c.publish()
}

// CreateView registers an MPF view over existing tables (the SQL
// extension "create mpfview ... measure = (* ...)").
func (db *Database) CreateView(name string, tables []string) error {
	c := db.beginCommit()
	if err := c.next.cat.AddView(&catalog.ViewDef{
		Name:     name,
		Tables:   tables,
		Semiring: db.cfg.Semiring.Name(),
	}); err != nil {
		return c.abort(err)
	}
	return c.publish()
}

// Relation reads a base table, as of the current catalog version, out
// of its heap into a fresh in-memory relation in storage order. The
// database keeps no such copy itself: the result is the caller's, and
// costs a scan of the table per call.
func (db *Database) Relation(name string) (*relation.Relation, error) {
	snap := db.AcquireSnapshot()
	defer snap.Release()
	return snap.relation(name)
}

// relation reads one base table of the pinned version into memory.
func (s *Snapshot) relation(name string) (*relation.Relation, error) {
	t, ok := s.v.table(name)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", ErrUnknownTable, name)
	}
	return exec.ReadRelation(t)
}

// ExecMode selects how plans are executed.
type ExecMode int

// Execution modes.
const (
	// EngineExec runs plans on the paged engine with IO accounting.
	EngineExec ExecMode = iota
	// MemoryExec interprets plans over in-memory relations — the
	// reference the engine is checked against, not a fast path: each
	// table the plan scans is read out of the snapshot's heap for the
	// duration of the query.
	MemoryExec
)

// HavingOp is a comparison operator for constrained-range queries.
type HavingOp int

// Comparison operators for Having clauses.
const (
	HavingLT HavingOp = iota
	HavingLE
	HavingGT
	HavingGE
	HavingEQ
)

// String returns the SQL spelling.
func (o HavingOp) String() string {
	switch o {
	case HavingLT:
		return "<"
	case HavingLE:
		return "<="
	case HavingGT:
		return ">"
	case HavingGE:
		return ">="
	case HavingEQ:
		return "="
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Having is the constrained-range form of §3.1: a post-aggregation
// filter on the result measure ("having f < c").
type Having struct {
	Op    HavingOp
	Value float64
}

// match reports whether measure m satisfies the clause.
func (h *Having) match(m float64) bool {
	switch h.Op {
	case HavingLT:
		return m < h.Value
	case HavingLE:
		return m <= h.Value
	case HavingGT:
		return m > h.Value
	case HavingGE:
		return m >= h.Value
	case HavingEQ:
		return m == h.Value
	default:
		return false
	}
}

// QuerySpec is an MPF query against a view.
type QuerySpec struct {
	// View names a registered MPF view.
	View string
	// GroupVars are the query variables X.
	GroupVars []string
	// Where holds equality predicates (restricted answer / constrained
	// domain forms).
	Where relation.Predicate
	// Having, when non-nil, filters the aggregated result measure (the
	// constrained-range form of §3.1).
	Having *Having
	// Hypothetical substitutes base relations for this query only,
	// implementing the hypothetical alternate-measure / alternate-domain
	// forms of §3.1 ("if part p1 was a different price", "if the deal
	// moved from t1 to t2"). Keys are base-table names of the view; each
	// replacement must have the same variable attributes as the original.
	Hypothetical map[string]*relation.Relation
	// Optimizer overrides the database default when non-nil.
	Optimizer opt.Optimizer
	// Exec selects the execution mode.
	Exec ExecMode
}

// Result is a query's answer with its plan and measurements.
type Result struct {
	// Relation is the answer as a set of (assignment, measure) rows. Row
	// order is unspecified: a result-cache splice replays a cached
	// materialization whose producing subtree may have been shaped
	// differently (commutative join children are canonically reordered by
	// fingerprinting), so cached and uncached runs of the same query agree
	// only up to set equality (relation.Equal). Callers needing a
	// deterministic order must call Relation.Sort.
	Relation *relation.Relation
	Plan     *plan.Node
	Optimize time.Duration
	Exec     exec.RunStats
	// Trace lists per-operator spans in completion order (EXPLAIN
	// ANALYZE's data source); same slice as Exec.Trace, surfaced here for
	// discoverability. Empty for MemoryExec.
	Trace []exec.Span
	// Snapshot is the catalog version sequence number the query ran
	// against (Snapshot.Seq). Two results with equal Snapshot values saw
	// exactly the same table contents; a reader can replay the answer
	// serially at that version and expect byte-identical output.
	Snapshot int64
}

// optQuery converts a spec to the optimizer-facing form, resolving the
// view against the query's snapshot.
func (db *Database) optQuery(q *QuerySpec, snap *Snapshot) (*opt.Query, error) {
	v, err := snap.v.cat.View(q.View)
	if err != nil {
		return nil, err
	}
	return &opt.Query{Tables: v.Tables, GroupVars: q.GroupVars, Pred: q.Where}, nil
}

// validateQuery checks a query against its view before any planning:
// every group and predicate variable must be a variable of the view, and
// every hypothetical replacement must name a view base table and
// preserve its variable schema (alternate measures and alternate domain
// values are fine; the variables themselves must match so the view's
// join structure is unchanged). Originals resolve against the query's
// snapshot. A mismatch is the caller's error, ErrSchemaMismatch.
func (db *Database) validateQuery(q *QuerySpec, viewTables []string, snap *Snapshot) error {
	inView := make(map[string]bool, len(viewTables))
	for _, t := range viewTables {
		inView[t] = true
	}
	inViewVars := func(v string) bool {
		for _, t := range viewTables {
			if tab, ok := snap.v.table(t); ok && tab.ColIndex(v) >= 0 {
				return true
			}
		}
		return false
	}
	for _, v := range q.GroupVars {
		if !inViewVars(v) {
			return fmt.Errorf("core: %w: query variable %s not in view %q", ErrSchemaMismatch, v, q.View)
		}
	}
	for v := range q.Where {
		if !inViewVars(v) {
			return fmt.Errorf("core: %w: predicate variable %s not in view %q", ErrSchemaMismatch, v, q.View)
		}
	}
	for name, h := range q.Hypothetical {
		if !inView[name] {
			return fmt.Errorf("core: %w: hypothetical table %q not in view %q", ErrSchemaMismatch, name, q.View)
		}
		orig, ok := snap.v.table(name)
		if !ok {
			return fmt.Errorf("core: %w %q", ErrUnknownTable, name)
		}
		if err := h.CheckFD(); err != nil {
			return fmt.Errorf("core: hypothetical %s: %w: %w", name, ErrNotFunctional, err)
		}
		if !h.Vars().Equal(orig.Vars()) {
			return fmt.Errorf("core: %w: hypothetical %s has variables %v, want %v",
				ErrSchemaMismatch, name, h.Vars().Sorted(), orig.Vars().Sorted())
		}
		for _, a := range orig.Attrs {
			ha, _ := h.Attr(a.Name)
			if ha.Domain != a.Domain {
				return fmt.Errorf("core: %w: hypothetical %s: variable %s domain %d, want %d",
					ErrSchemaMismatch, name, a.Name, ha.Domain, a.Domain)
			}
		}
	}
	return nil
}

// planCatalog returns the catalog to plan against: the snapshot's
// catalog, or a per-query overlay with hypothetical tables re-analyzed.
func (db *Database) planCatalog(q *QuerySpec, viewTables []string, snap *Snapshot) (*catalog.Catalog, error) {
	if len(q.Hypothetical) == 0 {
		return snap.v.cat, nil
	}
	overlay := catalog.New()
	for _, t := range viewTables {
		if h, ok := q.Hypothetical[t]; ok {
			if err := overlay.AddTable(catalog.AnalyzeRelation(h)); err != nil {
				return nil, err
			}
			continue
		}
		st, err := snap.v.cat.Table(t)
		if err != nil {
			return nil, err
		}
		if err := overlay.AddTable(st); err != nil {
			return nil, err
		}
	}
	if err := overlay.AddView(&catalog.ViewDef{
		Name: q.View, Tables: viewTables, Semiring: db.cfg.Semiring.Name(),
	}); err != nil {
		return nil, err
	}
	return overlay, nil
}

// validateExec checks the spec's execution mode up-front, before any
// planning work, so a typo'd mode fails fast with a typed error.
func validateExec(q *QuerySpec) error {
	switch q.Exec {
	case EngineExec, MemoryExec:
		return nil
	default:
		return fmt.Errorf("core: %w %d", ErrUnknownExecMode, q.Exec)
	}
}

// Explain optimizes the query and returns the plan without executing it.
//
// Deprecated: Explain is a thin wrapper for ExplainContext with
// context.Background(), kept for callers that predate the context-first
// API. New code should call ExplainContext (or go through a Session,
// which applies per-client deadlines and budgets).
func (db *Database) Explain(q *QuerySpec) (*plan.Node, time.Duration, error) {
	return db.ExplainContext(context.Background(), q)
}

// ExplainContext is Explain with cancellation: ctx is observed at the
// planning phase boundaries. A canceled explain returns an error
// matching both ErrCanceled and ctx's error. With a plan cache enabled,
// an explain probes (and on miss populates) the cache exactly like a
// query, and the returned duration is the probe time on a hit.
func (db *Database) ExplainContext(ctx context.Context, q *QuerySpec) (*plan.Node, time.Duration, error) {
	snap, owned, err := db.snapshotFor(ctx)
	if err != nil {
		return nil, 0, err
	}
	if owned {
		defer snap.Release()
	}
	info, err := db.plan(ctx, q, snap)
	if err != nil {
		return nil, 0, err
	}
	return info.p, info.optimize, nil
}

// planInfo is the outcome of the planning phase: the plan, the report
// name of the planner that produced it, the planning (or cache-probe)
// wall time, and whether the plan came from the plan cache.
type planInfo struct {
	p        *plan.Node
	planner  string
	optimize time.Duration
	cacheHit bool
}

// plan turns a spec into an executable plan: validate, probe the plan
// cache (pure queries only — hypothetical replacements are query-private
// and never cached), and on a miss run the configured optimizer under the
// planning budget and adopt the winner. Planning time is recorded in the
// engine metrics per planner kind, with cache-probe time on hits under
// the synthetic "plan-cache" kind. All catalog state — view
// definitions, statistics, and the table versions embedded in cache
// fingerprints — comes from the query's snapshot, so cache keys are
// correct per snapshot: an old-snapshot reader can neither hit nor
// poison entries keyed to newer contents.
func (db *Database) plan(ctx context.Context, q *QuerySpec, snap *Snapshot) (planInfo, error) {
	if err := validateExec(q); err != nil {
		return planInfo{}, err
	}
	oq, err := db.optQuery(q, snap)
	if err != nil {
		return planInfo{}, err
	}
	if err := db.validateQuery(q, oq.Tables, snap); err != nil {
		return planInfo{}, err
	}
	o := q.Optimizer
	if o == nil {
		o = db.cfg.Optimizer
	}
	if db.cfg.PlanBudget > 0 {
		if _, budgeted := o.(opt.Budgeted); !budgeted {
			o = opt.Budgeted{Primary: o, Budget: db.cfg.PlanBudget}
		}
	}

	// The cache key extends the query fingerprint with the optimizer's
	// report name: a per-query `using <strategy>` override must not be
	// answered with another strategy's plan (plan quality is part of what
	// the caller selected, even though any cached plan would be correct).
	start := time.Now()
	var key string
	if db.pcache != nil && len(q.Hypothetical) == 0 {
		fp, ok := plan.QueryFingerprint(plan.FingerprintEnv{
			Semiring:     db.cfg.Semiring.Name(),
			TableVersion: snap.v.tableVersionOf,
		}, oq.Tables, oq.GroupVars, oq.Pred)
		if ok {
			key = o.Name() + "|" + fp
			if p, planner, hit := db.pcache.lookup(key); hit {
				probe := time.Since(start)
				db.metrics.PlanSample("plan-cache", probe)
				return planInfo{p: p, planner: planner, optimize: probe, cacheHit: true}, nil
			}
		}
	}

	cat, err := db.planCatalog(q, oq.Tables, snap)
	if err != nil {
		return planInfo{}, err
	}
	b := plan.NewBuilder(cat, db.cfg.CostModel)
	res, err := opt.RunContext(ctx, o, oq, b)
	if err != nil {
		return planInfo{}, wrapCancel(err)
	}
	db.metrics.PlanSample(res.Planner, res.Optimize)
	if key != "" {
		db.pcache.insert(key, res.Plan, res.Planner, oq.Tables)
	}
	return planInfo{p: res.Plan, planner: res.Planner, optimize: res.Optimize}, nil
}

// Query optimizes and executes an MPF query.
//
// Deprecated: Query is a thin wrapper for QueryContext with
// context.Background(), kept for callers that predate the context-first
// API. New code should call QueryContext (or go through a Session,
// which applies per-client deadlines and budgets).
func (db *Database) Query(q *QuerySpec) (*Result, error) {
	return db.QueryContext(context.Background(), q)
}

// QueryContext is Query with cancellation: ctx is plumbed from planning
// through every physical operator down to buffer-pool page misses. A
// canceled query returns an error matching both ErrCanceled and ctx's
// error (context.Canceled or context.DeadlineExceeded), with all
// temporary tables dropped, no buffer-pool frames left pinned, and its
// snapshot pin released (so cancellation never leaks a catalog
// version). Every query — finished, failed, or canceled — is recorded
// in the engine metrics (Metrics).
//
// The query runs against the snapshot carried by ctx (WithSnapshot)
// when present, else against a snapshot of the current catalog version
// acquired at admission and released when the query returns; its
// sequence number is reported in Result.Snapshot. Concurrent commits
// never affect a running query.
func (db *Database) QueryContext(ctx context.Context, q *QuerySpec) (*Result, error) {
	snap, owned, err := db.snapshotFor(ctx)
	if err != nil {
		return nil, err
	}
	if owned {
		defer snap.Release()
	}
	info, err := db.plan(ctx, q, snap)
	if err != nil {
		return nil, err
	}
	db.metrics.QueryStarted()
	out, err := db.execute(ctx, q, info, snap)
	if out != nil {
		out.Snapshot = snap.Seq()
	}
	db.metrics.QueryFinished(querySample(out, err))
	return out, err
}

// querySample converts one query outcome into its metrics sample.
func querySample(out *Result, err error) metrics.QuerySample {
	s := metrics.QuerySample{
		Canceled: errorsIsCanceled(err),
		Failed:   err != nil && !errorsIsCanceled(err),
	}
	if out != nil {
		s.RowsOut = out.Exec.RowsOut
		s.TempTuples = out.Exec.TempTuples
		s.Operators = int64(out.Exec.Operators)
		s.HotKeyFallbacks = out.Exec.HotKeyFallbacks
		s.Batches = out.Exec.Batches
		s.Wall = out.Exec.Wall
		s.Ops = make([]metrics.OpSample, len(out.Exec.Trace))
		for i, sp := range out.Exec.Trace {
			s.Ops[i] = metrics.OpSample{Kind: sp.Kind, Wall: sp.Wall, IO: sp.IO}
		}
		s.Morsels = make([]metrics.MorselSample, len(out.Exec.Morsels))
		for i, m := range out.Exec.Morsels {
			s.Morsels[i] = metrics.MorselSample{Kind: m.Kind, Count: m.Count, Busy: m.Busy}
		}
	}
	return s
}

// errorsIsCanceled reports whether err is a query cancellation.
func errorsIsCanceled(err error) bool {
	return err != nil && errors.Is(err, ErrCanceled)
}

// execute runs an optimized plan in the spec's execution mode against
// the query's snapshot. It always returns a non-nil Result carrying
// whatever stats were gathered, even on error, so callers (and the
// metrics registry) see partial work.
func (db *Database) execute(ctx context.Context, q *QuerySpec, info planInfo, snap *Snapshot) (*Result, error) {
	p := info.p
	out := &Result{Plan: p, Optimize: info.optimize}
	out.Exec.Planner = info.planner
	out.Exec.PlanCacheHit = info.cacheHit
	switch q.Exec {
	case EngineExec:
		// Hypothetical replacements are loaded into temporary storage for
		// the duration of the query.
		hypTables := make(map[string]*exec.Table, len(q.Hypothetical))
		defer func() {
			for _, t := range hypTables {
				t.Heap.Drop()
			}
		}()
		for name, h := range q.Hypothetical {
			ht, err := exec.LoadRelation(db.pool, db.factory, h, db.cfg.Columnar)
			if err != nil {
				return out, err
			}
			hypTables[name] = ht
		}
		// The result cache only sees pure queries over base tables:
		// hypothetical replacements are query-private, so their subtrees
		// must neither hit nor populate shared entries. Fingerprints embed
		// current base-table versions, keying every cached subplan to the
		// exact contents it was computed from.
		var rc *exec.ResultCache
		var fps map[*plan.Node]string
		if db.rcache != nil && len(q.Hypothetical) == 0 {
			rc = db.rcache
			fps = plan.Fingerprints(p, plan.FingerprintEnv{
				Semiring:     db.cfg.Semiring.Name(),
				TableVersion: snap.v.tableVersionOf,
			})
		}
		rel, st, err := db.engine.RunCachedContext(ctx, p, func(name string) (*exec.Table, error) {
			if t, ok := hypTables[name]; ok {
				return t, nil
			}
			t, ok := snap.v.table(name)
			if !ok {
				return nil, fmt.Errorf("core: %w %q", ErrUnknownTable, name)
			}
			return t, nil
		}, rc, fps)
		out.Exec = st
		out.Exec.Planner = info.planner
		out.Exec.PlanCacheHit = info.cacheHit
		out.Trace = st.Trace
		if err != nil {
			db.invalidateCorrupt(err, snap)
			return out, wrapCancel(err)
		}
		out.Relation = rel
	case MemoryExec:
		start := time.Now()
		rel, err := plan.Eval(p, func(name string) (*relation.Relation, error) {
			if h, ok := q.Hypothetical[name]; ok {
				return h, nil
			}
			return snap.relation(name)
		}, db.cfg.Semiring)
		if err != nil {
			return out, err
		}
		out.Relation = rel
		out.Exec.Wall = time.Since(start)
		out.Exec.RowsOut = int64(rel.Len())
		// The in-memory interpreter has no operator-level accounting, so
		// only the result-cardinality bound of a context budget applies.
		if b, ok := exec.BudgetFromContext(ctx); ok && b.MaxRows > 0 && out.Exec.RowsOut > b.MaxRows {
			out.Relation = nil
			return out, &exec.BudgetError{Resource: "rows", Limit: b.MaxRows, Used: out.Exec.RowsOut}
		}
	}
	if q.Having != nil {
		out.Relation = filterHaving(out.Relation, q.Having)
		out.Exec.RowsOut = int64(out.Relation.Len())
	}
	return out, nil
}

// invalidateCorrupt drops result-cache entries built over a table whose
// heap just read corrupt: a cached subplan computed before the damage
// may hold the only healthy copy of the data, but serving it would hide
// the corruption from readers who then trust the base table. The handle
// carried by the *storage.CorruptPageError is mapped back to the base
// table whose heap it identifies, within the failed query's snapshot;
// corruption in a temp heap (no matching table) invalidates nothing.
func (db *Database) invalidateCorrupt(err error, snap *Snapshot) {
	if db.rcache == nil {
		return
	}
	var cpe *storage.CorruptPageError
	if !errors.As(err, &cpe) {
		return
	}
	for name, tv := range snap.v.tables {
		if tv.tab.Heap.Handle() == cpe.Handle {
			db.rcache.InvalidateTable(name)
			return
		}
	}
}

// filterHaving applies the constrained-range clause to a query result.
func filterHaving(r *relation.Relation, h *Having) *relation.Relation {
	out, err := relation.New(r.Name(), r.Attrs())
	if err != nil {
		return r
	}
	for i := 0; i < r.Len(); i++ {
		if h.match(r.Measure(i)) {
			out.MustAppend(append([]int32(nil), r.Row(i)...), r.Measure(i))
		}
	}
	return out
}

// Materialize runs the query and registers its result — itself a
// functional relation — as a new base table, enabling MPF queries over
// MPF results ("the result of an MPF query is an FR; thus MPF queries may
// be used as subqueries", §2).
//
// Deprecated: Materialize is a thin wrapper for MaterializeContext with
// context.Background(), kept for callers that predate the context-first
// API. New code should call MaterializeContext (or go through a
// Session, which applies per-client deadlines and budgets).
func (db *Database) Materialize(name string, q *QuerySpec) (*relation.Relation, error) {
	return db.MaterializeContext(context.Background(), name, q)
}

// MaterializeContext is Materialize with cancellation: the underlying
// query observes ctx; a canceled materialization registers nothing.
func (db *Database) MaterializeContext(ctx context.Context, name string, q *QuerySpec) (*relation.Relation, error) {
	res, err := db.QueryContext(ctx, q)
	if err != nil {
		return nil, err
	}
	res.Relation.SetName(name)
	if err := db.CreateTable(res.Relation); err != nil {
		return nil, err
	}
	return res.Relation, nil
}

// BuildCache runs the VE-cache workload optimization (Algorithm 3) for a
// view, materializing tables that satisfy the Definition 5 invariant.
// order is the elimination order (nil for min-fill). The cache is built
// from one snapshot, so a commit racing the build cannot mix table
// versions into it; a later write to any base table invalidates it.
func (db *Database) BuildCache(view string, order []string) (*infer.Cache, error) {
	snap := db.AcquireSnapshot()
	defer snap.Release()
	v, err := snap.v.cat.View(view)
	if err != nil {
		return nil, err
	}
	rels := make([]*relation.Relation, len(v.Tables))
	for i, t := range v.Tables {
		if rels[i], err = snap.relation(t); err != nil {
			return nil, err
		}
	}
	cache, err := infer.BuildVECache(db.cfg.Semiring, rels, order)
	if err != nil {
		return nil, err
	}
	if db.beforeCacheInstall != nil {
		db.beforeCacheInstall()
	}
	// A commit publishes before it invalidates, so one that landed after
	// the snapshot may already have swept the registry: install only while
	// the view still reads the snapshot's tables at their versions.
	db.cachesMu.Lock()
	if viewUnchanged(view, v.Tables, snap.v, db.currentVersion()) {
		db.caches[view] = cache
	}
	db.cachesMu.Unlock()
	return cache, nil
}

// viewUnchanged reports whether view is defined over tables in cur and
// each of them has the same version in cur as in old.
func viewUnchanged(view string, tables []string, old, cur *catVersion) bool {
	def, err := cur.cat.View(view)
	if err != nil || !slices.Equal(def.Tables, tables) {
		return false
	}
	for _, t := range tables {
		if cur.versions[t] != old.versions[t] {
			return false
		}
	}
	return true
}

// Cache returns the workload cache previously built for a view.
func (db *Database) Cache(view string) (*infer.Cache, error) {
	db.cachesMu.Lock()
	c, ok := db.caches[view]
	db.cachesMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no cache built for view %q", view)
	}
	return c, nil
}

// QueryCached answers a single-variable query from a view's cache when
// one exists, falling back to full evaluation otherwise.
func (db *Database) QueryCached(view, variable string) (*relation.Relation, error) {
	db.cachesMu.Lock()
	c, ok := db.caches[view]
	db.cachesMu.Unlock()
	if ok {
		return c.Answer(variable)
	}
	res, err := db.Query(&QuerySpec{View: view, GroupVars: []string{variable}})
	if err != nil {
		return nil, err
	}
	return res.Relation, nil
}
