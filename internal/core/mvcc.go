package core

// Multi-version catalog: snapshot-isolation reads concurrent with
// writers.
//
// Every query runs against an immutable catalog version pinned at
// admission (a Snapshot). A version maps each table name to one
// heap-backed generation and its statistics; the heap is the only place
// the table's rows live. Writers never mutate the version readers hold:
// a commit clones the current version's maps, builds a fresh heap for
// the written table off to the side — loaded from a caller's relation
// (loadTable) or streamed from the parent generation (rewrite) — and
// publishes the new version by swapping one pointer under a short
// critical section. Commits are serialized by Database.commitMu;
// readers never take it, so a long analytical query cannot stall
// ingest and sustained ingest cannot stall readers.
//
// Reclamation is epoch-based: each catalog version counts the
// snapshots pinning it, and each table generation (tableVersion)
// counts the catalog versions referencing it. When the last snapshot
// of a superseded version is released, the version's table references
// are dropped; any generation that reaches zero references has its
// heap dropped — with zero pinned buffer-pool frames, enforced by the
// pool (Discard fails on pinned pages) and by the mvcc experiment.
//
// Crash consistency: a commit flushes the new generation's dirty pages
// (Pool.FlushDisk) before publishing, so a write-path fault surfaces
// to the committing writer as a typed ErrIO and the commit aborts with
// the old version still fully served — readers never observe partial
// state, because nothing becomes visible before the atomic pointer
// swap.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpf/internal/catalog"
	"mpf/internal/exec"
	"mpf/internal/metrics"
	"mpf/internal/relation"
	"mpf/internal/storage"
)

// tableVersion is one immutable loaded generation of a base table: the
// heap-backed exec.Table plus a reference count of catalog versions
// that include it. Guarded by Database.mv.mu; at zero references the
// heap is dropped.
type tableVersion struct {
	tab  *exec.Table
	refs int
}

// catVersion is one immutable catalog version. All maps are private to
// the version: a commit clones them, so published versions are never
// mutated. versions/verSeq carry the monotone per-table version
// sequence that plan and result-cache fingerprints embed, making cache
// keys correct per snapshot.
type catVersion struct {
	// seq is the catalog version sequence number, bumped once per
	// published commit. Result.Snapshot reports it.
	seq int64
	// tables holds each base table's generation: schema and heap. cat
	// holds the matching statistics and the view definitions. Neither is
	// edited after publish.
	tables   map[string]*tableVersion
	cat      *catalog.Catalog
	versions map[string]int64
	verSeq   int64
	// pins counts snapshots holding this version; current marks the
	// visible version. Both guarded by Database.mv.mu. A version is
	// reclaimed when it is not current and pins reaches zero.
	pins    int
	current bool
}

// tableVersionOf reports the version's monotone sequence value for a
// base table; ok=false for unknown names, which plan.Fingerprints
// treats as uncacheable.
func (v *catVersion) tableVersionOf(name string) (int64, bool) {
	n, ok := v.versions[name]
	return n, ok
}

// table returns the version's generation of a base table.
func (v *catVersion) table(name string) (*exec.Table, bool) {
	tv, ok := v.tables[name]
	if !ok {
		return nil, false
	}
	return tv.tab, true
}

// releaseTablesLocked decrements the reference count of every table
// generation in the version, returning the generations that reached
// zero (their heaps must be dropped by the caller, outside mv.mu).
// Caller holds Database.mv.mu.
func (v *catVersion) releaseTablesLocked() []*tableVersion {
	var drop []*tableVersion
	for _, tv := range v.tables {
		tv.refs--
		if tv.refs == 0 {
			drop = append(drop, tv)
		}
	}
	return drop
}

// mvccState is the multi-version bookkeeping of a Database: the
// visible catalog-version pointer, live snapshots, and the counters
// reported in metrics.MVCCStats.
type mvccState struct {
	mu    sync.Mutex
	cur   *catVersion
	snaps map[*Snapshot]time.Time

	live          int64
	reclaimed     int64
	commits       int64
	commitFails   int64
	snapsAcquired int64
	snapsReleased int64
	writerStall   time.Duration
	// dropErr records the first heap-drop failure during reclamation
	// (e.g. a page still pinned, which would be a leak); Close reports
	// it.
	dropErr error
}

// initMVCC installs the empty initial catalog version.
func (db *Database) initMVCC() {
	db.mv.cur = &catVersion{
		tables:   make(map[string]*tableVersion),
		cat:      catalog.New(),
		versions: make(map[string]int64),
		current:  true,
	}
	db.mv.snaps = make(map[*Snapshot]time.Time)
	db.mv.live = 1
}

// currentVersion returns the visible catalog version without pinning
// it. Safe for point reads (the version's maps are immutable), but a
// caller that must keep the version alive across IO needs a Snapshot.
func (db *Database) currentVersion() *catVersion {
	db.mv.mu.Lock()
	v := db.mv.cur
	db.mv.mu.Unlock()
	return v
}

// Snapshot pins one immutable catalog version: every query run through
// it sees exactly the tables, contents, and statistics that were
// current when it was acquired, regardless of concurrent commits. A
// snapshot must be released exactly once (Release is idempotent);
// holding one prevents reclamation of its version's storage.
type Snapshot struct {
	db       *Database
	v        *catVersion
	acquired time.Time
	once     sync.Once
	released atomic.Bool
}

// AcquireSnapshot pins the current catalog version and returns the
// handle. Queries acquire one implicitly per call; acquire explicitly
// (and thread it through WithSnapshot) to run several queries against
// one consistent version.
func (db *Database) AcquireSnapshot() *Snapshot {
	db.mv.mu.Lock()
	v := db.mv.cur
	v.pins++
	s := &Snapshot{db: db, v: v, acquired: time.Now()}
	db.mv.snaps[s] = s.acquired
	db.mv.snapsAcquired++
	db.mv.mu.Unlock()
	return s
}

// Seq reports the snapshot's catalog version sequence number, the
// value carried by Result.Snapshot.
func (s *Snapshot) Seq() int64 { return s.v.seq }

// Release unpins the snapshot. When it was the last pin of a
// superseded version, the version is reclaimed: table generations it
// referenced exclusively have their heaps dropped (with zero pinned
// frames — a pinned page fails the drop and is reported by Close).
// Release is idempotent; using the snapshot after Release errors.
func (s *Snapshot) Release() {
	s.once.Do(func() {
		db := s.db
		db.mv.mu.Lock()
		s.v.pins--
		delete(db.mv.snaps, s)
		db.mv.snapsReleased++
		var drop []*tableVersion
		if s.v.pins == 0 && !s.v.current {
			drop = s.v.releaseTablesLocked()
			db.mv.live--
			db.mv.reclaimed++
		}
		db.mv.mu.Unlock()
		s.released.Store(true)
		db.dropGenerations(drop)
	})
}

// snapshotCtxKey carries a *Snapshot in a context.
type snapshotCtxKey struct{}

// WithSnapshot returns a context that pins every query run through it
// to the snapshot's catalog version, the snapshot-isolation analogue
// of WithBudget. The caller keeps ownership: queries using the context
// do not release the snapshot.
func WithSnapshot(ctx context.Context, s *Snapshot) context.Context {
	return context.WithValue(ctx, snapshotCtxKey{}, s)
}

// SnapshotFromContext returns the snapshot carried by ctx, if any.
func SnapshotFromContext(ctx context.Context) (*Snapshot, bool) {
	s, ok := ctx.Value(snapshotCtxKey{}).(*Snapshot)
	return s, ok
}

// snapshotFor resolves the snapshot a query should run against: the
// one carried by ctx (validated, not owned), or a freshly acquired pin
// on the current version (owned=true; the caller must release it).
func (db *Database) snapshotFor(ctx context.Context) (snap *Snapshot, owned bool, err error) {
	if s, ok := SnapshotFromContext(ctx); ok {
		if s.db != db {
			return nil, false, fmt.Errorf("core: context snapshot belongs to a different database")
		}
		if s.released.Load() {
			return nil, false, fmt.Errorf("core: use of released snapshot (version %d)", s.v.seq)
		}
		return s, false, nil
	}
	return db.AcquireSnapshot(), true, nil
}

// dropGenerations drops the heaps of fully dereferenced table
// generations, recording the first failure for Close to report.
func (db *Database) dropGenerations(tvs []*tableVersion) {
	for _, tv := range tvs {
		if err := tv.tab.Heap.Drop(); err != nil {
			db.mv.mu.Lock()
			if db.mv.dropErr == nil {
				db.mv.dropErr = err
			}
			db.mv.mu.Unlock()
		}
	}
}

// commit is an in-progress catalog commit: a private next version
// (cloned maps, cloned catalog) the writer edits freely, plus the
// table generations it created (dropped on abort). The write lock
// (Database.commitMu) is held from beginCommit until publish, abort,
// or cancel.
type commit struct {
	db   *Database
	next *catVersion
	// newTables lists generations loaded by this commit, so abort can
	// drop exactly the storage the failed commit created.
	newTables []*tableVersion
	// stall is how long beginCommit waited for commitMu (writer
	// serialization), accumulated into MVCCStats.WriterStall.
	stall time.Duration
}

// beginCommit takes the writer lock and clones the current version
// into a private next version. The clone copies the maps and the
// catalog, not the heaps: unwritten tables share their generation with
// the base version (reference counted).
func (db *Database) beginCommit() *commit {
	start := time.Now()
	db.commitMu.Lock()
	stall := time.Since(start)
	base := db.currentVersion()
	next := &catVersion{
		seq:      base.seq + 1,
		tables:   make(map[string]*tableVersion, len(base.tables)+1),
		cat:      base.cat.Clone(),
		versions: make(map[string]int64, len(base.versions)+1),
		verSeq:   base.verSeq,
	}
	for k, v := range base.tables {
		next.tables[k] = v
	}
	for k, v := range base.versions {
		next.versions[k] = v
	}
	return &commit{db: db, next: next, stall: stall}
}

// loadTable builds a generation from a caller's relation (CreateTable,
// and through it Materialize): load — columnar-encoded when configured —
// then finish.
func (c *commit) loadTable(r *relation.Relation) (*exec.Table, error) {
	t, err := exec.LoadRelation(c.db.pool, c.db.factory, r, c.db.cfg.Columnar)
	if err != nil {
		return nil, err
	}
	return c.finish(t)
}

// rewrite builds a table's next generation from its parent in one pass
// (Insert, Delete): the parent's pages are streamed through the pool
// into a fresh heap. visit, when non-nil, sees each parent batch before
// it is copied and may name one row of it to leave out (-1 for none) or
// stop the pass with an error; tail, when non-nil, holds rows to append
// after the last parent row. The parent is the current
// generation and the writer lock is held, so it cannot be reclaimed
// under the scan.
func (c *commit) rewrite(parent *exec.Table, visit func(*storage.Batch) (int, error), tail *storage.Batch) (*exec.Table, error) {
	h, err := storage.NewTempHeap(c.db.pool, c.db.factory, len(parent.Attrs))
	if err != nil {
		return nil, err
	}
	h.SetColumnar(c.db.cfg.Columnar)
	if err := copyRows(h, parent.Heap, visit, tail); err != nil {
		h.Drop()
		return nil, err
	}
	return c.finish(&exec.Table{Name: parent.Name, Attrs: parent.Attrs, Heap: h})
}

// copyRows appends src's rows to dst in storage order, one page per
// step, with the edit rewrite describes.
func copyRows(dst, src *storage.Heap, visit func(*storage.Batch) (int, error), tail *storage.Batch) error {
	arity := src.Arity()
	it := src.ScanBatches()
	defer it.Close()
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		skip := -1
		if visit != nil {
			var err error
			if skip, err = visit(b); err != nil {
				return err
			}
		}
		if skip < 0 {
			if err := dst.AppendBatch(b); err != nil {
				return err
			}
			continue
		}
		if err := dst.AppendRows(b.Vals[:skip*arity], b.Measures[:skip]); err != nil {
			return err
		}
		if err := dst.AppendRows(b.Vals[(skip+1)*arity:], b.Measures[skip+1:]); err != nil {
			return err
		}
	}
	if err := it.Err(); err != nil || tail == nil {
		return err
	}
	return dst.AppendBatch(tail)
}

// finish completes a freshly written generation: flush its dirty pages
// so the commit is durable before it becomes visible. A failure drops
// the heap and returns the typed storage error.
func (c *commit) finish(t *exec.Table) (*exec.Table, error) {
	if err := c.db.pool.FlushDisk(t.Heap.Handle()); err != nil {
		t.Heap.Drop()
		return nil, err
	}
	return t, nil
}

// install makes t the next version's generation of its table. The
// per-table version and statistics change only through restat.
func (c *commit) install(t *exec.Table) {
	tv := &tableVersion{tab: t}
	c.newTables = append(c.newTables, tv)
	c.next.tables[t.Name] = tv
}

// restat records changed contents or statistics of a table in the next
// version: the per-table version is bumped, which retires plan and
// result-cache fingerprints over it, and st replaces its statistics.
func (c *commit) restat(st *catalog.TableStats) error {
	c.next.verSeq++
	c.next.versions[st.Name] = c.next.verSeq
	return c.next.cat.AddTable(st)
}

// cancel abandons the commit without counting a failure — a rejected
// write or a no-op (Delete of an absent row). Storage the commit
// installed is dropped, nothing was published, and the old version
// keeps serving.
func (c *commit) cancel() {
	c.db.dropGenerations(c.newTables)
	c.db.commitMu.Unlock()
}

// abort is cancel for a commit that failed, counted in
// MVCCStats.CommitFailures. Returns err for call-site chaining.
func (c *commit) abort(err error) error {
	c.db.mv.mu.Lock()
	c.db.mv.commitFails++
	c.db.mv.mu.Unlock()
	c.cancel()
	return err
}

// publish atomically swaps the visible catalog-version pointer to the
// commit's next version — the entire reader-visible effect of the
// commit is this one pointer store under a short critical section.
// The superseded version is reclaimed immediately when no snapshot
// pins it. invalidate lists written tables whose result-cache, plan-
// cache, and workload-cache entries should be eagerly removed (the
// version-bearing fingerprints already make them unreachable).
func (c *commit) publish(invalidate ...string) error {
	db := c.db
	db.mv.mu.Lock()
	old := db.mv.cur
	for _, tv := range c.next.tables {
		tv.refs++
	}
	c.next.current = true
	old.current = false
	db.mv.cur = c.next
	db.mv.live++
	db.mv.commits++
	db.mv.writerStall += c.stall
	var drop []*tableVersion
	if old.pins == 0 {
		drop = old.releaseTablesLocked()
		db.mv.live--
		db.mv.reclaimed++
	}
	db.mv.mu.Unlock()
	db.dropGenerations(drop)
	db.commitMu.Unlock()
	for _, table := range invalidate {
		db.invalidateWritten(table)
	}
	return nil
}

// invalidateWritten eagerly removes cache state that depended on a
// written table: result-cache materializations, cached plans, and
// workload caches (BuildCache) over views referencing it.
func (db *Database) invalidateWritten(table string) {
	if db.rcache != nil {
		db.rcache.InvalidateTable(table)
	}
	if db.pcache != nil {
		db.pcache.invalidateTable(table)
	}
	cat := db.currentVersion().cat
	db.cachesMu.Lock()
	for view := range db.caches {
		def, err := cat.View(view)
		if err != nil {
			continue
		}
		for _, t := range def.Tables {
			if t == table {
				delete(db.caches, view)
				break
			}
		}
	}
	db.cachesMu.Unlock()
}

// mvccStats snapshots the multi-version counters for Metrics.
func (db *Database) mvccStats() metrics.MVCCStats {
	db.mv.mu.Lock()
	defer db.mv.mu.Unlock()
	st := metrics.MVCCStats{
		Enabled:           true,
		Seq:               db.mv.cur.seq,
		VersionsLive:      db.mv.live,
		VersionsReclaimed: db.mv.reclaimed,
		Commits:           db.mv.commits,
		CommitFailures:    db.mv.commitFails,
		SnapshotsAcquired: db.mv.snapsAcquired,
		SnapshotsReleased: db.mv.snapsReleased,
		SnapshotsActive:   int64(len(db.mv.snaps)),
		WriterStall:       db.mv.writerStall,
	}
	now := time.Now()
	for _, at := range db.mv.snaps {
		if age := now.Sub(at); age > st.OldestSnapshotAge {
			st.OldestSnapshotAge = age
		}
	}
	return st
}
