// Package metrics is the engine-wide metrics registry: a Database owns
// one Registry, every query lifecycle event (started, finished, canceled)
// and every finished query's RunStats-derived counters accumulate into
// it, and Snapshot returns a consistent point-in-time copy for reporting
// (mpfcli -metrics, monitoring loops). The registry is additive-only and
// safe for concurrent use.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mpf/internal/storage"
)

// OpSample is one executed operator's contribution to the registry: its
// kind (Scan, Select, ProductJoin, GroupBy) plus exclusive wall time and
// IO delta, as recorded in a query's trace.
type OpSample struct {
	// Kind is the operator kind.
	Kind string
	// Wall is the operator's exclusive (self) wall time.
	Wall time.Duration
	// IO is the pool-stats delta attributed to the operator.
	IO storage.Stats
}

// QuerySample summarizes one finished query for the registry.
type QuerySample struct {
	// Canceled marks a query that ended with a context error.
	Canceled bool
	// Failed marks a query that ended with any other error.
	Failed bool
	// RowsOut is the result cardinality.
	RowsOut int64
	// TempTuples counts tuples written to intermediate tables.
	TempTuples int64
	// Operators counts executed physical operators.
	Operators int64
	// HotKeyFallbacks counts Grace-join hot-key fallbacks.
	HotKeyFallbacks int64
	// Batches counts the page-sized tuple batches the operators consumed.
	Batches int64
	// Wall is the query's execution wall time.
	Wall time.Duration
	// Ops lists the per-operator samples from the query trace.
	Ops []OpSample
	// Morsels lists the per-kind morsel-scheduler samples of a parallel
	// run (empty for serial queries).
	Morsels []MorselSample
}

// MorselSample is one operator kind's share of a query's morsel-driven
// parallel work: how many morsels the kind submitted and the busy time
// measured inside those morsels (exclusive task time on whichever worker
// ran them — attributed to the submitting kind, not the worker).
type MorselSample struct {
	// Kind is the submitting operator kind (ProductJoin, GroupBy, FusedProbe).
	Kind string
	// Count is the number of morsels executed.
	Count int64
	// Busy is the summed task execution time.
	Busy time.Duration
}

// MorselKindStats aggregates all morsels submitted by one operator kind.
type MorselKindStats struct {
	// Count is the number of morsels executed.
	Count int64 `json:"count"`
	// Busy sums their execution time.
	Busy time.Duration `json:"busy_ns"`
}

// OpKindStats aggregates all executed operators of one kind.
type OpKindStats struct {
	// Count is the number of operators of this kind executed.
	Count int64 `json:"count"`
	// Wall sums their exclusive wall time.
	Wall time.Duration `json:"wall_ns"`
	// IO sums their attributed pool-stats deltas.
	IO storage.Stats `json:"io"`
}

// PlanKindStats aggregates planning work by planner kind, the planning
// counterpart of OpKindStats: execution accounted wall time per operator
// kind while planning time vanished from the registry entirely (the
// Result.Optimize accounting bug). One kind per planner report name, plus
// the synthetic "plan-cache" kind covering cache-probe time on hits.
type PlanKindStats struct {
	// Count is the number of queries planned by this kind.
	Count int64 `json:"count"`
	// Wall sums the planning wall time attributed to this kind.
	Wall time.Duration `json:"wall_ns"`
}

// Registry accumulates engine-wide metrics. The zero value is NOT ready;
// use NewRegistry.
type Registry struct {
	mu              sync.Mutex
	started         int64
	finished        int64
	canceled        int64
	failed          int64
	rowsOut         int64
	tempTuples      int64
	operators       int64
	hotKeyFallbacks int64
	batches         int64
	execWall        time.Duration
	opKinds         map[string]OpKindStats
	planKinds       map[string]PlanKindStats
	morselKinds     map[string]MorselKindStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		opKinds:     make(map[string]OpKindStats),
		planKinds:   make(map[string]PlanKindStats),
		morselKinds: make(map[string]MorselKindStats),
	}
}

// PlanSample records one planning phase: the report name of the planner
// that produced the plan (for cache hits, the synthetic "plan-cache" kind)
// and its planning wall time. Called once per planned query, whether or
// not the plan then executes.
func (r *Registry) PlanSample(planner string, wall time.Duration) {
	r.mu.Lock()
	k := r.planKinds[planner]
	k.Count++
	k.Wall += wall
	r.planKinds[planner] = k
	r.mu.Unlock()
}

// QueryStarted records the start of a query.
func (r *Registry) QueryStarted() {
	r.mu.Lock()
	r.started++
	r.mu.Unlock()
}

// QueryFinished records a query's end. Every QueryStarted must be paired
// with exactly one QueryFinished, whatever the outcome; the sample's
// Canceled/Failed flags classify it.
func (r *Registry) QueryFinished(q QuerySample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished++
	if q.Canceled {
		r.canceled++
	} else if q.Failed {
		r.failed++
	}
	r.rowsOut += q.RowsOut
	r.tempTuples += q.TempTuples
	r.operators += q.Operators
	r.hotKeyFallbacks += q.HotKeyFallbacks
	r.batches += q.Batches
	r.execWall += q.Wall
	for _, op := range q.Ops {
		k := r.opKinds[op.Kind]
		k.Count++
		k.Wall += op.Wall
		k.IO = k.IO.Add(op.IO)
		r.opKinds[op.Kind] = k
	}
	for _, m := range q.Morsels {
		k := r.morselKinds[m.Kind]
		k.Count += m.Count
		k.Busy += m.Busy
		r.morselKinds[m.Kind] = k
	}
}

// Snapshot is a point-in-time copy of the registry, extended with the
// buffer pool's cumulative IO counters (read directly from the pool at
// snapshot time, so they cover everything the pool did — including
// operator overlap that per-query deltas cannot attribute exactly).
type Snapshot struct {
	// QueriesStarted counts queries that entered execution.
	QueriesStarted int64 `json:"queries_started"`
	// QueriesFinished counts queries that returned (any outcome).
	QueriesFinished int64 `json:"queries_finished"`
	// QueriesCanceled counts queries that ended with a context error.
	QueriesCanceled int64 `json:"queries_canceled"`
	// QueriesFailed counts queries that ended with a non-context error.
	QueriesFailed int64 `json:"queries_failed"`
	// RowsOut sums result cardinalities over finished queries.
	RowsOut int64 `json:"rows_out"`
	// TempTuples sums intermediate tuples written.
	TempTuples int64 `json:"temp_tuples"`
	// Operators counts executed physical operators.
	Operators int64 `json:"operators"`
	// HotKeyFallbacks counts Grace-join hot-key fallbacks.
	HotKeyFallbacks int64 `json:"hot_key_fallbacks"`
	// Batches counts page-sized tuple batches consumed by operators.
	Batches int64 `json:"batches"`
	// ExecWall sums query execution wall time.
	ExecWall time.Duration `json:"exec_wall_ns"`
	// Pool is the buffer pool's cumulative IO (reads, writes, hits).
	Pool storage.Stats `json:"pool"`
	// ResultCache is the shared subplan result cache's state and counters.
	// Core fills it after taking the registry snapshot; when the cache is
	// disabled every field is zero and Enabled is false.
	ResultCache ResultCacheStats `json:"result_cache"`
	// PlanCache is the plan cache's state and counters, filled by core the
	// same way as ResultCache.
	PlanCache PlanCacheStats `json:"plan_cache"`
	// Server is the network serving layer's state and counters, filled by
	// internal/server on databases it serves; Enabled is false otherwise.
	Server ServerStats `json:"server"`
	// MVCC is the multi-version catalog's state and counters, filled by
	// core at snapshot time.
	MVCC MVCCStats `json:"mvcc"`
	// OpKinds aggregates operators by kind.
	OpKinds map[string]OpKindStats `json:"op_kinds"`
	// Planning aggregates planning time by planner kind.
	Planning map[string]PlanKindStats `json:"planning"`
	// Morsels aggregates morsel-scheduler work by submitting operator
	// kind over all parallel queries.
	Morsels map[string]MorselKindStats `json:"morsels"`
	// Encoding is the buffer pool's cumulative columnar page-encoding
	// counters, filled by core from the pool at snapshot time; all zero
	// when columnar storage was never enabled.
	Encoding storage.EncodingStats `json:"encoding"`
}

// ResultCacheStats reports the engine's shared subplan result cache in a
// metrics snapshot. All counters are cumulative; Entries/Bytes are
// point-in-time. The report always renders every field — a zero counter
// prints as 0, so "no hits yet" and "cache disabled" are distinguishable
// (the latter via Enabled).
type ResultCacheStats struct {
	// Enabled reports whether the database was opened with a cache budget.
	Enabled bool `json:"enabled"`
	// Entries is the number of live cached materializations; Bytes their
	// resident size against BudgetBytes.
	Entries     int64 `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	// Hits and Misses count probes at cacheable plan nodes.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Inserts counts adopted materializations, Evictions cost-aware
	// removals, Invalidations removals caused by base-table writes.
	Inserts       int64 `json:"inserts"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// IOSavedPages sums the rebuild page IO avoided by hits.
	IOSavedPages int64 `json:"io_saved_pages"`
}

// PlanCacheStats reports the engine's plan cache in a metrics snapshot.
// Counters are cumulative; Entries is point-in-time against Capacity.
type PlanCacheStats struct {
	// Enabled reports whether the database was opened with a plan cache.
	Enabled bool `json:"enabled"`
	// Entries is the number of live cached plans; Capacity the LRU bound.
	Entries  int64 `json:"entries"`
	Capacity int64 `json:"capacity"`
	// Hits and Misses count cache probes by cacheable queries.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Inserts counts adopted plans, Evictions LRU removals, Invalidations
	// removals caused by base-table writes.
	Inserts       int64 `json:"inserts"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// MVCCStats reports the multi-version catalog in a metrics snapshot:
// how many catalog versions are live or already reclaimed, commit
// outcomes, snapshot pin traffic, how long writers waited on each other
// (readers never contribute — they don't take the writer lock), and the
// age of the oldest snapshot still pinning an old version (the epoch
// horizon that bounds reclamation).
type MVCCStats struct {
	// Enabled reports whether the database runs the multi-version
	// catalog (always true for databases opened by core.Open).
	Enabled bool `json:"enabled"`
	// Seq is the current catalog version sequence number, bumped once
	// per published commit.
	Seq int64 `json:"seq"`
	// VersionsLive counts catalog versions not yet reclaimed (the
	// current version plus superseded versions still pinned by
	// snapshots); VersionsReclaimed counts superseded versions whose
	// storage references were dropped.
	VersionsLive      int64 `json:"versions_live"`
	VersionsReclaimed int64 `json:"versions_reclaimed"`
	// Commits counts published commits; CommitFailures counts commits
	// aborted by an error (e.g. a write-path IO fault) with the old
	// version left fully served.
	Commits        int64 `json:"commits"`
	CommitFailures int64 `json:"commit_failures"`
	// SnapshotsAcquired/SnapshotsReleased count snapshot pins over the
	// database's lifetime; SnapshotsActive is the point-in-time pin
	// count.
	SnapshotsAcquired int64 `json:"snapshots_acquired"`
	SnapshotsReleased int64 `json:"snapshots_released"`
	SnapshotsActive   int64 `json:"snapshots_active"`
	// WriterStall sums the time commits spent waiting for the writer
	// lock (writer-on-writer serialization; readers never hold it).
	WriterStall time.Duration `json:"writer_stall_ns"`
	// OldestSnapshotAge is the age of the oldest live snapshot at
	// snapshot time — the bound on how far reclamation lags.
	OldestSnapshotAge time.Duration `json:"oldest_snapshot_age_ns"`
}

// Snapshot returns a consistent copy of the counters; pool is the buffer
// pool's own cumulative stats to embed.
func (r *Registry) Snapshot(pool storage.Stats) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	kinds := make(map[string]OpKindStats, len(r.opKinds))
	for k, v := range r.opKinds {
		kinds[k] = v
	}
	planning := make(map[string]PlanKindStats, len(r.planKinds))
	for k, v := range r.planKinds {
		planning[k] = v
	}
	morsels := make(map[string]MorselKindStats, len(r.morselKinds))
	for k, v := range r.morselKinds {
		morsels[k] = v
	}
	return Snapshot{
		QueriesStarted:  r.started,
		QueriesFinished: r.finished,
		QueriesCanceled: r.canceled,
		QueriesFailed:   r.failed,
		RowsOut:         r.rowsOut,
		TempTuples:      r.tempTuples,
		Operators:       r.operators,
		HotKeyFallbacks: r.hotKeyFallbacks,
		Batches:         r.batches,
		ExecWall:        r.execWall,
		Pool:            pool,
		OpKinds:         kinds,
		Planning:        planning,
		Morsels:         morsels,
	}
}

// String renders the snapshot as an aligned text report. Every section
// always prints with explicit zeros — a counter that reads 0 is 0, never
// silently absent — so scripted consumers of `mpfcli -metrics` can
// distinguish "nothing happened" from "not reported".
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "queries: %d started, %d finished (%d canceled, %d failed)\n",
		s.QueriesStarted, s.QueriesFinished, s.QueriesCanceled, s.QueriesFailed)
	fmt.Fprintf(&b, "rows out: %d   temp tuples: %d   operators: %d   hot-key fallbacks: %d\n",
		s.RowsOut, s.TempTuples, s.Operators, s.HotKeyFallbacks)
	fmt.Fprintf(&b, "batches: %d\n", s.Batches)
	fmt.Fprintf(&b, "exec wall: %v\n", s.ExecWall)
	fmt.Fprintf(&b, "pool IO: %d reads, %d writes, %d hits\n", s.Pool.Reads, s.Pool.Writes, s.Pool.Hits)
	fmt.Fprintf(&b, "pool faults: %d retries, %d transient, %d permanent, %d checksum failures\n",
		s.Pool.Retries, s.Pool.TransientFaults, s.Pool.PermanentFaults, s.Pool.ChecksumFailures)
	enc := s.Encoding
	fmt.Fprintf(&b, "page encoding: %d encoded, %d fallback, %d bytes saved; segments %d plain / %d byte / %d rle / %d dict\n",
		enc.PagesEncoded, enc.PagesFallback, enc.BytesSaved, enc.SegPlain, enc.SegByte, enc.SegRLE, enc.SegDict)
	rc := s.ResultCache
	if !rc.Enabled {
		b.WriteString("result cache: disabled\n")
	} else {
		fmt.Fprintf(&b, "result cache: %d/%d bytes in %d entries\n", rc.Bytes, rc.BudgetBytes, rc.Entries)
		fmt.Fprintf(&b, "  %d hits, %d misses, %d inserts, %d evictions, %d invalidations, %d page IOs saved\n",
			rc.Hits, rc.Misses, rc.Inserts, rc.Evictions, rc.Invalidations, rc.IOSavedPages)
	}
	pc := s.PlanCache
	if !pc.Enabled {
		b.WriteString("plan cache: disabled\n")
	} else {
		fmt.Fprintf(&b, "plan cache: %d/%d entries\n", pc.Entries, pc.Capacity)
		fmt.Fprintf(&b, "  %d hits, %d misses, %d inserts, %d evictions, %d invalidations\n",
			pc.Hits, pc.Misses, pc.Inserts, pc.Evictions, pc.Invalidations)
	}
	mv := s.MVCC
	if !mv.Enabled {
		b.WriteString("mvcc: disabled\n")
	} else {
		fmt.Fprintf(&b, "mvcc: version %d, %d live / %d reclaimed; %d commits (%d failed)\n",
			mv.Seq, mv.VersionsLive, mv.VersionsReclaimed, mv.Commits, mv.CommitFailures)
		fmt.Fprintf(&b, "  snapshots: %d active (%d acquired, %d released), oldest %v; writer stall %v\n",
			mv.SnapshotsActive, mv.SnapshotsAcquired, mv.SnapshotsReleased, mv.OldestSnapshotAge, mv.WriterStall)
	}
	sv := s.Server
	if !sv.Enabled {
		b.WriteString("server: disabled\n")
	} else {
		state := "serving"
		if sv.Draining {
			state = "draining"
		}
		fmt.Fprintf(&b, "server: %s, %d sessions active (%d opened, %d closed)\n",
			state, sv.SessionsActive, sv.SessionsOpened, sv.SessionsClosed)
		fmt.Fprintf(&b, "  admission: %d admitted, %d in flight, %d queued; rejected %d rate / %d queue / %d drain\n",
			sv.Admitted, sv.InFlight, sv.Queued, sv.RejectedRate, sv.RejectedQueue, sv.RejectedDrain)
		lat := sv.Latency
		fmt.Fprintf(&b, "  latency: %d requests, p50 %v, p90 %v, p99 %v, max %v\n",
			lat.Count, lat.P50, lat.P90, lat.P99, lat.Max)
	}
	if len(s.Planning) == 0 {
		b.WriteString("planning: none\n")
	} else {
		planners := make([]string, 0, len(s.Planning))
		for k := range s.Planning {
			planners = append(planners, k)
		}
		sort.Strings(planners)
		b.WriteString("planning:\n")
		for _, k := range planners {
			st := s.Planning[k]
			fmt.Fprintf(&b, "  %-24s %6d plans  wall %v\n", k, st.Count, st.Wall)
		}
	}
	if len(s.Morsels) == 0 {
		b.WriteString("morsels: none\n")
	} else {
		mk := make([]string, 0, len(s.Morsels))
		for k := range s.Morsels {
			mk = append(mk, k)
		}
		sort.Strings(mk)
		b.WriteString("morsels:\n")
		for _, k := range mk {
			st := s.Morsels[k]
			fmt.Fprintf(&b, "  %-12s %6d morsels  busy %v\n", k, st.Count, st.Busy)
		}
	}
	if len(s.OpKinds) == 0 {
		b.WriteString("per-operator kind: none\n")
		return b.String()
	}
	kinds := make([]string, 0, len(s.OpKinds))
	for k := range s.OpKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	b.WriteString("per-operator kind:\n")
	for _, k := range kinds {
		st := s.OpKinds[k]
		fmt.Fprintf(&b, "  %-12s %6d ops  wall %-12v io %d reads / %d writes / %d hits\n",
			k, st.Count, st.Wall, st.IO.Reads, st.IO.Writes, st.IO.Hits)
	}
	return b.String()
}
