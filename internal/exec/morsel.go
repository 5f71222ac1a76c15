package exec

// Morsel-driven parallelism. One scheduler per query run owns a fixed
// worker pool (Engine.Parallelism goroutines, counting the caller);
// operators hand it morsels — leaf-to-partition-sized closures — instead
// of spawning their own pools. The Grace join's partition passes and
// pair joins, the leaves of hash group-by and of the fused
// join+aggregate probe (foldLeaves), and the leaves of selections and
// in-memory join probes (runPipe) all feed the same queue, so they
// compose as one pipeline: a worker finishing a join morsel can
// immediately pick up an aggregation leaf of the same query.
//
// Every operator submits through parallelFor: a fixed index range
// (partition pairs, leaves, the parts of a leaf merge), submitted at
// once and waited on.
//
// The caller participates: while waiting it runs its own set's pending
// morsels, and those of sets they submitted, which makes the scheduler
// deadlock-free at any worker count (and with zero background workers
// degrades to serial execution).
//
// The scheduler also fixes trace attribution: each morsel's runtime is
// accumulated against the operator kind that submitted it (not the
// operator whose stack happens to block in wait), and the per-kind
// totals surface as RunStats.Morsels / EXPLAIN ANALYZE's morsel lines.

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// MorselStat aggregates one operator kind's morsel-scheduler activity
// over a query run: how many morsels ran under that kind and their total
// busy time summed across workers (wall time × effective parallelism).
type MorselStat struct {
	// Kind is the submitting operator kind, e.g. "ProductJoin".
	Kind string `json:"kind"`
	// Count is the number of morsels executed.
	Count int64 `json:"count"`
	// Busy is total worker-occupied time across all morsels of the kind;
	// it exceeds the operator's wall time when morsels ran concurrently.
	Busy time.Duration `json:"busy_ns"`
}

// morselTask is one unit of scheduled work.
type morselTask func() error

// morselSet is one operator's submission: a queue of tasks drained by
// the workers plus the caller. After the first error the pending tasks
// are dropped (in-flight ones finish) and the error is reported by wait.
type morselSet struct {
	kind     string
	tasks    []morselTask
	inflight int
	err      error
}

// finished reports whether the set has no more work and no task running.
// Errors clear the pending queue, so a failed set also finishes.
func (s *morselSet) finished() bool {
	return len(s.tasks) == 0 && s.inflight == 0
}

// morselSched is a query run's shared work queue and worker pool.
type morselSched struct {
	mu      sync.Mutex
	cond    sync.Cond
	sets    []*morselSet
	workers int // total workers including the participating caller
	started bool
	closed  bool
	busy    map[string]*MorselStat
}

// newMorselSched returns a scheduler for the given total worker count
// (the caller included); background goroutines start lazily on first
// submission and exit on close.
func newMorselSched(workers int) *morselSched {
	m := &morselSched{workers: workers, busy: make(map[string]*MorselStat)}
	m.cond.L = &m.mu
	return m
}

// ensureWorkersLocked lazily starts the workers-1 background goroutines.
func (m *morselSched) ensureWorkersLocked() {
	if m.started {
		return
	}
	m.started = true
	for i := 0; i < m.workers-1; i++ {
		go m.workerLoop()
	}
}

func (m *morselSched) workerLoop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return
		}
		s := m.pickLocked(0)
		if s == nil {
			m.cond.Wait()
			continue
		}
		m.runOneLocked(s)
	}
}

// pickLocked returns the newest set from index from on with runnable
// work. Sets of one run are sequential except where a morsel submits a
// set of its own (a leaf merge's parts, batchAgg.merge) and waits on it:
// running the newest first lets idle workers finish that before they
// take up more of the older set.
func (m *morselSched) pickLocked(from int) *morselSet {
	for j := len(m.sets) - 1; j >= from; j-- {
		if s := m.sets[j]; len(s.tasks) > 0 && s.err == nil {
			return s
		}
	}
	return nil
}

// runOneLocked pops and executes one task of s, dropping the pool lock
// for the duration of the task, and accumulates its runtime against the
// set's kind. Called with m.mu held; returns with m.mu held.
func (m *morselSched) runOneLocked(s *morselSet) {
	t := s.tasks[0]
	s.tasks = s.tasks[1:]
	s.inflight++
	m.mu.Unlock()
	t0 := time.Now()
	err := t()
	d := time.Since(t0)
	m.mu.Lock()
	ms := m.busy[s.kind]
	if ms == nil {
		ms = &MorselStat{Kind: s.kind}
		m.busy[s.kind] = ms
	}
	ms.Count++
	ms.Busy += d
	s.inflight--
	if err != nil && s.err == nil {
		s.err = err
		s.tasks = nil // drop pending work; in-flight tasks finish
	}
	m.cond.Broadcast()
}

// waitLocked blocks until s finishes, running pending tasks of s, or of
// a set one of them submitted, on the calling goroutine while it waits
// (caller participation) — never of an older set, whose task may be
// waiting on s. Called with m.mu held; returns with m.mu held.
func (m *morselSched) waitLocked(s *morselSet) error {
	for {
		if t := m.pickLocked(slices.Index(m.sets, s)); t != nil {
			m.runOneLocked(t)
			continue
		}
		if s.finished() {
			m.removeLocked(s)
			return s.err
		}
		m.cond.Wait()
	}
}

// removeLocked forgets a finished set. slices.Delete zeroes the vacated
// tail slot: a stale pointer there would keep the set's task closures —
// and whatever operator state they captured — alive until the slot is
// reused.
func (m *morselSched) removeLocked(s *morselSet) {
	if i := slices.Index(m.sets, s); i >= 0 {
		m.sets = slices.Delete(m.sets, i, i+1)
	}
}

// parallelFor runs task(0..n-1) as one morsel set under kind and waits
// for completion, the caller working alongside the pool. The first task
// error cancels the remaining queue and is returned after in-flight
// tasks finish.
func (m *morselSched) parallelFor(kind string, n int, task func(i int) error) error {
	if n == 0 {
		return nil
	}
	s := &morselSet{kind: kind, tasks: make([]morselTask, n)}
	for i := 0; i < n; i++ {
		i := i
		s.tasks[i] = func() error { return task(i) }
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sets = append(m.sets, s)
	m.ensureWorkersLocked()
	m.cond.Broadcast()
	return m.waitLocked(s)
}

// close shuts the scheduler down; background workers exit once idle.
// Outstanding sets must have been waited on first.
func (m *morselSched) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// snapshot returns the per-kind morsel totals sorted by kind.
func (m *morselSched) snapshot() []MorselStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.busy) == 0 {
		return nil
	}
	out := make([]MorselStat, 0, len(m.busy))
	for _, ms := range m.busy {
		out = append(out, *ms)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// parallelFor schedules task(0..n-1) on the run's morsel scheduler under
// the given operator kind, or runs them serially in order when the run
// has no scheduler (Parallelism <= 1, or an engine entry point that
// bypasses RunContext).
func (st *RunStats) parallelFor(kind string, n int, task func(i int) error) error {
	if st == nil || st.sched == nil {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}
	return st.sched.parallelFor(kind, n, task)
}
