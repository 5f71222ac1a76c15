package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"mpf/internal/relation"
	"mpf/internal/storage"
)

// faultFleet hands out FaultDisks and remembers them, so a test can
// rewrite the fault schedule mid-run: break every disk after loading,
// arm a fault against only the heaps created next, or heal everything
// and check the engine recovers. The n-th disk is seeded with the plan's
// seed offset by n, like storage.FaultDiskFactory.
type faultFleet struct {
	mu    sync.Mutex
	inner storage.DiskFactory
	plan  storage.FaultPlan // for disks created from now on
	seq   int64
	disks []*storage.FaultDisk
}

func newFaultFleet(inner storage.DiskFactory, plan storage.FaultPlan) *faultFleet {
	return &faultFleet{inner: inner, plan: plan}
}

func (f *faultFleet) factory() storage.DiskFactory {
	return func() (storage.Disk, error) {
		d, err := f.inner()
		if err != nil {
			return nil, err
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		f.seq++
		p := f.plan
		p.Seed = f.plan.Seed*1000003 + f.seq
		fd := storage.NewFaultDisk(d, p)
		f.disks = append(f.disks, fd)
		return fd, nil
	}
}

// setAll gives plan to every disk, existing and future.
func (f *faultFleet) setAll(plan storage.FaultPlan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = plan
	for _, d := range f.disks {
		d.SetPlan(plan)
	}
}

// setNew gives plan to the disks created from now on only.
func (f *faultFleet) setNew(plan storage.FaultPlan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = plan
}

// chaosConfig is the full concurrent execution path under test: parallel
// workers, a result cache, and a pool small enough that queries do real
// IO.
func chaosConfig() Config {
	return Config{
		PoolFrames:       8,
		Parallelism:      4,
		ResultCacheBytes: 1 << 20,
	}
}

// loadChaosTables creates the two dense relations of openCancelDB's
// schema (joined on b) plus the rs view.
func loadChaosTables(t *testing.T, db *Database) {
	t.Helper()
	r, err := relation.Complete("r", []relation.Attr{
		{Name: "a", Domain: 120}, {Name: "b", Domain: 40},
	}, func(vals []int32) float64 { return float64(vals[0]%7) + 1 })
	if err != nil {
		t.Fatal(err)
	}
	s, err := relation.Complete("s", []relation.Attr{
		{Name: "b", Domain: 40}, {Name: "c", Domain: 120},
	}, func(vals []int32) float64 { return float64(vals[1]%5) + 1 })
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(r); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("rs", []string{"r", "s"}); err != nil {
		t.Fatal(err)
	}
}

// chaosReference computes fault-free answers for every query in the
// matrix under the same engine configuration.
func chaosReference(t *testing.T, groupVars []string) map[string]*relation.Relation {
	t.Helper()
	db, err := Open(chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadChaosTables(t, db)
	ref := make(map[string]*relation.Relation)
	for _, gv := range groupVars {
		res, err := db.Query(&QuerySpec{View: "rs", GroupVars: []string{gv}})
		if err != nil {
			t.Fatal(err)
		}
		ref[gv] = res.Relation
	}
	return ref
}

// matchesReference compares within float-associativity tolerance:
// parallel partition pairs emit join output in completion order, so
// injected retry latency can reorder downstream summation.
func matchesReference(got, want *relation.Relation) bool {
	return got != nil && want != nil && got.Len() == want.Len() &&
		relation.Equal(got, want, math.Inf(1), 1e-6)
}

// TestChaosPermanentFaultsTypedAndRecoverable injects permanent read
// errors and silent corruption. Queries may fail, but only with errors
// matching ErrIO or ErrCorrupt — never a wrong answer — and every
// failure must leave zero pinned frames and no leaked temp disks. After
// healing the fleet, the engine answers correctly again.
func TestChaosPermanentFaultsTypedAndRecoverable(t *testing.T) {
	groupVars := []string{"a", "b", "c"}
	ref := chaosReference(t, groupVars)

	fleet := newFaultFleet(storage.MemDiskFactory(), storage.FaultPlan{})
	cfg := chaosConfig()
	cfg.ResultCacheBytes = 0 // cache hits would mask the fault paths
	cfg.DiskFactory = fleet.factory()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadChaosTables(t, db)
	registered := db.Pool().Registered()

	// Load completed clean; now break the fleet.
	fleet.setAll(storage.FaultPlan{Seed: 5, PermReadErr: 0.05, Corrupt: 0.05, Torn: 0.02})
	var failures, ioErrs, corruptErrs int
	for pass := 0; pass < 4; pass++ {
		for _, gv := range groupVars {
			res, qerr := db.Query(&QuerySpec{View: "rs", GroupVars: []string{gv}})
			if n := db.Pool().Pinned(); n != 0 {
				t.Fatalf("%s: %d frames left pinned", gv, n)
			}
			if n := db.Pool().Registered(); n != registered {
				t.Fatalf("%s: %d disks registered, want %d (temp leaked)", gv, n, registered)
			}
			switch {
			case qerr == nil:
				if !matchesReference(res.Relation, ref[gv]) {
					t.Fatalf("%s: corrupt disk produced a wrong answer instead of an error", gv)
				}
			case errors.Is(qerr, ErrCorrupt):
				failures++
				corruptErrs++
			case errors.Is(qerr, ErrIO):
				failures++
				ioErrs++
			default:
				t.Fatalf("%s: untyped failure under fault injection: %v", gv, qerr)
			}
		}
	}
	if failures == 0 {
		t.Fatal("fault schedule never fired; test exercised nothing")
	}
	st := db.Pool().Stats()
	if corruptErrs > 0 && st.ChecksumFailures == 0 {
		t.Fatalf("corrupt errors surfaced but no checksum failures counted: %+v", st)
	}

	// Heal the fleet: the engine must answer every query correctly.
	fleet.setAll(storage.FaultPlan{})
	for _, gv := range groupVars {
		res, err := db.Query(&QuerySpec{View: "rs", GroupVars: []string{gv}})
		if err != nil {
			t.Fatalf("post-heal %s: %v", gv, err)
		}
		if !matchesReference(res.Relation, ref[gv]) {
			t.Fatalf("post-heal %s: answer differs from reference", gv)
		}
	}
	if n := db.Pool().Pinned(); n != 0 {
		t.Fatalf("%d frames pinned after recovery", n)
	}
}

// TestChaosCancelDuringFaultyQuery cancels a parallel batched query
// mid-flight while its latency disks are also injecting transient
// faults. The full cancellation contract must hold: typed error, prompt
// return, zero pinned frames, no leaked temps — and the same query
// succeeds afterwards.
func TestChaosCancelDuringFaultyQuery(t *testing.T) {
	fleet := newFaultFleet(storage.LatencyMemDiskFactory(time.Millisecond, time.Millisecond),
		storage.FaultPlan{Seed: 11, ReadErr: 0.1, WriteErr: 0.1, SlowProb: 0.05, SlowDelay: 2 * time.Millisecond})
	db, err := Open(Config{
		PoolFrames:  16,
		Parallelism: 4,
		DiskFactory: fleet.factory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Pool().SetRetry(4, 0, 0)
	defer db.Close()
	r, err := relation.Complete("r", []relation.Attr{
		{Name: "a", Domain: 400}, {Name: "b", Domain: 40},
	}, func(vals []int32) float64 { return float64(vals[0]%7) + 1 })
	if err != nil {
		t.Fatal(err)
	}
	s, err := relation.Complete("s", []relation.Attr{
		{Name: "b", Domain: 40}, {Name: "c", Domain: 400},
	}, func(vals []int32) float64 { return float64(vals[1]%5) + 1 })
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(r); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("rs", []string{"r", "s"}); err != nil {
		t.Fatal(err)
	}
	registered := db.Pool().Registered()

	ctx, cancel := context.WithCancel(context.Background())
	var canceledAt time.Time
	go func() {
		time.Sleep(25 * time.Millisecond)
		canceledAt = time.Now()
		cancel()
	}()
	_, qerr := db.QueryContext(ctx, &QuerySpec{View: "rs", GroupVars: []string{"b"}})
	since := time.Since(canceledAt)
	assertCanceledCleanly(t, db, qerr, context.Canceled, since, registered)

	// Heal and rerun: cancellation under injection left no residue.
	fleet.setAll(storage.FaultPlan{})
	res, err := db.Query(&QuerySpec{View: "rs", GroupVars: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 40 {
		t.Fatalf("post-cancel query returned %d rows, want 40", res.Relation.Len())
	}
}

// TestCorruptReadInvalidatesResultCache checks the degradation contract
// around the result cache: a corrupt read fails the query with
// ErrCorrupt and evicts cached entries over the damaged table, so a
// later hit cannot serve an answer whose table is known-bad; after
// healing, the query recomputes and caches cleanly.
func TestCorruptReadInvalidatesResultCache(t *testing.T) {
	fleet := newFaultFleet(storage.MemDiskFactory(), storage.FaultPlan{})
	cfg := Config{PoolFrames: 4, ResultCacheBytes: 1 << 20, DiskFactory: fleet.factory()}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadChaosTables(t, db)

	// Prime the cache with a clean answer.
	res1, err := db.Query(&QuerySpec{View: "rs", GroupVars: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	// Every read now returns a flipped bit: the next uncached query must
	// fail with ErrCorrupt, not a wrong answer. (The pool is 4 frames, so
	// the scan must fill from disk.)
	fleet.setAll(storage.FaultPlan{Seed: 9, Corrupt: 1})
	_, qerr := db.Query(&QuerySpec{View: "rs", GroupVars: []string{"a", "c"}})
	if !errors.Is(qerr, ErrCorrupt) {
		t.Fatalf("flipped-bit read surfaced %v, want ErrCorrupt", qerr)
	}
	if n := db.Pool().Pinned(); n != 0 {
		t.Fatalf("%d frames pinned after corrupt failure", n)
	}

	// Heal; the engine keeps serving, and the primed query still answers
	// (recomputed or cached — either way it must match).
	fleet.setAll(storage.FaultPlan{})
	res2, err := db.Query(&QuerySpec{View: "rs", GroupVars: []string{"b"}})
	if err != nil {
		t.Fatalf("post-heal query: %v", err)
	}
	if !matchesReference(res2.Relation, res1.Relation) {
		t.Fatal("post-heal answer differs from pre-corruption answer")
	}
	st := db.Pool().Stats()
	if st.ChecksumFailures == 0 {
		t.Fatalf("corruption never detected by checksums: %+v", st)
	}
}
