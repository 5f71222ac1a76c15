package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mpf/internal/relation"
	"mpf/internal/storage"
)

// mvccTestDB builds a small two-table database with a view, the minimal
// schema the multi-version tests write against.
func mvccTestDB(t *testing.T, cfg Config) *Database {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r, err := relation.Complete("r", []relation.Attr{
		{Name: "a", Domain: 6}, {Name: "b", Domain: 4},
	}, func(vals []int32) float64 { return float64(vals[0]%3) + 1 })
	if err != nil {
		t.Fatal(err)
	}
	// s leaves c = 4 unpopulated so the write tests have fresh
	// assignments to insert.
	s, err := relation.New("s", []relation.Attr{
		{Name: "b", Domain: 4}, {Name: "c", Domain: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := int32(0); b < 4; b++ {
		for c := int32(0); c < 4; c++ {
			s.MustAppend([]int32{b, c}, float64(c%2)+1)
		}
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
	return db
}

// TestSnapshotIsolationReadersKeepTheirVersion pins a snapshot, commits
// a write, and requires a query through the old snapshot to answer as of
// acquisition while a fresh query sees the write; releasing the snapshot
// reclaims the superseded version with zero pinned frames.
func TestSnapshotIsolationReadersKeepTheirVersion(t *testing.T) {
	db := mvccTestDB(t, Config{})
	q := &QuerySpec{View: "rs", GroupVars: []string{"b"}}
	before, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	snap := db.AcquireSnapshot()
	defer snap.Release()
	// A new s row changes every group's sum.
	if err := db.Insert("s", []int32{0, 4}, 100); err != nil {
		t.Fatal(err)
	}

	old, err := db.QueryContext(WithSnapshot(context.Background(), snap), q)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(old.Relation, before.Relation, 0, 0) {
		t.Fatal("snapshot read does not match the pre-write answer")
	}
	if old.Snapshot != snap.Seq() {
		t.Fatalf("Result.Snapshot = %d, want %d", old.Snapshot, snap.Seq())
	}
	fresh, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if relation.Equal(fresh.Relation, before.Relation, 0, 0) {
		t.Fatal("fresh query did not observe the committed write")
	}
	if fresh.Snapshot != snap.Seq()+1 {
		t.Fatalf("fresh Result.Snapshot = %d, want %d", fresh.Snapshot, snap.Seq()+1)
	}

	st := db.Metrics().MVCC
	if st.VersionsLive != 2 {
		t.Fatalf("versions live with a pinned old snapshot = %d, want 2", st.VersionsLive)
	}
	snap.Release()
	snap.Release() // idempotent
	st = db.Metrics().MVCC
	if st.VersionsLive != 1 {
		t.Fatalf("versions live after release = %d, want 1 (old version leaked)", st.VersionsLive)
	}
	if st.VersionsReclaimed == 0 {
		t.Fatal("no version reclaimed after releasing the last pin")
	}
	if n := db.Pool().Pinned(); n != 0 {
		t.Fatalf("%d buffer-pool frames pinned after reclamation, want 0", n)
	}

	// The released snapshot is rejected, not silently retargeted.
	if _, err := db.QueryContext(WithSnapshot(context.Background(), snap), q); err == nil {
		t.Fatal("query through a released snapshot should error")
	}
}

// TestCanceledQueryReleasesSnapshotPin cancels a long engine query
// mid-run and requires its implicit snapshot pin to be released: the
// next commit reclaims the superseded version instead of leaking it.
func TestCanceledQueryReleasesSnapshotPin(t *testing.T) {
	db := openCancelDB(t, 0)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := db.QueryContext(ctx, &QuerySpec{View: "rs", GroupVars: []string{"b"}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}

	st := db.Metrics().MVCC
	if st.SnapshotsAcquired != st.SnapshotsReleased {
		t.Fatalf("snapshot pins leaked by canceled query: %d acquired, %d released",
			st.SnapshotsAcquired, st.SnapshotsReleased)
	}
	if st.SnapshotsActive != 0 {
		t.Fatalf("%d snapshots still active after cancellation", st.SnapshotsActive)
	}

	// With no pin outstanding, a commit supersedes and reclaims the old
	// version immediately — the version count stays at 1.
	if existed, err := db.Delete("r", []int32{0, 0}); err != nil {
		t.Fatal(err)
	} else if !existed {
		t.Fatal("delete of a present row reported absent")
	}
	if existed, err := db.Delete("r", []int32{0, 0}); err != nil {
		t.Fatal(err)
	} else if existed {
		t.Fatal("second delete of the same row should be a no-op")
	}
	if live := db.Metrics().MVCC.VersionsLive; live != 1 {
		t.Fatalf("versions live after commit = %d, want 1 (canceled query leaked its pin)", live)
	}
}

// TestCommitFaultLeavesOldVersionServed injects a permanent fault into
// each side of a commit's one pass: a write fault on the disk the new
// generation is built on, and a read fault on the parent generation
// part-way through streaming it (the table spans more pages than the
// pool has frames, so the pass really reads). Either way the writer
// gets a typed ErrIO, the partial heap is dropped, nothing becomes
// visible (sequence and version count unchanged), readers keep getting
// the old answer, and after healing the same write succeeds.
func TestCommitFaultLeavesOldVersionServed(t *testing.T) {
	for _, class := range []struct {
		name        string
		arm, disarm func(*faultFleet)
	}{
		{"write fault on the new generation", // the heap the commit creates fails its first write
			func(fleet *faultFleet) { fleet.setNew(storage.FaultPlan{FailWriteOp: 1}) },
			func(fleet *faultFleet) { fleet.setNew(storage.FaultPlan{}) }},
		{"read fault on the parent generation", // every disk fails from its 3rd read on
			func(fleet *faultFleet) { fleet.setAll(storage.FaultPlan{FailReadOp: 3}) },
			func(fleet *faultFleet) { fleet.setAll(storage.FaultPlan{}) }},
	} {
		t.Run(class.name, func(t *testing.T) {
			fleet := newFaultFleet(storage.MemDiskFactory(), storage.FaultPlan{})
			db, err := Open(Config{DiskFactory: fleet.factory(), PoolFrames: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// Six pages; a = 59 is left unpopulated, free to insert.
			wide := relation.MustNew("wide", []relation.Attr{
				{Name: "a", Domain: 60}, {Name: "b", Domain: 50},
			})
			for a := int32(0); a < 59; a++ {
				for b := int32(0); b < 50; b++ {
					wide.MustAppend([]int32{a, b}, float64(a%3)+1)
				}
			}
			if err := db.CreateTable(wide); err != nil {
				t.Fatal(err)
			}
			if err := db.CreateView("w", []string{"wide"}); err != nil {
				t.Fatal(err)
			}
			q := &QuerySpec{View: "w", GroupVars: []string{"a"}}
			before, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			seqBefore := db.Metrics().MVCC.Seq
			disksBefore := db.Pool().Registered()

			class.arm(fleet)
			err = db.Insert("wide", []int32{59, 0}, 100)
			class.disarm(fleet)
			if !errors.Is(err, ErrIO) {
				t.Fatalf("insert under a permanent fault: err = %v, want ErrIO", err)
			}

			st := db.Metrics().MVCC
			if st.Seq != seqBefore {
				t.Fatalf("catalog sequence moved from %d to %d on a failed commit", seqBefore, st.Seq)
			}
			if st.CommitFailures != 1 {
				t.Fatalf("commit failures = %d, want 1", st.CommitFailures)
			}
			if st.VersionsLive != 1 {
				t.Fatalf("versions live after failed commit = %d, want 1", st.VersionsLive)
			}
			if n := db.Pool().Registered(); n != disksBefore {
				t.Fatalf("%d disks registered after aborted commit, want %d (partial heap not dropped)", n, disksBefore)
			}
			after, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.Equal(after.Relation, before.Relation, 0, 0) {
				t.Fatal("failed commit leaked partial state into query answers")
			}
			if n := db.Pool().Pinned(); n != 0 {
				t.Fatalf("%d frames pinned after aborted commit, want 0", n)
			}

			// Healed, the identical write goes through and becomes visible.
			if err := db.Insert("wide", []int32{59, 0}, 100); err != nil {
				t.Fatal(err)
			}
			healed, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if relation.Equal(healed.Relation, before.Relation, 0, 0) {
				t.Fatal("post-heal insert is not visible")
			}
		})
	}
}

// TestConcurrentSnapshotsVsCommits races snapshot acquire/query/release
// against a sustained ingest stream — the -race coverage for the
// version-swap and reclamation paths. Afterwards every superseded
// version must be reclaimed, every pin released, and no frame pinned.
func TestConcurrentSnapshotsVsCommits(t *testing.T) {
	db := mvccTestDB(t, Config{})
	q := &QuerySpec{View: "rs", GroupVars: []string{"b"}}

	const readers = 4
	const writes = 30
	baseCommits := db.Metrics().MVCC.Commits
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.AcquireSnapshot()
				ctx := WithSnapshot(context.Background(), snap)
				res, err := db.QueryContext(ctx, q)
				if err == nil && res.Snapshot != snap.Seq() {
					t.Errorf("Result.Snapshot = %d, want pinned %d", res.Snapshot, snap.Seq())
				}
				snap.Release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		if err := db.Insert("s", []int32{int32(i % 4), 4}, float64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Delete("s", []int32{int32(i % 4), 4}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	st := db.Metrics().MVCC
	if st.SnapshotsAcquired != st.SnapshotsReleased || st.SnapshotsActive != 0 {
		t.Fatalf("pins leaked: %d acquired, %d released, %d active",
			st.SnapshotsAcquired, st.SnapshotsReleased, st.SnapshotsActive)
	}
	if st.VersionsLive != 1 {
		t.Fatalf("versions live after quiescing = %d, want 1", st.VersionsLive)
	}
	if int(st.Commits-baseCommits) != 2*writes {
		t.Fatalf("commits = %d, want %d", st.Commits-baseCommits, 2*writes)
	}
	if n := db.Pool().Pinned(); n != 0 {
		t.Fatalf("%d frames pinned after quiescing, want 0", n)
	}
}
