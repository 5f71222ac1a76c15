package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mpf/internal/gen"
	"mpf/internal/relation"
	"mpf/internal/storage"
)

// openCancelDB builds a database on simulated 1ms-latency disks with a
// small pool and two dense tables sharing variable b, sized so that an
// engine query runs for hundreds of milliseconds — long enough to cancel
// mid-flight deterministically.
func openCancelDB(t *testing.T, parallelism int) *Database {
	t.Helper()
	db, err := Open(Config{
		PoolFrames:  16,
		DiskFactory: storage.LatencyMemDiskFactory(time.Millisecond, time.Millisecond),
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
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
	return db
}

// assertCanceledCleanly checks the full cancellation contract: the error
// matches both the public sentinel and the context error, the query
// returned promptly after the cancel, no buffer-pool frame stayed
// pinned, and every temp-table disk was unregistered.
func assertCanceledCleanly(t *testing.T, db *Database, err error, cause error, sinceCancel time.Duration, wantRegistered int) {
	t.Helper()
	if err == nil {
		t.Fatal("canceled query returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not match ErrCanceled", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("error %v does not match %v", err, cause)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CancelError", err)
	}
	if sinceCancel > 100*time.Millisecond {
		t.Fatalf("query took %v after cancellation, want <= 100ms", sinceCancel)
	}
	if n := db.Pool().Pinned(); n != 0 {
		t.Fatalf("%d buffer-pool frames still pinned after canceled query", n)
	}
	if n := db.Pool().Registered(); n != wantRegistered {
		t.Fatalf("%d disks registered after canceled query, want %d (temp tables leaked)", n, wantRegistered)
	}
}

// TestQueryCancelGraceJoin cancels a query mid Grace hash join on
// 1ms-latency disks and requires it to return within 100ms with zero
// pinned frames and no leaked temp tables.
func TestQueryCancelGraceJoin(t *testing.T) {
	db := openCancelDB(t, 0)
	db.Engine().HashJoinMaxBuild = 64 // force the Grace partitioned path
	registered := db.Pool().Registered()

	ctx, cancel := context.WithCancel(context.Background())
	var canceledAt time.Time
	go func() {
		time.Sleep(25 * time.Millisecond)
		canceledAt = time.Now()
		cancel()
	}()
	_, err := db.QueryContext(ctx, &QuerySpec{View: "rs", GroupVars: []string{"b"}})
	since := time.Since(canceledAt)
	assertCanceledCleanly(t, db, err, context.Canceled, since, registered)

	m := db.Metrics()
	if m.QueriesStarted != 1 || m.QueriesFinished != 1 || m.QueriesCanceled != 1 {
		t.Fatalf("metrics after cancel: started=%d finished=%d canceled=%d, want 1/1/1",
			m.QueriesStarted, m.QueriesFinished, m.QueriesCanceled)
	}

	// The same query succeeds afterwards: cancellation left no residue.
	res, err := db.Query(&QuerySpec{View: "rs", GroupVars: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 40 {
		t.Fatalf("post-cancel query returned %d rows, want 40", res.Relation.Len())
	}
}

// TestQueryDeadline runs the Grace query under a context deadline; the
// error must match ErrCanceled and context.DeadlineExceeded.
func TestQueryDeadline(t *testing.T) {
	db := openCancelDB(t, 0)
	db.Engine().HashJoinMaxBuild = 64
	registered := db.Pool().Registered()

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	deadline, _ := ctx.Deadline()
	_, err := db.QueryContext(ctx, &QuerySpec{View: "rs", GroupVars: []string{"b"}})
	since := time.Since(deadline)
	assertCanceledCleanly(t, db, err, context.DeadlineExceeded, since, registered)
}

// TestExplainContextCanceled verifies planning observes a pre-canceled
// context.
func TestExplainContextCanceled(t *testing.T) {
	db, _ := openSupplyChain(t, Config{PoolFrames: 32})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := db.ExplainContext(ctx, &QuerySpec{View: "invest", GroupVars: []string{"wid"}})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("explain with canceled ctx returned %v", err)
	}
}

// TestTypedErrors exercises every sentinel at the public API boundary.
func TestTypedErrors(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Relation("ghost"); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("Relation(ghost) = %v, want ErrUnknownTable", err)
	}
	if err := db.DropTable("ghost"); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("DropTable(ghost) = %v, want ErrUnknownTable", err)
	}
	if _, err := db.Query(&QuerySpec{View: "ghost", GroupVars: []string{"a"}}); !errors.Is(err, ErrUnknownView) {
		t.Fatalf("Query(unknown view) = %v, want ErrUnknownView", err)
	}
	if err := db.DropView("ghost"); !errors.Is(err, ErrUnknownView) {
		t.Fatalf("DropView(ghost) = %v, want ErrUnknownView", err)
	}

	bad := relation.MustNew("bad", []relation.Attr{{Name: "a", Domain: 2}})
	bad.MustAppend([]int32{0}, 1)
	bad.MustAppend([]int32{0}, 2)
	if err := db.CreateTable(bad); !errors.Is(err, ErrNotFunctional) {
		t.Fatalf("CreateTable(FD violation) = %v, want ErrNotFunctional", err)
	}

	ok := relation.MustNew("ok", []relation.Attr{{Name: "a", Domain: 2}})
	ok.MustAppend([]int32{0}, 1)
	if err := db.CreateTable(ok); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(ok); !errors.Is(err, ErrDuplicateTable) {
		t.Fatalf("CreateTable(dup) = %v, want ErrDuplicateTable", err)
	}

	if err := db.CreateView("v", []string{"ok"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(&QuerySpec{View: "v", GroupVars: []string{"a"}, Exec: ExecMode(99)}); !errors.Is(err, ErrUnknownExecMode) {
		t.Fatalf("Query(bad exec mode) = %v, want ErrUnknownExecMode", err)
	}
}

// TestMetricsMatchRunStats runs concurrent queries (run under -race in
// make check) and requires the registry totals to equal the sums of the
// per-query RunStats, and the snapshot's pool counters to equal the
// pool's own.
func TestMetricsMatchRunStats(t *testing.T) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.005, CtdealsDensity: 0.7, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{PoolFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, r := range ds.Relations {
		if err := db.CreateTable(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateView("invest", ds.ViewTables); err != nil {
		t.Fatal(err)
	}

	before := db.Metrics()
	vars := []string{"wid", "cid", "tid", "pid", "sid"}
	const workers = 8
	const rounds = 4
	var (
		mu            sync.Mutex
		rows, temps   int64
		ops           int64
		firstQueryErr error
		wg            sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := db.QueryContext(context.Background(),
					&QuerySpec{View: "invest", GroupVars: []string{vars[(w+i)%len(vars)]}})
				mu.Lock()
				if err != nil {
					if firstQueryErr == nil {
						firstQueryErr = err
					}
				} else {
					rows += res.Exec.RowsOut
					temps += res.Exec.TempTuples
					ops += int64(res.Exec.Operators)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstQueryErr != nil {
		t.Fatal(firstQueryErr)
	}

	after := db.Metrics()
	total := workers * rounds
	if got := after.QueriesStarted - before.QueriesStarted; got != int64(total) {
		t.Fatalf("QueriesStarted delta = %d, want %d", got, total)
	}
	if got := after.QueriesFinished - before.QueriesFinished; got != int64(total) {
		t.Fatalf("QueriesFinished delta = %d, want %d", got, total)
	}
	if after.QueriesCanceled != before.QueriesCanceled || after.QueriesFailed != before.QueriesFailed {
		t.Fatalf("unexpected canceled/failed counts: %+v", after)
	}
	if got := after.RowsOut - before.RowsOut; got != rows {
		t.Fatalf("RowsOut delta = %d, want %d", got, rows)
	}
	if got := after.TempTuples - before.TempTuples; got != temps {
		t.Fatalf("TempTuples delta = %d, want %d", got, temps)
	}
	if got := after.Operators - before.Operators; got != ops {
		t.Fatalf("Operators delta = %d, want %d", got, ops)
	}
	if after.Pool != db.Pool().Stats() {
		t.Fatalf("snapshot pool stats %+v != pool stats %+v", after.Pool, db.Pool().Stats())
	}
	var kindOps int64
	for _, k := range after.OpKinds {
		kindOps += k.Count
	}
	if kindOps < after.Operators-before.Operators {
		t.Fatalf("per-kind op count %d < operators %d", kindOps, after.Operators-before.Operators)
	}
}

// TestResultTrace checks that an engine query carries a well-formed span
// trace: one span per executed operator, a single depth-0 root completing
// last with the result's row count, and monotone span windows.
func TestResultTrace(t *testing.T) {
	db, _ := openSupplyChain(t, Config{PoolFrames: 32})
	res, err := db.Query(&QuerySpec{View: "invest", GroupVars: []string{"wid"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 || len(res.Trace) != res.Exec.Operators {
		t.Fatalf("trace has %d spans, operators %d", len(res.Trace), res.Exec.Operators)
	}
	root := res.Trace[len(res.Trace)-1]
	if root.Depth != 0 || root.Rows != res.Exec.RowsOut {
		t.Fatalf("last span at depth %d with %d rows, want the root (depth 0) with %d", root.Depth, root.Rows, res.Exec.RowsOut)
	}
	for i, sp := range res.Trace {
		if sp.Stop < sp.Start {
			t.Fatalf("span %d stops before it starts: %+v", i, sp)
		}
		if sp.Kind == "" || sp.Desc == "" || sp.Rows < 0 {
			t.Fatalf("malformed span %d: %+v", i, sp)
		}
	}
}
