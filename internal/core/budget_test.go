package core

import (
	"context"
	"errors"
	"testing"

	"mpf/internal/exec"
)

// TestBudgetTempTuples asserts that a query whose intermediates exceed
// the temp-tuple bound fails with ErrBudget, cleanly (no pinned frames),
// and that the same query under a generous budget succeeds.
func TestBudgetTempTuples(t *testing.T) {
	db, _ := openSupplyChain(t, Config{PoolFrames: 64})
	spec := &QuerySpec{View: "invest", GroupVars: []string{"wid"}}

	ctx := exec.WithBudget(context.Background(), exec.Budget{MaxTempTuples: 8})
	res, err := db.QueryContext(ctx, spec)
	if err == nil {
		t.Fatal("tiny temp-tuple budget should fail")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("error %v does not match ErrBudget", err)
	}
	var be *exec.BudgetError
	if !errors.As(err, &be) || be.Resource != "temp-tuples" {
		t.Fatalf("want *BudgetError over temp-tuples, got %v", err)
	}
	if res == nil {
		t.Fatal("failed query should still return partial stats")
	}
	if n := db.Pool().Pinned(); n != 0 {
		t.Fatalf("%d frames left pinned after budget failure", n)
	}

	ctx = exec.WithBudget(context.Background(), exec.Budget{MaxTempTuples: 1 << 30})
	if _, err := db.QueryContext(ctx, spec); err != nil {
		t.Fatalf("generous budget should pass: %v", err)
	}
}

// TestBudgetMaxRows asserts the result-cardinality bound on both
// execution modes.
func TestBudgetMaxRows(t *testing.T) {
	db, _ := openSupplyChain(t, Config{PoolFrames: 64})
	for _, mode := range []ExecMode{EngineExec, MemoryExec} {
		spec := &QuerySpec{View: "invest", GroupVars: []string{"wid", "tid"}, Exec: mode}
		res, err := db.QueryContext(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Exec.RowsOut
		if rows < 2 {
			t.Fatalf("mode %v: want a multi-row result to bound, got %d", mode, rows)
		}
		ctx := exec.WithBudget(context.Background(), exec.Budget{MaxRows: rows - 1})
		_, err = db.QueryContext(ctx, spec)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("mode %v: want ErrBudget for MaxRows %d < %d rows, got %v", mode, rows-1, rows, err)
		}
		ctx = exec.WithBudget(context.Background(), exec.Budget{MaxRows: rows})
		if _, err := db.QueryContext(ctx, spec); err != nil {
			t.Fatalf("mode %v: exact MaxRows should pass: %v", mode, err)
		}
		if n := db.Pool().Pinned(); n != 0 {
			t.Fatalf("mode %v: %d frames left pinned", mode, n)
		}
	}
}
