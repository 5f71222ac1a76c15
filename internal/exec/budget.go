package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Budget bounds the resources a single query may consume. The zero value
// means unbounded. Budgets ride on the query context (WithBudget), so the
// Run* signatures are unchanged and callers that never set one pay
// nothing new.
type Budget struct {
	// MaxTempTuples caps the tuples materialized into intermediate
	// tables (RunStats.TempTuples) plus the groups a running hash
	// aggregation or fused join+aggregate holds in memory, summed over
	// its in-flight leaves — the engine's proxy for a query's memory and
	// scratch-disk footprint, since every operator output is a paged
	// materialization and aggregation state is the one thing that grows
	// before it is materialized. The executor checks the cap inside
	// operator loops (the same cadence as cancellation polling, plus
	// every page-sized batch flush and every batch boundary of an
	// aggregation), so a join whose output — or whose group count —
	// explodes is stopped within one poll interval of crossing the line,
	// not after it finishes. Zero means unbounded.
	MaxTempTuples int64
	// MaxRows caps the result cardinality (RunStats.RowsOut), checked
	// when the root operator's output is read back. Zero means
	// unbounded.
	MaxRows int64
}

// budgetKey is the context key for WithBudget.
type budgetKey struct{}

// WithBudget attaches a per-query resource budget to ctx. The engine
// reads it at the start of RunContext/RunCachedContext; a query that
// exceeds a bound fails with an error matching ErrBudget, temps dropped
// and no frames pinned, exactly like a cancellation.
func WithBudget(ctx context.Context, b Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFromContext returns the budget attached by WithBudget, if any.
func BudgetFromContext(ctx context.Context) (Budget, bool) {
	b, ok := ctx.Value(budgetKey{}).(Budget)
	return b, ok
}

// ErrBudget is the category sentinel for queries stopped by their
// resource budget; match with errors.Is. The concrete error is a
// *BudgetError naming the exceeded bound.
var ErrBudget = errors.New("query budget exceeded")

// BudgetError reports which budget bound a query exceeded. It matches
// ErrBudget via errors.Is.
type BudgetError struct {
	// Resource names the exhausted bound: "temp-tuples" or "rows".
	Resource string
	// Limit is the configured bound; Used the observed consumption when
	// the check fired.
	Limit, Used int64
}

// Error describes the exceeded bound.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("exec: query budget exceeded: %s %d over limit %d", e.Resource, e.Used, e.Limit)
}

// Is matches the ErrBudget sentinel.
func (e *BudgetError) Is(target error) bool { return target == ErrBudget }

// overTemp checks the temp-tuple bound against the run's shared counter.
// The atomic load pairs with addTempTuples from parallel workers; serial
// increments are same-goroutine and need no ordering.
func (st *RunStats) overTemp() error { return st.overTempWith(0) }

// overTempWith is overTemp counting live more tuples than have been
// materialized: the groups an aggregation still holds in memory.
func (st *RunStats) overTempWith(live int64) error {
	if st.budget.MaxTempTuples <= 0 {
		return nil
	}
	if used := atomic.LoadInt64(&st.TempTuples) + live; used > st.budget.MaxTempTuples {
		return &BudgetError{Resource: "temp-tuples", Limit: st.budget.MaxTempTuples, Used: used}
	}
	return nil
}

// overRows checks the result-cardinality bound.
func (st *RunStats) overRows(rows int64) error {
	if st.budget.MaxRows > 0 && rows > st.budget.MaxRows {
		return &BudgetError{Resource: "rows", Limit: st.budget.MaxRows, Used: rows}
	}
	return nil
}
