package core

import (
	"context"
	"errors"

	"mpf/internal/catalog"
	"mpf/internal/exec"
	"mpf/internal/storage"
)

// Sentinel errors returned from the Database API. All are matched with
// errors.Is: the returned errors wrap a sentinel plus the specific name
// or cause, so call sites can branch on the category without parsing
// messages.
var (
	// ErrUnknownTable reports a reference to a table the database does not
	// have. It is the catalog sentinel, so errors from catalog lookups and
	// from the database's own table map match identically.
	ErrUnknownTable = catalog.ErrUnknownTable
	// ErrUnknownView reports a reference to an unregistered MPF view.
	ErrUnknownView = catalog.ErrUnknownView
	// ErrDuplicateTable reports CreateTable of an existing name.
	ErrDuplicateTable = errors.New("table already exists")
	// ErrNotFunctional reports a relation whose variable attributes do not
	// functionally determine the measure (CheckFD failed), so it cannot be
	// a base table or hypothetical replacement; an Insert of an assignment
	// (or declared-key value) the table already holds; and a DeclareKey
	// whose columns do not determine the row in the stored data.
	ErrNotFunctional = errors.New("not a functional relation")
	// ErrSchemaMismatch reports a write or query that does not fit the
	// schema: a row of the wrong arity, a value outside its attribute's
	// domain, a key column that is not an attribute, a query variable
	// outside its view, or a hypothetical table that is not a view table
	// of the same variables. It is raised before any storage work.
	ErrSchemaMismatch = errors.New("schema mismatch")
	// ErrUnknownExecMode reports a QuerySpec.Exec value that names no
	// execution mode; Query validates it before planning.
	ErrUnknownExecMode = errors.New("unknown exec mode")
	// ErrCanceled reports a query ended by its context. The returned error
	// also matches the underlying context.Canceled or
	// context.DeadlineExceeded via errors.Is.
	ErrCanceled = errors.New("query canceled")
	// ErrIO reports a query ended by a storage fault that escaped the
	// buffer pool's bounded retry. It is the storage sentinel, so the error carries
	// a *storage.IOError or *storage.WritebackError with the failing
	// operation, disk handle, and page. The query fails cleanly — temps
	// dropped, no frames pinned — and the database keeps serving.
	ErrIO = storage.ErrIO
	// ErrCorrupt reports a query that read a page whose checksum did not
	// match its contents. The corrupt bytes never reach query answers; the
	// error carries a *storage.CorruptPageError with the disk handle and
	// page, and any result-cache entries over the damaged table are
	// invalidated.
	ErrCorrupt = storage.ErrCorruptPage
	// ErrBudget reports a query stopped by its per-query resource budget
	// (exec.WithBudget / Session budgets): it materialized more
	// intermediate tuples or produced more result rows than the budget
	// allows. It is the exec sentinel, so the error carries a
	// *exec.BudgetError naming the exceeded bound. The query fails
	// cleanly — temps dropped, no frames pinned — and the database keeps
	// serving.
	ErrBudget = exec.ErrBudget
	// ErrPoolExhausted reports a query that found every buffer-pool frame
	// pinned by concurrent work. It is the storage sentinel; the query
	// fails cleanly and may succeed when retried under less load.
	ErrPoolExhausted = storage.ErrPoolExhausted
)

// CancelError wraps the context error that ended a query. errors.Is
// matches it against both ErrCanceled (the engine's category sentinel)
// and the wrapped cause (context.Canceled or context.DeadlineExceeded).
type CancelError struct {
	// Cause is the context error that ended the query.
	Cause error
}

// Error describes the cancellation with its cause.
func (e *CancelError) Error() string { return "core: query canceled: " + e.Cause.Error() }

// Unwrap exposes the context error for errors.Is/As.
func (e *CancelError) Unwrap() error { return e.Cause }

// Is matches the ErrCanceled sentinel.
func (e *CancelError) Is(target error) bool { return target == ErrCanceled }

// wrapCancel converts a context error into a *CancelError; other errors
// pass through unchanged.
func wrapCancel(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &CancelError{Cause: err}
	}
	return err
}
