// Package mpf is a query engine for MPF (Marginalize-a-Product-Function)
// queries, reproducing "Optimizing MPF Queries: Decision Support and
// Probabilistic Inference" (Corrada Bravo & Ramakrishnan, SIGMOD 2007).
//
// MPF queries are aggregate queries over functional relations — relations
// whose non-measure attributes functionally determine a real-valued
// measure. A view r = s₁ ⋈* s₂ ⋈* … ⋈* sₙ combines local functions with a
// semiring product join, and a query
//
//	select X, AGG(r.f) from r group by X
//
// marginalizes the joint function onto the query variables X. This covers
// decision-support aggregates (total/min/max investment per entity) and
// exact probabilistic inference on Bayesian networks (the view is a
// factored joint distribution; the query is a posterior marginal).
//
// The package offers:
//
//   - functional relations and the extended algebra (product join,
//     marginalizing GroupBy, product/update semijoins) over pluggable
//     commutative semirings;
//   - a disk-resident execution engine (paged heap files, buffer pool
//     with IO accounting, hash and sort physical operators);
//   - the paper's single-query optimizers: CS, linear and nonlinear CS+,
//     and Variable Elimination (VE/VE+) with degree, width,
//     elimination-cost, random and combined ordering heuristics;
//   - the workload optimizer: Belief Propagation, Junction Trees, and the
//     VE-cache materialized-view scheme with the Definition 5 correctness
//     invariant;
//   - Bayesian-network utilities (construction, sampling, parameter
//     estimation, conversion to MPF views);
//   - a SQL subset with the paper's `create mpfview` extension.
//
// # Quick start
//
//	db, _ := mpf.Open(mpf.Config{})
//	db.CreateTable(contracts) // *mpf.Relation values
//	db.CreateTable(location)
//	db.CreateView("invest", []string{"contracts", "location"})
//	res, _ := db.Query(&mpf.QuerySpec{
//		View:      "invest",
//		GroupVars: []string{"wid"},
//	})
//	fmt.Println(res.Relation)
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package mpf

import (
	"math/rand"

	"mpf/internal/core"
	"mpf/internal/exec"
	"mpf/internal/metrics"
	"mpf/internal/opt"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

// Core data types, aliased from the implementation packages so the public
// surface is a single import.
type (
	// Relation is an in-memory functional relation.
	Relation = relation.Relation
	// Attr is a variable attribute: name plus categorical domain size.
	Attr = relation.Attr
	// Predicate is a conjunction of equality constraints.
	Predicate = relation.Predicate
	// VarSet is a set of variable names.
	VarSet = relation.VarSet
	// Semiring supplies the measure operations (Add/Mul and identities).
	Semiring = semiring.Semiring
	// Optimizer plans MPF queries.
	Optimizer = opt.Optimizer
	// Config parameterizes Open.
	Config = core.Config
	// Database is the engine facade.
	Database = core.Database
	// QuerySpec describes an MPF query against a view.
	QuerySpec = core.QuerySpec
	// Having is a post-aggregation filter on the result measure (the
	// constrained-range query form).
	Having = core.Having
	// HavingOp is the comparison operator of a Having clause.
	HavingOp = core.HavingOp
	// Result is a query answer with plan and measurements.
	Result = core.Result
	// RunStats describes one plan execution (wall, IO, per-operator
	// actuals, trace spans).
	RunStats = exec.RunStats
	// Span is one operator's execution window within a query trace.
	Span = exec.Span
	// MorselStat is one operator kind's morsel-scheduler work in
	// RunStats.Morsels (parallel runs only).
	MorselStat = exec.MorselStat
	// MetricsSnapshot is a point-in-time copy of the engine-wide metrics,
	// returned by Database.Metrics.
	MetricsSnapshot = metrics.Snapshot
	// OpKindStats aggregates executed operators of one kind in a
	// MetricsSnapshot.
	OpKindStats = metrics.OpKindStats
	// ResultCacheStats reports the inter-query result cache
	// (Config.ResultCacheBytes) in a MetricsSnapshot.
	ResultCacheStats = metrics.ResultCacheStats
	// Snapshot pins one immutable catalog version for snapshot-isolation
	// reads: acquire with Database.AcquireSnapshot, thread through
	// contexts with WithSnapshot, release exactly once when done.
	Snapshot = core.Snapshot
	// MVCCStats reports the multi-version catalog (versions live and
	// reclaimed, commit outcomes, snapshot pins, writer stall) in a
	// MetricsSnapshot.
	MVCCStats = metrics.MVCCStats
	// CancelError wraps the context error that ended a query; it matches
	// both ErrCanceled and the wrapped context error via errors.Is.
	CancelError = core.CancelError
)

// Typed sentinel errors returned from the Database API; match them with
// errors.Is.
var (
	// ErrUnknownTable reports a reference to a table the database does not
	// have.
	ErrUnknownTable = core.ErrUnknownTable
	// ErrUnknownView reports a reference to an unregistered MPF view.
	ErrUnknownView = core.ErrUnknownView
	// ErrDuplicateTable reports CreateTable of an existing name.
	ErrDuplicateTable = core.ErrDuplicateTable
	// ErrNotFunctional reports a relation that is not a functional
	// relation (its variables do not determine the measure), or a write
	// that would make a table one: an Insert of an assignment or
	// declared-key value already present, a DeclareKey the data violates.
	ErrNotFunctional = core.ErrNotFunctional
	// ErrSchemaMismatch reports a write or query that does not fit the
	// schema: wrong arity, a value outside its attribute's domain, a key
	// column that is not an attribute, a query variable outside its view,
	// or a mismatched hypothetical table.
	ErrSchemaMismatch = core.ErrSchemaMismatch
	// ErrUnknownExecMode reports an invalid QuerySpec.Exec value.
	ErrUnknownExecMode = core.ErrUnknownExecMode
	// ErrCanceled reports a query ended by its context; the error also
	// matches context.Canceled or context.DeadlineExceeded.
	ErrCanceled = core.ErrCanceled
	// ErrIO reports a query ended by a storage fault that escaped the
	// buffer pool's bounded retry. The query fails cleanly and the
	// database keeps serving.
	ErrIO = core.ErrIO
	// ErrCorrupt reports a query that hit a page whose checksum failed
	// verification; corrupt bytes never reach query answers.
	ErrCorrupt = core.ErrCorrupt
	// ErrBudget reports a query stopped by its per-query resource budget
	// (WithBudget / SessionOptions.Budget); errors.As against
	// *BudgetError tells which bound tripped.
	ErrBudget = core.ErrBudget
	// ErrPoolExhausted reports a query that found every buffer-pool frame
	// pinned by concurrent work; it may succeed when retried.
	ErrPoolExhausted = core.ErrPoolExhausted
)

// Execution modes for QuerySpec.Exec.
const (
	// EngineExec runs plans on the paged, IO-accounted engine.
	EngineExec = core.EngineExec
	// MemoryExec interprets plans over in-memory relations.
	MemoryExec = core.MemoryExec
)

// Comparison operators for Having clauses.
const (
	HavingLT = core.HavingLT
	HavingLE = core.HavingLE
	HavingGT = core.HavingGT
	HavingGE = core.HavingGE
	HavingEQ = core.HavingEQ
)

// Predefined semirings.
var (
	// SumProduct is (ℝ, +, ×): totals and probability marginals.
	SumProduct = semiring.SumProduct
	// MinProduct aggregates with min over products.
	MinProduct = semiring.MinProduct
	// MaxProduct aggregates with max over products (Viterbi).
	MaxProduct = semiring.MaxProduct
	// MinSum is the tropical semiring (min, +).
	MinSum = semiring.MinSum
	// MaxSum is (max, +).
	MaxSum = semiring.MaxSum
	// LogSumExp is sum-product in log space (numerically stable
	// marginalization of tiny probabilities).
	LogSumExp = semiring.LogSumExp
	// BoolOrAnd is ({0,1}, ∨, ∧).
	BoolOrAnd = semiring.BoolOrAnd
)

// Open creates a database.
func Open(cfg Config) (*Database, error) { return core.Open(cfg) }

// NewRelation creates an empty functional relation with the given
// attributes.
func NewRelation(name string, attrs []Attr) (*Relation, error) {
	return relation.New(name, attrs)
}

// FromRows builds a functional relation from explicit rows and measures.
func FromRows(name string, attrs []Attr, rows [][]int32, measures []float64) (*Relation, error) {
	return relation.FromRows(name, attrs, rows, measures)
}

// CompleteRelation builds a relation containing every domain combination
// with measures from fn.
func CompleteRelation(name string, attrs []Attr, fn func(vals []int32) float64) (*Relation, error) {
	return relation.Complete(name, attrs, fn)
}

// SemiringByName resolves a semiring by its report name, e.g.
// "sum-product" or "min-product".
func SemiringByName(name string) (Semiring, error) { return semiring.ByName(name) }

// OptimizerByName resolves an optimizer by its report name, e.g. "cs",
// "cs+linear", "cs+nonlinear", "ve(deg)", "ve(width)+ext".
func OptimizerByName(name string) (Optimizer, error) { return opt.ByName(name) }

// Optimizers lists the report names of all optimizer variants.
func Optimizers() []string { return opt.Names() }

// AllOptimizers returns every registered optimizer variant — the paper's
// fifteen plus the engine extras (the statistics-free greedy planner);
// rng seeds the random elimination heuristic (nil for a fixed seed).
func AllOptimizers(rng *rand.Rand) []Optimizer { return append(opt.All(rng), opt.Extras()...) }
