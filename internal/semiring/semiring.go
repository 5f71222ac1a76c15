// Package semiring defines the commutative semirings over which MPF
// (Marginalize-a-Product-Function) queries are evaluated.
//
// An MPF query combines functional relations with a multiplicative
// operation (the product join) and collapses sub-domains with an additive
// aggregate (the marginalizing GroupBy). The optimization theory of the
// paper — pushing GroupBy nodes through product joins — is sound exactly
// when the two operations form a commutative semiring: both operations are
// associative and commutative, the additive operation distributes over the
// multiplicative one, and identity elements exist for both.
//
// Measures are represented as float64 throughout. A Semiring supplies the
// two operations and their identities; semirings whose multiplicative
// structure admits division (semifields) additionally implement Divider,
// which Belief Propagation requires for its update semijoins.
package semiring

import (
	"fmt"
	"math"
)

// Semiring is a commutative semiring over float64 measures.
//
// Implementations must satisfy, for all a, b, c:
//
//	Add(a,b) == Add(b,a)                 Mul(a,b) == Mul(b,a)
//	Add(Add(a,b),c) == Add(a,Add(b,c))   Mul(Mul(a,b),c) == Mul(a,Mul(b,c))
//	Add(a, Zero()) == a                  Mul(a, One()) == a
//	Mul(a, Add(b,c)) == Add(Mul(a,b), Mul(a,c))
//
// These laws are verified by property tests in this package.
type Semiring interface {
	// Add is the additive (aggregation) operation.
	Add(a, b float64) float64
	// Mul is the multiplicative (product-join) operation.
	Mul(a, b float64) float64
	// Zero is the additive identity. It is also the value an aggregation
	// over an empty group would produce.
	Zero() float64
	// One is the multiplicative identity; non-functional relations behave
	// as functional relations whose implicit measure is One.
	One() float64
	// Name returns a short stable identifier such as "sum-product".
	Name() string
}

// Divider is implemented by semirings whose multiplicative monoid admits
// division (a semifield, minus the zero element). Belief Propagation's
// update semijoin divides previously propagated measures back out, so a
// workload cache can only be maintained over a Divider semiring.
type Divider interface {
	// Div returns the measure x such that Mul(b, x) == a, when defined.
	// Division by the multiplicative absorbing element (e.g. 0 in
	// sum-product) returns Zero-measure semantics defined per semiring.
	Div(a, b float64) float64
}

// sumProduct is the ordinary (ℝ, +, ×) semiring used for probability
// marginalization and for totals in decision-support queries.
type sumProduct struct{}

func (sumProduct) Add(a, b float64) float64 { return a + b }
func (sumProduct) Mul(a, b float64) float64 { return a * b }
func (sumProduct) Zero() float64            { return 0 }
func (sumProduct) One() float64             { return 1 }
func (sumProduct) Name() string             { return "sum-product" }

// Div implements Divider. Division by zero yields zero: in Belief
// Propagation a zero divisor can only arise from a measure that was itself
// multiplied in as zero, in which case the product is zero too and the
// correct quotient contribution is zero.
func (sumProduct) Div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minProduct aggregates with min and combines with ×. It answers queries
// such as "minimum total investment" where the investment is a product of
// per-relation factors. Measures are assumed non-negative so that × is
// monotone and distributivity min(a·b, a·c) = a·min(b,c) holds.
type minProduct struct{}

func (minProduct) Add(a, b float64) float64 { return math.Min(a, b) }
func (minProduct) Mul(a, b float64) float64 { return a * b }
func (minProduct) Zero() float64            { return math.Inf(1) }
func (minProduct) One() float64             { return 1 }
func (minProduct) Name() string             { return "min-product" }

// maxProduct aggregates with max and combines with ×; the Viterbi semiring
// over non-negative measures (most-probable-explanation inference).
type maxProduct struct{}

func (maxProduct) Add(a, b float64) float64 { return math.Max(a, b) }
func (maxProduct) Mul(a, b float64) float64 { return a * b }
func (maxProduct) Zero() float64            { return math.Inf(-1) }
func (maxProduct) One() float64             { return 1 }
func (maxProduct) Name() string             { return "max-product" }

// Div implements Divider for max-product (same caveats as sum-product).
func (maxProduct) Div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minSum is the tropical semiring (ℝ∪{+∞}, min, +): shortest paths,
// log-domain most-likely inference, and additive cost minimization.
type minSum struct{}

func (minSum) Add(a, b float64) float64 { return math.Min(a, b) }
func (minSum) Mul(a, b float64) float64 { return a + b }
func (minSum) Zero() float64            { return math.Inf(1) }
func (minSum) One() float64             { return 0 }
func (minSum) Name() string             { return "min-sum" }

// Div implements Divider: the inverse of + is -.
func (minSum) Div(a, b float64) float64 { return a - b }

// maxSum is (ℝ∪{-∞}, max, +): longest paths and log-domain Viterbi.
type maxSum struct{}

func (maxSum) Add(a, b float64) float64 { return math.Max(a, b) }
func (maxSum) Mul(a, b float64) float64 { return a + b }
func (maxSum) Zero() float64            { return math.Inf(-1) }
func (maxSum) One() float64             { return 0 }
func (maxSum) Name() string             { return "max-sum" }

// Div implements Divider: the inverse of + is -.
func (maxSum) Div(a, b float64) float64 { return a - b }

// logSumExp is the sum-product semiring in log space: measures are
// log-probabilities, the multiplicative operation is +, and the additive
// operation is the numerically stable log-sum-exp. Marginalizing many
// small probabilities underflows in linear space; in log space the same
// MPF query stays stable (the standard trick for large Bayesian
// networks).
type logSumExp struct{}

func (logSumExp) Add(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

func (logSumExp) Mul(a, b float64) float64 {
	// -Inf (log 0) absorbs, even against +Inf.
	if math.IsInf(a, -1) || math.IsInf(b, -1) {
		return math.Inf(-1)
	}
	return a + b
}

func (logSumExp) Zero() float64 { return math.Inf(-1) }
func (logSumExp) One() float64  { return 0 }
func (logSumExp) Name() string  { return "log-sum-exp" }

// Div implements Divider: division of probabilities is subtraction of
// logs; dividing by log 0 returns Zero (same convention as sum-product).
func (logSumExp) Div(a, b float64) float64 {
	if math.IsInf(b, -1) {
		return math.Inf(-1)
	}
	return a - b
}

// boolOrAnd is the ({0,1}, ∨, ∧) semiring mentioned in the paper: the
// product join becomes conjunction and marginalization becomes existential
// quantification (constraint satisfiability). Measures are 0 or 1.
type boolOrAnd struct{}

func (boolOrAnd) Add(a, b float64) float64 {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}

func (boolOrAnd) Mul(a, b float64) float64 {
	if a != 0 && b != 0 {
		return 1
	}
	return 0
}

func (boolOrAnd) Zero() float64 { return 0 }

func (boolOrAnd) One() float64 { return 1 }
func (boolOrAnd) Name() string { return "bool-or-and" }

// Predefined semirings. They are stateless; the package-level variables may
// be shared freely across goroutines.
var (
	SumProduct Semiring = sumProduct{}
	MinProduct Semiring = minProduct{}
	MaxProduct Semiring = maxProduct{}
	MinSum     Semiring = minSum{}
	MaxSum     Semiring = maxSum{}
	LogSumExp  Semiring = logSumExp{}
	BoolOrAnd  Semiring = boolOrAnd{}
)

// All returns every predefined semiring, in a stable order. Intended for
// exhaustive property tests.
func All() []Semiring {
	return []Semiring{SumProduct, MinProduct, MaxProduct, MinSum, MaxSum, LogSumExp, BoolOrAnd}
}

// ByName returns the predefined semiring with the given Name.
func ByName(name string) (Semiring, error) {
	for _, s := range All() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("semiring: unknown semiring %q", name)
}

// Sum folds Add over the measures, starting from Zero.
func Sum(s Semiring, measures ...float64) float64 {
	acc := s.Zero()
	for _, m := range measures {
		acc = s.Add(acc, m)
	}
	return acc
}

// Product folds Mul over the measures, starting from One.
func Product(s Semiring, measures ...float64) float64 {
	acc := s.One()
	for _, m := range measures {
		acc = s.Mul(acc, m)
	}
	return acc
}
