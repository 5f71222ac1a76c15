// Package cost implements the cost models and cardinality estimation used
// by the MPF optimizers.
//
// The paper motivates cost-based optimization by observing that, unlike
// the GDL literature's operation-count metric, relational operands are
// disk resident and multiple physical algorithms exist per operator, so
// cost must reflect IO (paper §5). Two models are provided:
//
//   - Simple: the analytical model used in the paper's linearity analysis
//     (§5.1): joining R and S costs |R|·|S| and aggregating R costs
//     |R|·log|R|.
//   - PageIO: page-based IO for the engine in internal/exec, whose
//     materializing operators read their inputs and write their outputs
//     through a buffer pool: cost = pages(in) + pages(out) per operator.
//
// Cardinality estimation follows the classical System-R style formulas
// specialized to product joins: containment of value sets on shared
// variables, and group-by output bounded by the product of distinct
// counts of the grouping variables.
package cost

import (
	"math"
	"sort"
	"strings"

	"mpf/internal/storage"
)

// Estimate summarizes a (sub)plan's output for costing purposes.
//
// Distinct is sorted by variable name and holds each variable once, so
// every estimate below walks it in one fixed order: float division and
// multiplication do not associate, and an order that varied between runs
// would let the same query price (and hence plan) differently.
type Estimate struct {
	Card     float64       // estimated tuple count
	Arity    int           // number of variable attributes
	Distinct []VarDistinct // per-variable distinct value estimates, sorted by Var
}

// VarDistinct is one variable's distinct value estimate.
type VarDistinct struct {
	Var string
	N   float64
}

// DistinctOf returns the distinct estimate of variable v, if e has one.
func (e Estimate) DistinctOf(v string) (float64, bool) {
	i, ok := e.find(v)
	if !ok {
		return 0, false
	}
	return e.Distinct[i].N, true
}

// find returns v's position in Distinct, or where it would be inserted.
func (e Estimate) find(v string) (int, bool) {
	i := sort.Search(len(e.Distinct), func(i int) bool { return e.Distinct[i].Var >= v })
	return i, i < len(e.Distinct) && e.Distinct[i].Var == v
}

// put sets v's distinct estimate, inserting it in name order if absent.
func (e *Estimate) put(v string, n float64) {
	i, ok := e.find(v)
	if !ok {
		e.Distinct = append(e.Distinct, VarDistinct{})
		copy(e.Distinct[i+1:], e.Distinct[i:])
	}
	e.Distinct[i] = VarDistinct{Var: v, N: n}
}

// Pages returns the estimated page footprint of the output.
func (e Estimate) Pages() float64 {
	if e.Card <= 0 {
		return 0
	}
	per := float64(storage.TuplesPerPage(e.Arity))
	return math.Ceil(e.Card / per)
}

// Model prices individual physical operations. Costs are cumulative: the
// optimizer adds operator costs along a plan.
type Model interface {
	// ScanCost prices reading a base table with the given estimate.
	ScanCost(t Estimate) float64
	// JoinCost prices a product join producing out from l and r. out
	// carries Card and Arity only (JoinSize), so a candidate join is
	// priced without building its estimate.
	JoinCost(l, r, out Estimate) float64
	// GroupByCost prices aggregating in into out.
	GroupByCost(in, out Estimate) float64
	// SelectCost prices filtering in into out.
	SelectCost(in, out Estimate) float64
	// Name identifies the model in reports.
	Name() string
}

// Simple is the paper's analytical model: |R||S| per join, |R| log |R| per
// aggregate. Scans and selections are free (they are absorbed into the
// operator that consumes them in the analytical setting).
type Simple struct{}

// ScanCost implements Model.
func (Simple) ScanCost(Estimate) float64 { return 0 }

// JoinCost implements Model.
func (Simple) JoinCost(l, r, _ Estimate) float64 { return l.Card * r.Card }

// GroupByCost implements Model.
func (Simple) GroupByCost(in, _ Estimate) float64 {
	if in.Card <= 1 {
		return in.Card
	}
	return in.Card * math.Log2(in.Card)
}

// SelectCost implements Model.
func (Simple) SelectCost(in, _ Estimate) float64 { return 0 }

// Name implements Model.
func (Simple) Name() string { return "simple" }

// PageIO models the materializing executor: every operator reads its
// input pages and writes its output pages through the buffer pool. Joins
// additionally pay a per-tuple CPU surcharge folded into page units so
// that plans producing enormous intermediate results are penalized even
// when wide tuples pack few pages.
type PageIO struct {
	// CPUPerTuple converts processed tuples into page-cost units;
	// 0.001 ≈ one page per thousand tuples handled.
	CPUPerTuple float64
}

// DefaultPageIO returns a PageIO model with the default CPU surcharge.
func DefaultPageIO() PageIO { return PageIO{CPUPerTuple: 0.002} }

// ScanCost implements Model.
func (m PageIO) ScanCost(t Estimate) float64 { return t.Pages() }

// JoinCost implements Model.
func (m PageIO) JoinCost(l, r, out Estimate) float64 {
	// Inputs were already paid for by their producers; a join reads both
	// sides (build + probe) and writes its result.
	return l.Pages() + r.Pages() + out.Pages() +
		m.CPUPerTuple*(l.Card+r.Card+out.Card)
}

// GroupByCost implements Model.
func (m PageIO) GroupByCost(in, out Estimate) float64 {
	return in.Pages() + out.Pages() + m.CPUPerTuple*in.Card
}

// SelectCost implements Model.
func (m PageIO) SelectCost(in, out Estimate) float64 {
	return in.Pages() + out.Pages() + m.CPUPerTuple*in.Card
}

// Name implements Model.
func (m PageIO) Name() string { return "pageio" }

// JoinSize returns the cardinality and arity of the product join of two
// inputs, leaving Distinct empty: it is all a Model's JoinCost reads, so a
// join is priced without allocating. Containment on shared variables gives
// |L||R| / Π max(dL(v), dR(v)), divided in ascending variable order.
func JoinSize(l, r Estimate) Estimate {
	card, arity, _ := joinMerge(l, r, nil)
	return Estimate{Card: card, Arity: arity}
}

// JoinEstimate estimates the product join of two inputs: JoinSize, with
// the distinct count of a shared variable becoming min(dL, dR) and every
// distinct capped by the output cardinality.
func JoinEstimate(l, r Estimate) Estimate {
	var out Estimate
	out.Card, out.Arity, out.Distinct = joinMerge(l, r, make([]VarDistinct, 0, len(l.Distinct)+len(r.Distinct)))
	capDistinct(&out)
	return out
}

// joinMerge walks the sorted distinct lists of l and r together. It
// returns the join's cardinality and variable count, and appends the
// joined distincts to dst unless dst is nil.
func joinMerge(l, r Estimate, dst []VarDistinct) (card float64, arity int, out []VarDistinct) {
	card = l.Card * r.Card
	i, j := 0, 0
	for i < len(l.Distinct) || j < len(r.Distinct) {
		var c int
		switch {
		case j == len(r.Distinct):
			c = -1
		case i == len(l.Distinct):
			c = 1
		default:
			c = strings.Compare(l.Distinct[i].Var, r.Distinct[j].Var)
		}
		var d VarDistinct
		switch {
		case c < 0:
			d = l.Distinct[i]
			i++
		case c > 0:
			d = r.Distinct[j]
			j++
		default:
			dl, dr := l.Distinct[i].N, r.Distinct[j].N
			card /= max(dl, dr, 1)
			d = VarDistinct{Var: l.Distinct[i].Var, N: min(dl, dr)}
			i++
			j++
		}
		arity++
		if dst != nil {
			dst = append(dst, d)
		}
	}
	if card < 1 {
		card = 1
	}
	return card, arity, dst
}

// GroupByEstimate estimates grouping in onto the given variables: output
// cardinality is the product of their distinct counts, capped by the
// input cardinality.
func GroupByEstimate(in Estimate, groupVars []string) Estimate {
	out := Estimate{Distinct: make([]VarDistinct, 0, len(groupVars))}
	prod := 1.0
	for _, v := range groupVars {
		d, ok := in.DistinctOf(v)
		if !ok {
			d = 1
		}
		out.put(v, d)
		prod *= d
		if prod > 1e300 {
			prod = 1e300
		}
	}
	out.Card = math.Min(prod, math.Max(in.Card, 1))
	out.Arity = len(groupVars)
	capDistinct(&out)
	return out
}

// SelectEstimate estimates an equality selection on the given variables:
// each constrained variable contributes selectivity 1/distinct and its
// distinct count collapses to 1.
func SelectEstimate(in Estimate, constrained []string) Estimate {
	out := Estimate{
		Card:     in.Card,
		Arity:    in.Arity,
		Distinct: append(make([]VarDistinct, 0, len(in.Distinct)+len(constrained)), in.Distinct...),
	}
	for _, v := range constrained {
		d, ok := in.DistinctOf(v)
		if !ok || d < 1 {
			d = 1
		}
		out.Card /= d
		out.put(v, 1)
	}
	if out.Card < 1 {
		out.Card = 1
	}
	capDistinct(&out)
	return out
}

// capDistinct clamps every distinct estimate to the output cardinality.
func capDistinct(e *Estimate) {
	for i, d := range e.Distinct {
		if d.N > e.Card {
			e.Distinct[i].N = e.Card
		}
		if d.N < 1 {
			e.Distinct[i].N = 1
		}
	}
}

// LinearPlanAdmissible implements the paper's plan-linearity test (Eq. 1):
// for query variable X with domain size sigma and smallest containing
// base-relation cardinality sigmaHat, a linear plan is admissible if
//
//	σ_X² + σ̂_X·log(σ̂_X) ≥ σ_X·σ̂_X.
//
// When the inequality fails, nonlinear plans can reduce the relation
// containing X before joining and should be considered.
func LinearPlanAdmissible(sigma, sigmaHat float64) bool {
	var lg float64
	if sigmaHat > 1 {
		lg = math.Log2(sigmaHat)
	}
	return sigma*sigma+sigmaHat*lg >= sigma*sigmaHat
}
