package opt

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mpf/internal/catalog"
	"mpf/internal/cost"
	"mpf/internal/plan"
)

// LinearityTest applies the paper's plan-linearity heuristic (Eq. 1) for
// a query variable: with σ_X the variable's domain size and σ̂_X the
// cardinality of the smallest base relation containing it, a linear plan
// is admissible when σ_X² + σ̂_X·log σ̂_X ≥ σ_X·σ̂_X. When the test fails,
// nonlinear plans can reduce that relation before joining and the
// nonlinear search space should be used.
func LinearityTest(cat *catalog.Catalog, queryVar string) (admissible bool, sigma, sigmaHat float64, err error) {
	domain, minCard, ok := cat.DomainSize(queryVar)
	if !ok {
		return false, 0, 0, fmt.Errorf("opt: variable %s not found in any table", queryVar)
	}
	sigma, sigmaHat = float64(domain), float64(minCard)
	return cost.LinearPlanAdmissible(sigma, sigmaHat), sigma, sigmaHat, nil
}

// Result pairs an optimized plan with the time spent planning, the two
// axes of the paper's Figure 10 trade-off. Planner names the optimizer
// that actually produced the plan — for Budgeted this is the winner of
// the budget race, not the wrapper.
type Result struct {
	Plan     *plan.Node
	Optimize time.Duration
	Planner  string
}

// RunContext optimizes q with o, measuring planning time. ctx is
// observed before and after the optimize phase. Optimizers themselves are pure CPU work bounded by
// the plan search space, so phase-boundary checks keep the Optimizer
// interface unchanged while still letting a canceled query skip planning
// (and discard a plan that finished after the deadline).
func RunContext(ctx context.Context, o Optimizer, q *Query, b *plan.Builder) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	var (
		p      *plan.Node
		winner string
		err    error
	)
	if bo, ok := o.(Budgeted); ok {
		p, winner, err = bo.OptimizeWinner(q, b)
	} else {
		p, err = o.Optimize(q, b)
		winner = o.Name()
	}
	if err != nil {
		return Result{}, err
	}
	res := Result{Plan: p, Optimize: time.Since(start), Planner: winner}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// All returns every optimizer variant evaluated in the paper, in report
// order. rng seeds the random heuristic (nil for a fixed seed).
func All(rng *rand.Rand) []Optimizer {
	return []Optimizer{
		CS{},
		CSPlus{Linear: true},
		CSPlus{},
		VE{Heuristic: Degree},
		VE{Heuristic: Degree, Extended: true},
		VE{Heuristic: Width},
		VE{Heuristic: Width, Extended: true},
		VE{Heuristic: ElimCost},
		VE{Heuristic: ElimCost, Extended: true},
		VE{Heuristic: DegreeWidth},
		VE{Heuristic: DegreeWidth, Extended: true},
		VE{Heuristic: DegreeElimCost},
		VE{Heuristic: DegreeElimCost, Extended: true},
		VE{Heuristic: RandomOrder, Rng: rng},
		VE{Heuristic: RandomOrder, Extended: true, Rng: rng},
	}
}

// Extras returns the optimizers that are available by name but are not
// part of the paper's evaluated variant set: currently only the
// statistics-free Greedy planner.
func Extras() []Optimizer {
	return []Optimizer{Greedy{}}
}

// ByName resolves an optimizer by its report name, e.g. "cs+nonlinear",
// "ve(deg)+ext" or "greedy".
func ByName(name string) (Optimizer, error) {
	for _, o := range append(All(nil), Extras()...) {
		if o.Name() == name {
			return o, nil
		}
	}
	return nil, fmt.Errorf("opt: unknown optimizer %q", name)
}

// Names lists the report names of all optimizer variants, paper variants
// first followed by the extras.
func Names() []string {
	all := append(All(nil), Extras()...)
	names := make([]string, len(all))
	for i, o := range all {
		names[i] = o.Name()
	}
	return names
}
