package opt

import (
	"testing"
	"time"

	"mpf/internal/cost"
	"mpf/internal/gen"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

// TestTheorem2ScaleSeparation demonstrates the optimization-time
// complexity split of Theorem 2: on a 70-table chain view, Variable
// Elimination (O(M·S·2^S) with connectivity S=2) plans in well under a
// second, while the Selinger-style dynamic programs (O(N·2^N)) refuse
// beyond their table limit rather than exploring 2^70 states. The view's
// 71 variables also take VE's elimination bitsets past one word.
func TestTheorem2ScaleSeparation(t *testing.T) {
	ds, err := gen.Synthetic(gen.SyntheticConfig{Kind: gen.Linear, Tables: 70, Domain: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := ds.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	b := plan.NewBuilder(cat, cost.Simple{})
	q := &Query{Tables: ds.ViewTables, GroupVars: []string{"x1"}}

	start := time.Now()
	p, err := VE{Heuristic: Width}.Optimize(q, b)
	if err != nil {
		t.Fatalf("VE must handle 70 tables: %v", err)
	}
	elapsed := time.Since(start)
	if err := plan.Validate(p); err != nil {
		t.Fatal(err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("VE took %v on a 70-table chain; expected sub-second planning", elapsed)
	}
	if got := len(plan.Tables(p)); got != 70 {
		t.Fatalf("plan covers %d tables, want 70", got)
	}
	// Extended VE also scales (its joinplans stay small: 2 tables per
	// elimination on a chain).
	if _, err := (VE{Heuristic: Width, Extended: true}).Optimize(q, b); err != nil {
		t.Fatalf("extended VE must handle 70 tables: %v", err)
	}

	// The subset DPs refuse: 2^70 states would be explored otherwise.
	if _, err := (CSPlus{}).Optimize(q, b); err == nil {
		t.Fatal("nonlinear CS+ must refuse 70 tables (2^70 DP states)")
	}
	if _, err := (CS{}).Optimize(q, b); err == nil {
		t.Fatal("CS must refuse 70 tables")
	}
}

// TestVE20TableCorrectness cross-checks a VE plan on a 10-table chain
// against the in-memory interpreter run of the CS+ plan at the largest
// size the DP still handles, confirming the two agree where both exist.
func TestVELargeChainAgreesWithCSPlus(t *testing.T) {
	ds, err := gen.Synthetic(gen.SyntheticConfig{Kind: gen.Linear, Tables: 10, Domain: 3, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := ds.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	b := plan.NewBuilder(cat, cost.Simple{})
	q := &Query{Tables: ds.ViewTables, GroupVars: []string{"x5"}}
	pVE, err := VE{Heuristic: Width}.Optimize(q, b)
	if err != nil {
		t.Fatal(err)
	}
	pCS, err := CSPlus{}.Optimize(q, b)
	if err != nil {
		t.Fatal(err)
	}
	evalWith := func(p *plan.Node) *relation.Relation {
		r, err := plan.Eval(p, plan.MapResolver(ds.RelationMap()), semiring.SumProduct)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Tolerance absorbs float reassociation across the 12 joins.
	if !relation.Equal(evalWith(pVE), evalWith(pCS), 0, 1e-6) {
		t.Fatal("VE and CS+ disagree on the 10-table chain")
	}
}
