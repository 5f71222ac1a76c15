package opt

import (
	"math/rand"
	"testing"

	"mpf/internal/bayes"
	"mpf/internal/cost"
	"mpf/internal/relation"
)

// TestDegreePickAllocatesConstant checks that scoring every candidate of
// a 24-relation S under the degree heuristic works in the state's reused
// bitsets and scratch arrays: one pick allocates a small constant, not a
// variable-set copy per candidate and relation.
func TestDegreePickAllocatesConstant(t *testing.T) {
	net, err := bayes.Random(rand.New(rand.NewSource(2007)), 24, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rels, err := net.Relations()
	if err != nil {
		t.Fatal(err)
	}
	b, tables := goldenBuilder(t, rels, nil, cost.Simple{})
	q := &Query{Tables: tables, GroupVars: []string{"x17"}, Pred: relation.Predicate{"x4": 1}}
	leaves, err := buildLeaves(q, b)
	if err != nil {
		t.Fatal(err)
	}
	st := newVEState(leaves, q.GroupVars)
	cands := st.candidates()

	var picked int
	allocs := testing.AllocsPerRun(20, func() {
		picked = st.pick(Degree, cands, b, nil)
	})
	if allocs > 2 {
		t.Fatalf("one degree pick over %d relations allocated %.0f times; want a small constant", len(st.s), allocs)
	}
	if picked < 0 || !cands.has(picked) {
		t.Fatalf("pick returned %d, not a candidate", picked)
	}
}
