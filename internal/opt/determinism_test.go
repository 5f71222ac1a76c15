package opt

import (
	"testing"

	"mpf/internal/plan"
)

// TestRepeatedPlanningIsDeterministic is the regression test for the
// plan-choice determinism bugfixes: the same query planned repeatedly by
// the same optimizer must always yield the same plan, byte for byte.
// Complete synthetic FRs over a uniform domain make the search spaces full
// of exact cost ties (symmetric tables), which is exactly where the old
// generation-order tie-breaks and the map-iteration-order float products
// in the VE scores could flip the winner between runs.
func TestRepeatedPlanningIsDeterministic(t *testing.T) {
	fixtures := map[string]*fixture{
		"chain": smallChain(t, 5),
		"star":  smallStar(t, 5),
		"multi": smallMultiStar(t, 6),
	}
	opts := append(All(nil), Greedy{})
	for name, f := range fixtures {
		q := &Query{Tables: f.ds.ViewTables, GroupVars: f.ds.QueryVars[:1]}
		for _, o := range opts {
			var want string
			for rep := 0; rep < 6; rep++ {
				// A fresh builder each repetition: determinism must not
				// depend on shared memoization or allocation order.
				p, err := o.Optimize(q, newFixture(t, f.ds).b)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, o.Name(), err)
				}
				got := p.String()
				if rep == 0 {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s/%s: repetition %d chose a different plan:\n--- first ---\n%s--- now ---\n%s",
						name, o.Name(), rep, want, got)
				}
			}
		}
	}
}

// TestCheapestBreaksTiesLexicographically checks the cost-tie contract
// directly: among equal-cost candidates the lexicographically smallest
// canonical plan wins, regardless of the order they are offered in.
func TestCheapestBreaksTiesLexicographically(t *testing.T) {
	f := smallChain(t, 3)
	a, err := f.b.Scan(f.ds.ViewTables[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.b.Scan(f.ds.ViewTables[1])
	if err != nil {
		t.Fatal(err)
	}
	// Complete FRs over the same domain: both join orders cost the same.
	lr := f.b.Join(a, b)
	rl := f.b.Join(b, a)
	if lr.TotalCost != rl.TotalCost {
		t.Fatalf("fixture not a tie: %v vs %v", lr.TotalCost, rl.TotalCost)
	}
	want := canonKey(lr)
	if canonKey(rl) < want {
		want = canonKey(rl)
	}
	// best[1] = a, best[2] = b; mask 3 is unsettled, so offers naming it
	// are skipped.
	ea, eb, none := entry{m: 1}, entry{m: 2}, entry{m: 3}
	for _, offers := range [][][2]entry{
		{{ea, eb}, {eb, ea}},
		{{eb, ea}, {ea, eb}},
		{{none, eb}, {eb, ea}, {ea, none}, {ea, eb}},
	} {
		c := cheapest{b: f.b, t: &dpTable{best: []*plan.Node{nil, a, b, nil}}}
		for _, o := range offers {
			c.offer(o[0], o[1])
		}
		if got := canonKey(c.join()); got != want {
			t.Fatalf("offers %v chose %s, want %s", offers, got, want)
		}
	}
}
