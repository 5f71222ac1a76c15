package opt

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"mpf/internal/plan"
)

// chainLeaves returns the leaves and query of an n-table chain view.
func chainLeaves(t *testing.T, n int) (*fixture, []*plan.Node, *Query) {
	t.Helper()
	f := smallChain(t, n)
	q := &Query{Tables: f.ds.ViewTables, GroupVars: f.ds.QueryVars[:1]}
	leaves, err := buildLeaves(q, f.b)
	if err != nil {
		t.Fatal(err)
	}
	return f, leaves, q
}

// TestPricingAllocatesNothing checks that pricing a join candidate, the
// step the subset DPs repeat once per split, allocates nothing: neither
// Builder.JoinCost nor an offer that loses on cost.
func TestPricingAllocatesNothing(t *testing.T) {
	f, leaves, _ := chainLeaves(t, 3)
	l, r := f.b.Join(leaves[0], leaves[1]), leaves[2]
	if n := testing.AllocsPerRun(100, func() { _ = f.b.JoinCost(l, r) }); n != 0 {
		t.Fatalf("JoinCost allocates %v times per call", n)
	}
	if got, want := f.b.JoinCost(l, r), f.b.Join(l, r).TotalCost; got != want {
		t.Fatalf("JoinCost = %v, built join costs %v", got, want)
	}

	tbl := &dpTable{best: []*plan.Node{nil, leaves[0], leaves[1], l}}
	c := cheapest{b: f.b, t: tbl}
	c.offer(entry{m: 1}, entry{m: 2})
	// Joining the settled pair to itself costs more than joining its
	// operands, so these offers are priced and rejected.
	if n := testing.AllocsPerRun(100, func() { c.offer(entry{m: 3}, entry{m: 3}) }); n != 0 {
		t.Fatalf("a losing offer allocates %v times", n)
	}
	if c.l != (entry{m: 1}) || c.r != (entry{m: 2}) {
		t.Fatalf("losing offer replaced the winner: %v|%v", c.l, c.r)
	}
}

// TestBushyDPBuildsOnlyWinners guards the price-before-build shape of the
// subset DP: over a 12-leaf chain with CS+ pushdown it prices every split
// (up to four candidates each) but builds one join per mask, so it must
// allocate fewer objects than there are splits. Building every candidate,
// as the DP once did, allocates several objects per candidate.
func TestBushyDPBuildsOnlyWinners(t *testing.T) {
	const n = 12
	f, leaves, q := chainLeaves(t, n)
	splits := 0
	for m := uint64(1); m < 1<<n; m++ {
		if k := bits.OnesCount64(m); k >= 2 {
			splits += 1<<(k-1) - 1
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := bushyJoinDP(f.b, leaves, nil, q.GroupVars, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= float64(splits) {
		t.Fatalf("bushyJoinDP over %d leaves allocates %v objects for %d splits", n, allocs, splits)
	}
}

// TestJoinKeyLessMatchesCanonKey checks the memoized tie comparison
// against the rendered keys it replaces: for random pairs of operands,
// joinKeyLess on the operands' keys must agree with comparing canonKey of
// the two joins. Operands are the subplans of every golden plan, plus
// scans whose keys are prefixes of one another, where the "|" or ")"
// that follows an operand decides the order.
func TestJoinKeyLessMatchesCanonKey(t *testing.T) {
	seen := make(map[*plan.Node]bool)
	var pool []*plan.Node
	var walk func(*plan.Node)
	walk = func(n *plan.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		pool = append(pool, n)
		walk(n.Left)
		walk(n.Right)
	}
	for _, c := range goldenCases(t) {
		for _, o := range c.opts {
			p, err := o.Optimize(c.q, c.b)
			if err != nil {
				t.Fatal(err)
			}
			walk(p)
		}
	}
	scan := func(table string) *plan.Node { return &plan.Node{Op: plan.OpScan, Table: table} }
	prefixed := []*plan.Node{scan("t"), scan("t!"), scan("t("), scan("ta"), scan("t~"), scan("t|"), scan("t)")}
	pool = append(pool, prefixed...)

	join := func(l, r *plan.Node) *plan.Node { return &plan.Node{Op: plan.OpJoin, Left: l, Right: r} }
	check := func(l1, r1, l2, r2 *plan.Node) {
		t.Helper()
		want := canonKey(join(l1, r1)) < canonKey(join(l2, r2))
		if got := joinKeyLess(canonKey(l1), canonKey(r1), canonKey(l2), canonKey(r2)); got != want {
			t.Fatalf("joinKeyLess(%s | %s, %s | %s) = %v, canonKey order says %v",
				canonKey(l1), canonKey(r1), canonKey(l2), canonKey(r2), got, want)
		}
	}

	// Every ordered pair of prefixed scans, on either side.
	x := prefixed[0]
	for _, a := range prefixed {
		for _, b := range prefixed {
			check(a, x, b, x)
			check(x, a, x, b)
			check(a, b, b, a)
		}
	}
	// Where a plain comparison of the operand keys would disagree: "s:t" <
	// "s:ta", but "s:ta|" < "s:t|" because 'a' sorts before '|'; and
	// "s:t" < "s:t!", but "s:t!)" < "s:t)".
	if !joinKeyLess("s:ta", "s:t", "s:t", "s:t") || !joinKeyLess("s:t", "s:t!", "s:t", "s:t") {
		t.Fatal("the separator after an operand must decide prefix ties")
	}

	// In key order, neighbours share the longest prefixes, so pairing an
	// operand with its neighbour runs the comparison past the first piece.
	sort.Slice(pool, func(i, j int) bool { return canonKey(pool[i]) < canonKey(pool[j]) })
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20000; i++ {
		a, b := rng.Intn(len(pool)), rng.Intn(len(pool))
		l1, r1, l2, r2 := pool[a], pool[b], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		switch i % 4 {
		case 1:
			l2 = pool[min(a+1, len(pool)-1)]
		case 2:
			l2, r2 = l1, pool[min(b+1, len(pool)-1)]
		case 3:
			l2, r2 = l1, r1 // equal keys: neither is less
		}
		check(l1, r1, l2, r2)
	}
}
