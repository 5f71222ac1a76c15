package opt

import (
	"fmt"
	"math/bits"

	"mpf/internal/plan"
	"mpf/internal/relation"
)

// maxDPTables bounds the table count for the subset dynamic programs; the
// classic Selinger blow-up (Theorem 2: O(N·2^N) for CS+) makes larger
// views impractical, which is precisely the regime where VE wins.
const maxDPTables = 20

// CS is the unmodified Chaudhuri & Shim procedure applied to an MPF
// query. Because it does not recognize the distributivity of the additive
// aggregate with the product join (it assumes aggregates over a single
// column), it cannot push GroupBy nodes into the join tree: the result is
// the best linear join order with a single root GroupBy (Figure 3).
type CS struct{}

// Name implements Optimizer.
func (CS) Name() string { return "cs" }

// Optimize implements Optimizer.
func (CS) Optimize(q *Query, b *plan.Builder) (*plan.Node, error) {
	leaves, err := buildLeaves(q, b)
	if err != nil {
		return nil, err
	}
	top, err := linearJoinDP(b, leaves, nil, false)
	if err != nil {
		return nil, err
	}
	return finishPlan(b, top, q)
}

// CSPlus is the paper's CS+ algorithm: the Selinger-style dynamic program
// extended with the greedy-conservative GroupBy pushdown, aware that the
// aggregate distributes over the product join. Linear selects the
// left-linear search space of Algorithm 1; otherwise the nonlinear (bushy)
// extension of §5.1 is used, comparing four candidates per join (GroupBy
// on neither side, left only, right only, both).
type CSPlus struct {
	Linear bool
}

// Name implements Optimizer.
func (o CSPlus) Name() string {
	if o.Linear {
		return "cs+linear"
	}
	return "cs+nonlinear"
}

// Optimize implements Optimizer.
func (o CSPlus) Optimize(q *Query, b *plan.Builder) (*plan.Node, error) {
	leaves, err := buildLeaves(q, b)
	if err != nil {
		return nil, err
	}
	var top *plan.Node
	if o.Linear {
		top, err = linearJoinDP(b, leaves, q.GroupVars, true)
	} else {
		top, err = bushyJoinDP(b, leaves, nil, q.GroupVars, true)
	}
	if err != nil {
		return nil, err
	}
	return finishPlan(b, top, q)
}

// dpTable is the memo of a subset dynamic program over leaves: best[m]
// is the cheapest plan joining the leaves in mask m. Under CS+ pushdown,
// grouped[m] is best[m] under its safe GroupBy (nil when that GroupBy
// would drop no variable), built once when best[m] is settled rather than
// once per split that uses m as an operand.
type dpTable struct {
	best, grouped []*plan.Node
}

// pushed returns grouped[m], or nil without pushdown.
func (t *dpTable) pushed(m uint64) *plan.Node {
	if t.grouped == nil {
		return nil
	}
	return t.grouped[m]
}

// joinDP runs a subset dynamic program over the leaves in popcount order:
// extend returns the best plan for a mask of two or more leaves from the
// plans of its proper submasks. With pushGroupBy set, each settled plan
// except the full join gets its CS+ GroupBy onto the query variables plus
// the variables of the leaves outside its mask and of extraContext
// (variables outside the leaves that must be preserved, used when planning
// a sub-join whose result joins further relations, as in Variable
// Elimination).
func joinDP(b *plan.Builder, leaves []*plan.Node, extraContext relation.VarSet, queryVars []string, pushGroupBy bool,
	extend func(t *dpTable, m uint64) *plan.Node) (*plan.Node, error) {
	n := len(leaves)
	if n == 0 {
		return nil, fmt.Errorf("opt: no leaves to join")
	}
	if n == 1 {
		return leaves[0], nil
	}
	if n > maxDPTables {
		return nil, fmt.Errorf("opt: %d tables exceeds DP limit %d", n, maxDPTables)
	}
	full := uint64(1)<<n - 1
	t := &dpTable{best: make([]*plan.Node, full+1)}
	if pushGroupBy {
		t.grouped = make([]*plan.Node, full+1)
	}
	settle := func(m uint64, p *plan.Node) {
		t.best[m] = p
		if pushGroupBy && p != nil && m != full {
			t.grouped[m] = maybeGroup(b, p, outsideVars(leaves, m, extraContext), queryVars)
		}
	}
	for i, leaf := range leaves {
		settle(uint64(1)<<i, leaf)
	}
	masksByCount := make([][]uint64, n+1)
	for m := uint64(1); m <= full; m++ {
		c := bits.OnesCount64(m)
		masksByCount[c] = append(masksByCount[c], m)
	}
	for size := 2; size <= n; size++ {
		for _, m := range masksByCount[size] {
			settle(m, extend(t, m))
		}
	}
	if t.best[full] == nil {
		return nil, fmt.Errorf("opt: join DP failed to cover all tables")
	}
	return t.best[full], nil
}

// outsideVars returns extra plus the variables of the leaves outside mask.
func outsideVars(leaves []*plan.Node, mask uint64, extra relation.VarSet) relation.VarSet {
	s := make(relation.VarSet, len(extra))
	for v := range extra {
		s[v] = true
	}
	for i, l := range leaves {
		if mask&(1<<i) == 0 {
			for v := range l.Vars() {
				s[v] = true
			}
		}
	}
	return s
}

// linearJoinDP finds the best left-linear join of the leaves. When
// pushGroupBy is set it applies the CS+ greedy-conservative rule: at each
// extension it compares joining the accumulated plan directly against
// joining it with a GroupBy on top (grouping on query variables plus
// variables shared with not-yet-joined tables), keeping the cheaper.
func linearJoinDP(b *plan.Builder, leaves []*plan.Node, queryVars []string, pushGroupBy bool) (*plan.Node, error) {
	return joinDP(b, leaves, nil, queryVars, pushGroupBy, func(t *dpTable, m uint64) *plan.Node {
		var best *plan.Node
		for j, leaf := range leaves {
			bit := uint64(1) << j
			if m&bit == 0 {
				continue
			}
			prev := t.best[m&^bit]
			if prev == nil {
				continue
			}
			var viaGroup *plan.Node
			if g := t.pushed(m &^ bit); g != nil {
				viaGroup = b.Join(g, leaf)
			}
			best = cheapest(best, cheapest(b.Join(prev, leaf), viaGroup))
		}
		return best
	})
}

// bushyJoinDP finds the best nonlinear join of the leaves with optional
// CS+ GroupBy pushdown (four candidates per split: no GroupBy, left,
// right, both). extraContext holds variables outside the leaves that must
// be preserved (see joinDP).
func bushyJoinDP(b *plan.Builder, leaves []*plan.Node, extraContext relation.VarSet, queryVars []string, pushGroupBy bool) (*plan.Node, error) {
	return joinDP(b, leaves, extraContext, queryVars, pushGroupBy, func(t *dpTable, m uint64) *plan.Node {
		var best *plan.Node
		// Enumerate proper submasks; canonicalize by requiring sub to
		// contain the lowest set bit of m so each split is seen once.
		low := m & (-m)
		for sub := (m - 1) & m; sub > 0; sub = (sub - 1) & m {
			if sub&low == 0 {
				continue
			}
			other := m &^ sub
			p1, p2 := t.best[sub], t.best[other]
			if p1 == nil || p2 == nil {
				continue
			}
			l2, r2 := t.pushed(sub), t.pushed(other)
			best = cheapest(best, b.Join(p1, p2))
			if l2 != nil {
				best = cheapest(best, b.Join(l2, p2))
			}
			if r2 != nil {
				best = cheapest(best, b.Join(p1, r2))
			}
			if l2 != nil && r2 != nil {
				best = cheapest(best, b.Join(l2, r2))
			}
		}
		return best
	})
}
