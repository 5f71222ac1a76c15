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
// once per split that uses m as an operand. keys memoizes the canonKey of
// each settled plan, rendered the first time a cost tie needs it.
type dpTable struct {
	best, grouped []*plan.Node
	keys          []string // entry{m, g}'s key at 2m, +1 when g
}

// entry names a settled plan of a dpTable: best[m], or grouped[m] when g
// is set.
type entry struct {
	m uint64
	g bool
}

// node returns e's plan, or nil when it has none.
func (t *dpTable) node(e entry) *plan.Node {
	if !e.g {
		return t.best[e.m]
	}
	if t.grouped == nil {
		return nil
	}
	return t.grouped[e.m]
}

// key returns canonKey(t.node(e)), rendering it at most once.
func (t *dpTable) key(e entry) string {
	if t.keys == nil {
		t.keys = make([]string, 2*len(t.best))
	}
	i := 2 * e.m
	if e.g {
		i++
	}
	if t.keys[i] == "" {
		t.keys[i] = canonKey(t.node(e))
	}
	return t.keys[i]
}

// joinDP runs a subset dynamic program over the leaves in popcount order:
// extend offers c every candidate join for a mask of two or more leaves,
// built from the plans of its proper submasks, and the winner becomes the
// mask's plan. With pushGroupBy set, each settled plan except the full
// join gets its CS+ GroupBy onto the query variables plus the variables
// of the leaves outside its mask and of extraContext (variables outside
// the leaves that must be preserved, used when planning a sub-join whose
// result joins further relations, as in Variable Elimination).
func joinDP(b *plan.Builder, leaves []*plan.Node, extraContext relation.VarSet, queryVars []string, pushGroupBy bool,
	extend func(c *cheapest, m uint64)) (*plan.Node, error) {
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
	c := &cheapest{b: b, t: t}
	for size := 2; size <= n; size++ {
		for _, m := range masksByCount[size] {
			c.found = false
			extend(c, m)
			settle(m, c.join())
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
	return joinDP(b, leaves, nil, queryVars, pushGroupBy, func(c *cheapest, m uint64) {
		for j := range leaves {
			bit := uint64(1) << j
			if m&bit == 0 {
				continue
			}
			leaf := entry{m: bit}
			c.offer(entry{m: m &^ bit}, leaf)
			c.offer(entry{m: m &^ bit, g: true}, leaf)
		}
	})
}

// bushyJoinDP finds the best nonlinear join of the leaves with optional
// CS+ GroupBy pushdown (four candidates per split: no GroupBy, left,
// right, both). extraContext holds variables outside the leaves that must
// be preserved (see joinDP).
func bushyJoinDP(b *plan.Builder, leaves []*plan.Node, extraContext relation.VarSet, queryVars []string, pushGroupBy bool) (*plan.Node, error) {
	return joinDP(b, leaves, extraContext, queryVars, pushGroupBy, func(c *cheapest, m uint64) {
		// Enumerate proper submasks; canonicalize by requiring sub to
		// contain the lowest set bit of m so each split is seen once.
		low := m & (-m)
		for sub := (m - 1) & m; sub > 0; sub = (sub - 1) & m {
			if sub&low == 0 {
				continue
			}
			other := m &^ sub
			c.offer(entry{m: sub}, entry{m: other})
			c.offer(entry{m: sub, g: true}, entry{m: other})
			c.offer(entry{m: sub}, entry{m: other, g: true})
			c.offer(entry{m: sub, g: true}, entry{m: other, g: true})
		}
	})
}
