// Package opt implements the MPF query optimizers studied in the paper:
//
//   - CS: Chaudhuri & Shim's aggregate-query optimizer as it behaves on
//     MPF queries without product-join awareness — the best join order
//     with a single GroupBy at the root (paper Figure 3).
//   - CS+: the paper's extension that verifies distributivity of the
//     aggregate with the product join and applies the greedy-conservative
//     GroupBy pushdown during a Selinger-style dynamic program, in both
//     left-linear and nonlinear (bushy) variants (§5, §5.1).
//   - VE: Variable Elimination cast as relational planning (Algorithm 2),
//     with the degree, width, elimination-cost, and random ordering
//     heuristics and their combinations (§5.5).
//   - VE+: the extended-space Variable Elimination of §5.4 that delays
//     elimination and uses CS+-style cost-based local GroupBy decisions,
//     closing most of the gap to nonlinear CS+ (Theorem 3).
//
// All optimizers take a Query plus a plan.Builder (catalog + cost model)
// and return a logical plan whose estimated TotalCost is comparable
// across optimizers.
package opt

import (
	"fmt"
	"sort"
	"strconv"

	"mpf/internal/plan"
	"mpf/internal/relation"
)

// Query is an MPF query: aggregate the product join of the view's tables
// onto the group variables, optionally restricted by equality predicates
// (the paper's basic, restricted-answer and constrained-domain forms).
type Query struct {
	// Tables are the base relations of the MPF view.
	Tables []string
	// GroupVars are the query variables X.
	GroupVars []string
	// Pred holds equality constraints (may mention query variables —
	// restricted answer set — or others — constrained domain).
	Pred relation.Predicate
}

// Optimizer turns a query into a plan.
type Optimizer interface {
	// Name identifies the optimizer in experiment reports.
	Name() string
	// Optimize returns an executable plan for q.
	Optimize(q *Query, b *plan.Builder) (*plan.Node, error)
}

// buildLeaves constructs one leaf plan per base table: a scan with any
// applicable equality selections pushed on top. It also validates that
// every query and predicate variable occurs somewhere in the view.
func buildLeaves(q *Query, b *plan.Builder) ([]*plan.Node, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("opt: query has no base tables")
	}
	seen := make(map[string]bool, len(q.Tables))
	leaves := make([]*plan.Node, 0, len(q.Tables))
	allVars := relation.NewVarSet()
	for _, t := range q.Tables {
		if seen[t] {
			return nil, fmt.Errorf("opt: table %s appears twice in view", t)
		}
		seen[t] = true
		scan, err := b.Scan(t)
		if err != nil {
			return nil, err
		}
		leaf := scan
		pred := make(relation.Predicate)
		for v, val := range q.Pred {
			if scan.Vars()[v] {
				pred[v] = val
			}
		}
		if len(pred) > 0 {
			leaf, err = b.Select(scan, pred)
			if err != nil {
				return nil, err
			}
		}
		allVars = allVars.Union(scan.Vars())
		leaves = append(leaves, leaf)
	}
	for _, v := range q.GroupVars {
		if !allVars[v] {
			return nil, fmt.Errorf("opt: query variable %s not in view", v)
		}
	}
	for v := range q.Pred {
		if !allVars[v] {
			return nil, fmt.Errorf("opt: predicate variable %s not in view", v)
		}
	}
	return leaves, nil
}

// safeGroupVars returns the variables of node that must be preserved when
// inserting a GroupBy above it: the query variables plus any variable
// shared with the rest of the query (context), per the correctness
// condition of Chaudhuri & Shim's transformation.
func safeGroupVars(node *plan.Node, context relation.VarSet, queryVars []string) []string {
	keep := relation.NewVarSet()
	for v := range node.Vars() {
		if context[v] {
			keep[v] = true
		}
	}
	for _, v := range queryVars {
		if node.Vars()[v] {
			keep[v] = true
		}
	}
	return keep.Sorted()
}

// maybeGroup returns a GroupBy of node onto safe variables when that
// actually drops at least one variable; otherwise nil.
func maybeGroup(b *plan.Builder, node *plan.Node, context relation.VarSet, queryVars []string) *plan.Node {
	safe := safeGroupVars(node, context, queryVars)
	if len(safe) == len(node.Vars()) {
		return nil
	}
	g, err := b.GroupBy(node, safe)
	if err != nil {
		return nil
	}
	return g
}

// finishPlan adds the root GroupBy onto the query variables. A root
// GroupBy is always required: even if the top node's variables already
// equal X, intermediate product joins may have produced duplicate
// assignments that the final aggregation must collapse — except when the
// top node is itself a GroupBy onto exactly X, which already did so.
func finishPlan(b *plan.Builder, top *plan.Node, q *Query) (*plan.Node, error) {
	want := relation.NewVarSet(q.GroupVars...)
	if top.Op == plan.OpGroupBy && want.Equal(top.Vars()) {
		return top, nil
	}
	return b.GroupBy(top, q.GroupVars)
}

// cheapest keeps the lowest-TotalCost join among the candidates offered
// for one DP mask. It prices each candidate with Builder.JoinCost, which
// allocates nothing, and builds a plan node only for the winner. Exact
// cost ties are broken by the lexicographically smallest canonical plan
// string, never by candidate generation order: the same query must always
// yield the same plan (plan-cache correctness depends on it, and repeated
// EXPLAINs must agree). A tie compares the operands' memoized keys in
// place (joinKeyLess) rather than rendering the two join keys.
type cheapest struct {
	b     *plan.Builder
	t     *dpTable
	l, r  entry   // operands of the best candidate so far
	cost  float64 // its TotalCost
	found bool
}

// offer considers joining the settled plans l and r, skipping the
// candidate when either is nil.
func (c *cheapest) offer(l, r entry) {
	ln, rn := c.t.node(l), c.t.node(r)
	if ln == nil || rn == nil {
		return
	}
	cost := c.b.JoinCost(ln, rn)
	if c.found && !(cost < c.cost ||
		cost == c.cost && joinKeyLess(c.t.key(l), c.t.key(r), c.t.key(c.l), c.t.key(c.r))) {
		return
	}
	c.l, c.r, c.cost, c.found = l, r, cost, true
}

// join builds the winning candidate, or returns nil when none was offered.
func (c *cheapest) join() *plan.Node {
	if !c.found {
		return nil
	}
	return c.b.Join(c.t.node(c.l), c.t.node(c.r))
}

// joinKeyLess reports whether canonKey(j(a1|a2)) < canonKey(j(b1|b2)),
// given the operands' keys, without concatenating them: both keys are
// "j(" + left + "|" + right + ")", so it compares the pieces after "j("
// byte by byte in place.
func joinKeyLess(a1, a2, b1, b2 string) bool {
	a := [4]string{a1, "|", a2, ")"}
	b := [4]string{b1, "|", b2, ")"}
	var i, j int
	as, bs := a[0], b[0]
	for {
		for as == "" && i < len(a)-1 {
			i++
			as = a[i]
		}
		for bs == "" && j < len(b)-1 {
			j++
			bs = b[j]
		}
		if as == "" || bs == "" {
			return as == "" && bs != ""
		}
		n := min(len(as), len(bs))
		if as[:n] != bs[:n] {
			return as[:n] < bs[:n]
		}
		as, bs = as[n:], bs[n:]
	}
}

// canonKey renders a plan's physical structure as a canonical string used
// only for deterministic cost-tie breaking. Unlike plan.Fingerprints it
// does not canonicalize join commutativity: l ⋈* r and r ⋈* l are
// different physical plans and the tie-break must order them.
func canonKey(n *plan.Node) string {
	return string(appendKey(make([]byte, 0, 64), n))
}

// appendKey appends canonKey(n) to dst.
func appendKey(dst []byte, n *plan.Node) []byte {
	if n == nil {
		return dst
	}
	switch n.Op {
	case plan.OpScan:
		dst = append(dst, "s:"...)
		dst = append(dst, n.Table...)
	case plan.OpSelect:
		keys := make([]string, 0, len(n.Pred))
		for k := range n.Pred {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = append(dst, "f["...)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, k...)
			dst = append(dst, '=')
			dst = strconv.AppendInt(dst, int64(n.Pred[k]), 10)
		}
		dst = append(dst, "]("...)
		dst = append(appendKey(dst, n.Left), ')')
	case plan.OpJoin:
		dst = append(appendKey(append(dst, "j("...), n.Left), '|')
		dst = append(appendKey(dst, n.Right), ')')
	case plan.OpGroupBy:
		dst = append(dst, "g["...)
		for i, v := range n.GroupVars {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, v...)
		}
		dst = append(dst, "]("...)
		dst = append(appendKey(dst, n.Left), ')')
	}
	return dst
}

// varsOfNodes unions the variable sets of the given nodes.
func varsOfNodes(nodes []*plan.Node) relation.VarSet {
	s := relation.NewVarSet()
	for _, n := range nodes {
		for v := range n.Vars() {
			s[v] = true
		}
	}
	return s
}
