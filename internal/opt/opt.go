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
	"strings"

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

// cheapest returns the lowest-TotalCost non-nil plan. Exact cost ties are
// broken by the lexicographically smallest canonical plan string, never by
// candidate generation order: the same query must always yield the same
// plan (plan-cache correctness depends on it, and repeated EXPLAINs must
// agree). Candidate order therefore cannot influence the winner.
func cheapest(cands ...*plan.Node) *plan.Node {
	var best *plan.Node
	var bestKey string // canonical key of best, computed lazily on first tie
	for _, c := range cands {
		if c == nil {
			continue
		}
		switch {
		case best == nil || c.TotalCost < best.TotalCost:
			best, bestKey = c, ""
		case c.TotalCost == best.TotalCost:
			if bestKey == "" {
				bestKey = canonKey(best)
			}
			if k := canonKey(c); k < bestKey {
				best, bestKey = c, k
			}
		}
	}
	return best
}

// canonKey renders a plan's physical structure as a canonical string used
// only for deterministic cost-tie breaking. Unlike plan.Fingerprints it
// does not canonicalize join commutativity: l ⋈* r and r ⋈* l are
// different physical plans and the tie-break must order them.
func canonKey(n *plan.Node) string {
	var b strings.Builder
	var walk func(m *plan.Node)
	walk = func(m *plan.Node) {
		if m == nil {
			return
		}
		switch m.Op {
		case plan.OpScan:
			b.WriteString("s:")
			b.WriteString(m.Table)
		case plan.OpSelect:
			keys := make([]string, 0, len(m.Pred))
			for k := range m.Pred {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteString("f[")
			for i, k := range keys {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%s=%d", k, m.Pred[k])
			}
			b.WriteString("](")
			walk(m.Left)
			b.WriteByte(')')
		case plan.OpJoin:
			b.WriteString("j(")
			walk(m.Left)
			b.WriteByte('|')
			walk(m.Right)
			b.WriteByte(')')
		case plan.OpGroupBy:
			b.WriteString("g[")
			b.WriteString(strings.Join(m.GroupVars, ","))
			b.WriteString("](")
			walk(m.Left)
			b.WriteByte(')')
		}
	}
	walk(n)
	return b.String()
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
