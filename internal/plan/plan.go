// Package plan defines the logical query plans produced by the MPF
// optimizers and consumed by the executor.
//
// A plan is a tree of operators over functional relations: base-table
// scans, equality selections, product joins, and marginalizing GroupBy
// nodes. Every node carries a cardinality estimate and a cumulative cost
// under the cost model supplied to the Builder, so optimizers compare
// plans by TotalCost and experiments can report estimated cost alongside
// observed time (paper §7).
package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mpf/internal/catalog"
	"mpf/internal/cost"
	"mpf/internal/relation"
)

// Op identifies a plan operator.
type Op int

// Plan operators.
const (
	OpScan Op = iota
	OpSelect
	OpJoin
	OpGroupBy
)

// String returns the operator's display name.
func (o Op) String() string {
	switch o {
	case OpScan:
		return "Scan"
	case OpSelect:
		return "Select"
	case OpJoin:
		return "ProductJoin"
	case OpGroupBy:
		return "GroupBy"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Node is one operator of a logical plan. Nodes are immutable once built.
type Node struct {
	Op        Op
	Table     string             // OpScan: base table name
	Pred      relation.Predicate // OpSelect: equality constraints
	GroupVars []string           // OpGroupBy: variables kept (sorted)
	Left      *Node              // unary input, or left join input
	Right     *Node              // right join input (OpJoin only)

	Est       cost.Estimate // output estimate
	OpCost    float64       // this operator's own cost
	TotalCost float64       // cumulative plan cost

	vars relation.VarSet
}

// Vars returns the output variable set. Callers must not modify it.
func (n *Node) Vars() relation.VarSet { return n.vars }

// Builder constructs plan nodes, attaching estimates and costs from its
// catalog and cost model.
type Builder struct {
	Cat   *catalog.Catalog
	Model cost.Model
}

// NewBuilder returns a Builder over the catalog using the model.
func NewBuilder(cat *catalog.Catalog, model cost.Model) *Builder {
	return &Builder{Cat: cat, Model: model}
}

// Scan builds a base-table scan node.
func (b *Builder) Scan(table string) (*Node, error) {
	st, err := b.Cat.Table(table)
	if err != nil {
		return nil, err
	}
	est := cost.Estimate{
		Card:     float64(st.Card),
		Arity:    len(st.Attrs),
		Distinct: make([]cost.VarDistinct, len(st.Attrs)),
	}
	for i, a := range st.Attrs {
		d := st.Distinct[a.Name]
		if d <= 0 {
			d = int64(a.Domain)
		}
		est.Distinct[i] = cost.VarDistinct{Var: a.Name, N: float64(d)}
	}
	slices.SortFunc(est.Distinct, func(x, y cost.VarDistinct) int { return strings.Compare(x.Var, y.Var) })
	n := &Node{
		Op:    OpScan,
		Table: table,
		Est:   est,
		vars:  st.Vars(),
	}
	n.OpCost = b.Model.ScanCost(est)
	n.TotalCost = n.OpCost
	return n, nil
}

// Select builds an equality-selection node over in. Constrained variables
// must belong to the input.
func (b *Builder) Select(in *Node, pred relation.Predicate) (*Node, error) {
	vars := make([]string, 0, len(pred))
	for v := range pred {
		if !in.vars[v] {
			return nil, fmt.Errorf("plan: selection variable %s not in input", v)
		}
		vars = append(vars, v)
	}
	sort.Strings(vars)
	est := cost.SelectEstimate(in.Est, vars)
	cp := make(relation.Predicate, len(pred))
	for k, v := range pred {
		cp[k] = v
	}
	n := &Node{
		Op:   OpSelect,
		Pred: cp,
		Left: in,
		Est:  est,
		vars: in.vars,
	}
	n.OpCost = b.Model.SelectCost(in.Est, est)
	n.TotalCost = in.TotalCost + n.OpCost
	return n, nil
}

// Join builds a product-join node. Its TotalCost is JoinCost(l, r).
func (b *Builder) Join(l, r *Node) *Node {
	n := &Node{
		Op:    OpJoin,
		Left:  l,
		Right: r,
		Est:   cost.JoinEstimate(l.Est, r.Est),
		vars:  l.vars.Union(r.vars),
	}
	n.OpCost, n.TotalCost = b.joinCost(l, r)
	return n
}

// JoinCost returns the TotalCost Join(l, r) would have, without building
// the node or allocating: optimizers price every candidate join with it
// and build only the winners.
func (b *Builder) JoinCost(l, r *Node) float64 {
	_, total := b.joinCost(l, r)
	return total
}

// joinCost prices the join of l and r from its size estimate alone, for
// both Join and JoinCost, so a priced and a built join cannot differ.
func (b *Builder) joinCost(l, r *Node) (op, total float64) {
	op = b.Model.JoinCost(l.Est, r.Est, cost.JoinSize(l.Est, r.Est))
	return op, l.TotalCost + r.TotalCost + op
}

// GroupBy builds a marginalizing GroupBy keeping the given variables,
// which must belong to the input. Keep variables are deduplicated and
// sorted.
func (b *Builder) GroupBy(in *Node, keep []string) (*Node, error) {
	set := relation.NewVarSet(keep...)
	for v := range set {
		if !in.vars[v] {
			return nil, fmt.Errorf("plan: group variable %s not in input", v)
		}
	}
	vars := set.Sorted()
	est := cost.GroupByEstimate(in.Est, vars)
	n := &Node{
		Op:        OpGroupBy,
		GroupVars: vars,
		Left:      in,
		Est:       est,
		vars:      set,
	}
	n.OpCost = b.Model.GroupByCost(in.Est, est)
	n.TotalCost = in.TotalCost + n.OpCost
	return n, nil
}

// Tables returns the set of base tables scanned by the plan.
func Tables(n *Node) map[string]bool {
	out := make(map[string]bool)
	var walk func(*Node)
	walk = func(m *Node) {
		if m == nil {
			return
		}
		if m.Op == OpScan {
			out[m.Table] = true
		}
		walk(m.Left)
		walk(m.Right)
	}
	walk(n)
	return out
}

// CountOps returns the number of nodes with the given operator.
func CountOps(n *Node, op Op) int {
	if n == nil {
		return 0
	}
	c := CountOps(n.Left, op) + CountOps(n.Right, op)
	if n.Op == op {
		c++
	}
	return c
}

// IsLeftLinear reports whether every join's right input is a leaf-ish
// subplan containing exactly one base table (the paper's linear plans:
// new relations are always joined to the accumulated left side).
func IsLeftLinear(n *Node) bool {
	if n == nil {
		return true
	}
	if n.Op == OpJoin {
		if len(Tables(n.Right)) != 1 {
			return false
		}
		return IsLeftLinear(n.Left) && IsLeftLinear(n.Right)
	}
	return IsLeftLinear(n.Left) && IsLeftLinear(n.Right)
}

// String renders the plan as an indented tree with estimates.
func (n *Node) String() string {
	var b strings.Builder
	var walk func(m *Node, depth int)
	walk = func(m *Node, depth int) {
		if m == nil {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		switch m.Op {
		case OpScan:
			fmt.Fprintf(&b, "Scan(%s)", m.Table)
		case OpSelect:
			fmt.Fprintf(&b, "Select(%s)", predString(m.Pred))
		case OpJoin:
			b.WriteString("ProductJoin")
		case OpGroupBy:
			fmt.Fprintf(&b, "GroupBy(%s)", strings.Join(m.GroupVars, ","))
		}
		fmt.Fprintf(&b, "  [card≈%.0f cost≈%.2f total≈%.2f]\n", m.Est.Card, m.OpCost, m.TotalCost)
		walk(m.Left, depth+1)
		walk(m.Right, depth+1)
	}
	walk(n, 0)
	return b.String()
}

func predString(p relation.Predicate) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, p[k])
	}
	return strings.Join(parts, " and ")
}

// Validate checks structural invariants: correct child counts per
// operator, group/selection variables available in inputs, and that every
// GroupBy retains the variables needed above it. It returns the first
// violation found.
func Validate(n *Node) error {
	if n == nil {
		return fmt.Errorf("plan: nil node")
	}
	switch n.Op {
	case OpScan:
		if n.Left != nil || n.Right != nil {
			return fmt.Errorf("plan: scan with children")
		}
		if n.Table == "" {
			return fmt.Errorf("plan: scan without table")
		}
	case OpSelect:
		if n.Left == nil || n.Right != nil {
			return fmt.Errorf("plan: select must have exactly one input")
		}
		for v := range n.Pred {
			if !n.Left.vars[v] {
				return fmt.Errorf("plan: select on %s missing from input", v)
			}
		}
		if err := Validate(n.Left); err != nil {
			return err
		}
	case OpJoin:
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("plan: join must have two inputs")
		}
		if err := Validate(n.Left); err != nil {
			return err
		}
		if err := Validate(n.Right); err != nil {
			return err
		}
	case OpGroupBy:
		if n.Left == nil || n.Right != nil {
			return fmt.Errorf("plan: group-by must have exactly one input")
		}
		for _, v := range n.GroupVars {
			if !n.Left.vars[v] {
				return fmt.Errorf("plan: group variable %s missing from input", v)
			}
		}
		if err := Validate(n.Left); err != nil {
			return err
		}
	default:
		return fmt.Errorf("plan: unknown op %v", n.Op)
	}
	return nil
}
