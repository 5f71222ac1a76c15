package opt

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"mpf/internal/plan"
	"mpf/internal/relation"
)

// Heuristic selects the next variable to eliminate (paper §5.5).
type Heuristic int

// Elimination-ordering heuristics.
const (
	// Degree estimates the size of the post-elimination relation (the
	// product of distinct counts of the eliminated variable's neighbors)
	// and picks the variable minimizing it.
	Degree Heuristic = iota
	// Width estimates the size of the pre-elimination relation (the join
	// of all relations containing the variable).
	Width
	// ElimCost estimates the cost of the plan that eliminates the
	// variable, using the cost model on a fixed linear join order (the
	// paper's deliberate overestimate).
	ElimCost
	// RandomOrder picks uniformly at random (paper §7.3, Table 3).
	RandomOrder
	// DegreeWidth combines Degree and Width by normalizing each estimate
	// by the maximum among candidates and multiplying.
	DegreeWidth
	// DegreeElimCost combines Degree and ElimCost the same way.
	DegreeElimCost
)

// String returns the heuristic's report name.
func (h Heuristic) String() string {
	switch h {
	case Degree:
		return "deg"
	case Width:
		return "width"
	case ElimCost:
		return "elim_cost"
	case RandomOrder:
		return "random"
	case DegreeWidth:
		return "deg&width"
	case DegreeElimCost:
		return "deg&elim_cost"
	default:
		return fmt.Sprintf("heuristic(%d)", int(h))
	}
}

// VE is the Variable Elimination optimizer (Algorithm 2). With Extended
// set it becomes the paper's VE+ (§5.4): elimination is delayed and the
// joinplan for each variable uses the CS+ greedy-conservative local
// GroupBy decisions over a nonlinear search, extending GDLPlan(VE) toward
// GDLPlan(CS+) (Theorem 3).
type VE struct {
	Heuristic Heuristic
	Extended  bool
	// UseFDs enables the Proposition 1 preprocessing: variables outside
	// every declared base-relation key are removed from the elimination
	// candidates, since projecting them away is free (§5.4).
	UseFDs bool
	// Order, when non-empty, fixes the elimination order explicitly and
	// overrides Heuristic. Variables not in the candidate set are
	// skipped; candidates missing from Order are eliminated afterwards in
	// lexicographic order.
	Order []string
	// Rng drives RandomOrder; nil uses a fixed seed so plans are
	// reproducible.
	Rng *rand.Rand
}

// Name implements Optimizer.
func (o VE) Name() string {
	n := "ve(" + o.Heuristic.String() + ")"
	if o.Extended {
		n += "+ext"
	}
	if o.UseFDs {
		n += "+fd"
	}
	return n
}

// Optimize implements Optimizer.
func (o VE) Optimize(q *Query, b *plan.Builder) (*plan.Node, error) {
	leaves, err := buildLeaves(q, b)
	if err != nil {
		return nil, err
	}
	rng := o.Rng
	if rng == nil && o.Heuristic == RandomOrder {
		rng = rand.New(rand.NewSource(1))
	}

	// S: current set of relations (plans). V: variables to eliminate.
	st := newVEState(leaves, q.GroupVars)
	v := st.candidates()
	if o.UseFDs {
		// Proposition 1: variables outside every declared key introduce no
		// row multiplicity, so their removal is projection, not
		// aggregation — drop them from the elimination candidates and let
		// the safe-grouping GroupBys discard them for free.
		removable, err := Prop1Removable(b.Cat, q.Tables)
		if err != nil {
			return nil, err
		}
		for name := range removable {
			if i, ok := st.index[name]; ok {
				v.clear(i)
			}
		}
	}

	fixed := o.Order
	for v.next(0) >= 0 {
		var vj int
		if len(fixed) > 0 {
			i, ok := st.index[fixed[0]]
			fixed = fixed[1:]
			if !ok || !v.has(i) {
				continue
			}
			vj = i
		} else {
			vj = st.pick(o.Heuristic, v, b, rng)
		}
		v.clear(vj)
		var rels []*plan.Node
		var kept []veNode
		restVars := st.newMask()
		for _, n := range st.s {
			if n.vars.has(vj) {
				rels = append(rels, n.p)
			} else {
				restVars.or(n.vars)
				kept = append(kept, n)
			}
		}
		if len(rels) == 0 {
			// Variable already dropped by an earlier GroupBy (possible in
			// the extended space).
			continue
		}
		ctx := st.varSet(restVars)
		// joinplan for rels(vj): plain VE uses pure join search; VE+ uses
		// the CS+ greedy-conservative search that may interpose GroupBy
		// nodes on join operands (delaying or anticipating eliminations,
		// §5.4). The remaining relations plus the query variables form the
		// preservation context.
		p, err := bushyJoinDP(b, rels, ctx, q.GroupVars, o.Extended)
		if err != nil {
			return nil, err
		}
		// Eliminating GroupBy: keep exactly the variables still needed —
		// those shared with the remaining relations plus query variables.
		// This both eliminates vj and drops variables local to this join
		// (the behaviour behind the paper's star-schema account of the
		// degree heuristic, §7.3). Skip it when the joinplan's top is
		// already grouped to the safe set.
		keep := safeGroupVars(p, ctx, q.GroupVars)
		if !(p.Op == plan.OpGroupBy && p.Vars().Equal(relation.NewVarSet(keep...))) {
			p, err = b.GroupBy(p, keep)
			if err != nil {
				return nil, err
			}
		}
		st.s = append(kept, st.node(p))
	}

	// Join whatever remains (relations over query variables only) and add
	// the root GroupBy.
	remaining := make([]*plan.Node, len(st.s))
	for i, n := range st.s {
		remaining[i] = n.p
	}
	top, err := bushyJoinDP(b, remaining, nil, q.GroupVars, o.Extended)
	if err != nil {
		return nil, err
	}
	return finishPlan(b, top, q)
}

// varMask is a set of variables as a bitset over a veState's variable
// index.
type varMask []uint64

func (m varMask) has(i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }
func (m varMask) set(i int)      { m[i>>6] |= 1 << (i & 63) }
func (m varMask) clear(i int)    { m[i>>6] &^= 1 << (i & 63) }

func (m varMask) or(o varMask) {
	for w := range m {
		m[w] |= o[w]
	}
}

func (m varMask) andNot(o varMask) {
	for w := range m {
		m[w] &^= o[w]
	}
}

// next returns the smallest member ≥ i, or -1 when there is none;
// `for i := m.next(0); i >= 0; i = m.next(i + 1)` visits the members in
// ascending index order.
func (m varMask) next(i int) int {
	for w := i >> 6; w < len(m); w++ {
		word := m[w]
		if w == i>>6 {
			word &= ^uint64(0) << (i & 63)
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// veNode is a relation of S with the data the ordering heuristics read,
// built once when the relation enters S.
type veNode struct {
	p    *plan.Node
	vars varMask
	// dist[i] is p's distinct estimate of variable i; +Inf where p has no
	// estimate (or does not hold the variable).
	dist []float64
}

// veState is Variable Elimination's relation set S over one variable
// index per query. Variables are indexed in sorted name order, so
// ascending index is the order the estimate products multiply in: float
// multiplication is not associative, and accumulating in map-iteration
// order once made scores (and hence elimination picks) differ between runs
// of the same query — a planning-determinism bug. The remaining fields are
// scratch reused across candidates, so scoring allocates nothing per
// candidate.
type veState struct {
	names []string
	index map[string]int
	query varMask
	s     []veNode

	rels, needed varMask
	minDist      []float64
	cands        []int
	relNodes     []*plan.Node
	deg, wid, ec []float64
}

// newVEState indexes the variables of the leaves and enters each leaf
// into S.
func newVEState(leaves []*plan.Node, queryVars []string) *veState {
	names := varsOfNodes(leaves).Sorted()
	nv := len(names)
	st := &veState{
		names:   names,
		index:   make(map[string]int, nv),
		minDist: make([]float64, nv),
		cands:   make([]int, 0, nv),
		deg:     make([]float64, nv),
		wid:     make([]float64, nv),
		ec:      make([]float64, nv),
	}
	for i, name := range names {
		st.index[name] = i
	}
	st.query, st.rels, st.needed = st.newMask(), st.newMask(), st.newMask()
	for _, v := range queryVars {
		st.query.set(st.index[v])
	}
	for _, l := range leaves {
		st.s = append(st.s, st.node(l))
	}
	return st
}

func (st *veState) newMask() varMask { return make(varMask, (len(st.names)+63)/64) }

// varSet returns the names of m's members.
func (st *veState) varSet(m varMask) relation.VarSet {
	s := make(relation.VarSet)
	for i := m.next(0); i >= 0; i = m.next(i + 1) {
		s[st.names[i]] = true
	}
	return s
}

// candidates returns every indexed variable except the query variables.
func (st *veState) candidates() varMask {
	v := st.newMask()
	for i := range st.names {
		v.set(i)
	}
	v.andNot(st.query)
	return v
}

// node builds p's variable mask and distinct-estimate array.
func (st *veState) node(p *plan.Node) veNode {
	n := veNode{p: p, vars: st.newMask(), dist: make([]float64, len(st.names))}
	for i := range n.dist {
		n.dist[i] = math.Inf(1)
	}
	for v := range p.Vars() {
		n.vars.set(st.index[v])
	}
	for _, d := range p.Est.Distinct {
		if i, ok := st.index[d.Var]; ok && n.vars.has(i) {
			n.dist[i] = d.N
		}
	}
	return n
}

// pick applies the ordering heuristic to the candidate variables and
// returns the chosen index. Exact score ties go to the smallest index, the
// lexicographically smallest name.
func (st *veState) pick(h Heuristic, cands varMask, b *plan.Builder, rng *rand.Rand) int {
	st.cands = st.cands[:0]
	for c := cands.next(0); c >= 0; c = cands.next(c + 1) {
		st.cands = append(st.cands, c)
	}
	if len(st.cands) == 1 {
		return st.cands[0]
	}
	if h == RandomOrder {
		return st.cands[rng.Intn(len(st.cands))]
	}
	elim := h == ElimCost || h == DegreeElimCost
	n := len(st.cands)
	deg, wid, ec := st.deg[:n], st.wid[:n], st.ec[:n]
	for i, c := range st.cands {
		deg[i], wid[i] = st.score(c)
		if elim {
			ec[i] = st.elimCost(b, c)
		}
	}
	var score []float64
	switch h {
	case Width:
		score = wid
	case ElimCost:
		score = ec
	case DegreeWidth:
		score = combine(deg, wid)
	case DegreeElimCost:
		score = combine(deg, ec)
	default:
		score = deg
	}
	best := 0
	for i := 1; i < n; i++ {
		if score[i] < score[best] {
			best = i
		}
	}
	return st.cands[best]
}

// combine normalizes each estimate vector by its maximum and multiplies
// them elementwise (the paper's footnote-1 combination rule).
func combine(a, b []float64) []float64 {
	maxA, maxB := 0.0, 0.0
	for i := range a {
		maxA = math.Max(maxA, a[i])
		maxB = math.Max(maxB, b[i])
	}
	if maxA == 0 {
		maxA = 1
	}
	if maxB == 0 {
		maxB = 1
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = (a[i] / maxA) * (b[i] / maxB)
	}
	return out
}

// score computes the degree and width estimates for eliminating variable
// c from S, leaving rels(c) in st.relNodes (in S order) and the variables
// that survive the elimination in st.needed for elimCost.
//
// Distinct-count estimates come from the current plan nodes (so earlier
// selections and eliminations are reflected): per variable, the minimum
// across the nodes of rels(c). Width is the size estimate of the
// pre-elimination relation: the domain product over all variables of
// rels(c). Degree estimates the post-elimination relation, which keeps
// only the variables still needed afterwards — those shared with the
// relations not being joined plus the query variables; on a star view
// this is what makes degree favor the hub variable (its post-elimination
// relation holds just the query variable, §7.3) even though joining all
// its tables is expensive. Both are 0 when no relation holds c.
func (st *veState) score(c int) (deg, wid float64) {
	for w := range st.rels {
		st.rels[w], st.needed[w] = 0, st.query[w]
	}
	for i := range st.minDist {
		st.minDist[i] = math.Inf(1)
	}
	st.relNodes = st.relNodes[:0]
	for _, n := range st.s {
		if !n.vars.has(c) {
			st.needed.or(n.vars)
			continue
		}
		st.rels.or(n.vars)
		st.relNodes = append(st.relNodes, n.p)
		for i := n.vars.next(0); i >= 0; i = n.vars.next(i + 1) {
			if n.dist[i] < st.minDist[i] {
				st.minDist[i] = n.dist[i]
			}
		}
	}
	if len(st.relNodes) == 0 {
		return 0, 0
	}
	// Every factor is finite and ≥ 1, so once a product reaches the cap it
	// stays there.
	deg, wid = 1, 1
	for i := st.rels.next(0); i >= 0; i = st.rels.next(i + 1) {
		d := st.minDist[i]
		if math.IsInf(d, 1) {
			d = 1
		}
		d = math.Max(d, 1)
		wid = math.Min(wid*d, 1e300)
		if i != c && st.needed.has(i) {
			deg = math.Min(deg*d, 1e300)
		}
	}
	return deg, wid
}

// elimCost is the modeled cost of a size-ordered linear join of rels(c)
// followed by the eliminating aggregation (the paper's deliberate
// overestimate), reading the split score(c) left behind. Only the
// elimination-cost heuristics call it: it builds plan nodes.
func (st *veState) elimCost(b *plan.Builder, c int) float64 {
	if len(st.relNodes) == 0 {
		return 0
	}
	ordered := st.relNodes
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Est.Card < ordered[j].Est.Card })
	acc := ordered[0]
	base := acc.TotalCost
	for _, n := range ordered[1:] {
		base += n.TotalCost
		acc = b.Join(acc, n)
	}
	var keep []string
	for i := st.rels.next(0); i >= 0; i = st.rels.next(i + 1) {
		if i != c && st.needed.has(i) {
			keep = append(keep, st.names[i])
		}
	}
	if g, err := b.GroupBy(acc, keep); err == nil {
		acc = g
	}
	// Charge only the work of this elimination, not the (sunk) cost of
	// producing the operand relations.
	ec := acc.TotalCost - base
	if ec < 0 {
		ec = 0
	}
	return ec
}
