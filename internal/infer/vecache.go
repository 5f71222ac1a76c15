package infer

import (
	"fmt"
	"sort"

	"mpf/internal/graph"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

// Cache is the output of the VE-cache optimization scheme (Algorithm 3):
// a set of materialized functional relations satisfying the workload
// correctness invariant of Definition 5, so any single-variable basic or
// restricted-answer MPF query over the original view can be answered from
// one (small) cached table.
type Cache struct {
	Sr semiring.Semiring
	// Tables are the cached relations t1..tk (Theorem 10: they form an
	// acyclic schema — the result of triangulating with the VE order).
	Tables []*relation.Relation
	// Order is the variable elimination order used.
	Order []string
	// reductions records, per cached table index j, the earlier cached
	// tables i whose reduced form fed the join that created t_j (the
	// GroupBy(t_i)-was-used-to-create-t_j relation of Algorithm 3).
	reductions map[int][]int
}

// Size returns the total number of cached tuples, the C(S) component of
// the workload objective.
func (c *Cache) Size() int {
	n := 0
	for _, t := range c.Tables {
		n += t.Len()
	}
	return n
}

// BuildVECache runs Algorithm 3 over the base relations:
//
//  1. create a no-query-variable VE plan and execute it, caching every
//     relation that precedes a GroupBy node (the elimination join
//     results), and
//  2. run the backward update-semijoin pass t_i ⋉ t_j for j = k..1 over
//     the "GroupBy(t_i) was used to create t_j" edges.
//
// order gives the elimination order; nil picks min-fill on the variable
// graph. The returned cache satisfies Definition 5 (Theorem 4).
func BuildVECache(sr semiring.Semiring, rels []*relation.Relation, order []string) (*Cache, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("infer: no relations")
	}
	if _, ok := sr.(semiring.Divider); !ok {
		return nil, fmt.Errorf("infer: semiring %s does not support division; VE-cache needs update semijoins", sr.Name())
	}
	if order == nil {
		schemas := make([]relation.VarSet, len(rels))
		for i, r := range rels {
			schemas[i] = r.Vars()
		}
		order = graph.MinFillOrder(graph.VariableGraph(schemas))
	}
	allVars := relation.NewVarSet()
	for _, r := range rels {
		allVars = allVars.Union(r.Vars())
	}
	if len(order) != len(allVars) {
		return nil, fmt.Errorf("infer: order has %d variables, view has %d", len(order), len(allVars))
	}
	for _, v := range order {
		if !allVars[v] {
			return nil, fmt.Errorf("infer: order variable %s not in view", v)
		}
	}

	c := &Cache{Sr: sr, Order: order, reductions: make(map[int][]int)}

	// Working set: each entry is a live relation plus the cache index it
	// was reduced from (-1 for base relations).
	type entry struct {
		rel  *relation.Relation
		from int
	}
	live := make([]entry, len(rels))
	for i, r := range rels {
		live[i] = entry{rel: r, from: -1}
	}

	for _, vj := range order {
		var rels2 []entry
		var rest []entry
		for _, e := range live {
			if e.rel.HasVar(vj) {
				rels2 = append(rels2, e)
			} else {
				rest = append(rest, e)
			}
		}
		if len(rels2) == 0 {
			continue
		}
		// Join all relations containing vj: this table precedes the
		// GroupBy node in the VE plan, so it is cached.
		parts := make([]*relation.Relation, len(rels2))
		for i, e := range rels2 {
			parts[i] = e.rel
		}
		var joined *relation.Relation
		if len(parts) == 1 {
			// Clone so renaming the cached table never mutates an input.
			joined = parts[0].Clone()
		} else {
			var err error
			joined, err = relation.ProductJoinAll(sr, parts...)
			if err != nil {
				return nil, err
			}
		}
		idx := len(c.Tables)
		joined.SetName(fmt.Sprintf("t%d", idx+1))
		c.Tables = append(c.Tables, joined)
		for _, e := range rels2 {
			if e.from >= 0 {
				c.reductions[idx] = append(c.reductions[idx], e.from)
			}
		}
		// Eliminate vj (and any variable appearing nowhere else), keeping
		// variables still needed by the rest of the view.
		needed := relation.NewVarSet()
		for _, e := range rest {
			needed = needed.Union(e.rel.Vars())
		}
		keep := joined.Vars().Intersect(needed).Minus(relation.NewVarSet(vj))
		reduced, err := relation.Marginalize(sr, joined, keep.Sorted())
		if err != nil {
			return nil, err
		}
		reduced.SetName(fmt.Sprintf("γ(t%d)", idx+1))
		if len(keep) > 0 {
			live = append(rest, entry{rel: reduced, from: idx})
		} else {
			live = rest
		}
	}

	// Backward pass (Algorithm 3, lines 3-7): for j = k..1, for each i<j
	// whose GroupBy fed t_j, update t_i with t_j's information.
	for j := len(c.Tables) - 1; j >= 0; j-- {
		for _, i := range c.reductions[j] {
			upd, err := relation.UpdateSemijoin(sr, c.Tables[i], c.Tables[j])
			if err != nil {
				return nil, err
			}
			upd.SetName(c.Tables[i].Name())
			c.Tables[i] = upd
		}
	}
	return c, nil
}

// Find returns the smallest cached table containing variable x.
func (c *Cache) Find(x string) (*relation.Relation, error) {
	var best *relation.Relation
	for _, t := range c.Tables {
		if !t.HasVar(x) {
			continue
		}
		if best == nil || t.Len() < best.Len() {
			best = t
		}
	}
	if best == nil {
		return nil, fmt.Errorf("infer: no cached table contains %s", x)
	}
	return best, nil
}

// Answer evaluates the single-variable basic MPF query "select x, AGG(f)
// group by x" against the cache: by the correctness invariant the
// marginal of any cached table containing x equals the view marginal.
func (c *Cache) Answer(x string) (*relation.Relation, error) {
	t, err := c.Find(x)
	if err != nil {
		return nil, err
	}
	return relation.Marginalize(c.Sr, t, []string{x})
}

// AnswerRestricted evaluates the restricted-answer form "select x, AGG(f)
// where x = val group by x" from the cache.
func (c *Cache) AnswerRestricted(x string, val int32) (*relation.Relation, error) {
	m, err := c.Answer(x)
	if err != nil {
		return nil, err
	}
	return relation.Select(m, relation.Predicate{x: val})
}

// ConstrainDomain implements the §6 protocol for adding constrained-
// domain queries to a cached workload: apply the selection predicate to
// every cache table containing a constrained variable, then perform
// reductions along the cache schema's join tree from the selected tables
// to every other table. It returns a NEW cache reflecting the constraint;
// the receiver is unchanged.
func (c *Cache) ConstrainDomain(pred relation.Predicate) (*Cache, error) {
	if len(pred) == 0 {
		return nil, fmt.Errorf("infer: empty predicate")
	}
	out := &Cache{Sr: c.Sr, Order: c.Order, reductions: c.reductions}
	out.Tables = make([]*relation.Relation, len(c.Tables))
	schemas := make([]relation.VarSet, len(c.Tables))
	for i, t := range c.Tables {
		out.Tables[i] = t.Clone()
		schemas[i] = t.Vars()
	}
	// Propagate the constraint along the cache schema's join tree
	// (acyclic by Theorem 10): update semijoins flow outward from a
	// selected table, carrying the reduced separator marginals to every
	// other cached table (Theorem 5). The cached tables are joint
	// marginals, not a factorization, so the reductions must be directed
	// update semijoins rather than a fresh BP run.
	jt, err := graph.BuildJunctionTree(schemas)
	if err != nil {
		return nil, fmt.Errorf("infer: cache schema has no join tree: %w", err)
	}
	adj := jt.AdjacencyList()
	// Evidence enters one table at a time: each selection applies to the
	// tables as the previous sources left them, and is distributed before
	// the next. Selecting every table first would let a later source's
	// update semijoin divide by a separator already holding its own
	// evidence.
	sources := 0
	for i, t := range out.Tables {
		p := make(relation.Predicate)
		for v, val := range pred {
			if t.HasVar(v) {
				p[v] = val
			}
		}
		if len(p) == 0 {
			continue
		}
		s, err := relation.Select(t, p)
		if err != nil {
			return nil, err
		}
		s.SetName(t.Name())
		out.Tables[i] = s
		if err := distributeFrom(c.Sr, out.Tables, adj, i); err != nil {
			return nil, err
		}
		sources++
	}
	if sources == 0 {
		return nil, fmt.Errorf("infer: predicate variables %v not in any cached table", predVars(pred))
	}
	return out, nil
}

// distributeFrom propagates table src's information outward along the
// join tree: each table absorbs its predecessor with an update semijoin,
// in BFS order away from src.
func distributeFrom(sr semiring.Semiring, tables []*relation.Relation, adj [][]int, src int) error {
	visited := make([]bool, len(tables))
	visited[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			if len(tables[nb].Vars().Intersect(tables[cur].Vars())) > 0 {
				upd, err := relation.UpdateSemijoin(sr, tables[nb], tables[cur])
				if err != nil {
					return err
				}
				upd.SetName(tables[nb].Name())
				tables[nb] = upd
			}
			queue = append(queue, nb)
		}
	}
	return nil
}

func predVars(p relation.Predicate) []string {
	vs := make([]string, 0, len(p))
	for v := range p {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return vs
}

// WorkloadQuery is one query of an MPF workload: a single-variable basic
// or restricted-answer query with an occurrence probability.
type WorkloadQuery struct {
	Var  string
	Prob float64
	// Restricted, when non-nil, turns the query into the restricted-
	// answer form Var = *Restricted.
	Restricted *int32
}

// WorkloadCost evaluates the §6 objective C(S) + E[cost(Q(q,S))] for the
// cache: materialization cost is the total cached tuple count and each
// query's evaluation cost is the size of the cached table it reads.
func (c *Cache) WorkloadCost(queries []WorkloadQuery) (float64, error) {
	total := float64(c.Size())
	for _, q := range queries {
		t, err := c.Find(q.Var)
		if err != nil {
			return 0, err
		}
		total += q.Prob * float64(t.Len())
	}
	return total, nil
}

// CheckCacheInvariant verifies Definition 5 for the cache against the
// base relations; intended for tests on small instances.
func (c *Cache) CheckCacheInvariant(base []*relation.Relation, tol float64) error {
	return CheckInvariant(c.Sr, base, c.Tables, tol)
}
