// Package graph provides the graph-theoretic substrate of the paper's
// workload optimizer (§6, Appendix A): variable graphs of MPF schemas,
// chordality testing (Theorem 8), triangulation (Algorithm 6), maximal
// clique extraction, junction-tree construction with the running
// intersection property (Theorem 7), and schema acyclicity via GYO
// reduction.
package graph

import (
	"fmt"
	"sort"

	"mpf/internal/relation"
)

// Undirected is a simple undirected graph over string vertices.
type Undirected struct {
	adj map[string]map[string]bool
}

// NewUndirected returns an empty graph.
func NewUndirected() *Undirected {
	return &Undirected{adj: make(map[string]map[string]bool)}
}

// AddVertex ensures v exists.
func (g *Undirected) AddVertex(v string) {
	if g.adj[v] == nil {
		g.adj[v] = make(map[string]bool)
	}
}

// AddEdge inserts the undirected edge {u,v} (self-loops are ignored).
func (g *Undirected) AddEdge(u, v string) {
	if u == v {
		return
	}
	g.AddVertex(u)
	g.AddVertex(v)
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// HasEdge reports whether {u,v} is an edge.
func (g *Undirected) HasEdge(u, v string) bool { return g.adj[u][v] }

// HasVertex reports whether v exists.
func (g *Undirected) HasVertex(v string) bool {
	_, ok := g.adj[v]
	return ok
}

// Vertices returns all vertices in sorted order.
func (g *Undirected) Vertices() []string {
	vs := make([]string, 0, len(g.adj))
	for v := range g.adj {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return vs
}

// Neighbors returns v's neighbors in sorted order.
func (g *Undirected) Neighbors(v string) []string {
	ns := make([]string, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		ns = append(ns, u)
	}
	sort.Strings(ns)
	return ns
}

// Degree returns the number of neighbors of v.
func (g *Undirected) Degree(v string) int { return len(g.adj[v]) }

// Clone returns a deep copy.
func (g *Undirected) Clone() *Undirected {
	c := NewUndirected()
	for v, ns := range g.adj {
		c.AddVertex(v)
		for u := range ns {
			c.AddEdge(v, u)
		}
	}
	return c
}

// RemoveVertex deletes v and its incident edges.
func (g *Undirected) RemoveVertex(v string) {
	for u := range g.adj[v] {
		delete(g.adj[u], v)
	}
	delete(g.adj, v)
}

// VariableGraph builds the graph of Theorem 8: one vertex per variable,
// with an edge between two variables whenever they co-occur in a schema.
func VariableGraph(schemas []relation.VarSet) *Undirected {
	g := NewUndirected()
	for _, s := range schemas {
		vars := s.Sorted()
		for _, v := range vars {
			g.AddVertex(v)
		}
		for i := 0; i < len(vars); i++ {
			for j := i + 1; j < len(vars); j++ {
				g.AddEdge(vars[i], vars[j])
			}
		}
	}
	return g
}

// TableGraph builds the graph of Theorem 7: one vertex per schema (named
// by index), with an edge when two schemas share variables.
func TableGraph(schemas []relation.VarSet) *Undirected {
	g := NewUndirected()
	for i := range schemas {
		g.AddVertex(fmt.Sprintf("%d", i))
	}
	for i := 0; i < len(schemas); i++ {
		for j := i + 1; j < len(schemas); j++ {
			if len(schemas[i].Intersect(schemas[j])) > 0 {
				g.AddEdge(fmt.Sprintf("%d", i), fmt.Sprintf("%d", j))
			}
		}
	}
	return g
}

// PerfectEliminationOrder returns a perfect elimination order via maximum
// cardinality search if the graph is chordal; ok is false otherwise.
//
// MCS numbers vertices in decreasing order picking the vertex with the
// most numbered neighbors; the reverse visit order is a PEO iff the graph
// is chordal, which is verified explicitly.
func PerfectEliminationOrder(g *Undirected) (order []string, ok bool) {
	vertices := g.Vertices()
	n := len(vertices)
	weight := make(map[string]int, n)
	numbered := make(map[string]bool, n)
	visit := make([]string, 0, n) // MCS visit order (last .. first elimination)
	for len(visit) < n {
		best := ""
		for _, v := range vertices {
			if numbered[v] {
				continue
			}
			if best == "" || weight[v] > weight[best] {
				best = v
			}
		}
		numbered[best] = true
		visit = append(visit, best)
		for _, u := range g.Neighbors(best) {
			if !numbered[u] {
				weight[u]++
			}
		}
	}
	// Elimination order is the reverse of the visit order.
	order = make([]string, n)
	for i, v := range visit {
		order[n-1-i] = v
	}
	if !isPEO(g, order) {
		return nil, false
	}
	return order, true
}

// isPEO verifies that eliminating vertices in the given order always finds
// the eliminated vertex's not-yet-eliminated neighbors forming a clique.
func isPEO(g *Undirected, order []string) bool {
	pos := make(map[string]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	for i, v := range order {
		var later []string
		for _, u := range g.Neighbors(v) {
			if pos[u] > i {
				later = append(later, u)
			}
		}
		for x := 0; x < len(later); x++ {
			for y := x + 1; y < len(later); y++ {
				if !g.HasEdge(later[x], later[y]) {
					return false
				}
			}
		}
	}
	return true
}

// IsChordal reports whether every cycle of length greater than three has a
// chord.
func IsChordal(g *Undirected) bool {
	_, ok := PerfectEliminationOrder(g)
	return ok
}

// Triangulate implements Algorithm 6: eliminate vertices in the given
// order, connecting the not-yet-eliminated neighbors of each eliminated
// vertex. It returns the chordal supergraph (original edges plus fill)
// and the elimination cliques (the eliminated vertex with its remaining
// neighbors, one per vertex, before maximality filtering).
//
// The order must contain every vertex exactly once.
func Triangulate(g *Undirected, order []string) (*Undirected, []relation.VarSet, error) {
	if len(order) != len(g.adj) {
		return nil, nil, fmt.Errorf("graph: order has %d vertices, graph has %d", len(order), len(g.adj))
	}
	seen := make(map[string]bool, len(order))
	for _, v := range order {
		if !g.HasVertex(v) {
			return nil, nil, fmt.Errorf("graph: order mentions unknown vertex %s", v)
		}
		if seen[v] {
			return nil, nil, fmt.Errorf("graph: order repeats vertex %s", v)
		}
		seen[v] = true
	}
	filled := g.Clone()
	work := g.Clone()
	var cliques []relation.VarSet
	for _, v := range order {
		ns := work.Neighbors(v)
		clique := relation.NewVarSet(v)
		for _, u := range ns {
			clique[u] = true
		}
		cliques = append(cliques, clique)
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				work.AddEdge(ns[i], ns[j])
				filled.AddEdge(ns[i], ns[j])
			}
		}
		work.RemoveVertex(v)
	}
	return filled, cliques, nil
}

// MinFillOrder returns an elimination order that greedily minimizes the
// number of fill edges introduced at each step — the standard heuristic
// for the NP-complete minimum induced width problem (Theorem 9).
func MinFillOrder(g *Undirected) []string {
	work := g.Clone()
	var order []string
	for len(work.adj) > 0 {
		best := ""
		bestFill := -1
		for _, v := range work.Vertices() {
			ns := work.Neighbors(v)
			fill := 0
			for i := 0; i < len(ns); i++ {
				for j := i + 1; j < len(ns); j++ {
					if !work.HasEdge(ns[i], ns[j]) {
						fill++
					}
				}
			}
			if bestFill < 0 || fill < bestFill {
				best, bestFill = v, fill
			}
		}
		order = append(order, best)
		ns := work.Neighbors(best)
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				work.AddEdge(ns[i], ns[j])
			}
		}
		work.RemoveVertex(best)
	}
	return order
}

// MaximalCliques filters the elimination cliques to maximal ones: a set is
// dropped when it is a subset of another.
func MaximalCliques(cliques []relation.VarSet) []relation.VarSet {
	var out []relation.VarSet
	for i, c := range cliques {
		maximal := true
		for j, d := range cliques {
			if i == j {
				continue
			}
			if d.Contains(c) && (len(d) > len(c) || j < i) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, c)
		}
	}
	return out
}

// InducedWidth returns the size of the largest clique minus one.
func InducedWidth(cliques []relation.VarSet) int {
	w := 0
	for _, c := range cliques {
		if len(c) > w {
			w = len(c)
		}
	}
	if w == 0 {
		return 0
	}
	return w - 1
}
