package opt

import (
	"fmt"
	"math/rand"
	"testing"

	"mpf/internal/catalog"
	"mpf/internal/cost"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

// randomSchema builds a connected random view: nTables relations over a
// shared variable pool, each with 1-3 variables, chained so the schema
// is connected. Domains are small enough that the brute-force joint is
// computable.
func randomSchema(rng *rand.Rand, nTables, nVars int) []*relation.Relation {
	vars := make([]relation.Attr, nVars)
	for i := range vars {
		vars[i] = relation.Attr{Name: fmt.Sprintf("v%d", i), Domain: 2 + rng.Intn(2)}
	}
	rels := make([]*relation.Relation, nTables)
	for i := range rels {
		// Ensure connectivity: table i always contains variable i%nVars,
		// and (for i>0) one variable from an earlier table.
		chosen := map[int]bool{i % nVars: true}
		if i > 0 {
			chosen[(i-1)%nVars] = true
		}
		for rng.Float64() < 0.4 && len(chosen) < 3 {
			chosen[rng.Intn(nVars)] = true
		}
		var attrs []relation.Attr
		for vi := 0; vi < nVars; vi++ {
			if chosen[vi] {
				attrs = append(attrs, vars[vi])
			}
		}
		density := 0.5 + rng.Float64()*0.5
		r, err := relation.Random(rng, fmt.Sprintf("t%d", i), attrs, density,
			relation.UniformMeasure(0.1, 3))
		if err != nil {
			panic(err)
		}
		rels[i] = r
	}
	return rels
}

// TestFuzzOptimizersAgainstOracle runs every optimizer over many random
// schemas and random query forms, comparing against brute force. This is
// the broadest correctness net in the repository.
func TestFuzzOptimizersAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 40; trial++ {
		nTables := 2 + rng.Intn(4) // 2-5 tables
		nVars := 3 + rng.Intn(3)   // 3-5 variables
		rels := randomSchema(rng, nTables, nVars)
		cat := catalog.New()
		relMap := map[string]*relation.Relation{}
		var tables []string
		allVars := relation.NewVarSet()
		for _, r := range rels {
			if err := cat.AddTable(catalog.AnalyzeRelation(r)); err != nil {
				t.Fatal(err)
			}
			relMap[r.Name()] = r
			tables = append(tables, r.Name())
			allVars = allVars.Union(r.Vars())
		}
		varList := allVars.Sorted()
		// Random query: 1-2 group vars, sometimes a predicate.
		q := &Query{Tables: tables}
		q.GroupVars = []string{varList[rng.Intn(len(varList))]}
		if rng.Float64() < 0.4 && len(varList) > 1 {
			other := varList[rng.Intn(len(varList))]
			if other != q.GroupVars[0] {
				q.GroupVars = append(q.GroupVars, other)
			}
		}
		if rng.Float64() < 0.5 {
			pv := varList[rng.Intn(len(varList))]
			// Predicate value within the variable's domain.
			dom := int32(2)
			for _, r := range rels {
				if a, ok := r.Attr(pv); ok {
					dom = int32(a.Domain)
					break
				}
			}
			q.Pred = relation.Predicate{pv: rng.Int31n(dom)}
		}

		// Oracle.
		oracleRels := make([]*relation.Relation, len(rels))
		copy(oracleRels, rels)
		for i, r := range oracleRels {
			pred := relation.Predicate{}
			for v, val := range q.Pred {
				if r.HasVar(v) {
					pred[v] = val
				}
			}
			if len(pred) > 0 {
				s, err := relation.Select(r, pred)
				if err != nil {
					t.Fatal(err)
				}
				oracleRels[i] = s
			}
		}
		joint, err := relation.ProductJoinAll(semiring.SumProduct, oracleRels...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := relation.Marginalize(semiring.SumProduct, joint, q.GroupVars)
		if err != nil {
			t.Fatal(err)
		}

		b := plan.NewBuilder(cat, cost.Simple{})
		for _, o := range All(rand.New(rand.NewSource(int64(trial)))) {
			p, err := o.Optimize(q, b)
			if err != nil {
				t.Fatalf("trial %d %s: optimize: %v", trial, o.Name(), err)
			}
			if err := plan.Validate(p); err != nil {
				t.Fatalf("trial %d %s: invalid plan: %v", trial, o.Name(), err)
			}
			got, err := plan.Eval(p, plan.MapResolver(relMap), semiring.SumProduct)
			if err != nil {
				t.Fatalf("trial %d %s: eval: %v", trial, o.Name(), err)
			}
			if !relation.Equal(got, want, 0, 1e-9) {
				t.Fatalf("trial %d %s: wrong answer for group=%v pred=%v\nplan:\n%s",
					trial, o.Name(), q.GroupVars, q.Pred, p)
			}
		}
	}
}
