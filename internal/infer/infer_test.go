package infer

import (
	"math/rand"
	"testing"

	"mpf/internal/gen"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

// chainRelations builds the acyclic supply-chain-shaped base relations at
// toy size so the brute-force joint is computable.
func chainRelations(t *testing.T, seed int64) []*relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	meas := relation.UniformMeasure(0.5, 2)
	mk := func(name string, attrs []relation.Attr, density float64) *relation.Relation {
		r, err := relation.Random(rng, name, attrs, density, meas)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	pid := relation.Attr{Name: "pid", Domain: 4}
	sid := relation.Attr{Name: "sid", Domain: 3}
	wid := relation.Attr{Name: "wid", Domain: 3}
	cid := relation.Attr{Name: "cid", Domain: 3}
	tid := relation.Attr{Name: "tid", Domain: 2}
	return []*relation.Relation{
		mk("contracts", []relation.Attr{pid, sid}, 1),
		mk("location", []relation.Attr{pid, wid}, 1),
		mk("warehouses", []relation.Attr{wid, cid}, 1),
		mk("ctdeals", []relation.Attr{cid, tid}, 1),
		mk("transporters", []relation.Attr{tid}, 1),
	}
}

// cyclicRelations adds Stdeals(sid,tid), the Appendix A cyclic extension.
func cyclicRelations(t *testing.T, seed int64) []*relation.Relation {
	t.Helper()
	rels := chainRelations(t, seed)
	rng := rand.New(rand.NewSource(seed + 1000))
	st, err := relation.Random(rng, "stdeals",
		[]relation.Attr{{Name: "sid", Domain: 3}, {Name: "tid", Domain: 2}}, 1,
		relation.UniformMeasure(0.5, 2))
	if err != nil {
		t.Fatal(err)
	}
	return append(rels, st)
}

func TestBeliefPropagationInvariant(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		base := chainRelations(t, seed)
		res, err := BeliefPropagation(semiring.SumProduct, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckInvariant(semiring.SumProduct, base, res.Relations, 1e-9); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Program) == 0 {
			t.Fatal("no semijoin steps recorded")
		}
		// Inputs untouched.
		base2 := chainRelations(t, seed)
		for i := range base {
			if !relation.Equal(base[i], base2[i], 0, 0) {
				t.Fatalf("seed %d: BP mutated input relation %d", seed, i)
			}
		}
	}
}

func TestBeliefPropagationProgramShape(t *testing.T) {
	base := chainRelations(t, 3)
	res, err := BeliefPropagation(semiring.SumProduct, base)
	if err != nil {
		t.Fatal(err)
	}
	// A 5-node chain join tree has 4 edges → 8 semijoin steps (Figure 11).
	if len(res.Program) != 8 {
		t.Fatalf("program has %d steps, want 8:\n%v", len(res.Program), res.Program)
	}
	forward := 0
	for _, s := range res.Program {
		if !s.Update {
			forward++
		}
		if s.String() == "" {
			t.Fatal("empty step rendering")
		}
	}
	if forward != 4 {
		t.Fatalf("forward steps = %d, want 4", forward)
	}
}

func TestBeliefPropagationRejectsCyclicSchema(t *testing.T) {
	base := cyclicRelations(t, 4)
	if _, err := BeliefPropagation(semiring.SumProduct, base); err == nil {
		t.Fatal("cyclic schema must be rejected (Appendix A double-count example)")
	}
}

func TestBeliefPropagationRejectsNonDivisionSemiring(t *testing.T) {
	base := chainRelations(t, 5)
	if _, err := BeliefPropagation(semiring.BoolOrAnd, base); err == nil {
		t.Fatal("bool semiring has no division")
	}
}

func TestBeliefPropagationMinSum(t *testing.T) {
	base := chainRelations(t, 6)
	res, err := BeliefPropagation(semiring.MinSum, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariant(semiring.MinSum, base, res.Relations, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestJunctionTreeSchemaMakesCyclicAcyclic(t *testing.T) {
	base := cyclicRelations(t, 7)
	cs, err := JunctionTreeSchema(semiring.SumProduct, base, []string{"tid", "sid", "pid", "wid", "cid"})
	if err != nil {
		t.Fatal(err)
	}
	// The new schema is acyclic, so BP now succeeds and its updated
	// relations satisfy the invariant against the ORIGINAL base tables
	// (the clique relations represent the same joint function).
	res, err := BeliefPropagation(semiring.SumProduct, cs.Relations)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariant(semiring.SumProduct, base, res.Relations, 1e-9); err != nil {
		t.Fatal(err)
	}
	// Every base relation was assigned to a containing clique.
	for i, a := range cs.Assignment {
		if !cs.Tree.Cliques[a].Contains(base[i].Vars()) {
			t.Fatalf("relation %d assigned to non-containing clique", i)
		}
	}
}

func TestJunctionTreeSchemaJointPreserved(t *testing.T) {
	base := cyclicRelations(t, 8)
	cs, err := JunctionTreeSchema(semiring.SumProduct, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJoint, err := relation.ProductJoinAll(semiring.SumProduct, base...)
	if err != nil {
		t.Fatal(err)
	}
	gotJoint, err := relation.ProductJoinAll(semiring.SumProduct, cs.Relations...)
	if err != nil {
		t.Fatal(err)
	}
	// Same function over the same variables (clique relations may be
	// incomplete only where base combinations are missing).
	if !relation.Equal(gotJoint, wantJoint, 0, 1e-9) {
		t.Fatal("clique schema changed the joint function")
	}
}

func TestJunctionTreeSchemaDomainConflict(t *testing.T) {
	a := relation.MustNew("a", []relation.Attr{{Name: "x", Domain: 2}})
	b := relation.MustNew("b", []relation.Attr{{Name: "x", Domain: 3}})
	if _, err := JunctionTreeSchema(semiring.SumProduct, []*relation.Relation{a, b}, nil); err == nil {
		t.Fatal("conflicting domains must be rejected")
	}
}

func TestVECacheInvariant(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		base := chainRelations(t, seed)
		cache, err := BuildVECache(semiring.SumProduct, base, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.CheckCacheInvariant(base, 1e-9); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cache.Size() == 0 {
			t.Fatal("cache is empty")
		}
	}
}

func TestVECachePaperOrder(t *testing.T) {
	base := chainRelations(t, 9)
	// The paper's Figure 5 elimination order (plus the remaining vars).
	cache, err := BuildVECache(semiring.SumProduct, base,
		[]string{"tid", "pid", "cid", "sid", "wid"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.CheckCacheInvariant(base, 1e-9); err != nil {
		t.Fatal(err)
	}
	// All five view variables are answerable.
	joint, _ := relation.ProductJoinAll(semiring.SumProduct, base...)
	for _, v := range []string{"pid", "sid", "wid", "cid", "tid"} {
		got, err := cache.Answer(v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := relation.Marginalize(semiring.SumProduct, joint, []string{v})
		if !relation.Equal(got, want, 0, 1e-9) {
			t.Fatalf("cache answer for %s differs from view marginal", v)
		}
	}
}

func TestVECacheRestrictedAnswer(t *testing.T) {
	base := chainRelations(t, 10)
	cache, err := BuildVECache(semiring.SumProduct, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	joint, _ := relation.ProductJoinAll(semiring.SumProduct, base...)
	got, err := cache.AnswerRestricted("wid", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := relation.Marginalize(semiring.SumProduct, joint, []string{"wid"})
	want, _ := relation.Select(m, relation.Predicate{"wid": 1})
	if !relation.Equal(got, want, 0, 1e-9) {
		t.Fatal("restricted answer differs")
	}
}

// TestVECacheConstrainedDomain reproduces the §6 running example: after
// constraining tid=1, querying wid from the reduced cache must equal the
// view computed under the selection. The second case enters two evidence
// variables that live in different cached tables.
func TestVECacheConstrainedDomain(t *testing.T) {
	for _, tc := range []struct {
		pred  relation.Predicate
		seeds []int64
		vars  []string
	}{
		{relation.Predicate{"tid": 1}, []int64{11}, []string{"wid", "cid", "pid", "sid"}},
		{relation.Predicate{"tid": 1, "sid": 2}, []int64{11, 12, 13, 14, 15}, []string{"wid", "cid", "pid"}},
	} {
		for _, seed := range tc.seeds {
			base := chainRelations(t, seed)
			cache, err := BuildVECache(semiring.SumProduct, base, nil)
			if err != nil {
				t.Fatal(err)
			}
			constrained, err := cache.ConstrainDomain(tc.pred)
			if err != nil {
				t.Fatal(err)
			}
			// Oracle: select the evidence on the base tables, then
			// marginalize.
			sel := make([]*relation.Relation, len(base))
			for i, r := range base {
				sel[i] = r
				p := relation.Predicate{}
				for v, val := range tc.pred {
					if r.HasVar(v) {
						p[v] = val
					}
				}
				if len(p) > 0 {
					sel[i], _ = relation.Select(r, p)
				}
			}
			joint, _ := relation.ProductJoinAll(semiring.SumProduct, sel...)
			for _, v := range tc.vars {
				got, err := constrained.Answer(v)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := relation.Marginalize(semiring.SumProduct, joint, []string{v})
				if !relation.Equal(got, want, 0, 1e-9) {
					t.Fatalf("seed %d, evidence %v: constrained answer for %s differs\ngot  %v\nwant %v", seed, tc.pred, v, got, want)
				}
			}
			// Original cache untouched.
			if err := cache.CheckCacheInvariant(base, 1e-9); err != nil {
				t.Fatal("ConstrainDomain mutated the original cache")
			}
		}
	}
}

func TestVECacheValidation(t *testing.T) {
	base := chainRelations(t, 12)
	if _, err := BuildVECache(semiring.SumProduct, nil, nil); err == nil {
		t.Fatal("empty relations should error")
	}
	if _, err := BuildVECache(semiring.BoolOrAnd, base, nil); err == nil {
		t.Fatal("non-divider semiring should error")
	}
	if _, err := BuildVECache(semiring.SumProduct, base, []string{"pid"}); err == nil {
		t.Fatal("short order should error")
	}
	if _, err := BuildVECache(semiring.SumProduct, base,
		[]string{"pid", "sid", "wid", "cid", "zzz"}); err == nil {
		t.Fatal("unknown order variable should error")
	}
	cache, err := BuildVECache(semiring.SumProduct, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Answer("zzz"); err == nil {
		t.Fatal("unknown query variable should error")
	}
	if _, err := cache.ConstrainDomain(nil); err == nil {
		t.Fatal("empty predicate should error")
	}
	if _, err := cache.ConstrainDomain(relation.Predicate{"zzz": 0}); err == nil {
		t.Fatal("predicate on unknown variable should error")
	}
}

func TestVECacheOnCyclicViaJunctionTree(t *testing.T) {
	base := cyclicRelations(t, 13)
	cs, err := JunctionTreeSchema(semiring.SumProduct, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := BuildVECache(semiring.SumProduct, cs.Relations, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Invariant against the ORIGINAL cyclic base relations.
	if err := cache.CheckCacheInvariant(base, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadCost(t *testing.T) {
	base := chainRelations(t, 14)
	cache, err := BuildVECache(semiring.SumProduct, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := int32(1)
	cost, err := cache.WorkloadCost([]WorkloadQuery{
		{Var: "wid", Prob: 0.5},
		{Var: "tid", Prob: 0.3},
		{Var: "pid", Prob: 0.2, Restricted: &v},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cost <= float64(cache.Size()) {
		t.Fatal("workload cost must exceed materialization cost alone")
	}
	if _, err := cache.WorkloadCost([]WorkloadQuery{{Var: "zz", Prob: 1}}); err == nil {
		t.Fatal("unknown workload variable should error")
	}
}

// TestVECacheSupplyChainGenerated exercises the cache on the gen package's
// supply chain (small scale) end to end.
func TestVECacheSupplyChainGenerated(t *testing.T) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.002, CtdealsDensity: 1, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := BuildVECache(semiring.SumProduct, ds.Relations, nil)
	if err != nil {
		t.Fatal(err)
	}
	joint, err := relation.ProductJoinAll(semiring.SumProduct, ds.Relations...)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.QueryVars {
		got, err := cache.Answer(v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := relation.Marginalize(semiring.SumProduct, joint, []string{v})
		if !relation.Equal(got, want, 0, 1e-6) {
			t.Fatalf("cache answer for %s wrong", v)
		}
	}
}
