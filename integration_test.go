package mpf

import (
	"testing"

	"mpf/internal/gen"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

// TestFullLifecycle exercises the whole system in one flow: generate a
// dataset, load it, query it under several strategies, mutate it, cache
// it, constrain the cache, and confirm every answer against the algebra
// oracle.
func TestFullLifecycle(t *testing.T) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.004, CtdealsDensity: 0.9, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{PoolFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, r := range ds.Relations {
		if err := db.CreateTable(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateView("invest", ds.ViewTables); err != nil {
		t.Fatal(err)
	}

	oracle := func() *relation.Relation {
		rels := make([]*relation.Relation, len(ds.ViewTables))
		for i, name := range ds.ViewTables {
			r, err := db.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			rels[i] = r
		}
		j, err := relation.ProductJoinAll(semiring.SumProduct, rels...)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	check := func(stage, groupVar string, pred Predicate) {
		t.Helper()
		for _, optName := range []string{"cs+nonlinear", "ve(width)+ext", "ve(deg)"} {
			o, err := OptimizerByName(optName)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Query(&QuerySpec{
				View: "invest", GroupVars: []string{groupVar}, Where: pred, Optimizer: o,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", stage, optName, err)
			}
			j := oracle()
			if len(pred) > 0 {
				j, err = relation.Select(j, pred)
				if err != nil {
					t.Fatal(err)
				}
			}
			want, err := relation.Marginalize(semiring.SumProduct, j, []string{groupVar})
			if err != nil {
				t.Fatal(err)
			}
			if !relation.Equal(res.Relation, want, 0, 1e-6) {
				t.Fatalf("%s/%s: wrong answer for %s", stage, optName, groupVar)
			}
		}
	}

	check("initial", "wid", nil)
	check("initial-pred", "cid", Predicate{"tid": 1})

	// Mutate: insert a contract and delete a deal; answers must track.
	contracts, _ := db.Relation("contracts")
	pidAttr, _ := contracts.Attr("pid")
	sidAttr, _ := contracts.Attr("sid")
	var free []int32
	// Find an unused (pid, sid) pair.
findLoop:
	for p := int32(0); p < int32(pidAttr.Domain); p++ {
		for s := int32(0); s < int32(sidAttr.Domain); s++ {
			used := false
			for i := 0; i < contracts.Len(); i++ {
				if contracts.Value(i, 0) == p && contracts.Value(i, 1) == s {
					used = true
					break
				}
			}
			if !used {
				free = []int32{p, s}
				break findLoop
			}
		}
	}
	if free == nil {
		t.Skip("no free contract slot at this scale")
	}
	if err := db.Insert("contracts", free, 42.5); err != nil {
		t.Fatal(err)
	}
	ctdeals, _ := db.Relation("ctdeals")
	victim := append([]int32(nil), ctdeals.Row(0)...)
	if removed, err := db.Delete("ctdeals", victim); err != nil || !removed {
		t.Fatalf("delete: %v removed=%v", err, removed)
	}
	check("after-writes", "wid", nil)
	check("after-writes-pred", "sid", Predicate{"wid": 2})

	// Cache and constrained-domain protocol.
	cache, err := db.BuildCache("invest", nil)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := cache.Answer("cid")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := relation.Marginalize(semiring.SumProduct, oracle(), []string{"cid"})
	if !relation.Equal(ans, want, 0, 1e-6) {
		t.Fatal("cache answer wrong after writes")
	}
	constrained, err := cache.ConstrainDomain(Predicate{"tid": 0})
	if err != nil {
		t.Fatal(err)
	}
	consAns, err := constrained.Answer("wid")
	if err != nil {
		t.Fatal(err)
	}
	selJ, _ := relation.Select(oracle(), Predicate{"tid": 0})
	consWant, _ := relation.Marginalize(semiring.SumProduct, selJ, []string{"wid"})
	if !relation.Equal(consAns, consWant, 0, 1e-6) {
		t.Fatal("constrained cache answer wrong")
	}
}
