package core

import (
	"testing"

	"mpf/internal/gen"
	"mpf/internal/opt"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

func openSupplyChain(t *testing.T, cfg Config) (*Database, *gen.Dataset) {
	t.Helper()
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.005, CtdealsDensity: 0.8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, r := range ds.Relations {
		if err := db.CreateTable(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateView("invest", ds.ViewTables); err != nil {
		t.Fatal(err)
	}
	return db, ds
}

func TestCreateTableValidation(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	anon := relation.MustNew("", []relation.Attr{{Name: "a", Domain: 2}})
	if err := db.CreateTable(anon); err == nil {
		t.Fatal("unnamed relation should error")
	}
	bad := relation.MustNew("bad", []relation.Attr{{Name: "a", Domain: 2}})
	bad.MustAppend([]int32{0}, 1)
	bad.MustAppend([]int32{0}, 2)
	if err := db.CreateTable(bad); err == nil {
		t.Fatal("FD violation should error")
	}
	ok := relation.MustNew("ok", []relation.Attr{{Name: "a", Domain: 2}})
	ok.MustAppend([]int32{0}, 1)
	if err := db.CreateTable(ok); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(ok); err == nil {
		t.Fatal("duplicate table should error")
	}
	if _, err := db.Relation("ghost"); err == nil {
		t.Fatal("unknown relation should error")
	}
}

func TestQueryEngineVsMemoryAgree(t *testing.T) {
	db, ds := openSupplyChain(t, Config{PoolFrames: 32})
	for _, v := range []string{"wid", "cid", "tid"} {
		spec := &QuerySpec{View: "invest", GroupVars: []string{v}}
		eng, err := db.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec2 := &QuerySpec{View: "invest", GroupVars: []string{v}, Exec: MemoryExec}
		mem, err := db.Query(spec2)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(eng.Relation, mem.Relation, 0, 1e-6) {
			t.Fatalf("engine and memory execution disagree on %s", v)
		}
		if eng.Plan == nil || eng.Optimize <= 0 {
			t.Fatal("missing plan or optimize time")
		}
		if eng.Exec.Operators == 0 {
			t.Fatal("missing exec stats")
		}
	}
	_ = ds
}

func TestQueryMatchesOracle(t *testing.T) {
	db, ds := openSupplyChain(t, Config{})
	joint, err := relation.ProductJoinAll(semiring.SumProduct, ds.Relations...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(&QuerySpec{
		View: "invest", GroupVars: []string{"cid"},
		Where: relation.Predicate{"tid": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := relation.Select(joint, relation.Predicate{"tid": 1})
	want, _ := relation.Marginalize(semiring.SumProduct, sel, []string{"cid"})
	if !relation.Equal(res.Relation, want, 0, 1e-6) {
		t.Fatal("query result differs from oracle")
	}
}

func TestQueryWithExplicitOptimizers(t *testing.T) {
	db, _ := openSupplyChain(t, Config{})
	var base *relation.Relation
	for _, o := range []opt.Optimizer{opt.CS{}, opt.CSPlus{Linear: true}, opt.VE{Heuristic: opt.Width, Extended: true}} {
		res, err := db.Query(&QuerySpec{View: "invest", GroupVars: []string{"wid"}, Optimizer: o})
		if err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		if base == nil {
			base = res.Relation
			continue
		}
		if !relation.Equal(base, res.Relation, 0, 1e-6) {
			t.Fatalf("optimizer %s changed the answer", o.Name())
		}
	}
}

func TestExplain(t *testing.T) {
	db, _ := openSupplyChain(t, Config{})
	p, d, err := db.Explain(&QuerySpec{View: "invest", GroupVars: []string{"wid"}})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || d <= 0 {
		t.Fatal("explain must return a plan and time")
	}
	if _, _, err := db.Explain(&QuerySpec{View: "ghost", GroupVars: []string{"wid"}}); err == nil {
		t.Fatal("unknown view should error")
	}
}

func TestViewValidation(t *testing.T) {
	db, _ := openSupplyChain(t, Config{})
	if err := db.CreateView("v2", []string{"ghost"}); err == nil {
		t.Fatal("view over unknown table should error")
	}
}

func TestBuildAndQueryCache(t *testing.T) {
	db, ds := openSupplyChain(t, Config{})
	cache, err := db.BuildCache("invest", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Size() == 0 {
		t.Fatal("cache empty")
	}
	got, err := db.Cache("invest")
	if err != nil || got != cache {
		t.Fatal("Cache lookup failed")
	}
	joint, _ := relation.ProductJoinAll(semiring.SumProduct, ds.Relations...)
	for _, v := range ds.QueryVars {
		ans, err := db.QueryCached("invest", v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := relation.Marginalize(semiring.SumProduct, joint, []string{v})
		if !relation.Equal(ans, want, 0, 1e-6) {
			t.Fatalf("cached answer for %s wrong", v)
		}
	}
	if _, err := db.Cache("ghost"); err == nil {
		t.Fatal("unknown cache should error")
	}
}

// TestBuildCacheOvertakenByCommit commits a Delete between BuildCache's
// build and its install. The commit's invalidation has already run, so
// installing the cache would serve pre-commit marginals until the next
// write.
func TestBuildCacheOvertakenByCommit(t *testing.T) {
	db, ds := openSupplyChain(t, Config{})
	table := ds.ViewTables[0]
	stored, err := db.Relation(table)
	if err != nil {
		t.Fatal(err)
	}
	row := stored.Row(0)
	db.beforeCacheInstall = func() {
		if ok, err := db.Delete(table, row); !ok || err != nil {
			t.Errorf("delete of a stored row: %v, %v", ok, err)
		}
	}
	if _, err := db.BuildCache("invest", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Cache("invest"); err == nil {
		t.Fatal("BuildCache installed a cache that a commit had overtaken")
	}
	for _, v := range ds.QueryVars {
		got, err := db.QueryCached("invest", v)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(&QuerySpec{View: "invest", GroupVars: []string{v}})
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(got, res.Relation, 0, 1e-9) {
			t.Fatalf("QueryCached(%s) differs from Query after the delete", v)
		}
	}
}

func TestQueryCachedFallsBack(t *testing.T) {
	db, _ := openSupplyChain(t, Config{})
	// No cache built yet: falls back to full evaluation.
	ans, err := db.QueryCached("invest", "tid")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() == 0 {
		t.Fatal("fallback answer empty")
	}
}

func TestMinProductDatabase(t *testing.T) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.005, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{Semiring: semiring.MinProduct})
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
	res, err := db.Query(&QuerySpec{View: "invest", GroupVars: []string{"pid"}})
	if err != nil {
		t.Fatal(err)
	}
	joint, _ := relation.ProductJoinAll(semiring.MinProduct, ds.Relations...)
	want, _ := relation.Marginalize(semiring.MinProduct, joint, []string{"pid"})
	if !relation.Equal(res.Relation, want, semiring.MinProduct.Zero(), 1e-6) {
		t.Fatal("min-product query wrong")
	}
}
