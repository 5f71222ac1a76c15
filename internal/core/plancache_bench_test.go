package core

import (
	"math/rand"
	"testing"

	"mpf/internal/bayes"
	"mpf/internal/gen"
	"mpf/internal/opt"
	"mpf/internal/relation"
)

// benchDB opens a supply-chain database for the planning benchmarks
// (openSupplyChain needs *testing.T for Cleanup).
func benchDB(b *testing.B, cfg Config) *Database {
	b.Helper()
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.005, CtdealsDensity: 0.8, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	return benchView(b, cfg, "invest", ds.Relations)
}

// bnBenchDB opens a database whose view "bn" is the first n tables of the
// 24-node Bayesian network the bn_infer benchmark queries (shape seed
// 2007, domain 3). The first n nodes of a topologically ordered network
// are closed under parents, so any prefix is a network of its own.
func bnBenchDB(b *testing.B, n int) *Database {
	b.Helper()
	net, err := bayes.Random(rand.New(rand.NewSource(2007)), 24, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	rels, err := net.Relations()
	if err != nil {
		b.Fatal(err)
	}
	return benchView(b, Config{}, "bn", rels[:n])
}

// benchView opens a database holding rels as base tables and one view
// over all of them.
func benchView(b *testing.B, cfg Config, view string, rels []*relation.Relation) *Database {
	b.Helper()
	db, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tables := make([]string, len(rels))
	for i, r := range rels {
		if err := db.CreateTable(r); err != nil {
			b.Fatal(err)
		}
		tables[i] = r.Name()
	}
	if err := db.CreateView(view, tables); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkPlanning measures planning latency alone (Explain: optimize,
// never execute) for the cost-based CS+ search, the statistics-free
// greedy planner, and a warmed plan-cache probe — the three points the
// plan-cache experiment compares — plus the two inference-view cases:
// VE(degree) on the bn_infer benchmark's 24-table view, and the default
// nonlinear CS+ on its 12-table prefix.
func BenchmarkPlanning(b *testing.B) {
	spec := func(o opt.Optimizer) *QuerySpec {
		return &QuerySpec{View: "invest", GroupVars: []string{"wid"}, Optimizer: o}
	}
	explainLoop := func(b *testing.B, db *Database, q *QuerySpec) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Explain(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cs+nonlinear", func(b *testing.B) {
		explainLoop(b, benchDB(b, Config{}), spec(opt.CSPlus{}))
	})
	b.Run("greedy", func(b *testing.B) {
		explainLoop(b, benchDB(b, Config{}), spec(opt.Greedy{}))
	})
	b.Run("cache-hit", func(b *testing.B) {
		db := benchDB(b, Config{PlanCacheEntries: 8})
		q := spec(opt.CSPlus{})
		if _, _, err := db.Explain(q); err != nil {
			b.Fatal(err) // warm the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Explain(q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if hits := db.Metrics().PlanCache.Hits; hits < int64(b.N) {
			b.Fatalf("only %d plan-cache hits over %d iterations", hits, b.N)
		}
	})
	b.Run("ve(deg)/bn24", func(b *testing.B) {
		explainLoop(b, bnBenchDB(b, 24), &QuerySpec{View: "bn", GroupVars: []string{"x17"},
			Where: relation.Predicate{"x4": 1, "x21": 0}, Optimizer: opt.VE{Heuristic: opt.Degree}})
	})
	b.Run("cs+nonlinear/bn12", func(b *testing.B) {
		explainLoop(b, bnBenchDB(b, 12), &QuerySpec{View: "bn", GroupVars: []string{"x9"},
			Where: relation.Predicate{"x2": 1, "x12": 0}, Optimizer: opt.CSPlus{}})
	})
}
