package core

import (
	"testing"

	"mpf/internal/gen"
	"mpf/internal/opt"
)

// benchDB opens a supply-chain database for the planning benchmarks
// (openSupplyChain needs *testing.T for Cleanup).
func benchDB(b *testing.B, cfg Config) *Database {
	b.Helper()
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.005, CtdealsDensity: 0.8, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	db, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for _, r := range ds.Relations {
		if err := db.CreateTable(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.CreateView("invest", ds.ViewTables); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkPlanning measures planning latency alone (Explain: optimize,
// never execute) for the cost-based CS+ search, the statistics-free
// greedy planner, and a warmed plan-cache probe — the three points the
// plan-cache experiment compares.
func BenchmarkPlanning(b *testing.B) {
	spec := func(o opt.Optimizer) *QuerySpec {
		return &QuerySpec{View: "invest", GroupVars: []string{"wid"}, Optimizer: o}
	}
	b.Run("cs+nonlinear", func(b *testing.B) {
		db := benchDB(b, Config{})
		q := spec(opt.CSPlus{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Explain(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		db := benchDB(b, Config{})
		q := spec(opt.Greedy{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Explain(q); err != nil {
				b.Fatal(err)
			}
		}
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
}
