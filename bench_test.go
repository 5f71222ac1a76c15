// Benchmarks regenerating the paper's evaluation (§7): one benchmark per
// table and figure, each sub-benchmark measuring the distinctive
// operation of that experiment (plan optimization for the cost tables,
// engine execution for the timing figures). cmd/mpfbench prints the full
// sweeps; these benches track the same quantities under `go test -bench`.
package mpf_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mpf/internal/catalog"
	"mpf/internal/core"
	"mpf/internal/cost"
	"mpf/internal/exec"
	"mpf/internal/experiments"
	"mpf/internal/gen"
	"mpf/internal/infer"
	"mpf/internal/opt"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// benchScale keeps engine executions in the milliseconds range so the
// full bench suite completes quickly; mpfbench runs the larger sweeps.
const benchScale = 0.01

func openSupply(b *testing.B, density float64, frames int) *core.Database {
	b.Helper()
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: benchScale, CtdealsDensity: density, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	db, err := core.Open(core.Config{PoolFrames: frames})
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

func openSynth(b *testing.B, kind gen.SyntheticKind, tables int) *core.Database {
	b.Helper()
	ds, err := gen.Synthetic(gen.SyntheticConfig{Kind: kind, Tables: tables, Domain: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	db, err := core.Open(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for _, r := range ds.Relations {
		if err := db.CreateTable(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.CreateView(ds.Name, ds.ViewTables); err != nil {
		b.Fatal(err)
	}
	return db
}

func runQuery(b *testing.B, db *core.Database, view string, o opt.Optimizer, groupVar string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(&core.QuerySpec{View: view, GroupVars: []string{groupVar}, Optimizer: o})
		if err != nil {
			b.Fatal(err)
		}
		if res.Relation.Len() == 0 {
			b.Fatal("empty result")
		}
	}
}

func explainQuery(b *testing.B, db *core.Database, view string, o opt.Optimizer, groupVar string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		p, _, err := db.Explain(&core.QuerySpec{View: view, GroupVars: []string{groupVar}, Optimizer: o})
		if err != nil {
			b.Fatal(err)
		}
		if p == nil {
			b.Fatal("nil plan")
		}
	}
}

// BenchmarkTable1 measures generating the Table 1 supply-chain instance.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: benchScale, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds.Relations) != 5 {
			b.Fatal("bad dataset")
		}
	}
}

// BenchmarkFig7 measures the plan-linearity experiment's four curves:
// Q1 (cid, Eq. 1 fails → nonlinear wins) and Q2 (tid, Eq. 1 holds) under
// linear and nonlinear CS+ at high CTdeals density.
func BenchmarkFig7(b *testing.B) {
	db := openSupply(b, 1.0, 256)
	for _, tc := range []struct {
		name string
		o    opt.Optimizer
		v    string
	}{
		{"q1cid/linear", opt.CSPlus{Linear: true}, "cid"},
		{"q1cid/nonlinear", opt.CSPlus{}, "cid"},
		{"q2tid/linear", opt.CSPlus{Linear: true}, "tid"},
		{"q2tid/nonlinear", opt.CSPlus{}, "tid"},
	} {
		b.Run(tc.name, func(b *testing.B) { runQuery(b, db, "invest", tc.o, tc.v) })
	}
}

// BenchmarkFig8 measures the extended-VE-space experiment: Q1/Q2/Q3 under
// nonlinear CS+, VE(deg) and VE(deg)+ext.
func BenchmarkFig8(b *testing.B) {
	db := openSupply(b, 0.5, 256)
	algos := []opt.Optimizer{
		opt.CSPlus{},
		opt.VE{Heuristic: opt.Degree},
		opt.VE{Heuristic: opt.Degree, Extended: true},
	}
	for _, v := range []string{"cid", "sid", "wid"} {
		for _, o := range algos {
			b.Run(fmt.Sprintf("%s/%s", v, o.Name()), func(b *testing.B) {
				runQuery(b, db, "invest", o, v)
			})
		}
	}
}

// BenchmarkFig9 measures the ordering-heuristics experiment: Q1 (cid) and
// Q2 (pid) under degree, width and elimination-cost.
func BenchmarkFig9(b *testing.B) {
	db := openSupply(b, 0.5, 256)
	for _, v := range []string{"cid", "pid"} {
		for _, h := range []opt.Heuristic{opt.Degree, opt.Width, opt.ElimCost} {
			o := opt.VE{Heuristic: h}
			b.Run(fmt.Sprintf("%s/%s", v, h), func(b *testing.B) {
				runQuery(b, db, "invest", o, v)
			})
		}
	}
}

// BenchmarkTable2 measures plan optimization for every Table 2 row on the
// star view (the schema where the heuristics differ most).
func BenchmarkTable2(b *testing.B) {
	db := openSynth(b, gen.Star, 5)
	for _, o := range []opt.Optimizer{
		opt.CSPlus{},
		opt.VE{Heuristic: opt.Degree},
		opt.VE{Heuristic: opt.Degree, Extended: true},
		opt.VE{Heuristic: opt.Width},
		opt.VE{Heuristic: opt.Width, Extended: true},
		opt.VE{Heuristic: opt.ElimCost},
		opt.VE{Heuristic: opt.ElimCost, Extended: true},
		opt.VE{Heuristic: opt.DegreeWidth},
		opt.VE{Heuristic: opt.DegreeElimCost},
	} {
		b.Run(o.Name(), func(b *testing.B) { explainQuery(b, db, "star", o, "x1") })
	}
}

// BenchmarkTable3 measures random-order VE planning, with and without the
// extended space.
func BenchmarkTable3(b *testing.B) {
	db := openSynth(b, gen.Star, 5)
	for _, ext := range []bool{false, true} {
		name := "ve(random)"
		if ext {
			name += "+ext"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			o := opt.VE{Heuristic: opt.RandomOrder, Extended: ext, Rng: rng}
			explainQuery(b, db, "star", o, "x1")
		})
	}
}

// BenchmarkFig10 measures the optimization-time side of the trade-off at
// N=7 for each algorithm family on each schema topology.
func BenchmarkFig10(b *testing.B) {
	for _, kind := range []gen.SyntheticKind{gen.Star, gen.MultiStar, gen.Linear} {
		db := openSynth(b, kind, 7)
		for _, o := range []opt.Optimizer{
			opt.CS{},
			opt.CSPlus{Linear: true},
			opt.CSPlus{},
			opt.VE{Heuristic: opt.Degree},
			opt.VE{Heuristic: opt.Degree, Extended: true},
			opt.VE{Heuristic: opt.Width, Extended: true},
		} {
			b.Run(fmt.Sprintf("%s/%s", kind, o.Name()), func(b *testing.B) {
				explainQuery(b, db, kind.String(), o, "x1")
			})
		}
	}
}

// BenchmarkAblationPushdown measures execution with and without GroupBy
// pushdown (design-choice ablation from DESIGN.md).
func BenchmarkAblationPushdown(b *testing.B) {
	db := openSupply(b, 0.5, 256)
	for _, o := range []opt.Optimizer{opt.CS{}, opt.CSPlus{Linear: true}, opt.CSPlus{}} {
		b.Run(o.Name(), func(b *testing.B) { runQuery(b, db, "invest", o, "wid") })
	}
}

// BenchmarkAblationBufferPool measures the disk-resident regime: the same
// query against shrinking buffer pools.
func BenchmarkAblationBufferPool(b *testing.B) {
	for _, frames := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("frames-%d", frames), func(b *testing.B) {
			db := openSupply(b, 0.5, frames)
			runQuery(b, db, "invest", opt.CSPlus{}, "wid")
		})
	}
}

// BenchmarkVECacheBuild measures Algorithm 3 (workload cache
// materialization) on the supply chain.
func BenchmarkVECacheBuild(b *testing.B) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: benchScale, CtdealsDensity: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache, err := infer.BuildVECache(semiring.SumProduct, ds.Relations, nil)
		if err != nil {
			b.Fatal(err)
		}
		if cache.Size() == 0 {
			b.Fatal("empty cache")
		}
	}
}

// BenchmarkVECacheAnswer measures answering single-variable workload
// queries from the cache (the §6 fast path).
func BenchmarkVECacheAnswer(b *testing.B) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: benchScale, CtdealsDensity: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cache, err := infer.BuildVECache(semiring.SumProduct, ds.Relations, nil)
	if err != nil {
		b.Fatal(err)
	}
	vars := ds.QueryVars
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Answer(vars[i%len(vars)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBeliefPropagation measures one full BP pass over the
// supply-chain schema.
func BenchmarkBeliefPropagation(b *testing.B) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.005, CtdealsDensity: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.BeliefPropagation(semiring.SumProduct, ds.Relations); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProductJoin measures the core algebra operation.
func BenchmarkProductJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l, _ := relation.Random(rng, "l",
		[]relation.Attr{{Name: "a", Domain: 200}, {Name: "b", Domain: 50}}, 0.5,
		relation.UniformMeasure(0, 1))
	r, _ := relation.Random(rng, "r",
		[]relation.Attr{{Name: "b", Domain: 50}, {Name: "c", Domain: 200}}, 0.5,
		relation.UniformMeasure(0, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := relation.ProductJoin(semiring.SumProduct, l, r)
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() == 0 {
			b.Fatal("empty join")
		}
	}
}

// BenchmarkExperimentHarness runs the quick version of each registered
// experiment once per iteration, guarding against harness regressions.
func BenchmarkExperimentHarness(b *testing.B) {
	for _, id := range []string{"table2", "fig10"} {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(id, experiments.Config{Quick: true, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMarginalize measures the core aggregation operation of the
// extended algebra.
func BenchmarkMarginalize(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	r, _ := relation.Random(rng, "r",
		[]relation.Attr{{Name: "a", Domain: 100}, {Name: "b", Domain: 100}, {Name: "c", Domain: 10}},
		0.3, relation.UniformMeasure(0, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := relation.Marginalize(semiring.SumProduct, r, []string{"a"})
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() == 0 {
			b.Fatal("empty marginal")
		}
	}
}

// BenchmarkUpdateSemijoin measures the BP backward-pass operator.
func BenchmarkUpdateSemijoin(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	t1, _ := relation.Random(rng, "t",
		[]relation.Attr{{Name: "a", Domain: 200}, {Name: "b", Domain: 50}}, 0.5,
		relation.UniformMeasure(0.5, 2))
	s1, _ := relation.Random(rng, "s",
		[]relation.Attr{{Name: "b", Domain: 50}, {Name: "c", Domain: 200}}, 0.5,
		relation.UniformMeasure(0.5, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relation.UpdateSemijoin(semiring.SumProduct, t1, s1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelGraceJoin measures intra-query parallelism on a large
// Grace join in the IO-bound regime: a 64-frame pool over a disk with
// 1ms page-read latency, so the join is dominated by read stalls that
// Engine.Parallelism workers overlap (this speeds up even on one core).
// Expect ≥1.5× at workers-4 vs workers-1; physical reads stay ~equal.
func BenchmarkParallelGraceJoin(b *testing.B) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.02, CtdealsDensity: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	loc := ds.RelationMap()["location"]
	demand := relation.MustNew("demand", loc.Attrs())
	rng := rand.New(rand.NewSource(991))
	for i := 0; i < loc.Len(); i++ {
		demand.MustAppend(loc.Row(i), 0.1+rng.Float64())
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				factory := storage.LatencyMemDiskFactory(time.Millisecond, 0)
				pool := storage.NewPool(64)
				eng := exec.NewEngine(pool, factory, semiring.SumProduct)
				eng.Parallelism = workers
				// Grace (inputs exceed the cap) without recursive
				// repartitioning (each ~1/16 partition fits the build).
				eng.HashJoinMaxBuild = 4096
				cat := catalog.New()
				tables := make(map[string]*exec.Table, 2)
				for _, r := range []*relation.Relation{loc, demand} {
					t, err := exec.LoadRelation(pool, factory, r)
					if err != nil {
						b.Fatal(err)
					}
					tables[r.Name()] = t
					if err := cat.AddTable(catalog.AnalyzeRelation(r)); err != nil {
						b.Fatal(err)
					}
				}
				pb := plan.NewBuilder(cat, cost.Simple{})
				sl, err := pb.Scan("location")
				if err != nil {
					b.Fatal(err)
				}
				sd, err := pb.Scan("demand")
				if err != nil {
					b.Fatal(err)
				}
				_, st, err := eng.Run(pb.Join(sl, sd), exec.MapResolver(tables))
				if err != nil {
					b.Fatal(err)
				}
				if st.RowsOut == 0 {
					b.Fatal("empty join")
				}
				for _, t := range tables {
					t.Heap.Drop()
				}
			}
		})
	}
}

// BenchmarkJunctionTreeSchema measures the Algorithm 5 transform on the
// cyclic supply-chain schema.
func BenchmarkJunctionTreeSchema(b *testing.B) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.004, CtdealsDensity: 0.8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	sidAttr, _ := ds.Relations[0].Attr("sid")
	tidAttr, _ := ds.Relations[4].Attr("tid")
	st, err := relation.Random(rng, "stdeals",
		[]relation.Attr{sidAttr, tidAttr}, 0.4, relation.UniformMeasure(0.5, 1))
	if err != nil {
		b.Fatal(err)
	}
	cyclic := append(append([]*relation.Relation{}, ds.Relations...), st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.JunctionTreeSchema(semiring.SumProduct, cyclic, nil); err != nil {
			b.Fatal(err)
		}
	}
}
