package experiments

import (
	"fmt"
	"time"

	"mpf/internal/gen"
	"mpf/internal/opt"
)

// PlanCacheExp measures the plan cache and the budgeted greedy planner on
// the two workload regimes they target.
//
// The cache section runs the repeated decision-support workload (the five
// single-variable marginals over the supply-chain view) twice, with the
// plan cache off and on: the second pass with the cache on answers every
// planning request from the cache, so its planning latency must be at
// least 2× lower than its first pass while executed-plan quality
// (physical IO) is unchanged against the cache-off run.
//
// The planner section compares CS+ nonlinear against the statistics-free
// greedy planner on the supply-chain view (small N — planning is cheap,
// CS+'s search pays for itself) and on a longer synthetic chain view
// (larger N — the bushy dynamic program's exponential subset enumeration
// dominates total latency and greedy wins on plan+execute) — the paper's
// Figure 10 trade-off with greedy as the low-latency endpoint. Greedy
// must stay within 1.5× of CS+ plan cost everywhere.
func PlanCacheExp(cfg Config) (*Table, error) {
	sc, err := gen.SupplyChain(gen.SupplyChainConfig{
		Scale: cfg.scale(), CtdealsDensity: 0.5, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	chainTables := 10
	if cfg.Quick {
		chainTables = 7
	}
	chain, err := gen.Synthetic(gen.SyntheticConfig{Kind: gen.Linear, Tables: chainTables, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:     "plan-cache",
		Title:  "plan cache and greedy planner: planning vs total latency",
		Header: []string{"section", "regime", "planner", "pass", "plan ms", "exec ms", "total ms", "IO", "plan cost", "plan speedup"},
		Notes: "cache pass 2 must plan >=2x faster than pass 1 with IO unchanged vs cache-off; " +
			"greedy must beat cs+nonlinear on total latency on the long chain while staying within 1.5x of its plan cost",
	}

	// Cache section: two identical passes, plan cache off vs on.
	for _, entries := range []int{0, 64} {
		ccfg := sessionConfig(cfg, cfg.frames())
		ccfg.PlanCacheEntries = entries
		sess, err := openSession(sc, ccfg)
		if err != nil {
			return nil, err
		}
		label := "off"
		if entries > 0 {
			label = fmt.Sprintf("%d entries", entries)
		}
		var pass1Plan time.Duration
		for pass := 1; pass <= 2; pass++ {
			var plan, exec time.Duration
			var io int64
			var cost float64
			before := sess.db.Pool().Stats()
			for _, v := range sc.QueryVars {
				b, err := sess.run(nil, []string{v}, nil)
				if err != nil {
					sess.close()
					return nil, err
				}
				plan += b.Optimize
				exec += b.Wall
				cost += b.PlanCost
			}
			io = sess.db.Pool().Stats().Sub(before).IO()
			speedup := "1.00x"
			if pass == 1 {
				pass1Plan = plan
			} else if plan > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(pass1Plan)/float64(plan))
			} else {
				speedup = "inf"
			}
			tbl.Rows = append(tbl.Rows, []string{
				"cache", "supplychain", "cache:" + label, itoa(int64(pass)),
				ms(plan), ms(exec), ms(plan + exec), itoa(io), f2(cost), speedup,
			})
		}
		sess.close()
	}

	// Planner section: CS+ nonlinear vs greedy, cold plans every query.
	regimes := []struct {
		name string
		ds   *gen.Dataset
		vars []string
	}{
		{"supplychain", sc, sc.QueryVars},
		{fmt.Sprintf("chain%d", chainTables), chain, chain.QueryVars[:3]},
	}
	for _, rg := range regimes {
		var csPlan time.Duration
		for _, o := range []opt.Optimizer{opt.CSPlus{}, opt.Greedy{}} {
			sess, err := openDataset(rg.ds, cfg, cfg.frames())
			if err != nil {
				return nil, err
			}
			var plan, exec time.Duration
			var cost float64
			before := sess.db.Pool().Stats()
			for _, v := range rg.vars {
				b, err := sess.run(o, []string{v}, nil)
				if err != nil {
					sess.close()
					return nil, err
				}
				plan += b.Optimize
				exec += b.Wall
				cost += b.PlanCost
			}
			io := sess.db.Pool().Stats().Sub(before).IO()
			speedup := "1.00x"
			if o.Name() == (opt.CSPlus{}).Name() {
				csPlan = plan
			} else if plan > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(csPlan)/float64(plan))
			}
			tbl.Rows = append(tbl.Rows, []string{
				"planner", rg.name, o.Name(), "1",
				ms(plan), ms(exec), ms(plan + exec), itoa(io), f2(cost), speedup,
			})
			sess.close()
		}
	}
	return tbl, nil
}
