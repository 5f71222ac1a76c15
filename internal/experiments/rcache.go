package experiments

import (
	"fmt"

	"mpf/internal/gen"
)

// ResultCacheExp measures the inter-query result cache on a repeated
// decision-support workload: the five single-variable marginals over the
// supply-chain view (the paper's §6 query workload), run as two identical
// passes. With the cache disabled the second pass repeats every page IO
// of the first; with it enabled the second pass splices in the cached
// aggregated-join materializations (VE intermediates) and its physical
// IO drops by at least 2× — the acceptance shape recorded in
// EXPERIMENTS.md.
func ResultCacheExp(cfg Config) (*Table, error) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{
		Scale: cfg.scale(), CtdealsDensity: 0.5, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	budget := cfg.ResultCacheBytes
	if budget == 0 {
		budget = 64 << 20
	}
	// The cache trades buffer-pool IO for cached-page scans, so the
	// experiment must run disk-resident: default to a pool far smaller
	// than the working set (the paper's regime) unless overridden.
	frames := cfg.PoolFrames
	if frames == 0 {
		frames = 32
	}
	tbl := &Table{
		ID:     "result-cache",
		Title:  "repeated workload IO with the inter-query result cache",
		Header: []string{"cache", "pass", "reads", "writes", "IO", "hits", "misses", "IO vs pass 1"},
		Notes: "pass 2 with the cache enabled must do at most half the physical IO of pass 1 " +
			"(cached aggregated joins are scanned instead of recomputed); disabled passes repeat identically",
	}
	for _, budgetBytes := range []int64{0, budget} {
		sess, err := openCachedDataset(ds, cfg, frames, budgetBytes)
		if err != nil {
			return nil, err
		}
		label := "off"
		if budgetBytes > 0 {
			label = fmt.Sprintf("%dMiB", budgetBytes>>20)
		}
		var pass1 int64
		for pass := 1; pass <= 2; pass++ {
			before := sess.db.Pool().Stats()
			hitsBefore := sess.db.Metrics().ResultCache.Hits
			missBefore := sess.db.Metrics().ResultCache.Misses
			for _, v := range ds.QueryVars {
				if _, err := sess.run(nil, []string{v}, nil); err != nil {
					sess.close()
					return nil, err
				}
			}
			d := sess.db.Pool().Stats().Sub(before)
			m := sess.db.Metrics().ResultCache
			ratio := "1.00x"
			if pass == 1 {
				pass1 = d.IO()
			} else if d.IO() > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(pass1)/float64(d.IO()))
			} else {
				ratio = "inf"
			}
			tbl.Rows = append(tbl.Rows, []string{
				label, itoa(int64(pass)), itoa(d.Reads), itoa(d.Writes), itoa(d.IO()),
				itoa(m.Hits - hitsBefore), itoa(m.Misses - missBefore), ratio,
			})
		}
		sess.close()
	}
	return tbl, nil
}

// openCachedDataset is openDataset with a result-cache budget.
func openCachedDataset(ds *gen.Dataset, cfg Config, frames int, cacheBytes int64) (*session, error) {
	ccfg := sessionConfig(cfg, frames)
	ccfg.ResultCacheBytes = cacheBytes
	return openSession(ds, ccfg)
}
