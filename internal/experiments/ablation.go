package experiments

import (
	"fmt"
	"time"

	"mpf/internal/core"
	"mpf/internal/gen"
	"mpf/internal/infer"
	"mpf/internal/opt"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

// AblationPushdown isolates the value of GroupBy pushdown: the same
// supply-chain query evaluated with CS (no pushdown), linear CS+, and
// nonlinear CS+.
func AblationPushdown(cfg Config) (*Table, error) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: cfg.scale(), CtdealsDensity: 0.5, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	s, err := openDataset(ds, cfg, cfg.frames())
	if err != nil {
		return nil, err
	}
	defer s.close()
	t := &Table{
		ID:     "ablation-pushdown",
		Title:  "GroupBy pushdown ablation on Q1 (group by wid)",
		Header: []string{"algorithm", "exec ms", "page IO", "plan cost", "opt ms"},
		Notes:  "expected: CS pays the full join; each pushdown level reduces IO and time",
	}
	for _, o := range []opt.Optimizer{opt.CS{}, opt.CSPlus{Linear: true}, opt.CSPlus{}} {
		b, err := s.run(o, []string{"wid"}, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{o.Name(), ms(b.Wall), itoa(b.IO), f2(b.PlanCost), ms(b.Optimize)})
	}
	return t, nil
}

// AblationBufferPool measures how the disk-resident regime emerges as the
// buffer pool shrinks relative to the working set.
func AblationBufferPool(cfg Config) (*Table, error) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: cfg.scale(), CtdealsDensity: 0.5, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	frames := []int{8, 32, 128, 512, 2048}
	if cfg.Quick {
		frames = []int{8, 128}
	}
	t := &Table{
		ID:     "ablation-bufferpool",
		Title:  "buffer-pool sensitivity on Q1 (group by wid, nonlinear CS+)",
		Header: []string{"frames", "exec ms", "page reads", "page writes", "hits"},
		Notes:  "expected: physical reads fall as the pool grows; above the working set only cold misses remain",
	}
	for _, fr := range frames {
		s, err := openDataset(ds, cfg, fr)
		if err != nil {
			return nil, err
		}
		res, err := s.db.Query(&core.QuerySpec{
			View: ds.Name, GroupVars: []string{"wid"}, Optimizer: opt.CSPlus{},
		})
		if err != nil {
			s.close()
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(int64(fr)), ms(res.Exec.Wall),
			itoa(res.Exec.IO.Reads), itoa(res.Exec.IO.Writes), itoa(res.Exec.IO.Hits),
		})
		s.close()
	}
	return t, nil
}

// AblationFusion measures pipelining GroupBy-over-Join pairs through the
// fused operator versus the default materializing operators.
func AblationFusion(cfg Config) (*Table, error) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: cfg.scale(), CtdealsDensity: 0.5, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	s, err := openDataset(ds, cfg, cfg.frames())
	if err != nil {
		return nil, err
	}
	defer s.close()
	t := &Table{
		ID:     "ablation-fusion",
		Title:  "fused join+group-by pipeline vs materializing operators",
		Header: []string{"query", "mode", "exec ms", "temp tuples", "page IO"},
		Notes:  "expected: fusion skips the join materialization, cutting intermediate tuples and time on aggregation-heavy plans",
	}
	for _, qv := range []string{"wid", "cid"} {
		for _, fuse := range []bool{false, true} {
			s.db.Engine().FuseJoinGroupBy = fuse
			res, err := s.db.Query(&core.QuerySpec{
				View: ds.Name, GroupVars: []string{qv}, Optimizer: opt.CSPlus{},
			})
			if err != nil {
				return nil, err
			}
			mode := "materialize"
			if fuse {
				mode = "fused"
			}
			t.Rows = append(t.Rows, []string{
				qv, mode, ms(res.Exec.Wall), itoa(res.Exec.TempTuples), itoa(res.Exec.IO.IO()),
			})
		}
	}
	s.db.Engine().FuseJoinGroupBy = false
	return t, nil
}

// AblationWorkload evaluates the §6 workload optimizer: a probabilistic
// workload of single-variable queries answered from the VE-cache versus
// re-evaluated from scratch, reporting build cost, the C(S)+E[cost]
// objective, and wall-clock for both strategies.
func AblationWorkload(cfg Config) (*Table, error) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: cfg.scale(), CtdealsDensity: 0.6, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	s, err := openDataset(ds, cfg, cfg.frames())
	if err != nil {
		return nil, err
	}
	defer s.close()

	workload := []infer.WorkloadQuery{
		{Var: "wid", Prob: 0.4},
		{Var: "cid", Prob: 0.3},
		{Var: "tid", Prob: 0.15},
		{Var: "pid", Prob: 0.1},
		{Var: "sid", Prob: 0.05},
	}
	n := 100
	if cfg.Quick {
		n = 20
	}
	rng := cfg.rng(77)
	draw := func() string {
		u := rng.Float64()
		acc := 0.0
		for _, q := range workload {
			acc += q.Prob
			if u < acc {
				return q.Var
			}
		}
		return workload[len(workload)-1].Var
	}
	vars := make([]string, n)
	for i := range vars {
		vars[i] = draw()
	}

	buildStart := time.Now()
	cache, err := infer.BuildVECache(semiring.SumProduct, ds.Relations, nil)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(buildStart)
	objective, err := cache.WorkloadCost(workload)
	if err != nil {
		return nil, err
	}

	cacheStart := time.Now()
	for _, v := range vars {
		if _, err := cache.Answer(v); err != nil {
			return nil, err
		}
	}
	cacheTime := time.Since(cacheStart)

	scratchStart := time.Now()
	for _, v := range vars {
		if _, err := s.run(opt.CSPlus{}, []string{v}, nil); err != nil {
			return nil, err
		}
	}
	scratchTime := time.Since(scratchStart)

	t := &Table{
		ID:     "ablation-workload",
		Title:  fmt.Sprintf("§6 workload: %d queries from VE-cache vs from scratch", n),
		Header: []string{"metric", "value"},
		Notes:  "expected: cache answers orders of magnitude faster once built; objective = C(S)+E[cost] in tuples",
	}
	t.Rows = [][]string{
		{"cache tables", itoa(int64(len(cache.Tables)))},
		{"cache tuples C(S)", itoa(int64(cache.Size()))},
		{"objective C(S)+E[cost]", f2(objective)},
		{"cache build ms", ms(buildTime)},
		{"answer from cache ms", ms(cacheTime)},
		{"answer from scratch ms", ms(scratchTime)},
		{"speedup", f2(float64(scratchTime) / float64(cacheTime))},
	}
	return t, nil
}

// AblationFDSkip measures Proposition 1: a view with a functionally
// determined non-key variable ("region", determined by wid) is optimized
// by VE with and without the FD preprocessing.
func AblationFDSkip(cfg Config) (*Table, error) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: cfg.scale(), CtdealsDensity: 0.5, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	// Replace warehouses with a version carrying a region attribute
	// determined by wid, and declare per-table keys.
	m := ds.RelationMap()
	oldWh := m["warehouses"]
	widAttr, _ := oldWh.Attr("wid")
	cidAttr, _ := oldWh.Attr("cid")
	regions := 4
	wh := relation.MustNew("warehouses", []relation.Attr{
		widAttr, cidAttr, {Name: "region", Domain: regions},
	})
	for i := 0; i < oldWh.Len(); i++ {
		row := oldWh.Row(i)
		wh.MustAppend([]int32{row[0], row[1], row[0] % int32(regions)}, oldWh.Measure(i))
	}
	keys := map[string][]string{
		"contracts":    {"pid", "sid"},
		"location":     {"pid", "wid"},
		"warehouses":   {"wid"},
		"ctdeals":      {"cid", "tid"},
		"transporters": {"tid"},
	}
	db, err := core.Open(core.Config{PoolFrames: cfg.frames(), Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	for _, r := range ds.Relations {
		if r.Name() == "warehouses" {
			r = wh
		}
		if err := db.CreateTable(r); err != nil {
			return nil, err
		}
		if err := db.DeclareKey(r.Name(), keys[r.Name()]); err != nil {
			return nil, err
		}
	}
	if err := db.CreateView(ds.Name, ds.ViewTables); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablation-fdskip",
		Title:  "Proposition 1 FD preprocessing: VE with region determined by wid",
		Header: []string{"optimizer", "plan cost", "opt ms", "exec ms"},
		Notes:  "expected: with +fd the non-key variable region is never a dedicated elimination step, reducing optimization work at equal plan quality",
	}
	for _, o := range []opt.Optimizer{
		opt.VE{Heuristic: opt.Degree},
		opt.VE{Heuristic: opt.Degree, UseFDs: true},
		opt.VE{Heuristic: opt.Width, Extended: true},
		opt.VE{Heuristic: opt.Width, Extended: true, UseFDs: true},
	} {
		res, err := db.Query(&core.QuerySpec{
			View: ds.Name, GroupVars: []string{"cid"}, Optimizer: o,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			o.Name(), f2(res.Plan.TotalCost), ms(res.Optimize), ms(res.Exec.Wall),
		})
	}
	return t, nil
}
