package bench

import (
	"fmt"
	"math/rand"

	"mpf"
	"mpf/internal/bayes"
)

const (
	bnNodes  = 24
	bnDomain = 3
	// bnShapeSeed fixes which node has which parents. The graph is part
	// of the workload like the supply-chain schema is: planning cost on
	// random 24-node graphs differs by ±20 % from graph to graph, which
	// would drown any change in the planner. The run's seed draws the
	// conditional probability tables and the queries.
	bnShapeSeed = 2007
	// bnWarmup is how many draws the warm-up pass issues; the query
	// space is too large to have a finite pool.
	bnWarmup = 64
)

// bnInfer: posterior marginals on a 24-table Bayesian-network view with
// never-repeating evidence. Every table fits one page, so planning does
// the work and the executor and storage little.
var bnInfer = &workload{
	name: "bn_infer",
	config: func() (mpf.Config, error) {
		// The default optimizer needs seconds on a view this wide, and
		// Columnar with FuseJoinGroupBy panics on the key-less joins VE
		// produces on most graphs (README.md, known defects), so both
		// are pinned.
		o, err := mpf.OptimizerByName("ve(deg)")
		if err != nil {
			return mpf.Config{}, err
		}
		return mpf.Config{PoolFrames: poolFrames, Optimizer: o, PlanCacheEntries: 256, FuseJoinGroupBy: true}, nil
	},
	generate: bnDataset,
	script:   bnScript,
	readers:  1,
}

func bnDataset(seed int64, _ float64) (*dataset, error) {
	shape, err := bayes.Random(rand.New(rand.NewSource(bnShapeSeed)), bnNodes, 3, bnDomain)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	net := bayes.New()
	for _, nd := range shape.Nodes() {
		cpt := make([]float64, len(nd.CPT))
		for row := 0; row < len(cpt); row += nd.Domain {
			total := 0.0
			for v := 0; v < nd.Domain; v++ {
				cpt[row+v] = rng.Float64() + 0.05
				total += cpt[row+v]
			}
			for v := 0; v < nd.Domain; v++ {
				cpt[row+v] /= total
			}
		}
		if err := net.AddNode(nd.Name, nd.Domain, nd.Parents, cpt); err != nil {
			return nil, err
		}
	}
	rels, err := net.Relations()
	if err != nil {
		return nil, err
	}
	ds := &dataset{view: "bn", rels: rels, net: net}
	big, small := rels[0], rels[0]
	for _, r := range rels {
		ds.tables = append(ds.tables, r.Name())
		if r.Len() > big.Len() {
			big = r
		}
		if r.Len() < small.Len() {
			small = r
		}
	}
	ds.big, ds.small = big.Name(), small.Name()
	return ds, nil
}

// bnScript draws Pr(X | E1=e1, E2=e2) queries, all distinct, so the
// plan cache misses by construction: the warm-up draws are remembered
// and never drawn again. The oracle is Network.ExactMarginal, computed
// when an answer is checked.
func bnScript(seed int64, ds *dataset, _ *mpf.Database) (*script, error) {
	vars := ds.net.Vars()
	draw := func(rng *rand.Rand, seen map[string]bool) *queryCase {
		for {
			p := rng.Perm(len(vars))
			target, e1, e2 := vars[p[0]], vars[p[1]], vars[p[2]]
			if e1 > e2 {
				e1, e2 = e2, e1
			}
			ev := map[string]int32{e1: int32(rng.Intn(bnDomain)), e2: int32(rng.Intn(bnDomain))}
			id := fmt.Sprintf("%s|%s=%d|%s=%d", target, e1, ev[e1], e2, ev[e2])
			if seen[id] {
				continue
			}
			seen[id] = true
			return &queryCase{
				id:   id,
				spec: &mpf.QuerySpec{View: ds.view, GroupVars: []string{target}, Where: ev},
				check: func(got *mpf.Relation, _ int) error {
					want, err := ds.net.ExactMarginal(target, ev)
					if err != nil {
						return err
					}
					ref, err := newReference(want)
					if err != nil {
						return err
					}
					if got == nil {
						return ref.compare(nil)
					}
					posterior := got.Clone()
					if err := posterior.Normalize(); err != nil {
						return err
					}
					return ref.compare(posterior)
				},
			}
		}
	}
	sc := &script{}
	warmed := make(map[string]bool)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < bnWarmup; i++ {
		sc.pool = append(sc.pool, draw(rng, warmed))
	}
	sc.readers = func(client int) func() *queryCase {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(client) + 1))
		seen := make(map[string]bool, len(warmed))
		for id := range warmed {
			seen[id] = true
		}
		return func() *queryCase { return draw(rng, seen) }
	}
	return sc, nil
}
