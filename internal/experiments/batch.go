package experiments

import (
	"fmt"
	"math"
	"time"

	"mpf/internal/catalog"
	"mpf/internal/cost"
	"mpf/internal/exec"
	"mpf/internal/gen"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// batchRun executes GroupBy_pid(location ⋈* demand) — scan, Grace
// partitioning, hash join, and hash group-by — on a fresh pool/engine
// with the given read-ahead distance, returning the result and actuals.
// Each call starts cold so modes compete on equal footing.
func batchRun(l, r *relation.Relation, factory storage.DiskFactory, frames, readAhead int) (*relation.Relation, exec.RunStats, error) {
	pool := storage.NewPool(frames)
	eng := exec.NewEngine(pool, factory, semiring.SumProduct)
	eng.ReadAhead = readAhead
	// Force the Grace partitioned path (inputs are far above 4096 tuples)
	// so the comparison covers partitioning IO, not just in-memory probe.
	eng.HashJoinMaxBuild = 4096

	cat := catalog.New()
	tables := make(map[string]*exec.Table, 2)
	for _, rel := range []*relation.Relation{l, r} {
		t, err := exec.LoadRelation(pool, factory, rel)
		if err != nil {
			return nil, exec.RunStats{}, err
		}
		defer t.Heap.Drop()
		tables[rel.Name()] = t
		if err := cat.AddTable(catalog.AnalyzeRelation(rel)); err != nil {
			return nil, exec.RunStats{}, err
		}
	}
	b := plan.NewBuilder(cat, cost.Simple{})
	sl, err := b.Scan(l.Name())
	if err != nil {
		return nil, exec.RunStats{}, err
	}
	sr, err := b.Scan(r.Name())
	if err != nil {
		return nil, exec.RunStats{}, err
	}
	gb, err := b.GroupBy(b.Join(sl, sr), []string{"pid"})
	if err != nil {
		return nil, exec.RunStats{}, err
	}
	pool.ResetStats()
	return eng.Run(gb, exec.MapResolver(tables))
}

// sameRows reports whether a and b hold identical tuples in identical
// order with bitwise-equal measures — page layout, read-ahead and
// parallelism must never change emit order or float accumulation order,
// so anything short of byte identity is a bug, not float noise.
func sameRows(a, b *relation.Relation) bool {
	if a.Len() != b.Len() || a.Arity() != b.Arity() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for c := range ra {
			if ra[c] != rb[c] {
				return false
			}
		}
		if math.Float64bits(a.Measure(i)) != math.Float64bits(b.Measure(i)) {
			return false
		}
	}
	return true
}

// BatchExec measures buffer-pool read-ahead under batch execution on
// GroupBy(location ⋈* demand) — the same two equally large inputs as
// parallel-exec, with a marginalizing group-by on top so scans, Grace
// partitioning, join probe, and hash aggregation all run. The regime is
// io-bound (1ms reads, a pool much smaller than the data): scans stall
// on the disk, and read-ahead overlaps the stalls with computation.
// Prefetched pages are reported separately.
//
// The run errors (rather than reporting a row) if read-ahead changes
// the result or the result differs from the in-memory reference — those
// are correctness bugs, not performance observations.
func BatchExec(cfg Config) (*Table, error) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: cfg.scale(), CtdealsDensity: 0.5, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	loc := ds.RelationMap()["location"]
	demand := relation.MustNew("demand", loc.Attrs())
	rng := cfg.rng(992)
	for i := 0; i < loc.Len(); i++ {
		demand.MustAppend(loc.Row(i), 0.1+rng.Float64())
	}
	t := &Table{
		ID:     "batch-exec",
		Title:  "batch execution with read-ahead on GroupBy(location⋈*demand)",
		Header: []string{"regime", "mode", "exec ms", "speedup", "page reads", "page writes", "prefetched"},
		Notes:  "expected: read-ahead cuts scan stalls on the 1ms disk without changing results",
	}

	// A pool much smaller than the dataset over a 1ms-read disk. Quick
	// runs shrink the pool along with the data so the regime stays
	// io-bound (a 64-frame pool would hold the whole quick dataset and no
	// page would ever miss).
	ioFrames := 64
	if cfg.Quick {
		ioFrames = 16
	}
	slowFactory := storage.LatencyMemDiskFactory(time.Millisecond, 0)
	plainRel, plainSt, err := batchRun(loc, demand, slowFactory, ioFrames, 0)
	if err != nil {
		return nil, err
	}
	raRel, raSt, err := batchRun(loc, demand, slowFactory, ioFrames, 8)
	if err != nil {
		return nil, err
	}
	if !sameRows(plainRel, raRel) {
		return nil, fmt.Errorf("batch-exec: read-ahead changed the result")
	}
	joined, err := relation.ProductJoin(semiring.SumProduct, loc, demand)
	if err != nil {
		return nil, err
	}
	want, err := relation.Marginalize(semiring.SumProduct, joined, []string{"pid"})
	if err != nil {
		return nil, err
	}
	if !relation.Equal(want, plainRel, 0, 1e-9) {
		return nil, fmt.Errorf("batch-exec: result differs from the in-memory reference")
	}
	t.Rows = append(t.Rows,
		[]string{"io-bound (1ms reads)", "batch", ms(plainSt.Wall), "1.00",
			itoa(plainSt.IO.Reads), itoa(plainSt.IO.Writes), itoa(plainSt.IO.Prefetches)},
		[]string{"io-bound (1ms reads)", "batch+ra8", ms(raSt.Wall),
			f2(float64(plainSt.Wall) / float64(raSt.Wall)),
			itoa(raSt.IO.Reads), itoa(raSt.IO.Writes), itoa(raSt.IO.Prefetches)})
	return t, nil
}
