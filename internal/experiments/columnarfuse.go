package experiments

import (
	"fmt"
	"math/rand"

	"mpf/internal/catalog"
	"mpf/internal/cost"
	"mpf/internal/exec"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// fuseDim builds the dimension side of the fused-plan workload: one row
// per sensor kind (functional on the join key), carrying a small group
// attribute, so the fused probe aggregates every match without ever
// materializing the join.
func fuseDim() *relation.Relation {
	r := relation.MustNew("kinddim", []relation.Attr{
		{Name: "kind", Domain: 16},
		{Name: "grp", Domain: 4},
	})
	rng := rand.New(rand.NewSource(479))
	for k := 0; k < 16; k++ {
		r.MustAppend([]int32{int32(k), int32(k % 4)}, 0.1+rng.Float64())
	}
	return r
}

// fuseRun executes one plan of the columnar-fuse experiment on a fresh
// pool/engine: setup configures the engine's sort/fusion knobs, build
// shapes the plan over the loaded tables. It returns the result, the
// actuals, and the pool's encoding counters (load + run). Each call
// starts cold.
func fuseRun(rels []*relation.Relation, frames int, columnar bool,
	setup func(*exec.Engine),
	build func(*plan.Builder) (*plan.Node, error)) (*relation.Relation, exec.RunStats, storage.EncodingStats, error) {
	pool := storage.NewPool(frames)
	factory := storage.MemDiskFactory()
	eng := exec.NewEngine(pool, factory, semiring.SumProduct)
	eng.Columnar = columnar
	setup(eng)

	cat := catalog.New()
	tabs := map[string]*exec.Table{}
	for _, rel := range rels {
		t, err := exec.LoadRelationColumnar(pool, factory, rel, columnar)
		if err != nil {
			return nil, exec.RunStats{}, storage.EncodingStats{}, err
		}
		defer t.Heap.Drop()
		tabs[rel.Name()] = t
		if err := cat.AddTable(catalog.AnalyzeRelation(rel)); err != nil {
			return nil, exec.RunStats{}, storage.EncodingStats{}, err
		}
	}
	b := plan.NewBuilder(cat, cost.Simple{})
	p, err := build(b)
	if err != nil {
		return nil, exec.RunStats{}, storage.EncodingStats{}, err
	}
	loadEs := pool.EncodingStats()
	pool.ResetStats()
	out, st, err := eng.Run(p, exec.MapResolver(tabs))
	es := pool.EncodingStats()
	es.PagesEncoded += loadEs.PagesEncoded
	es.PagesFallback += loadEs.PagesFallback
	es.SegPlain += loadEs.SegPlain
	es.SegByte += loadEs.SegByte
	es.SegRLE += loadEs.SegRLE
	es.SegDict += loadEs.SegDict
	es.BytesSaved += loadEs.BytesSaved
	return out, st, es, err
}

// fuseRunBest repeats fuseRun and keeps the fastest wall time, erroring
// if any repetition changes the result.
func fuseRunBest(rels []*relation.Relation, frames int, columnar bool, reps int,
	setup func(*exec.Engine),
	build func(*plan.Builder) (*plan.Node, error)) (*relation.Relation, exec.RunStats, storage.EncodingStats, error) {
	out, best, es, err := fuseRun(rels, frames, columnar, setup, build)
	if err != nil {
		return nil, exec.RunStats{}, storage.EncodingStats{}, err
	}
	for i := 1; i < reps; i++ {
		out2, st, _, err := fuseRun(rels, frames, columnar, setup, build)
		if err != nil {
			return nil, exec.RunStats{}, storage.EncodingStats{}, err
		}
		if !sameRows(out, out2) {
			return nil, exec.RunStats{}, storage.EncodingStats{}, fmt.Errorf("columnar-fuse: nondeterministic result across repetitions")
		}
		if st.Wall < best.Wall {
			best = st
		}
	}
	return out, best, es, nil
}

// ColumnarFuse compares the two page layouts under the executor's one
// kernel set on warm small-domain workloads: a sort-heavy plan —
// sort-based aggregation on the clustered leading key, where RLE runs
// become pre-sorted blocks and the already-sorted check skips whole
// permutations — and a fused join+aggregate plan, where encoded probe
// batches flow through per-run build probes, per-code group-slot memos,
// and run-level measure folds without materializing the join. Results
// must be byte-identical and physical IO unchanged between layouts — the
// run errors on either deviation rather than reporting it as a
// performance number. The speedup column is the layout's effect alone:
// the fused plan gains from encoded probe pages, while the sort plan
// pays for decoding pages whose clustered key sorts as fast plain.
func ColumnarFuse(cfg Config) (*Table, error) {
	rows := 200000
	reps := 3
	if cfg.Quick {
		// Two reps keep the quick gate cheap while letting best-of-N absorb
		// one bad scheduler phase on shared machines.
		rows = 50000
		reps = 2
	}
	sensor := columnarRel(rows)
	dim := fuseDim()
	t := &Table{
		ID:     "columnar-fuse",
		Title:  "end-to-end columnar execution: columnar sort and fused join+aggregate",
		Header: []string{"plan", "layout", "exec ms", "speedup", "page reads", "page writes", "pages encoded"},
		Notes:  "expected: byte-identical results and identical physical IO between layouts (both run the same kernels); the fused plan gains ≥1.5× from encoded probe pages, the sort plan's ratio is informative (run temps are row-major under both layouts; clustered keys sort as fast from plain pages)",
	}
	for _, pc := range []struct {
		name  string
		rels  []*relation.Relation
		setup func(*exec.Engine)
		build func(*plan.Builder) (*plan.Node, error)
	}{
		{
			// Sort-based aggregation on the clustered leading key: run
			// generation memmoves RLE blocks, merge is skipped (one run), and
			// the encoded streaming aggregation folds group spans.
			name: "sort GroupBy_region(sensor)",
			rels: []*relation.Relation{sensor},
			setup: func(e *exec.Engine) {
				e.SortGroupBy = true
				// One in-memory run at either scale: the comparison targets
				// run generation + the encoded streaming aggregation, not the
				// shared row-based k-way merge.
				e.SortRunTuples = 1 << 18
			},
			build: func(b *plan.Builder) (*plan.Node, error) {
				s, err := b.Scan("sensor")
				if err != nil {
					return nil, err
				}
				return b.GroupBy(s, []string{"region"})
			},
		},
		{
			// Fused join+aggregate over a functional dimension: probe pages
			// stay encoded end to end and the join output never exists.
			name: "fused GroupBy_grp(sensor⋈kinddim)",
			rels: []*relation.Relation{sensor, dim},
			setup: func(e *exec.Engine) {
				e.FuseJoinGroupBy = true
			},
			build: func(b *plan.Builder) (*plan.Node, error) {
				s, err := b.Scan("sensor")
				if err != nil {
					return nil, err
				}
				d, err := b.Scan("kinddim")
				if err != nil {
					return nil, err
				}
				return b.GroupBy(b.Join(s, d), []string{"grp"})
			},
		},
	} {
		rowRel, rowSt, rowEs, err := fuseRunBest(pc.rels, 4096, false, reps, pc.setup, pc.build)
		if err != nil {
			return nil, err
		}
		colRel, colSt, colEs, err := fuseRunBest(pc.rels, 4096, true, reps, pc.setup, pc.build)
		if err != nil {
			return nil, err
		}
		if !sameRows(rowRel, colRel) {
			return nil, fmt.Errorf("columnar-fuse: %s: columnar execution changed the result", pc.name)
		}
		if rowSt.IO.Reads != colSt.IO.Reads || rowSt.IO.Writes != colSt.IO.Writes {
			return nil, fmt.Errorf("columnar-fuse: %s: encoding changed physical IO: %dr/%dw vs %dr/%dw",
				pc.name, rowSt.IO.Reads, rowSt.IO.Writes, colSt.IO.Reads, colSt.IO.Writes)
		}
		if rowEs.PagesEncoded != 0 {
			return nil, fmt.Errorf("columnar-fuse: %s: row-major run encoded %d pages", pc.name, rowEs.PagesEncoded)
		}
		if colEs.PagesEncoded == 0 {
			return nil, fmt.Errorf("columnar-fuse: %s: columnar run encoded no pages — the workload never exercised the layout", pc.name)
		}
		t.Rows = append(t.Rows,
			[]string{pc.name, "row-major", ms(rowSt.Wall), "1.00",
				itoa(rowSt.IO.Reads), itoa(rowSt.IO.Writes), "0"},
			[]string{pc.name, "columnar", ms(colSt.Wall),
				f2(float64(rowSt.Wall) / float64(colSt.Wall)),
				itoa(colSt.IO.Reads), itoa(colSt.IO.Writes),
				itoa(colEs.PagesEncoded)})
	}
	return t, nil
}
