// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) plus the ablations called out in DESIGN.md. Each
// experiment returns a rendered Table whose rows mirror what the paper
// reports; cmd/mpfbench prints them and bench_test.go exercises them as
// Go benchmarks.
//
// Absolute numbers differ from the paper (our substrate is a from-scratch
// Go engine, not PostgreSQL 8.1 on 2006 hardware); the shapes — which
// algorithm wins, by what rough factor, and where crossovers fall — are
// the reproduction target. EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"mpf/internal/core"
	"mpf/internal/gen"
	"mpf/internal/opt"
	"mpf/internal/plan"
	"mpf/internal/relation"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale is the supply-chain scale factor relative to Table 1
	// (location has 1e6·Scale rows); 0 defaults to 0.05, Quick uses a
	// reduced sweep regardless.
	Scale float64
	// Seed drives all data generation.
	Seed int64
	// Quick shrinks sweeps and scales for smoke tests and benchmarks.
	Quick bool
	// PoolFrames is the buffer pool size; 0 defaults to 256 frames.
	PoolFrames int
	// Parallelism is the engine's intra-query worker bound applied to
	// every experiment session; 0 or 1 is serial (today's default).
	Parallelism int
	// Columnar enables the per-page columnar encoding for experiment
	// sessions.
	Columnar bool
	// Fuse pipelines GroupBy-over-Join pairs through the fused
	// non-materializing operator for experiment sessions.
	Fuse bool
	// Planner, when non-empty, overrides the default planning strategy of
	// every experiment session (opt.ByName report name, e.g. "greedy").
	// Experiments that sweep optimizers still pass their own per query.
	Planner string
	// PlanBudget bounds planning wall time for experiment sessions, with
	// greedy fallback past the budget (0 = unlimited).
	PlanBudget time.Duration
}

func (c Config) scale() float64 {
	if c.Quick {
		return 0.005
	}
	if c.Scale == 0 {
		return 0.05
	}
	return c.Scale
}

func (c Config) frames() int {
	if c.PoolFrames == 0 {
		return 256
	}
	return c.PoolFrames
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes explains the expected paper shape for EXPERIMENTS.md.
	Notes string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "-- %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Runner is an experiment entry point.
type Runner func(Config) (*Table, error)

// Registry maps experiment ids to runners, in report order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"table1", Table1},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"table2", Table2},
		{"table3", Table3},
		{"fig10", Fig10},
		{"ablation-pushdown", AblationPushdown},
		{"ablation-bufferpool", AblationBufferPool},
		{"ablation-fdskip", AblationFDSkip},
		{"ablation-workload", AblationWorkload},
		{"ablation-costmodel", AblationCostModel},
		{"ablation-fusion", AblationFusion},
	}
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Table, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
}

// IDs lists the registered experiment ids.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}

// bench is one measured query execution.
type bench struct {
	Wall     time.Duration
	Optimize time.Duration
	IO       int64
	PlanCost float64
	Rows     int64
}

// session wraps a database loaded with a dataset.
type session struct {
	db *core.Database
	ds *gen.Dataset
}

// openDataset loads a dataset into a fresh engine-backed database with
// the given buffer-pool size and the execution knobs every session shares
// (parallelism, page layout, fusion, planning).
func openDataset(ds *gen.Dataset, cfg Config, frames int) (*session, error) {
	ccfg := core.Config{
		PoolFrames:      frames,
		Parallelism:     cfg.Parallelism,
		Columnar:        cfg.Columnar,
		FuseJoinGroupBy: cfg.Fuse,
		PlanBudget:      cfg.PlanBudget,
	}
	if cfg.Planner != "" {
		if o, err := opt.ByName(cfg.Planner); err == nil {
			ccfg.Optimizer = o
		}
	}
	db, err := core.Open(ccfg)
	if err != nil {
		return nil, err
	}
	for _, r := range ds.Relations {
		if err := db.CreateTable(r); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := db.CreateView(ds.Name, ds.ViewTables); err != nil {
		db.Close()
		return nil, err
	}
	return &session{db: db, ds: ds}, nil
}

func (s *session) close() { s.db.Close() }

// run executes one query on the engine with the given optimizer.
func (s *session) run(o opt.Optimizer, groupVars []string, where relation.Predicate) (bench, error) {
	res, err := s.db.Query(&core.QuerySpec{
		View:      s.ds.Name,
		GroupVars: groupVars,
		Where:     where,
		Optimizer: o,
	})
	if err != nil {
		return bench{}, err
	}
	return bench{
		Wall:     res.Exec.Wall,
		Optimize: res.Optimize,
		IO:       res.Exec.IO.IO(),
		PlanCost: res.Plan.TotalCost,
		Rows:     res.Exec.RowsOut,
	}, nil
}

// explain optimizes without executing.
func (s *session) explain(o opt.Optimizer, groupVars []string) (bench, *plan.Node, error) {
	p, d, err := s.db.Explain(&core.QuerySpec{
		View:      s.ds.Name,
		GroupVars: groupVars,
		Optimizer: o,
	})
	if err != nil {
		return bench{}, nil, err
	}
	return bench{Optimize: d, PlanCost: p.TotalCost}, p, nil
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }
func f2(v float64) string       { return fmt.Sprintf("%.2f", v) }
func itoa(v int64) string       { return fmt.Sprintf("%d", v) }

// rng returns a seeded generator offset by salt so sub-experiments are
// independent but reproducible.
func (c Config) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1000003 + salt))
}
