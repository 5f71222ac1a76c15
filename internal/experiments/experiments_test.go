package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// quick returns the smoke-test configuration.
func quick() Config { return Config{Quick: true, Seed: 1} }

// TestAllExperimentsRun runs every registered experiment at Quick scale
// and checks the rendered output is well formed.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(quick())
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Fatalf("table ID %q, want %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("row width %d != header width %d: %v", len(row), len(tbl.Header), row)
				}
			}
			var buf bytes.Buffer
			tbl.Render(&buf)
			if !strings.Contains(buf.String(), e.ID) {
				t.Fatal("render missing experiment id")
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", quick()); err == nil {
		t.Fatal("unknown id should error")
	}
	if len(IDs()) != len(Registry()) {
		t.Fatal("IDs out of sync")
	}
}

// cell parses a numeric cell.
func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

// TestTable2Shape verifies the headline Table 2 claims at the paper's own
// configuration (N=5, domain 10): VE(deg) catastrophic on the star view,
// and every extended variant matching nonlinear CS+.
func TestTable2Shape(t *testing.T) {
	tbl, err := Table2(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is nonlinear CS+; row 1 VE(deg); row 2 VE(deg)+ext.
	cspStar := cell(t, tbl, 0, 1)
	degStar := cell(t, tbl, 1, 1)
	if degStar < 20*cspStar {
		t.Fatalf("VE(deg) on star should be far worse than CS+: %v vs %v", degStar, cspStar)
	}
	for r := 2; r < len(tbl.Rows); r += 2 {
		if !strings.Contains(tbl.Rows[r][0], "+ext") {
			t.Fatalf("row %d should be an extended variant: %v", r, tbl.Rows[r][0])
		}
		for c := 1; c <= 3; c++ {
			ext := cell(t, tbl, r, c)
			csp := cell(t, tbl, 0, c)
			if ext > csp*1.05 {
				t.Fatalf("extended %s col %d cost %v exceeds CS+ %v", tbl.Rows[r][0], c, ext, csp)
			}
		}
	}
}

// TestTable3Shape verifies that extension improves the random-order mean
// on the star view.
func TestTable3Shape(t *testing.T) {
	tbl, err := Table3(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parseMean := func(s string) float64 {
		fields := strings.Fields(s) // "mean ± ci"
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("bad mean cell %q", s)
		}
		return v
	}
	plainStar := parseMean(tbl.Rows[0][1])
	extStar := parseMean(tbl.Rows[1][1])
	if extStar >= plainStar {
		t.Fatalf("extension should improve random-order mean on star: %v vs %v", extStar, plainStar)
	}
}

// TestFig10Shape verifies CS produces far costlier plans than nonlinear
// CS+ on the synthetic views.
func TestFig10Shape(t *testing.T) {
	tbl, err := Fig10(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	costs := map[string]map[string]float64{}
	for r := range tbl.Rows {
		schema, algo := tbl.Rows[r][0], tbl.Rows[r][1]
		if costs[schema] == nil {
			costs[schema] = map[string]float64{}
		}
		costs[schema][algo] = cell(t, tbl, r, 2)
	}
	for schema, m := range costs {
		if m["cs"] <= m["cs+nonlinear"] {
			t.Fatalf("%s: CS (%v) should cost more than nonlinear CS+ (%v)", schema, m["cs"], m["cs+nonlinear"])
		}
		if m["cs+linear"] < m["cs+nonlinear"] {
			t.Fatalf("%s: linear CS+ cannot beat nonlinear CS+", schema)
		}
	}
}

// TestAblationPushdownShape: each pushdown level must not increase IO.
func TestAblationPushdownShape(t *testing.T) {
	tbl, err := AblationPushdown(quick())
	if err != nil {
		t.Fatal(err)
	}
	csIO := cell(t, tbl, 0, 2)
	nonIO := cell(t, tbl, 2, 2)
	if nonIO > csIO {
		t.Fatalf("nonlinear CS+ IO %v exceeds CS IO %v", nonIO, csIO)
	}
}

// TestAblationBufferPoolShape: physical reads must not increase with pool
// size.
func TestAblationBufferPoolShape(t *testing.T) {
	tbl, err := AblationBufferPool(quick())
	if err != nil {
		t.Fatal(err)
	}
	small := cell(t, tbl, 0, 2)
	big := cell(t, tbl, len(tbl.Rows)-1, 2)
	if big > small {
		t.Fatalf("reads grew with pool size: %v (small) vs %v (big)", small, big)
	}
}
