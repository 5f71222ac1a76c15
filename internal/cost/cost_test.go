package cost

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// est builds an estimate from per-variable distinct counts.
func est(card float64, distinct map[string]float64) Estimate {
	e := Estimate{Card: card, Arity: len(distinct)}
	for v, d := range distinct {
		e.Distinct = append(e.Distinct, VarDistinct{Var: v, N: d})
	}
	sort.Slice(e.Distinct, func(i, j int) bool { return e.Distinct[i].Var < e.Distinct[j].Var })
	return e
}

// distinctOf returns e's distinct estimate of v, failing when it has none.
func distinctOf(t *testing.T, e Estimate, v string) float64 {
	t.Helper()
	d, ok := e.DistinctOf(v)
	if !ok {
		t.Fatalf("no distinct estimate for %s in %v", v, e.Distinct)
	}
	return d
}

// wellFormed reports whether e's distincts are sorted by name, duplicate
// free, and each within [1, Card].
func wellFormed(e Estimate) bool {
	for i, d := range e.Distinct {
		if i > 0 && e.Distinct[i-1].Var >= d.Var {
			return false
		}
		if d.N > e.Card || d.N < 1 || math.IsNaN(d.N) {
			return false
		}
	}
	return e.Card >= 1
}

func TestJoinEstimateContainment(t *testing.T) {
	l := est(1000, map[string]float64{"a": 100, "b": 10})
	r := est(500, map[string]float64{"b": 20, "c": 50})
	out := JoinEstimate(l, r)
	// |L||R| / max(dL(b), dR(b)) = 1000*500/20 = 25000.
	if out.Card != 25000 {
		t.Fatalf("join card = %v, want 25000", out.Card)
	}
	if d := distinctOf(t, out, "b"); d != 10 {
		t.Fatalf("shared distinct = %v, want min(10,20)=10", d)
	}
	if distinctOf(t, out, "a") != 100 || distinctOf(t, out, "c") != 50 {
		t.Fatalf("carried distincts wrong: %v", out.Distinct)
	}
	if out.Arity != 3 {
		t.Fatalf("arity = %d", out.Arity)
	}
}

func TestJoinEstimateCrossProduct(t *testing.T) {
	l := est(10, map[string]float64{"a": 10})
	r := est(20, map[string]float64{"b": 20})
	out := JoinEstimate(l, r)
	if out.Card != 200 {
		t.Fatalf("cross product card = %v", out.Card)
	}
}

func TestGroupByEstimate(t *testing.T) {
	in := est(10000, map[string]float64{"a": 100, "b": 10, "c": 50})
	out := GroupByEstimate(in, []string{"a", "b"})
	if out.Card != 1000 {
		t.Fatalf("groupby card = %v, want 100*10", out.Card)
	}
	// Capped by input card.
	out2 := GroupByEstimate(est(50, map[string]float64{"a": 100, "b": 10}), []string{"a", "b"})
	if out2.Card != 50 {
		t.Fatalf("groupby card = %v, want cap 50", out2.Card)
	}
	// Unknown group var contributes 1.
	out3 := GroupByEstimate(in, []string{"zz"})
	if out3.Card != 1 {
		t.Fatalf("groupby on unknown var card = %v", out3.Card)
	}
}

func TestSelectEstimate(t *testing.T) {
	in := est(1000, map[string]float64{"a": 100, "b": 10})
	out := SelectEstimate(in, []string{"a"})
	if out.Card != 10 {
		t.Fatalf("select card = %v, want 10", out.Card)
	}
	if d := distinctOf(t, out, "a"); d != 1 {
		t.Fatalf("selected distinct = %v, want 1", d)
	}
	// Floor at 1.
	out2 := SelectEstimate(est(5, map[string]float64{"a": 100}), []string{"a"})
	if out2.Card != 1 {
		t.Fatalf("select floor card = %v", out2.Card)
	}
}

func TestEstimatePages(t *testing.T) {
	e := Estimate{Card: 0, Arity: 2}
	if e.Pages() != 0 {
		t.Fatal("zero rows should be zero pages")
	}
	e = Estimate{Card: 1, Arity: 2}
	if e.Pages() != 1 {
		t.Fatal("one row should be one page")
	}
}

func TestSimpleModel(t *testing.T) {
	m := Simple{}
	l, r := Estimate{Card: 10}, Estimate{Card: 20}
	if got := m.JoinCost(l, r, Estimate{}); got != 200 {
		t.Fatalf("JoinCost = %v", got)
	}
	if got := m.GroupByCost(Estimate{Card: 8}, Estimate{}); got != 8*3 {
		t.Fatalf("GroupByCost = %v, want 24", got)
	}
	if got := m.GroupByCost(Estimate{Card: 1}, Estimate{}); got != 1 {
		t.Fatalf("GroupByCost(1) = %v", got)
	}
	if m.ScanCost(l) != 0 || m.SelectCost(l, r) != 0 {
		t.Fatal("simple scans/selects should be free")
	}
	if m.Name() != "simple" {
		t.Fatal("name")
	}
}

func TestPageIOModel(t *testing.T) {
	m := DefaultPageIO()
	l := Estimate{Card: 10000, Arity: 2}
	r := Estimate{Card: 10000, Arity: 2}
	out := Estimate{Card: 100000, Arity: 3}
	c := m.JoinCost(l, r, out)
	if c <= 0 {
		t.Fatal("join cost must be positive")
	}
	// Bigger output must cost more.
	c2 := m.JoinCost(l, r, Estimate{Card: 1000000, Arity: 3})
	if c2 <= c {
		t.Fatal("cost not monotone in output size")
	}
	if m.Name() != "pageio" {
		t.Fatal("name")
	}
	if m.ScanCost(l) <= 0 || m.GroupByCost(l, out) <= 0 || m.SelectCost(l, out) <= 0 {
		t.Fatal("pageio ops should cost")
	}
}

func TestLinearPlanAdmissibleProperties(t *testing.T) {
	// Paper's worked example values.
	if LinearPlanAdmissible(1000, 5000) {
		t.Fatal("σ=1000 σ̂=5000 must fail")
	}
	if !LinearPlanAdmissible(500, 500) {
		t.Fatal("σ=σ̂=500 must hold")
	}
	// σ ≥ σ̂ always admissible: σ² ≥ σσ̂.
	f := func(a, b uint16) bool {
		sigma := float64(a%5000) + 1
		sigmaHat := float64(b%5000) + 1
		if sigma >= sigmaHat {
			return LinearPlanAdmissible(sigma, sigmaHat)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCapDistinctInvariant(t *testing.T) {
	f := func(card8 uint8, d1, d2, d3 uint16) bool {
		in := est(float64(card8)+1, map[string]float64{
			"a": float64(d1%1000) + 1,
			"b": float64(d2%1000) + 1,
		})
		other := est(float64(d3%500)+1, map[string]float64{
			"b": float64(d3%7) + 1,
			"c": float64(d1%300) + 1,
		})
		for _, out := range []Estimate{
			GroupByEstimate(in, []string{"a", "b"}),
			GroupByEstimate(in, []string{"b", "zz", "a", "b"}),
			JoinEstimate(in, other),
			JoinEstimate(other, in),
			SelectEstimate(in, []string{"b"}),
			SelectEstimate(in, []string{"zz", "a"}),
		} {
			if !wellFormed(out) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestJoinEstimateDeterministic pins the order JoinEstimate divides by the
// shared variables' distinct counts: ascending variable name, every time.
// Float division does not associate, so 1000/3/7 and 1000/7/3 differ in the
// last bit, and a division order that followed map iteration made the
// same join price differently from run to run.
func TestJoinEstimateDeterministic(t *testing.T) {
	l := est(100, map[string]float64{"a": 3, "b": 7})
	r := est(10, map[string]float64{"a": 3, "b": 7})
	want := l.Card * r.Card
	want /= 3 // a
	want /= 7 // b
	alt := l.Card * r.Card
	alt /= 7
	alt /= 3
	if alt == want {
		t.Fatalf("fixture does not tell the division orders apart: %b", want)
	}
	for i := 0; i < 200; i++ {
		if got := JoinEstimate(l, r).Card; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("repetition %d: card %b, want %b (ascending variable order)", i, got, want)
		}
		if got := JoinSize(l, r).Card; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("repetition %d: JoinSize card %b, want %b", i, got, want)
		}
	}
}
