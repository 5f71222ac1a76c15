package semiring

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// almostEqual tolerates floating-point error from reassociation.
func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	if math.IsInf(a, -1) && math.IsInf(b, -1) {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// sample draws a measure valid for the given semiring. Bool semiring only
// admits {0,1}; product semirings get non-negative measures so that
// distributivity of min/max over × holds.
func sample(s Semiring, r *rand.Rand) float64 {
	switch s.Name() {
	case "bool-or-and":
		return float64(r.Intn(2))
	case "min-product", "max-product", "sum-product":
		return r.Float64() * 10
	default:
		return r.Float64()*20 - 10
	}
}

func TestSemiringLaws(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 2000; i++ {
				a, b, c := sample(s, r), sample(s, r), sample(s, r)
				if got, want := s.Add(a, b), s.Add(b, a); !almostEqual(got, want) {
					t.Fatalf("Add not commutative: Add(%v,%v)=%v, Add(%v,%v)=%v", a, b, got, b, a, want)
				}
				if got, want := s.Mul(a, b), s.Mul(b, a); !almostEqual(got, want) {
					t.Fatalf("Mul not commutative: %v vs %v", got, want)
				}
				if got, want := s.Add(s.Add(a, b), c), s.Add(a, s.Add(b, c)); !almostEqual(got, want) {
					t.Fatalf("Add not associative: %v vs %v", got, want)
				}
				if got, want := s.Mul(s.Mul(a, b), c), s.Mul(a, s.Mul(b, c)); !almostEqual(got, want) {
					t.Fatalf("Mul not associative: %v vs %v", got, want)
				}
				if got := s.Add(a, s.Zero()); !almostEqual(got, a) {
					t.Fatalf("Zero not additive identity: Add(%v, Zero)=%v", a, got)
				}
				if got := s.Mul(a, s.One()); !almostEqual(got, a) {
					t.Fatalf("One not multiplicative identity: Mul(%v, One)=%v", a, got)
				}
				lhs := s.Mul(a, s.Add(b, c))
				rhs := s.Add(s.Mul(a, b), s.Mul(a, c))
				if !almostEqual(lhs, rhs) {
					t.Fatalf("Mul does not distribute over Add: a=%v b=%v c=%v lhs=%v rhs=%v", a, b, c, lhs, rhs)
				}
			}
		})
	}
}

func TestDividerInverts(t *testing.T) {
	for _, s := range All() {
		d, ok := s.(Divider)
		if !ok {
			continue
		}
		r := rand.New(rand.NewSource(2))
		for i := 0; i < 2000; i++ {
			a, b := sample(s, r), sample(s, r)
			if s.Name() == "sum-product" || s.Name() == "max-product" {
				if b == 0 {
					continue
				}
			}
			q := d.Div(s.Mul(a, b), b)
			if !almostEqual(q, a) {
				t.Fatalf("%s: Div(Mul(%v,%v), %v) = %v, want %v", s.Name(), a, b, b, q, a)
			}
		}
	}
}

func TestDivByAbsorbingElement(t *testing.T) {
	if got := SumProduct.(Divider).Div(3, 0); got != 0 {
		t.Fatalf("sum-product Div(3,0) = %v, want 0", got)
	}
	if got := MaxProduct.(Divider).Div(3, 0); got != 0 {
		t.Fatalf("max-product Div(3,0) = %v, want 0", got)
	}
}

func TestSumAndProductFolds(t *testing.T) {
	if got := Sum(SumProduct, 1, 2, 3); got != 6 {
		t.Fatalf("Sum = %v, want 6", got)
	}
	if got := Sum(SumProduct); got != 0 {
		t.Fatalf("empty Sum = %v, want 0", got)
	}
	if got := Product(SumProduct, 2, 3, 4); got != 24 {
		t.Fatalf("Product = %v, want 24", got)
	}
	if got := Product(MinSum, 2, 3); got != 5 {
		t.Fatalf("min-sum Product = %v, want 5", got)
	}
	if got := Sum(MinProduct, 4, 2, 9); got != 2 {
		t.Fatalf("min-product Sum = %v, want 2", got)
	}
	if got := Sum(MaxSum); !math.IsInf(got, -1) {
		t.Fatalf("empty max-sum Sum = %v, want -Inf", got)
	}
}

func TestByName(t *testing.T) {
	for _, s := range All() {
		got, err := ByName(s.Name())
		if err != nil {
			t.Fatalf("ByName(%q): %v", s.Name(), err)
		}
		if got.Name() != s.Name() {
			t.Fatalf("ByName(%q) returned %q", s.Name(), got.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) should error")
	}
}

func TestBoolSemiringTruthTable(t *testing.T) {
	b := BoolOrAnd
	cases := []struct{ x, y, or, and float64 }{
		{0, 0, 0, 0},
		{0, 1, 1, 0},
		{1, 0, 1, 0},
		{1, 1, 1, 1},
	}
	for _, c := range cases {
		if got := b.Add(c.x, c.y); got != c.or {
			t.Fatalf("or(%v,%v)=%v want %v", c.x, c.y, got, c.or)
		}
		if got := b.Mul(c.x, c.y); got != c.and {
			t.Fatalf("and(%v,%v)=%v want %v", c.x, c.y, got, c.and)
		}
	}
	// Nonzero inputs are treated as truthy.
	if got := b.Add(0, 7); got != 1 {
		t.Fatalf("or(0,7)=%v want 1", got)
	}
	if got := b.Mul(3, 7); got != 1 {
		t.Fatalf("and(3,7)=%v want 1", got)
	}
}

// TestQuickDistributivitySumProduct is a testing/quick property over the
// unrestricted real semiring, complementing the loop-based checks.
func TestQuickDistributivitySumProduct(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) ||
			math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) {
			return true
		}
		// Bound magnitude to avoid overflow-induced false failures.
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 || math.Abs(c) > 1e6 {
			return true
		}
		s := SumProduct
		return almostEqual(s.Mul(a, s.Add(b, c)), s.Add(s.Mul(a, b), s.Mul(a, c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
