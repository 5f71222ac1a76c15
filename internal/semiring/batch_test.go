package semiring

import (
	"math"
	"math/rand"
	"testing"
)

// adversarial returns measures that break careless folds: signed zeros
// (a first contribution of −0 must stay −0), NaNs with distinct
// payloads, infinities, subnormals, values whose sum overflows, and the
// boolean 0/1 domain.
func adversarial() []float64 {
	return []float64{
		math.Copysign(0, -1), 0, 1, -1, 0.5, 3,
		math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0bad), math.Float64frombits(0xfff0_0000_0000_0001),
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
		math.MaxFloat64, -math.MaxFloat64, 1e308,
		-745.2, -1e-300,
	}
}

// refMulAddAt is the per-element loop MulAddAt must equal bit for bit,
// through the interface.
func refMulAddAt(s Semiring, dst []float64, slots []int32, a, b []float64, first []bool) {
	for j, k := range slots {
		m := s.Mul(a[j], b[j])
		if first != nil && first[j] {
			dst[k] = m
		} else {
			dst[k] = s.Add(dst[k], m)
		}
	}
}

// refAddAt is the per-element loop AddAt must equal bit for bit.
func refAddAt(s Semiring, dst []float64, slots []int32, src []float64, first []bool) {
	for j, k := range slots {
		if first != nil && first[j] {
			dst[k] = src[j]
		} else {
			dst[k] = s.Add(dst[k], src[j])
		}
	}
}

// batchCase is one random batch over a few slots: the first touch of a
// slot is flagged first (as the kernels flag a new group), later ones
// are not; dst starts from a random adversarial value per slot.
type batchCase struct {
	dst   []float64
	slots []int32
	a, b  []float64
	first []bool
}

func drawBatch(rng *rand.Rand, vals []float64, n, nslots int) batchCase {
	pick := func() float64 { return vals[rng.Intn(len(vals))] }
	c := batchCase{dst: make([]float64, nslots), slots: make([]int32, n), a: make([]float64, n), b: make([]float64, n), first: make([]bool, n)}
	seen := make([]bool, nslots)
	for k := range c.dst {
		c.dst[k] = pick()
	}
	for j := 0; j < n; j++ {
		k := rng.Intn(nslots)
		c.slots[j], c.a[j], c.b[j] = int32(k), pick(), pick()
		c.first[j] = !seen[k] && rng.Intn(2) == 0
		seen[k] = true
	}
	return c
}

// sameBits fails unless got and want are equal bit for bit. With
// anyNaN, two NaNs count as equal whatever their payloads: when both
// operands of an add or multiply are NaNs, the instruction passes on one
// of their payloads, and Go leaves the operand order of a commutative
// operation to the compiler, so two compilations of the same fold may
// pick different ones.
func sameBits(t *testing.T, what string, got, want []float64, anyNaN bool) {
	t.Helper()
	for k := range want {
		if anyNaN && math.IsNaN(got[k]) && math.IsNaN(want[k]) {
			continue
		}
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: slot %d = %v (%#x), per-element loop gives %v (%#x)",
				what, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// TestBatchFoldMatchesPerElement: for every predefined semiring, the
// batch forms equal the per-element interface loop bit for bit (NaN
// payloads aside: the loop is another compilation, see sameBits), with
// and without first contributions, on adversarial measures.
func TestBatchFoldMatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, s := range All() {
		vals := adversarial()
		if s == BoolOrAnd {
			vals = []float64{0, 1, math.Copysign(0, -1)}
		}
		t.Run(s.Name(), func(t *testing.T) {
			for rep := 0; rep < 200; rep++ {
				c := drawBatch(rng, vals, 1+rng.Intn(64), 1+rng.Intn(6))
				for _, first := range [][]bool{c.first, nil} {
					want := append([]float64(nil), c.dst...)
					refMulAddAt(s, want, c.slots, c.a, c.b, first)
					got := append([]float64(nil), c.dst...)
					MulAddAt(s, got, c.slots, c.a, c.b, first)
					sameBits(t, "MulAddAt", got, want, true)

					want = append(want[:0], c.dst...)
					refAddAt(s, want, c.slots, c.a, first)
					got = append(got[:0], c.dst...)
					AddAt(s, got, c.slots, c.a, first)
					sameBits(t, "AddAt", got, want, true)
				}
			}
			// A lone first contribution is stored as is: −0 stays −0 and
			// a NaN keeps its payload, whatever Add(Zero(), m) gives.
			for _, m := range vals {
				got := []float64{42}
				AddAt(s, got, []int32{0}, []float64{m}, []bool{true})
				sameBits(t, "first AddAt", got, []float64{m}, false)
				got[0] = 42
				MulAddAt(s, got, []int32{0}, []float64{m}, []float64{s.One()}, []bool{true})
				sameBits(t, "first MulAddAt", got, []float64{s.Mul(m, s.One())}, true)
			}
		})
	}
}

// TestBatchFoldSplitInvariant: one call over a batch equals the same
// batch folded by calls over any split of it, one element per call
// included, bit for bit with NaN payloads too. Every layout's kernel
// folds through these two functions — plain pages a chunk per call, RLE
// runs a run or an element per call — so this, not the comparison with
// the interface loop, is what keeps answers bit-identical across page
// layouts.
func TestBatchFoldSplitInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, s := range All() {
		vals := adversarial()
		if s == BoolOrAnd {
			vals = []float64{0, 1, math.Copysign(0, -1)}
		}
		t.Run(s.Name(), func(t *testing.T) {
			for rep := 0; rep < 200; rep++ {
				c := drawBatch(rng, vals, 1+rng.Intn(64), 1+rng.Intn(6))
				for _, first := range [][]bool{c.first, nil} {
					whole := append([]float64(nil), c.dst...)
					MulAddAt(s, whole, c.slots, c.a, c.b, first)
					split := append([]float64(nil), c.dst...)
					forSplit(rng, len(c.slots), func(i, j int) {
						MulAddAt(s, split, c.slots[i:j], c.a[i:j], c.b[i:j], sub(first, i, j))
					})
					sameBits(t, "split MulAddAt", split, whole, false)

					whole = append(whole[:0], c.dst...)
					AddAt(s, whole, c.slots, c.a, first)
					split = append(split[:0], c.dst...)
					forSplit(rng, len(c.slots), func(i, j int) {
						AddAt(s, split, c.slots[i:j], c.a[i:j], sub(first, i, j))
					})
					sameBits(t, "split AddAt", split, whole, false)
				}
			}
		})
	}
}

// forSplit calls f(i, j) over consecutive pieces [i, j) covering [0, n):
// single elements half the time, random lengths otherwise.
func forSplit(rng *rand.Rand, n int, f func(i, j int)) {
	one := rng.Intn(2) == 0
	for i := 0; i < n; {
		j := i + 1
		if !one {
			j = min(n, i+1+rng.Intn(8))
		}
		f(i, j)
		i = j
	}
}

// sub is first[i:j], or nil when first is.
func sub(first []bool, i, j int) []bool {
	if first == nil {
		return nil
	}
	return first[i:j]
}

// countingSemiring is a Semiring outside All(): the batch forms must
// take the per-element fallback and call it once per element.
type countingSemiring struct{ adds, muls *int }

func (c countingSemiring) Add(a, b float64) float64 { *c.adds++; return a + b }
func (c countingSemiring) Mul(a, b float64) float64 { *c.muls++; return a * b }
func (countingSemiring) Zero() float64              { return 0 }
func (countingSemiring) One() float64               { return 1 }
func (countingSemiring) Name() string               { return "counting" }

func TestBatchFoldFallback(t *testing.T) {
	var adds, muls int
	s := countingSemiring{&adds, &muls}
	c := drawBatch(rand.New(rand.NewSource(7)), adversarial(), 50, 4)
	firsts := 0
	for _, f := range c.first {
		if f {
			firsts++
		}
	}
	want := append([]float64(nil), c.dst...)
	refMulAddAt(SumProduct, want, c.slots, c.a, c.b, c.first)
	got := append([]float64(nil), c.dst...)
	MulAddAt(s, got, c.slots, c.a, c.b, c.first)
	sameBits(t, "fallback MulAddAt", got, want, true)
	if muls != len(c.slots) || adds != len(c.slots)-firsts {
		t.Fatalf("fallback called Mul %d and Add %d times, want %d and %d", muls, adds, len(c.slots), len(c.slots)-firsts)
	}
	adds = 0
	got = append(got[:0], c.dst...)
	AddAt(s, got, c.slots, c.a, nil)
	if adds != len(c.slots) {
		t.Fatalf("fallback AddAt called Add %d times, want %d", adds, len(c.slots))
	}
}
