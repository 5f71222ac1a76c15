package exec

// Run-level measure folding. The columnar kernels see measures as plain
// float64 vectors whose values often repeat (uniform weights, boolean
// evidence, counts), and RLE key runs hand whole measure spans to one
// group at a time. When the semiring implements semiring.RunFolder, a
// span of bit-identical measures folds into the accumulator in O(1)
// instead of O(span) — but ONLY when the folder proves the closed form
// bit-identical to the iterated left fold (idempotent Adds always;
// float sums only over provably exact integer partials). Everything
// else falls back to the per-row loop, preserving the byte-identical
// contract of colbatch.go.

import (
	"math"

	"mpf/internal/semiring"
)

// runFolder returns the engine semiring's O(1) fold capability, or nil
// when the semiring does not implement semiring.RunFolder. Operators
// resolve it once per invocation, not per row.
func (e *Engine) runFolder() semiring.RunFolder {
	rf, _ := e.Sr.(semiring.RunFolder)
	return rf
}

// foldMeasures folds meas into acc with sr.Add in index order. With a
// RunFolder it detects spans of bit-identical measures (bit comparison,
// so ±0 and NaN payloads never alias) and collapses each span through
// FoldAdd when that is exact, falling back to the element-wise fold when
// not. The element-wise Adds go through the batch fold
// (semiring.AddAt), as on every other path, so the result is
// bit-identical to the plain left fold in every case.
func foldMeasures(sr semiring.Semiring, rf semiring.RunFolder, acc float64, meas []float64) float64 {
	d := [1]float64{acc}
	add := func(ms []float64) {
		for len(ms) > 0 {
			n := min(len(ms), foldChunk)
			semiring.AddAt(sr, d[:], zeroSlots[:n], ms[:n], nil)
			ms = ms[n:]
		}
	}
	if rf == nil {
		add(meas)
		return d[0]
	}
	for i := 0; i < len(meas); {
		m := meas[i]
		j := i + 1
		mb := math.Float64bits(m)
		for j < len(meas) && math.Float64bits(meas[j]) == mb {
			j++
		}
		if k := j - i; k > 1 {
			if res, ok := rf.FoldAdd(d[0], m, k); ok {
				d[0], i = res, j
				continue
			}
		}
		add(meas[i:j])
		i = j
	}
	return d[0]
}
