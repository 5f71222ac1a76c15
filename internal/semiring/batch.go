package semiring

import "math"

// Batch folds. The executor's aggregation kernels resolve a batch of
// rows to accumulator slots first and fold the batch's measures second,
// so the fold is one call per batch rather than two interface calls per
// row: the predefined semirings take one type switch and a loop with
// their operations inlined, any other Semiring is called per element.
// Either way the result is bit-identical to the per-element loop
//
//	for j, s := range slots {
//		m := Mul(a[j], b[j])               // MulAddAt; AddAt folds src[j]
//		if first[j] { dst[s] = m } else { dst[s] = Add(dst[s], m) }
//	}
//
// elements folding in index order, so a slot receives exactly the Add
// sequence of row-at-a-time aggregation. first marks an accumulator's
// first contribution, which is stored rather than added to Zero()
// (Add(Zero(), m) need not equal m bit for bit: −0 in sum-product, NaN
// payloads); a nil first marks none.

// MulAddAt folds the products Mul(a[j], b[j]) into dst at slots[j], in
// index order (see the batch-fold loop above). a, b and first (when not
// nil) are at least len(slots) long.
func MulAddAt(s Semiring, dst []float64, slots []int32, a, b []float64, first []bool) {
	a, b = a[:len(slots)], b[:len(slots)]
	if first != nil {
		first = first[:len(slots)]
	}
	// float64(…) around each product forbids fusing it with the Add into
	// one FMA, which would round differently from the per-element calls.
	switch s.(type) {
	case sumProduct:
		for j, k := range slots {
			m := float64(a[j] * b[j])
			if first != nil && first[j] {
				dst[k] = m
			} else {
				dst[k] += m
			}
		}
	case minProduct:
		for j, k := range slots {
			m := float64(a[j] * b[j])
			if first != nil && first[j] {
				dst[k] = m
			} else {
				dst[k] = math.Min(dst[k], m)
			}
		}
	case maxProduct:
		for j, k := range slots {
			m := float64(a[j] * b[j])
			if first != nil && first[j] {
				dst[k] = m
			} else {
				dst[k] = math.Max(dst[k], m)
			}
		}
	case minSum:
		for j, k := range slots {
			m := float64(a[j] + b[j])
			if first != nil && first[j] {
				dst[k] = m
			} else {
				dst[k] = math.Min(dst[k], m)
			}
		}
	case maxSum:
		for j, k := range slots {
			m := float64(a[j] + b[j])
			if first != nil && first[j] {
				dst[k] = m
			} else {
				dst[k] = math.Max(dst[k], m)
			}
		}
	case logSumExp:
		var sr logSumExp
		for j, k := range slots {
			m := sr.Mul(a[j], b[j])
			if first != nil && first[j] {
				dst[k] = m
			} else {
				dst[k] = sr.Add(dst[k], m)
			}
		}
	case boolOrAnd:
		var sr boolOrAnd
		for j, k := range slots {
			m := sr.Mul(a[j], b[j])
			if first != nil && first[j] {
				dst[k] = m
			} else {
				dst[k] = sr.Add(dst[k], m)
			}
		}
	default:
		for j, k := range slots {
			m := s.Mul(a[j], b[j])
			if first != nil && first[j] {
				dst[k] = m
			} else {
				dst[k] = s.Add(dst[k], m)
			}
		}
	}
}

// AddAt folds src[j] into dst at slots[j], in index order (see the
// batch-fold loop above). src and first (when not nil) are at least
// len(slots) long.
func AddAt(s Semiring, dst []float64, slots []int32, src []float64, first []bool) {
	src = src[:len(slots)]
	if first != nil {
		first = first[:len(slots)]
	}
	switch s.(type) {
	case sumProduct:
		for j, k := range slots {
			if first != nil && first[j] {
				dst[k] = src[j]
			} else {
				dst[k] += src[j]
			}
		}
	case minProduct, minSum:
		for j, k := range slots {
			if first != nil && first[j] {
				dst[k] = src[j]
			} else {
				dst[k] = math.Min(dst[k], src[j])
			}
		}
	case maxProduct, maxSum:
		for j, k := range slots {
			if first != nil && first[j] {
				dst[k] = src[j]
			} else {
				dst[k] = math.Max(dst[k], src[j])
			}
		}
	case logSumExp:
		var sr logSumExp
		for j, k := range slots {
			if first != nil && first[j] {
				dst[k] = src[j]
			} else {
				dst[k] = sr.Add(dst[k], src[j])
			}
		}
	case boolOrAnd:
		var sr boolOrAnd
		for j, k := range slots {
			if first != nil && first[j] {
				dst[k] = src[j]
			} else {
				dst[k] = sr.Add(dst[k], src[j])
			}
		}
	default:
		for j, k := range slots {
			if first != nil && first[j] {
				dst[k] = src[j]
			} else {
				dst[k] = s.Add(dst[k], src[j])
			}
		}
	}
}
