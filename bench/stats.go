package bench

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a percentile before
// the benchmark reports it: fewer and the figure is one or two slow ops,
// not a property of the workload.
const tailSamples = 10

// Percentile returns the p-th percentile (0 < p ≤ 100) of an ascending
// slice by the nearest-rank rule; 0 for an empty slice.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// SupportedPercentile returns the highest of p50, p90, p95 and p99 that
// still has at least ten of n samples beyond it (p50 when none does).
func SupportedPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 95, 99} {
		beyond := n - int(math.Ceil(p/100*float64(n)))
		if beyond >= tailSamples {
			best = p
		}
	}
	return best
}

// TailPercentile returns the want-th percentile of an ascending slice,
// lowered to SupportedPercentile when the sample is too small to carry
// it, together with the percentile actually used.
func TailPercentile(sorted []float64, want float64) (value, used float64) {
	used = math.Min(want, SupportedPercentile(len(sorted)))
	return Percentile(sorted, used), used
}

// Median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// which is the rule the benchmark's acceptance check applies to ten
// runs. It needs at least two values.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - 4*j // after clamping j, as Python does: may leave [0, 4)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// Spread is the interquartile range of xs as a share of its median, the
// steadiness figure BENCHMARK.json bounds are judged against.
func Spread(xs []float64) float64 {
	med := Median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
