package relation

import (
	"fmt"
	"math"
	"math/rand"
)

// CheckFD verifies the defining functional dependency A₁…Aₘ → f of a
// functional relation: no two rows share the same variable assignment.
// It returns an error naming the first violating assignment found.
func (r *Relation) CheckFD() error {
	cols := make([]int, r.Arity())
	for i := range cols {
		cols[i] = i
	}
	seen := make(map[string]int, r.Len())
	for i := 0; i < r.Len(); i++ {
		k := key(r.Row(i), cols)
		if j, dup := seen[k]; dup {
			return fmt.Errorf("relation %s: rows %d and %d share variable assignment %v",
				r.name, j, i, r.Row(i))
		}
		seen[k] = i
	}
	return nil
}

// IsComplete reports whether the relation contains every combination of
// its attribute domains exactly once (the paper's "complete" relations;
// probability functions are complete in principle).
// A domain product that overflows saturates at MaxInt, which no relation
// reaches.
func (r *Relation) IsComplete() bool {
	return r.Len() == r.DomainProduct() && r.CheckFD() == nil
}

// DomainProduct returns the size of the cross product of attribute
// domains, saturating at MaxInt on overflow.
func (r *Relation) DomainProduct() int {
	total := 1
	for _, a := range r.attrs {
		if total > math.MaxInt/a.Domain {
			return math.MaxInt
		}
		total *= a.Domain
	}
	return total
}

// Equal reports whether a and b denote the same function: identical
// variable sets and, for every variable assignment, measures equal within
// tol. Attribute order may differ. Rows missing from one relation compare
// against the other's measure only if that measure is within tol of the
// provided absent value; callers comparing incomplete relations should
// pass the semiring's Zero as absent.
func Equal(a, b *Relation, absent, tol float64) bool {
	if !a.Vars().Equal(b.Vars()) {
		return false
	}
	order := a.Vars().Sorted()
	aCols := make([]int, len(order))
	bCols := make([]int, len(order))
	for i, v := range order {
		aCols[i], bCols[i] = a.ColIndex(v), b.ColIndex(v)
	}
	am := make(map[string]float64, a.Len())
	for i := 0; i < a.Len(); i++ {
		k := key(a.Row(i), aCols)
		if _, dup := am[k]; dup {
			return false // not a function
		}
		am[k] = a.Measure(i)
	}
	matched := 0
	for i := 0; i < b.Len(); i++ {
		k := key(b.Row(i), bCols)
		av, ok := am[k]
		if !ok {
			if !close2(b.Measure(i), absent, tol) {
				return false
			}
			continue
		}
		matched++
		if !close2(av, b.Measure(i), tol) {
			return false
		}
		delete(am, k)
	}
	_ = matched
	for _, av := range am {
		if !close2(av, absent, tol) {
			return false
		}
	}
	return true
}

func close2(a, b, tol float64) bool {
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
	return diff <= tol*math.Max(scale, 1)
}

// FromRows builds a functional relation from explicit rows; convenient for
// tests and examples. Each row is the variable values followed implicitly
// by the matching measure in measures.
func FromRows(name string, attrs []Attr, rows [][]int32, measures []float64) (*Relation, error) {
	if len(rows) != len(measures) {
		return nil, fmt.Errorf("FromRows %s: %d rows but %d measures", name, len(rows), len(measures))
	}
	r, err := New(name, attrs)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		if err := r.Append(row, measures[i]); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Complete builds a complete functional relation over the given attributes
// whose measure for each variable assignment is produced by fn (called in
// lexicographic assignment order).
func Complete(name string, attrs []Attr, fn func(vals []int32) float64) (*Relation, error) {
	r, err := New(name, attrs)
	if err != nil {
		return nil, err
	}
	vals := make([]int32, len(attrs))
	for {
		r.appendRaw(vals, fn(vals))
		// Advance odometer.
		i := len(attrs) - 1
		for ; i >= 0; i-- {
			vals[i]++
			if int(vals[i]) < attrs[i].Domain {
				break
			}
			vals[i] = 0
		}
		if i < 0 {
			break
		}
	}
	if len(attrs) == 0 {
		// A zero-arity relation has exactly one (empty) row; the loop above
		// already appended it and terminated.
		_ = r
	}
	return r, nil
}

// Random builds a random functional relation: each combination of domain
// values is included independently with probability density, with a
// measure drawn from fn. density 1 yields a complete relation. At least
// one row is always produced so the relation is never empty.
func Random(rng *rand.Rand, name string, attrs []Attr, density float64, fn func(*rand.Rand) float64) (*Relation, error) {
	r, err := New(name, attrs)
	if err != nil {
		return nil, err
	}
	vals := make([]int32, len(attrs))
	for {
		if rng.Float64() < density {
			r.appendRaw(vals, fn(rng))
		}
		i := len(attrs) - 1
		for ; i >= 0; i-- {
			vals[i]++
			if int(vals[i]) < attrs[i].Domain {
				break
			}
			vals[i] = 0
		}
		if i < 0 {
			break
		}
	}
	if r.Len() == 0 {
		for i := range vals {
			vals[i] = int32(rng.Intn(attrs[i].Domain))
		}
		r.appendRaw(vals, fn(rng))
	}
	return r, nil
}

// UniformMeasure returns a measure generator drawing uniformly from
// [lo, hi); for use with Random.
func UniformMeasure(lo, hi float64) func(*rand.Rand) float64 {
	return func(r *rand.Rand) float64 { return lo + r.Float64()*(hi-lo) }
}

// Normalize scales the measures in place so they sum to one, turning an
// unnormalized sum-product marginal into a probability distribution
// (e.g. Pr(C, A=0) into Pr(C | A=0), §4). It errors when the total is
// zero or negative.
func (r *Relation) Normalize() error {
	total := 0.0
	for _, m := range r.measures {
		total += m
	}
	if total <= 0 {
		return fmt.Errorf("relation %s: cannot normalize, total measure %v", r.name, total)
	}
	for i := range r.measures {
		r.measures[i] /= total
	}
	return nil
}
