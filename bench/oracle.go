package bench

import (
	"fmt"
	"math"
	"sort"

	"mpf"
)

// relTol is the relative tolerance on measures: the engine and the
// oracle add the same terms in different orders.
const relTol = 1e-9

// reference is an oracle answer indexed by variable assignment, so that
// checking an engine answer costs one map probe per row and no sort.
type reference struct {
	vars []string // sorted
	rows map[uint64]float64
}

// newReference indexes r. Assignments are packed into one word, which
// covers every answer the workloads ask for (at most two variables).
func newReference(r *mpf.Relation) (*reference, error) {
	cols, vars, err := sortedCols(r)
	if err != nil {
		return nil, err
	}
	ref := &reference{vars: vars, rows: make(map[uint64]float64, r.Len())}
	for i := 0; i < r.Len(); i++ {
		k := packRow(r.Row(i), cols)
		if _, dup := ref.rows[k]; dup {
			return nil, fmt.Errorf("oracle answer %s repeats assignment %v", r.Name(), r.Row(i))
		}
		ref.rows[k] = r.Measure(i)
	}
	return ref, nil
}

// compare reports how got differs from the reference: another schema,
// another set of assignments, or a measure off by more than relTol.
func (ref *reference) compare(got *mpf.Relation) error {
	if got == nil {
		return fmt.Errorf("no relation in the answer")
	}
	cols, vars, err := sortedCols(got)
	if err != nil {
		return err
	}
	if fmt.Sprint(vars) != fmt.Sprint(ref.vars) {
		return fmt.Errorf("answer over %v, want %v", vars, ref.vars)
	}
	if got.Len() != len(ref.rows) {
		return fmt.Errorf("answer has %d rows, want %d", got.Len(), len(ref.rows))
	}
	seen := make(map[uint64]struct{}, got.Len())
	for i := 0; i < got.Len(); i++ {
		k := packRow(got.Row(i), cols)
		want, ok := ref.rows[k]
		if !ok {
			return fmt.Errorf("answer has unexpected assignment %v", got.Row(i))
		}
		if _, dup := seen[k]; dup {
			return fmt.Errorf("answer repeats assignment %v", got.Row(i))
		}
		seen[k] = struct{}{}
		if m := got.Measure(i); !closeEnough(m, want) {
			return fmt.Errorf("assignment %v: measure %v, want %v", got.Row(i), m, want)
		}
	}
	return nil
}

// sortedCols returns r's column indexes in sorted-variable order, so
// answers that list their variables differently still compare.
func sortedCols(r *mpf.Relation) (cols []int, vars []string, err error) {
	vars = append([]string(nil), r.VarNames()...)
	if len(vars) > 2 {
		return nil, nil, fmt.Errorf("relation %s has %d variables; the oracle index packs at most 2", r.Name(), len(vars))
	}
	sort.Strings(vars)
	cols = make([]int, len(vars))
	for i, v := range vars {
		cols[i] = r.ColIndex(v)
	}
	return cols, vars, nil
}

func packRow(row []int32, cols []int) uint64 {
	var k uint64
	for _, c := range cols {
		k = k<<32 | uint64(uint32(row[c]))
	}
	return k
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}
