// Package relation implements functional relations and the extended
// relational algebra of the MPF setting.
//
// A functional relation (FR) is a relation whose schema is a set of
// variable attributes A₁…Aₘ plus one real-valued measure attribute f, with
// the functional dependency A₁A₂⋯Aₘ → f (paper, Definition 1). Variables
// take values from finite categorical domains encoded as integers
// [0, Domain). The algebra over FRs consists of:
//
//   - the product join  s₁ ⋈* s₂  (Definition 2): a natural join on the
//     shared variables whose result measure is the semiring product of the
//     operand measures;
//   - the marginalizing GroupBy  γ_X(s): group on X and fold the measure
//     with the semiring's additive operation;
//   - selections on variable attributes;
//   - the product semijoin  t ⋉* s  and update semijoin  t ⋉ s
//     (Definition 6) used by Belief Propagation.
//
// All operations are pure: they return new relations and never mutate
// their operands.
package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Attr describes one variable attribute: its name and the size of its
// categorical domain. Values of the attribute are integers in [0, Domain).
// The JSON encoding is the obvious object form, e.g.
// {"name":"wid","domain":50}; it is part of the wire protocol
// (internal/server) and must stay stable.
type Attr struct {
	Name   string `json:"name"`
	Domain int    `json:"domain"`
}

// Relation is an in-memory functional relation. Rows are stored row-major
// in vals (arity int32s per row) with a parallel measure slice.
//
// The zero value is not usable; construct relations with New.
type Relation struct {
	name     string
	attrs    []Attr
	colIndex map[string]int
	vals     []int32
	measures []float64
}

// New returns an empty functional relation with the given name and
// variable attributes. Attribute names must be unique and domains positive.
func New(name string, attrs []Attr) (*Relation, error) {
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation %s: attribute %d has empty name", name, i)
		}
		if a.Domain <= 0 {
			return nil, fmt.Errorf("relation %s: attribute %s has non-positive domain %d", name, a.Name, a.Domain)
		}
		if _, dup := idx[a.Name]; dup {
			return nil, fmt.Errorf("relation %s: duplicate attribute %s", name, a.Name)
		}
		idx[a.Name] = i
	}
	return &Relation{
		name:     name,
		attrs:    append([]Attr(nil), attrs...),
		colIndex: idx,
	}, nil
}

// MustNew is New that panics on error; intended for tests and literals.
func MustNew(name string, attrs []Attr) *Relation {
	r, err := New(name, attrs)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// SetName renames the relation (names are diagnostic only).
func (r *Relation) SetName(name string) { r.name = name }

// Attrs returns the variable attributes in schema order. The caller must
// not modify the returned slice.
func (r *Relation) Attrs() []Attr { return r.attrs }

// VarNames returns the variable attribute names in schema order.
func (r *Relation) VarNames() []string {
	names := make([]string, len(r.attrs))
	for i, a := range r.attrs {
		names[i] = a.Name
	}
	return names
}

// Arity returns the number of variable attributes.
func (r *Relation) Arity() int { return len(r.attrs) }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.measures) }

// HasVar reports whether the relation has a variable attribute named v.
func (r *Relation) HasVar(v string) bool {
	_, ok := r.colIndex[v]
	return ok
}

// ColIndex returns the schema position of variable v, or -1.
func (r *Relation) ColIndex(v string) int {
	if i, ok := r.colIndex[v]; ok {
		return i
	}
	return -1
}

// Attr returns the attribute named v.
func (r *Relation) Attr(v string) (Attr, bool) {
	i, ok := r.colIndex[v]
	if !ok {
		return Attr{}, false
	}
	return r.attrs[i], true
}

// Value returns the value of column col in the given row.
func (r *Relation) Value(row, col int) int32 {
	return r.vals[row*len(r.attrs)+col]
}

// Row returns the variable values of one row. The returned slice aliases
// internal storage and must not be modified.
func (r *Relation) Row(row int) []int32 {
	a := len(r.attrs)
	return r.vals[row*a : row*a+a]
}

// Measure returns the measure of the given row.
func (r *Relation) Measure(row int) float64 { return r.measures[row] }

// SetMeasure overwrites the measure of the given row. It is used by
// in-place measure transformations such as normalization.
func (r *Relation) SetMeasure(row int, m float64) { r.measures[row] = m }

// Append adds a row. The number of values must equal the arity and each
// value must lie within its attribute's domain.
func (r *Relation) Append(vals []int32, measure float64) error {
	if err := r.checkRow(vals); err != nil {
		return err
	}
	r.vals = append(r.vals, vals...)
	r.measures = append(r.measures, measure)
	return nil
}

// FromFlat returns the relation over attrs whose rows are vals
// (row-major, one value per attribute) with measures, one per row.
// Every value is checked against its attribute's domain, as Append
// checks it. The relation takes ownership of both slices.
func FromFlat(name string, attrs []Attr, vals []int32, measures []float64) (*Relation, error) {
	r, err := New(name, attrs)
	if err != nil {
		return nil, err
	}
	n := len(r.attrs)
	if len(vals) != len(measures)*n {
		return nil, fmt.Errorf("relation %s: FromFlat got %d values for %d rows of %d", name, len(vals), len(measures), n)
	}
	for off := 0; off < len(vals); off += n {
		for c, v := range vals[off : off+n] {
			if v < 0 || int(v) >= r.attrs[c].Domain {
				return nil, r.checkRow(vals[off : off+n])
			}
		}
	}
	r.vals, r.measures = vals, measures
	return r, nil
}

// checkRow checks a row's values against the schema, as Append does.
func (r *Relation) checkRow(vals []int32) error {
	if len(vals) != len(r.attrs) {
		return fmt.Errorf("relation %s: Append got %d values, want %d", r.name, len(vals), len(r.attrs))
	}
	for i, v := range vals {
		if v < 0 || int(v) >= r.attrs[i].Domain {
			return fmt.Errorf("relation %s: value %d out of domain [0,%d) for %s",
				r.name, v, r.attrs[i].Domain, r.attrs[i].Name)
		}
	}
	return nil
}

// MustAppend is Append that panics on error.
func (r *Relation) MustAppend(vals []int32, measure float64) {
	if err := r.Append(vals, measure); err != nil {
		panic(err)
	}
}

// appendRaw adds a row without validation; internal fast path for
// operators that construct rows from already-validated inputs.
func (r *Relation) appendRaw(vals []int32, measure float64) {
	r.vals = append(r.vals, vals...)
	r.measures = append(r.measures, measure)
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		name:     r.name,
		attrs:    append([]Attr(nil), r.attrs...),
		colIndex: make(map[string]int, len(r.colIndex)),
		vals:     append([]int32(nil), r.vals...),
		measures: append([]float64(nil), r.measures...),
	}
	for k, v := range r.colIndex {
		c.colIndex[k] = v
	}
	return c
}

// Sort orders rows lexicographically by variable values. Sorting is stable
// with respect to equal keys and is used to produce deterministic output.
func (r *Relation) Sort() {
	n := r.Len()
	a := len(r.attrs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		rx := r.vals[idx[x]*a : idx[x]*a+a]
		ry := r.vals[idx[y]*a : idx[y]*a+a]
		for i := 0; i < a; i++ {
			if rx[i] != ry[i] {
				return rx[i] < ry[i]
			}
		}
		return false
	})
	nv := make([]int32, len(r.vals))
	nm := make([]float64, len(r.measures))
	for to, from := range idx {
		copy(nv[to*a:to*a+a], r.vals[from*a:from*a+a])
		nm[to] = r.measures[from]
	}
	r.vals, r.measures = nv, nm
}

// String renders the relation as a small table; intended for debugging and
// examples, not for large relations.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(", r.name)
	for i, a := range r.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
	}
	fmt.Fprintf(&b, ", f) [%d rows]\n", r.Len())
	n := r.Len()
	const maxRows = 50
	for i := 0; i < n && i < maxRows; i++ {
		row := r.Row(i)
		for j, v := range row {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		fmt.Fprintf(&b, " | %g\n", r.measures[i])
	}
	if n > maxRows {
		fmt.Fprintf(&b, "... (%d more rows)\n", n-maxRows)
	}
	return b.String()
}

// VarSet is a set of variable names.
type VarSet map[string]bool

// NewVarSet builds a VarSet from names.
func NewVarSet(names ...string) VarSet {
	s := make(VarSet, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

// Vars returns the set of variable names of r (paper's Var(s)).
func (r *Relation) Vars() VarSet {
	s := make(VarSet, len(r.attrs))
	for _, a := range r.attrs {
		s[a.Name] = true
	}
	return s
}

// Union returns a ∪ b.
func (a VarSet) Union(b VarSet) VarSet {
	u := make(VarSet, len(a)+len(b))
	for k := range a {
		u[k] = true
	}
	for k := range b {
		u[k] = true
	}
	return u
}

// Intersect returns a ∩ b.
func (a VarSet) Intersect(b VarSet) VarSet {
	u := make(VarSet)
	for k := range a {
		if b[k] {
			u[k] = true
		}
	}
	return u
}

// Minus returns a \ b.
func (a VarSet) Minus(b VarSet) VarSet {
	u := make(VarSet)
	for k := range a {
		if !b[k] {
			u[k] = true
		}
	}
	return u
}

// Contains reports whether every element of b is in a.
func (a VarSet) Contains(b VarSet) bool {
	for k := range b {
		if !a[k] {
			return false
		}
	}
	return true
}

// Sorted returns the elements in lexicographic order.
func (a VarSet) Sorted() []string {
	out := make([]string, 0, len(a))
	for k := range a {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether the two sets have identical elements.
func (a VarSet) Equal(b VarSet) bool {
	return len(a) == len(b) && a.Contains(b)
}
