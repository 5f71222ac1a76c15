// Package catalog maintains schema and statistics metadata for the MPF
// engine: table schemas, cardinalities, and per-attribute distinct value
// counts. The statistics drive the cost-based optimizers exactly as an
// RDBMS catalog would ("both of these statistics are readily available in
// the catalog of RDBMS systems", paper §5.1).
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mpf/internal/relation"
)

// Sentinel errors for catalog lookups. They are wrapped (with the name
// that failed) by the returning methods, so callers match them with
// errors.Is across every layer the error crosses.
var (
	// ErrUnknownTable reports a lookup of a table the catalog does not
	// know.
	ErrUnknownTable = errors.New("unknown table")
	// ErrUnknownView reports a lookup of a view the catalog does not know.
	ErrUnknownView = errors.New("unknown view")
)

// TableStats describes one base functional relation.
type TableStats struct {
	Name     string
	Attrs    []relation.Attr
	Card     int64            // number of tuples
	Distinct map[string]int64 // distinct values actually present, per attribute
	// Key, when non-empty, names a primary key: a subset of the
	// attributes that functionally determines the whole row (and hence
	// the measure). Empty means only the trivial key (all attributes) is
	// known. Keys feed Proposition 1: a variable outside every key can be
	// projected away instead of aggregated.
	Key []string
}

// Vars returns the table's variable set.
func (t *TableStats) Vars() relation.VarSet {
	s := make(relation.VarSet, len(t.Attrs))
	for _, a := range t.Attrs {
		s[a.Name] = true
	}
	return s
}

// Attr returns the attribute named v.
func (t *TableStats) Attr(v string) (relation.Attr, bool) {
	for _, a := range t.Attrs {
		if a.Name == v {
			return a, true
		}
	}
	return relation.Attr{}, false
}

// Clone returns a deep copy.
func (t *TableStats) Clone() *TableStats {
	c := &TableStats{
		Name:     t.Name,
		Attrs:    append([]relation.Attr(nil), t.Attrs...),
		Card:     t.Card,
		Distinct: make(map[string]int64, len(t.Distinct)),
		Key:      append([]string(nil), t.Key...),
	}
	for k, v := range t.Distinct {
		c.Distinct[k] = v
	}
	return c
}

// KeyVars returns the key as a variable set; when no explicit key is
// declared, all attributes form the (trivial) key.
func (t *TableStats) KeyVars() relation.VarSet {
	if len(t.Key) == 0 {
		return t.Vars()
	}
	return relation.NewVarSet(t.Key...)
}

// ViewDef is the definition of an MPF view: a product join of base tables
// with a named measure combination (the semiring is recorded by name so
// definitions can round-trip through SQL).
type ViewDef struct {
	Name     string
	Tables   []string
	Semiring string
}

// Catalog is a thread-safe registry of table statistics and view
// definitions.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*TableStats
	views  map[string]*ViewDef
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*TableStats),
		views:  make(map[string]*ViewDef),
	}
}

// Clone returns a deep copy of the catalog: table statistics and view
// definitions are copied, so mutations of either catalog never show
// through the other. The multi-version catalog in internal/core clones
// the current catalog at the start of every commit, keeping published
// versions immutable while the writer edits its private copy.
func (c *Catalog) Clone() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := New()
	for name, t := range c.tables {
		out.tables[name] = t.Clone()
	}
	for name, v := range c.views {
		cp := *v
		cp.Tables = append([]string(nil), v.Tables...)
		out.views[name] = &cp
	}
	return out
}

// AddTable registers statistics for a table, replacing any previous entry
// with the same name.
func (c *Catalog) AddTable(t *TableStats) error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table with empty name")
	}
	if t.Card < 0 {
		return fmt.Errorf("catalog: table %s has negative cardinality", t.Name)
	}
	for _, a := range t.Attrs {
		if d := t.Distinct[a.Name]; d < 0 || d > int64(a.Domain) {
			return fmt.Errorf("catalog: table %s attr %s distinct %d outside [0,%d]",
				t.Name, a.Name, d, a.Domain)
		}
	}
	for _, k := range t.Key {
		if _, ok := t.Attr(k); !ok {
			return fmt.Errorf("catalog: table %s declares key column %s that is not an attribute", t.Name, k)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[t.Name] = t.Clone()
	return nil
}

// AnalyzeRelation computes TableStats from an in-memory relation.
func AnalyzeRelation(r *relation.Relation) *TableStats {
	st := &TableStats{
		Name:     r.Name(),
		Attrs:    append([]relation.Attr(nil), r.Attrs()...),
		Card:     int64(r.Len()),
		Distinct: make(map[string]int64, r.Arity()),
	}
	for col, a := range r.Attrs() {
		seen := make(map[int32]bool)
		for row := 0; row < r.Len(); row++ {
			seen[r.Value(row, col)] = true
		}
		st.Distinct[a.Name] = int64(len(seen))
	}
	return st
}

// RowEdit carries a table's statistics across the insert or delete of
// one row while the writer streams the stored rows past it, instead of
// re-analysing the table: Card moves by one, and a column's Distinct
// moves only when the row's value occurs in no other row, so the state
// is one flag per column. Key is carried unchanged.
type RowEdit struct {
	st     *TableStats
	vals   []int32
	key    []int // positions of the declared key columns; empty when none
	occurs []bool
}

// NewRowEdit prepares the edit of row vals (one value per attribute of
// st, in schema order).
func NewRowEdit(st *TableStats, vals []int32) *RowEdit {
	e := &RowEdit{st: st, vals: vals, occurs: make([]bool, len(vals))}
	for _, k := range st.Key {
		for i, a := range st.Attrs {
			if a.Name == k {
				e.key = append(e.key, i)
			}
		}
	}
	return e
}

// Observe compares one stored row with the edited row. same reports that
// it is the edited row itself (every column agrees), keyed that it agrees
// on the declared key (false when none is declared). Any other row
// counts as an occurrence of each value it shares with the edited row.
func (e *RowEdit) Observe(row []int32) (same, keyed bool) {
	same, keyed = true, len(e.key) > 0
	for i, v := range row {
		same = same && v == e.vals[i]
	}
	for _, i := range e.key {
		keyed = keyed && row[i] == e.vals[i]
	}
	for i, v := range row {
		if !same && v == e.vals[i] {
			e.occurs[i] = true
		}
	}
	return same, keyed
}

// Stats returns the table's statistics after the edit: delta is +1 when
// the row was inserted and -1 when it was deleted. Exact once every
// other stored row has been observed.
func (e *RowEdit) Stats(delta int64) *TableStats {
	st := e.st.Clone()
	st.Card += delta
	for i, a := range st.Attrs {
		if !e.occurs[i] {
			st.Distinct[a.Name] += delta
		}
	}
	return st
}

// Table returns the stats for a table.
func (c *Catalog) Table(name string) (*TableStats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: %w %q", ErrUnknownTable, name)
	}
	return t.Clone(), nil
}

// DropTable removes a table's stats.
func (c *Catalog) DropTable(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tables, name)
}

// Tables returns all table names in sorted order.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddView registers a view definition.
func (c *Catalog) AddView(v *ViewDef) error {
	if v.Name == "" {
		return fmt.Errorf("catalog: view with empty name")
	}
	if len(v.Tables) == 0 {
		return fmt.Errorf("catalog: view %s has no base tables", v.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range v.Tables {
		if _, ok := c.tables[t]; !ok {
			return fmt.Errorf("catalog: view %s references unknown table %q", v.Name, t)
		}
	}
	cp := *v
	cp.Tables = append([]string(nil), v.Tables...)
	c.views[v.Name] = &cp
	return nil
}

// View returns a view definition.
func (c *Catalog) View(name string) (*ViewDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[name]
	if !ok {
		return nil, fmt.Errorf("catalog: %w %q", ErrUnknownView, name)
	}
	cp := *v
	cp.Tables = append([]string(nil), v.Tables...)
	return &cp, nil
}

// DropView removes a view definition.
func (c *Catalog) DropView(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.views, name)
}

// Views returns all view names in sorted order.
func (c *Catalog) Views() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.views))
	for n := range c.views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DomainSize returns σ_v: the domain size of variable v, defined as the
// maximum domain declared by any table containing v (they should agree).
// Second result is the smallest cardinality among base tables containing
// v (σ̂_v of the paper's linearity test). ok is false if no table has v.
func (c *Catalog) DomainSize(v string) (domain int64, minTableCard int64, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	minTableCard = -1
	for _, t := range c.tables {
		for _, a := range t.Attrs {
			if a.Name != v {
				continue
			}
			ok = true
			if int64(a.Domain) > domain {
				domain = int64(a.Domain)
			}
			if minTableCard < 0 || t.Card < minTableCard {
				minTableCard = t.Card
			}
		}
	}
	return domain, minTableCard, ok
}
