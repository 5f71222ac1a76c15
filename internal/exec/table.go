// Package exec is the physical execution engine for MPF plans.
//
// The engine evaluates logical plans from internal/plan over disk-resident
// operands: base tables live in heap files behind a shared buffer pool and
// every operator materializes its output to a temporary heap, mirroring
// the IO-dominated regime the paper targets (disk-resident functional
// relations inside PostgreSQL). Operator implementations are the hash
// product join with its Grace fallback and hash marginalizing group-by; the engine records wall time, physical page IO, and intermediate
// tuple volume for every run so experiments can compare plans on the same
// metrics the paper reports.
package exec

import (
	"context"
	"fmt"
	"sync"

	"mpf/internal/relation"
	"mpf/internal/storage"
)

// Table pairs a heap file with its attribute schema. The measure column
// is implicit (every heap tuple carries one).
type Table struct {
	Name  string
	Attrs []relation.Attr
	Heap  *storage.Heap
	// rel, when set, holds a run's answer in memory instead of Heap (nil):
	// the plan root's output, which nothing re-reads (adoptAgg).
	rel  *relation.Relation
	temp bool
	mu   sync.Mutex // serializes shared batchWriter flushes of parallel producers
	// onDrop, when set, runs exactly once on the first Drop, before any
	// heap release. The result cache uses it to unpin a shared cache entry
	// when the consuming operator is done with it: cached tables are
	// handed to operators with temp=false (so Drop never frees the shared
	// heap) and onDrop wired to the entry's release.
	onDrop func()
}

// Vars returns the table's variable set.
func (t *Table) Vars() relation.VarSet {
	s := make(relation.VarSet, len(t.Attrs))
	for _, a := range t.Attrs {
		s[a.Name] = true
	}
	return s
}

// ColIndex returns the schema position of the named attribute, or -1.
func (t *Table) ColIndex(name string) int {
	for i, a := range t.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// rows returns the table's row count.
func (t *Table) rows() int64 {
	if t.rel != nil {
		return int64(t.rel.Len())
	}
	return t.Heap.NumTuples()
}

// Drop releases the table's storage if it is a temporary table; base
// tables and cache-owned tables are left untouched (the latter release
// their cache pin via the onDrop hook instead).
func (t *Table) Drop() error {
	if f := t.onDrop; f != nil {
		t.onDrop = nil
		f()
	}
	if !t.temp {
		return nil
	}
	t.temp = false
	return t.Heap.Drop()
}

// LoadRelation materializes an in-memory relation into a fresh heap file
// from the factory, registered with the pool, a page of rows per append;
// it is how base tables enter the engine. With columnar given and true,
// every page that fills during the load is re-encoded in place with the
// per-page columnar layout (dictionary/run-length where they pay for
// themselves), so scans of the table serve encoded batches.
func LoadRelation(pool *storage.Pool, factory storage.DiskFactory, r *relation.Relation, columnar ...bool) (*Table, error) {
	h, err := storage.NewTempHeap(pool, factory, r.Arity())
	if err != nil {
		return nil, err
	}
	h.SetColumnar(len(columnar) > 0 && columnar[0])
	t := &Table{Name: r.Name(), Attrs: append([]relation.Attr(nil), r.Attrs()...), Heap: h}
	w := newBatchWriter(t, false, nil)
	for i := 0; i < r.Len() && err == nil; i++ {
		err = w.append(r.Row(i), r.Measure(i))
	}
	if err == nil {
		err = w.flush()
	}
	if err != nil {
		h.Drop()
		return nil, err
	}
	return t, nil
}

// ReadRelation scans the table back into an in-memory relation.
func ReadRelation(t *Table) (*relation.Relation, error) {
	return readRelationContext(context.Background(), t)
}

// readRelationContext scans the table back into an in-memory relation,
// observing ctx on page misses: the rows are gathered into arrays sized
// once from the heap's tuple count, then every value is checked against
// its domain.
func readRelationContext(ctx context.Context, t *Table) (*relation.Relation, error) {
	n := int(t.Heap.NumTuples())
	vals := make([]int32, 0, n*len(t.Attrs))
	meas := make([]float64, 0, n)
	it := t.Heap.ScanBatchesContext(ctx)
	defer it.Close()
	for {
		b, ok := it.Next()
		if !ok {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vals = append(vals, b.Vals...)
		meas = append(meas, b.Measures...)
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return relation.FromFlat(t.Name, t.Attrs, vals, meas)
}

// Resolver maps a base-table name to its stored table.
type Resolver func(name string) (*Table, error)

// MapResolver adapts a map of tables into a Resolver.
func MapResolver(tables map[string]*Table) Resolver {
	return func(name string) (*Table, error) {
		t, ok := tables[name]
		if !ok {
			return nil, fmt.Errorf("exec: unknown base table %q", name)
		}
		return t, nil
	}
}
