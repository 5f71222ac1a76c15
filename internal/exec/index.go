package exec

import (
	"context"
	"fmt"
	"sort"

	"mpf/internal/relation"
)

// tupleLoc addresses one tuple inside a heap.
type tupleLoc struct {
	page int64
	slot int32
}

// Index is a hash index on one variable attribute of a stored table: it
// maps each attribute value to the locations of the matching tuples, so
// equality selections can fetch only the pages that contain matches (the
// "indices and alternative access methods" of §5.4).
type Index struct {
	// Attr is the indexed attribute name.
	Attr    string
	col     int
	entries map[int32][]tupleLoc
}

// BuildIndex scans the table once, a page batch at a time, and builds a
// hash index on attr: a row's slot on its page is its index in the batch.
func BuildIndex(t *Table, attr string) (*Index, error) {
	col := t.ColIndex(attr)
	if col < 0 {
		return nil, fmt.Errorf("exec: table %s has no attribute %s", t.Name, attr)
	}
	idx := &Index{Attr: attr, col: col, entries: make(map[int32][]tupleLoc)}
	it := t.Heap.ScanColBatches()
	defer it.Close()
	for cb, ok := it.Next(); ok; cb, ok = it.Next() {
		page := it.Page()
		for slot, v := range cb.Cols[col].Flat() {
			idx.entries[v] = append(idx.entries[v], tupleLoc{page, int32(slot)})
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return idx, nil
}

// Lookup returns the locations of tuples whose indexed attribute equals
// val, ordered by page so fetches are sequential within the heap.
func (idx *Index) Lookup(val int32) []tupleLoc {
	locs := idx.entries[val]
	out := append([]tupleLoc(nil), locs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].page != out[j].page {
			return out[i].page < out[j].page
		}
		return out[i].slot < out[j].slot
	})
	return out
}

// Selectivity returns the fraction of tuples matching val.
func (idx *Index) Selectivity(val int32, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(len(idx.entries[val])) / float64(total)
}

// AddIndex attaches an index to the table, replacing any previous index
// on the same attribute.
func (t *Table) AddIndex(idx *Index) {
	if t.Indexes == nil {
		t.Indexes = make(map[string]*Index)
	}
	t.Indexes[idx.Attr] = idx
}

// indexedSelect evaluates an equality selection through an index: only
// the pages containing matches are read. Residual predicate columns (for
// multi-variable predicates) are checked per fetched tuple. Returns nil
// when no suitable index exists, signalling the caller to fall back to a
// scan.
func (e *Engine) indexedSelect(ctx context.Context, in *Table, pred relation.Predicate, st *RunStats) (*Table, error) {
	// Pick the indexed predicate variable with the fewest matches.
	var best *Index
	var bestVal int32
	for v, val := range pred {
		idx, ok := in.Indexes[v]
		if !ok {
			continue
		}
		if best == nil || len(idx.entries[val]) < len(best.entries[bestVal]) {
			best, bestVal = idx, val
		}
	}
	if best == nil {
		return nil, nil
	}
	residCols := make([]int, 0, len(pred))
	residWant := make([]int32, 0, len(pred))
	for v, val := range pred {
		if v == best.Attr {
			continue
		}
		c := in.ColIndex(v)
		if c < 0 {
			return nil, fmt.Errorf("exec: selection variable %s not in %s", v, in.Name)
		}
		residCols = append(residCols, c)
		residWant = append(residWant, val)
	}
	out, err := e.newOutTemp(ctx, "σix("+in.Name+")", in.Attrs)
	if err != nil {
		return nil, err
	}
	// Matches are buffered and appended a page at a time, so the output
	// side costs one pool round-trip per page of matches instead of one
	// per match.
	w := newBatchWriter(out, false, st)
	emit := func(vals []int32, m float64) error {
		for i, c := range residCols {
			if vals[c] != residWant[i] {
				return nil
			}
		}
		return w.append(vals, m)
	}
	// Locations are page-ordered; fetch each page once and read all of
	// its matching slots under a single pin.
	locs := best.Lookup(bestVal)
	for i := 0; i < len(locs); {
		j := i
		var slots []int32
		for ; j < len(locs) && locs[j].page == locs[i].page; j++ {
			slots = append(slots, locs[j].slot)
		}
		if err := in.Heap.ReadTupleBatchContext(ctx, locs[i].page, slots, emit); err != nil {
			out.Drop()
			return nil, err
		}
		i = j
	}
	if err := w.flush(); err != nil {
		out.Drop()
		return nil, err
	}
	return out, nil
}
