package core

import (
	"errors"
	"fmt"

	"mpf/internal/catalog"
	"mpf/internal/exec"
	"mpf/internal/relation"
	"mpf/internal/storage"
)

// target resolves the table a one-row write addresses in the next
// version and validates the row against its schema — arity always,
// domains when inDomain is set — before any storage work.
func (c *commit) target(table string, vals []int32, inDomain bool) (*exec.Table, *catalog.RowEdit, error) {
	tv, ok := c.next.tables[table]
	if !ok {
		return nil, nil, fmt.Errorf("core: %w %q", ErrUnknownTable, table)
	}
	t := tv.tab
	if len(vals) != len(t.Attrs) {
		return nil, nil, fmt.Errorf("core: %w: %d values for arity-%d table %s", ErrSchemaMismatch, len(vals), len(t.Attrs), table)
	}
	for i, a := range t.Attrs {
		if inDomain && (vals[i] < 0 || int(vals[i]) >= a.Domain) {
			return nil, nil, fmt.Errorf("core: %w: value %d outside domain [0,%d) of %s.%s", ErrSchemaMismatch, vals[i], a.Domain, table, a.Name)
		}
	}
	st, err := c.next.cat.Table(table)
	if err != nil {
		return nil, nil, err
	}
	return t, catalog.NewRowEdit(st, vals), nil
}

// Insert appends one tuple to a base table. The row is validated
// against the schema first; then the table's next generation is built
// from its parent in one pass (commit.rewrite) that also enforces the
// functional dependency — no second measure for an existing variable
// assignment, no second row for an existing value of a declared key —
// and carries the statistics and key forward. The generation is
// published as a new catalog version. Readers
// pinned to the old version keep their generation; workload caches over
// views containing the table are invalidated (they no longer satisfy
// the Definition 5 invariant and must be rebuilt with BuildCache).
func (db *Database) Insert(table string, vals []int32, measure float64) error {
	c := db.beginCommit()
	parent, edit, err := c.target(table, vals, true)
	if err != nil {
		c.cancel()
		return err
	}
	t, err := c.rewrite(parent, func(b *storage.Batch) (int, error) {
		for i := 0; i < b.Len(); i++ {
			same, keyed := edit.Observe(b.Row(i))
			if same {
				return 0, fmt.Errorf("core: insert into %s: %w: assignment %v already present", table, ErrNotFunctional, vals)
			}
			if keyed {
				return 0, fmt.Errorf("core: insert into %s: %w: %v repeats the declared key of row %v", table, ErrNotFunctional, vals, b.Row(i))
			}
		}
		return -1, nil
	}, &storage.Batch{Arity: len(vals), Vals: vals, Measures: []float64{measure}})
	if errors.Is(err, ErrNotFunctional) {
		c.cancel()
		return err
	}
	if err != nil {
		return c.abort(err)
	}
	c.install(t)
	if err := c.restat(edit.Stats(+1)); err != nil {
		return c.abort(err)
	}
	return c.publish(table)
}

// Delete removes the tuple with the given variable assignment, returning
// whether it existed. The next generation is the parent's rows minus
// that one, built by the same pass as Insert; statistics and key are
// carried forward and dependent caches invalidated. Deleting an absent
// row publishes nothing.
func (db *Database) Delete(table string, vals []int32) (bool, error) {
	c := db.beginCommit()
	parent, edit, err := c.target(table, vals, false)
	if err != nil {
		c.cancel()
		return false, err
	}
	removed := false
	t, err := c.rewrite(parent, func(b *storage.Batch) (int, error) {
		skip := -1
		for i := 0; i < b.Len(); i++ {
			if same, _ := edit.Observe(b.Row(i)); same && !removed {
				removed, skip = true, i
			}
		}
		return skip, nil
	}, nil)
	if err != nil {
		return false, c.abort(err)
	}
	c.install(t)
	if !removed { // nothing to publish; cancel drops the installed copy
		c.cancel()
		return false, nil
	}
	if err := c.restat(edit.Stats(-1)); err != nil {
		return false, c.abort(err)
	}
	return true, c.publish(table)
}

// DeclareKey records that cols functionally determine the whole row of
// the table (and hence the measure) — the primary key Proposition 1
// uses to project a non-key variable away instead of aggregating it.
// Every column must be an attribute of the table and the stored rows
// must be distinct on cols. The declaration is a commit: the table's
// version is bumped so cached plans are re-planned against the key, and
// it survives later Inserts (which must respect it) and Deletes.
func (db *Database) DeclareKey(table string, cols []string) error {
	c := db.beginCommit()
	tv, ok := c.next.tables[table]
	if !ok {
		c.cancel()
		return fmt.Errorf("core: %w %q", ErrUnknownTable, table)
	}
	for _, col := range cols {
		if tv.tab.ColIndex(col) < 0 {
			c.cancel()
			return fmt.Errorf("core: %w: key column %s is not an attribute of %s", ErrSchemaMismatch, col, table)
		}
	}
	// Proposition 1's condition on the data: marginalizing onto a key
	// merges no two rows.
	r, err := exec.ReadRelation(tv.tab)
	if err != nil {
		return c.abort(err)
	}
	onKey, err := relation.Marginalize(db.cfg.Semiring, r, cols)
	if err != nil {
		return c.abort(err)
	}
	if onKey.Len() != r.Len() {
		c.cancel()
		return fmt.Errorf("core: %w: columns %v do not determine the rows of %s", ErrNotFunctional, cols, table)
	}
	st, err := c.next.cat.Table(table)
	if err != nil {
		return c.abort(err)
	}
	st.Key = cols
	if err := c.restat(st); err != nil {
		return c.abort(err)
	}
	return c.publish(table)
}

// DropTable removes a base table from the catalog. Tables referenced by
// a view cannot be dropped; drop the view first. The dropped
// generation's storage is reclaimed when the last snapshot pinning a
// version that contains it is released.
func (db *Database) DropTable(table string) error {
	c := db.beginCommit()
	if _, ok := c.next.tables[table]; !ok {
		c.cancel()
		return fmt.Errorf("core: %w %q", ErrUnknownTable, table)
	}
	for _, v := range c.next.cat.Views() {
		def, err := c.next.cat.View(v)
		if err != nil {
			continue
		}
		for _, vt := range def.Tables {
			if vt == table {
				c.cancel()
				return fmt.Errorf("core: table %q is referenced by view %q", table, v)
			}
		}
	}
	delete(c.next.tables, table)
	delete(c.next.versions, table)
	c.next.cat.DropTable(table)
	return c.publish(table)
}

// DropView removes a view definition and any workload cache built for it.
func (db *Database) DropView(view string) error {
	c := db.beginCommit()
	if _, err := c.next.cat.View(view); err != nil {
		c.cancel()
		return err
	}
	c.next.cat.DropView(view)
	if err := c.publish(); err != nil {
		return err
	}
	db.cachesMu.Lock()
	delete(db.caches, view)
	db.cachesMu.Unlock()
	return nil
}
