package core

import (
	"testing"

	"mpf/internal/relation"
	"mpf/internal/semiring"
)

func TestInsertUpdatesQueryResults(t *testing.T) {
	db, _, _ := twoTableDB(t)
	before, err := db.Query(&QuerySpec{View: "spend", GroupVars: []string{"part"}})
	if err != nil {
		t.Fatal(err)
	}
	// New supplier price for part 0.
	if err := db.Insert("price", []int32{0, 1}, 4); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(&QuerySpec{View: "spend", GroupVars: []string{"part"}})
	if err != nil {
		t.Fatal(err)
	}
	before.Relation.Sort()
	after.Relation.Sort()
	// part0 gains 4·100 = 400 over the old total.
	if after.Relation.Measure(0) != before.Relation.Measure(0)+400 {
		t.Fatalf("insert not reflected: %v -> %v", before.Relation.Measure(0), after.Relation.Measure(0))
	}
	// Both execution modes agree post-insert.
	mem, err := db.Query(&QuerySpec{View: "spend", GroupVars: []string{"part"}, Exec: MemoryExec})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(mem.Relation, after.Relation, 0, 1e-9) {
		t.Fatal("engine and memory disagree after insert")
	}
	// Stats refreshed.
	st, _ := db.Catalog().Table("price")
	if st.Card != 4 {
		t.Fatalf("catalog card = %d, want 4", st.Card)
	}
}

func TestInsertEnforcesFD(t *testing.T) {
	db, _, _ := twoTableDB(t)
	if err := db.Insert("price", []int32{0, 0}, 99); err == nil {
		t.Fatal("duplicate assignment must be rejected")
	}
	if err := db.Insert("ghost", []int32{0}, 1); err == nil {
		t.Fatal("unknown table must error")
	}
	if err := db.Insert("price", []int32{0}, 1); err == nil {
		t.Fatal("wrong arity must error")
	}
}

func TestDeleteRemovesTuple(t *testing.T) {
	db, _, _ := twoTableDB(t)
	removed, err := db.Delete("price", []int32{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !removed {
		t.Fatal("existing tuple should be removed")
	}
	removed, err = db.Delete("price", []int32{1, 0})
	if err != nil || removed {
		t.Fatal("second delete should be a no-op")
	}
	res, err := db.Query(&QuerySpec{View: "spend", GroupVars: []string{"part"}})
	if err != nil {
		t.Fatal(err)
	}
	// part1 now has no price: only parts 0 and 2 remain.
	if res.Relation.Len() != 2 {
		t.Fatalf("want 2 parts after delete, got %d", res.Relation.Len())
	}
	// A predicate query sees the next generation too.
	sel, err := db.Query(&QuerySpec{
		View: "spend", GroupVars: []string{"part"}, Where: relation.Predicate{"part": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Relation.Len() != 1 {
		t.Fatalf("indexed query after delete wrong: %v", sel.Relation)
	}
	if _, err := db.Delete("ghost", []int32{0}); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := db.Delete("price", []int32{0}); err == nil {
		t.Fatal("wrong arity must error")
	}
}

func TestWritesInvalidateCaches(t *testing.T) {
	db, _, _ := twoTableDB(t)
	if _, err := db.BuildCache("spend", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Cache("spend"); err != nil {
		t.Fatal("cache should exist")
	}
	if err := db.Insert("price", []int32{0, 1}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Cache("spend"); err == nil {
		t.Fatal("insert must invalidate the cache")
	}
	// QueryCached falls back to full evaluation and reflects the insert.
	ans, err := db.QueryCached("spend", "part")
	if err != nil {
		t.Fatal(err)
	}
	joint, _ := relation.ProductJoin(semiring.SumProduct, mustRel(t, db, "price"), mustRel(t, db, "qty"))
	want, _ := relation.Marginalize(semiring.SumProduct, joint, []string{"part"})
	if !relation.Equal(ans, want, 0, 1e-9) {
		t.Fatal("fallback answer stale after insert")
	}
	// Rebuilding restores cached answering.
	if _, err := db.BuildCache("spend", nil); err != nil {
		t.Fatal(err)
	}
	ans2, err := db.QueryCached("spend", "part")
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(ans2, want, 0, 1e-9) {
		t.Fatal("rebuilt cache wrong")
	}
}

func mustRel(t *testing.T, db *Database, name string) *relation.Relation {
	t.Helper()
	r, err := db.Relation(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
