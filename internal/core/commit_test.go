package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mpf/internal/catalog"
	"mpf/internal/opt"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// planShape renders a plan's operators without estimates, so plans over
// tables of different cardinality compare by structure.
func planShape(n *plan.Node) string {
	switch {
	case n == nil:
		return ""
	case n.Op == plan.OpScan:
		return n.Table
	case n.Op == plan.OpGroupBy:
		return fmt.Sprintf("G%v(%s)", n.GroupVars, planShape(n.Left))
	case n.Op == plan.OpJoin:
		return fmt.Sprintf("J(%s,%s)", planShape(n.Left), planShape(n.Right))
	default:
		return fmt.Sprintf("S(%s)", planShape(n.Left))
	}
}

// keyedDB loads the Proposition 1 fixture: region is determined by wid
// and outside every key, so once the keys are declared the FD-aware VE
// never eliminates it in a step of its own (without them it plans a
// GroupBy over warehouses just to drop region).
func keyedDB(t *testing.T) *Database {
	t.Helper()
	db, err := Open(Config{PlanCacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	wh := relation.MustNew("warehouses", []relation.Attr{
		{Name: "wid", Domain: 8}, {Name: "cid", Domain: 3}, {Name: "region", Domain: 2}})
	for w := int32(0); w < 6; w++ {
		wh.MustAppend([]int32{w, w % 3, w % 2}, float64(w)+1)
	}
	measure := func(v []int32) float64 { return float64(v[0]+v[1]) + 0.5 }
	loc, err := relation.Complete("location",
		[]relation.Attr{{Name: "pid", Domain: 4}, {Name: "wid", Domain: 8}}, measure)
	if err != nil {
		t.Fatal(err)
	}
	deals, err := relation.Complete("ctdeals",
		[]relation.Attr{{Name: "cid", Domain: 3}, {Name: "tid", Domain: 4}}, measure)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*relation.Relation{wh, loc, deals} {
		if err := db.CreateTable(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateView("inv", []string{"warehouses", "location", "ctdeals"}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDeclaredKeySurvivesWrites is the regression test for the key that
// vanished on the first write: a declared key is still reported, still
// steers the optimizer, and is enforced, after Insert and Delete; and
// declaring it is a commit, not an edit of the published catalog.
func TestDeclaredKeySurvivesWrites(t *testing.T) {
	q := &QuerySpec{View: "inv", GroupVars: []string{"tid"},
		Optimizer: opt.VE{Heuristic: opt.Width, Extended: true, UseFDs: true}}
	db := keyedDB(t)
	shapeOf := func() string {
		p, _, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		return planShape(p)
	}
	plain := shapeOf() // also leaves a key-less plan in the plan cache
	seq := db.Metrics().MVCC.Seq
	for table, cols := range map[string][]string{
		"warehouses": {"wid"}, "location": {"pid", "wid"}, "ctdeals": {"cid", "tid"},
	} {
		if err := db.DeclareKey(table, cols); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Metrics().MVCC.Seq; got != seq+3 {
		t.Fatalf("three key declarations moved the catalog sequence by %d, want 3", got-seq)
	}
	keyed := shapeOf()
	if keyed == plain {
		t.Fatalf("declaring keys did not change the FD-aware plan (stale cached plan?): %s", keyed)
	}

	check := func(when string) {
		t.Helper()
		st, err := db.Catalog().Table("warehouses")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.Key, []string{"wid"}) {
			t.Fatalf("%s: key = %v, want [wid]", when, st.Key)
		}
		if got := shapeOf(); got != keyed {
			t.Fatalf("%s: plan %s, want the FD-skip plan %s", when, got, keyed)
		}
	}
	if err := db.Insert("warehouses", []int32{6, 0, 0}, 7); err != nil {
		t.Fatal(err)
	}
	check("after insert")
	if existed, err := db.Delete("warehouses", []int32{0, 0, 0}); err != nil || !existed {
		t.Fatalf("delete: existed=%v err=%v", existed, err)
	}
	check("after delete")

	// A second row for wid 1 is a new assignment but repeats the key.
	seq = db.Metrics().MVCC.Seq
	if err := db.Insert("warehouses", []int32{1, 0, 0}, 9); !errors.Is(err, ErrNotFunctional) {
		t.Fatalf("key-violating insert: err = %v, want ErrNotFunctional", err)
	}
	if got := db.Metrics().MVCC.Seq; got != seq {
		t.Fatal("refused insert published a version")
	}
	check("after refused insert")

	// Keys the schema or the data contradict are refused, typed.
	if err := db.DeclareKey("warehouses", []string{"region"}); !errors.Is(err, ErrNotFunctional) {
		t.Fatalf("key the data violates: err = %v, want ErrNotFunctional", err)
	}
	if err := db.DeclareKey("warehouses", []string{"pid"}); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("key on a non-attribute: err = %v, want ErrSchemaMismatch", err)
	}
	if err := db.DeclareKey("ghost", []string{"wid"}); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("key on an unknown table: err = %v, want ErrUnknownTable", err)
	}

	// Catalog hands out a copy: editing it cannot reach the published
	// version.
	st, _ := db.Catalog().Table("warehouses")
	st.Key = nil
	if err := db.Catalog().AddTable(st); err != nil {
		t.Fatal(err)
	}
	check("after editing a Catalog() copy")
}

// TestWriteErrorsAreTyped pins the write path's client errors to their
// sentinels and checks they are raised without building a version.
func TestWriteErrorsAreTyped(t *testing.T) {
	db, _, _ := twoTableDB(t)
	seq := db.Metrics().MVCC.Seq
	for _, tc := range []struct {
		name string
		err  error
		want error
	}{
		{"repeated assignment", db.Insert("price", []int32{0, 0}, 99), ErrNotFunctional},
		{"insert arity", db.Insert("price", []int32{0}, 1), ErrSchemaMismatch},
		{"insert above domain", db.Insert("price", []int32{3, 0}, 1), ErrSchemaMismatch},
		{"insert below domain", db.Insert("price", []int32{0, -1}, 1), ErrSchemaMismatch},
		{"insert unknown table", db.Insert("ghost", []int32{0}, 1), ErrUnknownTable},
		{"delete arity", func() error { _, err := db.Delete("price", []int32{0}); return err }(), ErrSchemaMismatch},
		{"delete unknown table", func() error { _, err := db.Delete("ghost", []int32{0}); return err }(), ErrUnknownTable},
	} {
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, tc.err, tc.want)
		}
	}
	st := db.Metrics().MVCC
	if st.Seq != seq || st.CommitFailures != 0 || st.VersionsLive != 1 {
		t.Fatalf("rejected writes left seq=%d (was %d) failures=%d live=%d", st.Seq, seq, st.CommitFailures, st.VersionsLive)
	}
}

// TestCommitPathDifferential drives seeded random sequences of Insert,
// Delete (present and absent rows) and DeclareKey against a shadow
// relation, over tables of one page, an exact page multiple and several
// pages, both page layouts, and a pool the rewrite pass cannot fit in.
// After every operation the stored table equals the shadow row for row
// (an inserted row last), the statistics equal a fresh analysis of the
// shadow plus the key, the engine and the in-memory interpreter agree
// with an oracle computed from the shadow, a snapshot taken before the
// operation still answers the old contents in both modes, and nothing
// stays pinned or alive.
func TestCommitPathDifferential(t *testing.T) {
	per := storage.TuplesPerPage(3)
	const pool = 6
	for _, rows := range []int{per / 2, 2 * per, 9*per + 7} {
		for _, columnar := range []bool{false, true} {
			t.Run(fmt.Sprintf("rows=%d/columnar=%v", rows, columnar), func(t *testing.T) {
				commitDifferential(t, rows, columnar, pool)
			})
		}
	}
}

func commitDifferential(t *testing.T, rows int, columnar bool, pool int) {
	rng := rand.New(rand.NewSource(int64(rows)))
	db, err := Open(Config{PoolFrames: pool, Columnar: columnar, ResultCacheBytes: 1 << 20, PlanCacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// t(a, b, k): k numbers the rows, so {k} is a key the data can hold
	// or break; u(b, c) completes the view.
	const domA, domB, domK = 7, 5, 1 << 20
	shadow := relation.MustNew("t", []relation.Attr{
		{Name: "a", Domain: domA}, {Name: "b", Domain: domB}, {Name: "k", Domain: domK}})
	nextK := int32(0)
	freshRow := func() []int32 {
		nextK++
		return []int32{int32(rng.Intn(domA)), int32(rng.Intn(domB)), nextK - 1}
	}
	for i := 0; i < rows; i++ {
		shadow.MustAppend(freshRow(), float64(rng.Intn(9)+1))
	}
	u, err := relation.Complete("u", []relation.Attr{{Name: "b", Domain: domB}, {Name: "c", Domain: 3}},
		func(v []int32) float64 { return float64(v[0]+2*v[1]) + 1 })
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(shadow); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(u); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("tu", []string{"t", "u"}); err != nil {
		t.Fatal(err)
	}

	specs := []*QuerySpec{
		{View: "tu", GroupVars: []string{"a", "c"}},
		{View: "tu", GroupVars: []string{"c"}, Where: relation.Predicate{"a": 3}},
	}
	oracle := func(tRel *relation.Relation) []*relation.Relation {
		out := make([]*relation.Relation, len(specs))
		for i, q := range specs {
			in := tRel
			if len(q.Where) > 0 {
				if in, err = relation.Select(in, q.Where); err != nil {
					t.Fatal(err)
				}
			}
			joint, err := relation.ProductJoin(semiring.SumProduct, in, u)
			if err != nil {
				t.Fatal(err)
			}
			if out[i], err = relation.Marginalize(semiring.SumProduct, joint, q.GroupVars); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	answers := func(ctx context.Context, when string, want []*relation.Relation) {
		t.Helper()
		for i, q := range specs {
			for _, mode := range []ExecMode{EngineExec, MemoryExec} {
				spec := *q
				spec.Exec = mode
				res, err := db.QueryContext(ctx, &spec)
				if err != nil {
					t.Fatalf("%s: query %d mode %d: %v", when, i, mode, err)
				}
				if !relation.Equal(res.Relation, want[i], 0, 1e-9) {
					t.Fatalf("%s: query %d mode %d differs from the oracle", when, i, mode)
				}
			}
		}
	}

	var key []string
	readsBefore := db.Pool().Stats().Reads
	for step := 0; step < 40; step++ {
		old := oracle(shadow)
		snap := db.AcquireSnapshot()
		seq := db.Metrics().MVCC.Seq
		committed := false
		var what string
		switch p := rng.Intn(100); {
		case p < 30: // insert a new row
			row, m := freshRow(), float64(rng.Intn(9)+1)
			what = fmt.Sprintf("insert %v", row)
			if err := db.Insert("t", row, m); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
			shadow = shadow.Clone()
			shadow.MustAppend(row, m)
			committed = true
		case p < 45: // insert a stored assignment, or a new one on a used k
			row := append([]int32(nil), shadow.Row(rng.Intn(shadow.Len()))...)
			if p >= 35 {
				row[0] = (row[0] + 1) % domA
			}
			what = fmt.Sprintf("insert %v (k in use)", row)
			next := withRow(shadow, row, 2)
			refuse := !distinctOn(next, []string{"a", "b", "k"}) || (len(key) > 0 && !distinctOn(next, key))
			err := db.Insert("t", row, 2)
			if refuse != errors.Is(err, ErrNotFunctional) || (!refuse && err != nil) {
				t.Fatalf("step %d %s with key %v: err = %v, refusal expected: %v", step, what, key, err, refuse)
			}
			if !refuse {
				shadow, committed = next, true
			}
		case p < 70: // delete a stored row
			i := rng.Intn(shadow.Len())
			what = fmt.Sprintf("delete %v", shadow.Row(i))
			existed, err := db.Delete("t", shadow.Row(i))
			if err != nil || !existed {
				t.Fatalf("step %d %s: existed=%v err=%v", step, what, existed, err)
			}
			shadow = withoutRow(shadow, i)
			committed = true
		case p < 75: // delete an absent row
			what = "delete of an absent row"
			existed, err := db.Delete("t", []int32{0, 0, domK - 1})
			if err != nil || existed {
				t.Fatalf("step %d %s: existed=%v err=%v", step, what, existed, err)
			}
		case p < 85: // a step that commits nothing; it keeps its draw so no seed is re-dealt
			rng.Intn(3)
			what = "no-op"
		default:
			cols := [][]string{{"k"}, {"a", "b", "k"}, {"a"}}[rng.Intn(3)]
			what = fmt.Sprintf("declare key %v", cols)
			holds := distinctOn(shadow, cols)
			err := db.DeclareKey("t", cols)
			if holds != (err == nil) || (!holds && !errors.Is(err, ErrNotFunctional)) {
				t.Fatalf("step %d %s: err = %v, key holds in the data: %v", step, what, err, holds)
			}
			if holds {
				key, committed = cols, true
			}
		}
		when := fmt.Sprintf("step %d after %s", step, what)
		if moved := db.Metrics().MVCC.Seq != seq; moved != committed {
			t.Fatalf("%s: catalog sequence moved = %v, want %v", when, moved, committed)
		}

		got, err := db.Relation("t")
		if err != nil {
			t.Fatal(err)
		}
		if !same(got, shadow, true, 0) {
			t.Fatalf("%s: stored table differs from the shadow", when)
		}
		want := catalog.AnalyzeRelation(shadow)
		want.Key = key
		st, err := db.Catalog().Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if st.Card != want.Card || !reflect.DeepEqual(st.Distinct, want.Distinct) ||
			!reflect.DeepEqual(st.Attrs, want.Attrs) || fmt.Sprint(st.Key) != fmt.Sprint(want.Key) {
			t.Fatalf("%s: stats %+v, want %+v", when, st, want)
		}
		answers(context.Background(), when, oracle(shadow))
		answers(WithSnapshot(context.Background(), snap), when+" (snapshot from before)", old)

		snap.Release()
		if live := db.Metrics().MVCC.VersionsLive; live != 1 {
			t.Fatalf("%s: %d versions live after release, want 1", when, live)
		}
		if n := db.Pool().Pinned(); n != 0 {
			t.Fatalf("%s: %d frames pinned", when, n)
		}
	}
	if pages := storage.PagesFor(3, int64(rows)); pages > int64(pool) && db.Pool().Stats().Reads == readsBefore {
		t.Fatalf("a %d-page table was rewritten through %d frames without one page read: the pass never evicted", pages, pool)
	}
}
