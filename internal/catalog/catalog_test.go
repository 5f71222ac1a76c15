package catalog

import (
	"testing"

	"mpf/internal/relation"
)

func stats(name string, card int64, attrs ...relation.Attr) *TableStats {
	d := make(map[string]int64, len(attrs))
	for _, a := range attrs {
		d[a.Name] = int64(a.Domain)
	}
	return &TableStats{Name: name, Attrs: attrs, Card: card, Distinct: d}
}

func TestAddAndGetTable(t *testing.T) {
	c := New()
	st := stats("t", 100, relation.Attr{Name: "a", Domain: 10})
	if err := c.AddTable(st); err != nil {
		t.Fatal(err)
	}
	got, err := c.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got.Card != 100 || got.Distinct["a"] != 10 {
		t.Fatalf("got %+v", got)
	}
	// Returned stats are a copy.
	got.Card = 5
	again, _ := c.Table("t")
	if again.Card != 100 {
		t.Fatal("Table returned shared state")
	}
	if _, err := c.Table("u"); err == nil {
		t.Fatal("unknown table should error")
	}
}

func TestAddTableValidation(t *testing.T) {
	c := New()
	if err := c.AddTable(&TableStats{Name: ""}); err == nil {
		t.Fatal("empty name should error")
	}
	if err := c.AddTable(&TableStats{Name: "t", Card: -1}); err == nil {
		t.Fatal("negative card should error")
	}
	bad := stats("t", 10, relation.Attr{Name: "a", Domain: 5})
	bad.Distinct["a"] = 9
	if err := c.AddTable(bad); err == nil {
		t.Fatal("distinct > domain should error")
	}
}

func TestDropAndList(t *testing.T) {
	c := New()
	c.AddTable(stats("b", 1, relation.Attr{Name: "x", Domain: 2}))
	c.AddTable(stats("a", 1, relation.Attr{Name: "x", Domain: 2}))
	if got := c.Tables(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Tables = %v", got)
	}
	c.DropTable("a")
	if _, err := c.Table("a"); err == nil {
		t.Fatal("DropTable did not drop")
	}
}

func TestViews(t *testing.T) {
	c := New()
	c.AddTable(stats("t1", 5, relation.Attr{Name: "x", Domain: 2}))
	c.AddTable(stats("t2", 5, relation.Attr{Name: "x", Domain: 2}))
	if err := c.AddView(&ViewDef{Name: "", Tables: []string{"t1"}}); err == nil {
		t.Fatal("empty view name should error")
	}
	if err := c.AddView(&ViewDef{Name: "v", Tables: nil}); err == nil {
		t.Fatal("empty table list should error")
	}
	if err := c.AddView(&ViewDef{Name: "v", Tables: []string{"ghost"}}); err == nil {
		t.Fatal("unknown base table should error")
	}
	if err := c.AddView(&ViewDef{Name: "v", Tables: []string{"t1", "t2"}, Semiring: "sum-product"}); err != nil {
		t.Fatal(err)
	}
	v, err := c.View("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Tables) != 2 || v.Semiring != "sum-product" {
		t.Fatalf("view = %+v", v)
	}
	if got := c.Views(); len(got) != 1 || got[0] != "v" {
		t.Fatalf("Views = %v", got)
	}
	if _, err := c.View("ghost"); err == nil {
		t.Fatal("unknown view should error")
	}
}

func TestAnalyzeRelation(t *testing.T) {
	r, _ := relation.FromRows("r",
		[]relation.Attr{{Name: "a", Domain: 10}, {Name: "b", Domain: 10}},
		[][]int32{{1, 1}, {1, 2}, {2, 1}}, []float64{1, 2, 3})
	st := AnalyzeRelation(r)
	if st.Card != 3 {
		t.Fatalf("card = %d", st.Card)
	}
	if st.Distinct["a"] != 2 || st.Distinct["b"] != 2 {
		t.Fatalf("distinct = %v", st.Distinct)
	}
	if a, ok := st.Attr("a"); !ok || a.Domain != 10 {
		t.Fatal("Attr lookup failed")
	}
	if _, ok := st.Attr("z"); ok {
		t.Fatal("Attr should miss for unknown name")
	}
	if !st.Vars().Equal(relation.NewVarSet("a", "b")) {
		t.Fatal("Vars wrong")
	}
}

func TestDomainSize(t *testing.T) {
	c := New()
	c.AddTable(stats("small", 50, relation.Attr{Name: "x", Domain: 100}, relation.Attr{Name: "y", Domain: 5}))
	c.AddTable(stats("big", 5000, relation.Attr{Name: "x", Domain: 100}))
	dom, minCard, ok := c.DomainSize("x")
	if !ok || dom != 100 || minCard != 50 {
		t.Fatalf("DomainSize(x) = %d,%d,%v", dom, minCard, ok)
	}
	if _, _, ok := c.DomainSize("zz"); ok {
		t.Fatal("unknown variable should report !ok")
	}
}

// TestRowEditCarriesStatsExactly checks the streaming edit against a
// fresh analysis: deleting or inserting a row moves Card by one and a
// column's Distinct only when no other row shares the value, with the
// declared key carried along and reported by Observe.
func TestRowEditCarriesStatsExactly(t *testing.T) {
	attrs := []relation.Attr{{Name: "a", Domain: 4}, {Name: "b", Domain: 4}}
	rows := [][]int32{{0, 0}, {0, 1}, {1, 1}, {2, 3}}
	build := func(rows [][]int32) *relation.Relation {
		r := relation.MustNew("t", attrs)
		for _, row := range rows {
			r.MustAppend(row, 1)
		}
		return r
	}
	base := AnalyzeRelation(build(rows))
	base.Key = []string{"a", "b"}
	for i, row := range rows { // delete each stored row in turn
		e := NewRowEdit(base, row)
		for _, other := range rows {
			if same, keyed := e.Observe(other); same != (&other[0] == &row[0]) || keyed != same {
				t.Fatalf("Observe(%v) while editing %v: same=%v keyed=%v", other, row, same, keyed)
			}
		}
		rest := append(append([][]int32{}, rows[:i]...), rows[i+1:]...)
		want := AnalyzeRelation(build(rest))
		got := e.Stats(-1)
		if got.Card != want.Card || got.Distinct["a"] != want.Distinct["a"] || got.Distinct["b"] != want.Distinct["b"] {
			t.Fatalf("delete %v: got %+v, want %+v", row, got, want)
		}
		if len(got.Key) != 2 {
			t.Fatalf("delete %v dropped the key: %v", row, got.Key)
		}
	}
	// Insert (3,1): a new value of a, a stored value of b.
	e := NewRowEdit(base, []int32{3, 1})
	for _, other := range rows {
		if same, keyed := e.Observe(other); same || keyed {
			t.Fatalf("Observe(%v) against a new row: same=%v keyed=%v", other, same, keyed)
		}
	}
	got := e.Stats(+1)
	if got.Card != 5 || got.Distinct["a"] != 4 || got.Distinct["b"] != 3 {
		t.Fatalf("insert: got %+v", got)
	}
	// A row that agrees with a stored one on a strict-subset key only.
	base.Key = []string{"a"}
	if same, keyed := NewRowEdit(base, []int32{2, 0}).Observe([]int32{2, 3}); same || !keyed {
		t.Fatalf("key collision not reported: same=%v keyed=%v", same, keyed)
	}
}
