package sqlx

import (
	"testing"

	"mpf/internal/core"
)

func TestParseHaving(t *testing.T) {
	cases := []struct {
		sql string
		op  string
		val float64
	}{
		{"select a, sum(f) from v group by a having f < 3.5", "<", 3.5},
		{"select a, sum(f) from v group by a having f <= 3", "<=", 3},
		{"select a, sum(f) from v group by a having f > 100", ">", 100},
		{"select a, sum(f) from v group by a having f >= 0.5", ">=", 0.5},
		{"select a, sum(f) from v group by a having f = 7", "=", 7},
		{"select a, sum(f) from v group by a having f < 3 using cs", "<", 3},
	}
	for _, c := range cases {
		st, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		q := st.(*Select)
		if q.HavingOp != c.op || q.HavingValue != c.val {
			t.Fatalf("%q: parsed having %q %v", c.sql, q.HavingOp, q.HavingValue)
		}
	}
	bad := []string{
		"select a, sum(f) from v group by a having f ! 3",
		"select a, sum(f) from v group by a having f <",
		"select a, sum(f) from v group by a having < 3",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("expected error for %q", q)
		}
	}
}

// TestHavingEndToEnd drives the constrained-range form through SQL.
func TestHavingEndToEnd(t *testing.T) {
	db, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := NewSession(db)
	for _, line := range []string{
		"create table t (a domain 3)",
		"insert into t values (0, 10)",
		"insert into t values (1, 20)",
		"insert into t values (2, 30)",
		"create mpfview v as select * from t",
	} {
		if _, err := s.Exec(line); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Exec("select a, sum(f) from v group by a having f > 15")
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation.Len() != 2 {
		t.Fatalf("having filtered to %d rows, want 2", out.Relation.Len())
	}
	out, err = s.Exec("select a, sum(f) from v group by a having f <= 10")
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation.Len() != 1 {
		t.Fatalf("having <= filtered to %d rows, want 1", out.Relation.Len())
	}
}

func TestDropStatements(t *testing.T) {
	db, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := NewSession(db)
	for _, line := range []string{
		"create table t (a domain 2)",
		"insert into t values (0, 1)",
		"create mpfview v as select * from t",
	} {
		if _, err := s.Exec(line); err != nil {
			t.Fatal(err)
		}
	}
	// Table is referenced by the view: drop must fail.
	if _, err := s.Exec("drop table t"); err == nil {
		t.Fatal("dropping a referenced table should error")
	}
	if _, err := s.Exec("drop mpfview v"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("drop mpfview v"); err == nil {
		t.Fatal("double view drop should error")
	}
	if _, err := s.Exec("drop table t"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("drop table t"); err == nil {
		t.Fatal("double table drop should error")
	}
	// Staged tables can be dropped before they are loaded.
	s.Exec("create table staged (a domain 2)")
	if _, err := s.Exec("drop table staged"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("drop banana x"); err == nil {
		t.Fatal("bad drop target should error")
	}
}
