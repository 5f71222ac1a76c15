package sqlx

import (
	"strings"
	"testing"

	"mpf/internal/core"
	"mpf/internal/relation"
	"mpf/internal/semiring"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("select wid, SUM(inv) from invest where tid=1 -- comment\ngroup by wid;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("missing EOF token")
	}
	var texts []string
	for _, tk := range toks[:len(toks)-1] {
		texts = append(texts, tk.text)
	}
	joined := strings.Join(texts, " ")
	if strings.Contains(joined, "comment") {
		t.Fatal("comment not skipped")
	}
	if _, err := lex("select 'unterminated"); err == nil {
		t.Fatal("unterminated string should error")
	}
	if _, err := lex("select #"); err == nil {
		t.Fatal("bad character should error")
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := lex("1 2.5 -3 1e5 1.5e-3")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2.5", "-3", "1e5", "1.5e-3"}
	for i, w := range want {
		if toks[i].kind != tokNumber || toks[i].text != w {
			t.Fatalf("token %d = %v, want %q", i, toks[i], w)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("create table contracts (pid domain 100, sid domain 10)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.Name != "contracts" || len(ct.Attrs) != 2 || ct.Attrs[1].Domain != 10 {
		t.Fatalf("parsed %+v", ct)
	}
	if _, err := Parse("create table t"); err == nil {
		t.Fatal("missing attr list should error")
	}
	if _, err := Parse("create table t (a domain x)"); err == nil {
		t.Fatal("non-numeric domain should error")
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("insert into t values (1, 2, 3.5)")
	if err != nil {
		t.Fatal(err)
	}
	in := st.(*Insert)
	if in.Table != "t" || len(in.Values) != 2 || in.Measure != 3.5 {
		t.Fatalf("parsed %+v", in)
	}
	if _, err := Parse("insert into t values (1.5, 2)"); err == nil {
		t.Fatal("non-integer variable value should error")
	}
	if _, err := Parse("insert into t values ()"); err == nil {
		t.Fatal("empty values should error")
	}
}

func TestParseCreateViewPaperSyntax(t *testing.T) {
	// The paper's §2 syntax, with measure clause and join quals.
	st, err := Parse(`create mpfview invest as (
		select pid, sid, wid, measure = (* c.f, l.f)
		from contracts c, location l
		where c.pid = l.pid)`)
	if err != nil {
		t.Fatal(err)
	}
	cv := st.(*CreateView)
	if cv.Name != "invest" || len(cv.Tables) != 2 {
		t.Fatalf("parsed %+v", cv)
	}
	if len(cv.Vars) != 3 {
		t.Fatalf("vars = %v", cv.Vars)
	}
	// Measure table must be in FROM.
	if _, err := Parse(`create mpfview v as (select *, measure = (* ghost.f) from t1)`); err == nil {
		t.Fatal("measure table not in FROM should error")
	}
	// Star select list and no measure clause.
	st2, err := Parse("create mpfview v as select * from a, b")
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.(*CreateView).Tables) != 2 {
		t.Fatal("tables wrong")
	}
}

func TestParseSelect(t *testing.T) {
	st, err := Parse("select wid, sum(inv) from invest where tid=1 and cid = 2 group by wid using ve(deg)+ext")
	if err != nil {
		t.Fatal(err)
	}
	q := st.(*Select)
	if q.View != "invest" || q.Agg != "sum" || len(q.GroupVars) != 1 || q.GroupVars[0] != "wid" {
		t.Fatalf("parsed %+v", q)
	}
	if q.Where["tid"] != 1 || q.Where["cid"] != 2 {
		t.Fatalf("where = %v", q.Where)
	}
	if q.Using != "ve(deg)+ext" {
		t.Fatalf("using = %q", q.Using)
	}
	// Multi-variable group by.
	st2, err := Parse("select a, b, min(f) from v group by b, a")
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.(*Select).GroupVars) != 2 {
		t.Fatal("group vars wrong")
	}
	if st2.(*Select).Agg != "min" {
		t.Fatal("agg wrong")
	}
}

func TestParseSelectErrors(t *testing.T) {
	bad := []string{
		"select from v group by a",
		"select a sum(f) from v group by a",
		"select a, sum(f) from v group by b",
		"select a, sum(f) from v where a group by a",
		"select a, sum(f) from v where a=1 and a=2 group by a",
		"select a, sum(f) from v group by a using",
		"select a, count(f) from v group by a",
		"explain delete",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("expected parse error for %q", q)
		}
	}
}

func TestParseExplain(t *testing.T) {
	st, err := Parse("explain select a, sum(f) from v group by a")
	if err != nil {
		t.Fatal(err)
	}
	if !st.(*Select).Explain {
		t.Fatal("explain flag not set")
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		create table t (a domain 2);
		insert into t values (0, 1.5);
		insert into t values (1, 2.5);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("parsed %d statements", len(stmts))
	}
	if _, err := ParseScript("create table t (a domain 2); garbage"); err == nil {
		t.Fatal("bad script should error")
	}
}

// TestSessionEndToEnd drives a full DDL + DML + query flow through the
// session against a real database and checks the answer.
func TestSessionEndToEnd(t *testing.T) {
	db, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := NewSession(db)
	script := []string{
		"create table r (a domain 2, b domain 2)",
		"insert into r values (0, 0, 2)",
		"insert into r values (0, 1, 3)",
		"insert into r values (1, 0, 5)",
		"create table q (b domain 2, c domain 2)",
		"insert into q values (0, 0, 7)",
		"insert into q values (1, 1, 11)",
		"create mpfview v as select * from r, q",
	}
	for _, line := range script {
		if _, err := s.Exec(line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	out, err := s.Exec("select a, sum(f) from v group by a")
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: r ⋈* q on b, sum over groups of a.
	r, _ := db.Relation("r")
	q, _ := db.Relation("q")
	joint, _ := relation.ProductJoin(semiring.SumProduct, r, q)
	want, _ := relation.Marginalize(semiring.SumProduct, joint, []string{"a"})
	if !relation.Equal(out.Relation, want, 0, 1e-9) {
		t.Fatalf("SQL answer wrong:\n%v\nwant\n%v", out.Relation, want)
	}
	// Explain produces a plan.
	ex, err := s.Exec("explain select a, sum(f) from v group by a using cs+nonlinear")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan == nil || ex.Relation != nil {
		t.Fatal("explain should return a plan only")
	}
	// Strategy selection.
	out2, err := s.Exec("select a, sum(f) from v group by a using ve(width)+ext")
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(out2.Relation, want, 0, 1e-9) {
		t.Fatal("strategy-selected answer wrong")
	}
}

func TestSessionErrors(t *testing.T) {
	db, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := NewSession(db)
	if _, err := s.Exec("insert into ghost values (1, 1)"); err == nil {
		t.Fatal("insert into unknown table should error")
	}
	s.Exec("create table t (a domain 2)")
	if _, err := s.Exec("create table t (a domain 2)"); err == nil {
		t.Fatal("duplicate staged table should error")
	}
	if _, err := s.Exec("insert into t values (5, 1)"); err == nil {
		t.Fatal("out-of-domain insert should error")
	}
	if _, err := s.Exec("create mpfview v as select * from t, ghost"); err == nil {
		t.Fatal("view over unknown table should error")
	}
	s.Exec("insert into t values (0, 1)")
	if _, err := s.Exec("create mpfview v as select * from t"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("select a, min(f) from v group by a"); err == nil {
		t.Fatal("min aggregate on sum-product database should error")
	}
	if _, err := s.Exec("select a, sum(f) from v group by a using bogus"); err == nil {
		t.Fatal("unknown strategy should error")
	}
	if _, err := s.Exec("totally not sql"); err == nil {
		t.Fatal("garbage should error")
	}
	if _, err := s.Exec("create index on t (a)"); err == nil {
		t.Fatal("create index should be refused as an unknown statement")
	}
}

// TestSessionMinProduct checks aggregate/semiring compatibility the other
// way around.
func TestSessionMinProduct(t *testing.T) {
	db, err := core.Open(core.Config{Semiring: semiring.MinProduct})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := NewSession(db)
	for _, line := range []string{
		"create table t (a domain 2)",
		"insert into t values (0, 3)",
		"insert into t values (1, 5)",
		"create mpfview v as select * from t",
	} {
		if _, err := s.Exec(line); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Exec("select a, min(f) from v group by a")
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation.Len() != 2 {
		t.Fatal("wrong row count")
	}
	if _, err := s.Exec("select a, sum(f) from v group by a"); err == nil {
		t.Fatal("sum on min-product database should error")
	}
}

// FuzzSQL feeds arbitrary text to the parser and, as one statement, to a
// session over a small database. Nothing may panic, and whatever the
// statement did leaves no buffer-pool frame pinned.
func FuzzSQL(f *testing.F) {
	fixture := []string{
		"create table r (a domain 2, b domain 2)",
		"insert into r values (0, 0, 2)",
		"insert into r values (1, 0, 5)",
		"create table q (b domain 2, c domain 2)",
		"insert into q values (0, 1, 7)",
		"create mpfview v as select * from r, q",
	}
	for _, s := range append(fixture,
		"select a, sum(f) from v group by a",
		"select c, min(f) from v where a = 1 group by c having f < 3 using ve(width)+ext",
		"explain analyze select b, sum(f) from v group by b",
		"create index on r (a)", "drop mpfview v", "drop table q",
		"create table t (x domain 3); insert into t values (1, 2.5)",
		"select", "select a, sum(f) from", "'", "-- only a comment", ";;", "insert into r values (9, 9, 1e400)",
	) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		Parse(input)
		ParseScript(input)
		db, err := core.Open(core.Config{PoolFrames: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		s := NewSession(db)
		for _, line := range fixture {
			if _, err := s.Exec(line); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
		}
		s.Exec(input)
		if n := db.Pool().Pinned(); n != 0 {
			t.Fatalf("%q left %d frames pinned", input, n)
		}
	})
}
