// SQL end to end: builds a small decision-support database purely through
// the SQL subset — the paper's `create mpfview … measure = (* …)` DDL,
// inserts, and MPF queries in every §3.1 form including
// constrained range (`having`) and strategy selection (`using`).
//
// Run with: go run ./examples/sqlshell
package main

import (
	"fmt"
	"log"

	"mpf"
	"mpf/internal/core"
	"mpf/internal/sqlx"
)

func main() {
	db, err := mpf.Open(mpf.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	sess := sqlx.NewSession(asCore(db))

	script := []string{
		// Functional relations: variable attributes plus an implicit
		// measure column f.
		"create table contracts (pid domain 4, sid domain 3)",
		"insert into contracts values (0, 0, 10.0)",
		"insert into contracts values (0, 1, 12.5)",
		"insert into contracts values (1, 0, 7.0)",
		"insert into contracts values (2, 2, 30.0)",
		"insert into contracts values (3, 1, 5.0)",

		"create table location (pid domain 4, wid domain 2)",
		"insert into location values (0, 0, 100)",
		"insert into location values (1, 0, 50)",
		"insert into location values (1, 1, 25)",
		"insert into location values (2, 1, 10)",
		"insert into location values (3, 0, 40)",

		// The paper's view syntax: the measure clause names the factors
		// the product join multiplies.
		`create mpfview invest as (
			select pid, sid, wid, measure = (* c.f, l.f)
			from contracts c, location l
			where c.pid = l.pid)`,
	}
	for _, stmt := range script {
		if _, err := sess.Exec(stmt); err != nil {
			log.Fatalf("%s: %v", stmt, err)
		}
	}

	show := func(sql string) {
		fmt.Println("mpf>", sql)
		out, err := sess.Exec(sql)
		if err != nil {
			log.Fatal(err)
		}
		if out.Relation != nil {
			out.Relation.Sort()
			fmt.Print(out.Relation.String())
		} else if out.Message != "" {
			fmt.Println(out.Message)
		}
		fmt.Println()
	}

	// Basic form.
	show("select wid, sum(f) from invest group by wid")
	// Restricted answer set.
	show("select pid, sum(f) from invest where pid = 1 group by pid")
	// Constrained domain.
	show("select sid, sum(f) from invest where wid = 0 group by sid")
	// Constrained range (having) with an explicit strategy.
	show("select pid, sum(f) from invest group by pid having f > 400 using ve(deg)+ext")
	// Explain shows the optimized plan.
	show("explain select wid, sum(f) from invest group by wid using cs+nonlinear")
	// Explain analyze executes the query and reports per-operator actuals
	// (exclusive wall time, rows, physical IO) plus run totals.
	show("explain analyze select wid, sum(f) from invest group by wid")
}

// asCore unwraps the public alias; examples live in the module so they
// may reach the internal session type directly.
func asCore(db *mpf.Database) *core.Database { return db }
