// Command mpfcli is an interactive shell (and script runner) for the MPF
// engine. It speaks the SQL subset of internal/sqlx, including the
// paper's `create mpfview` extension and the `using <strategy>` clause
// that selects the evaluation algorithm.
//
// Usage:
//
//	mpfcli                                   # REPL on stdin
//	mpfcli -load supplychain -scale 0.01     # preload a generated dataset
//	mpfcli -script setup.sql                 # run a script, then exit
//	mpfcli -c "select wid, sum(f) from invest group by wid"
//
// REPL meta-commands: \tables, \views, \strategies, \stats, \metrics,
// \quit. The -metrics flag prints the engine-wide metrics snapshot on
// exit; `explain analyze select ...` reports per-operator actuals.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mpf"
	"mpf/internal/core"
	"mpf/internal/gen"
	"mpf/internal/opt"
	"mpf/internal/semiring"
	"mpf/internal/sqlx"
)

func main() {
	load := flag.String("load", "", "preload dataset: supplychain, star, linear, multistar")
	scale := flag.Float64("scale", 0.01, "supply-chain scale for -load supplychain")
	density := flag.Float64("density", 0.5, "ctdeals density for -load supplychain")
	tables := flag.Int("tables", 5, "table count for synthetic -load views")
	seed := flag.Int64("seed", 1, "random seed for -load")
	srName := flag.String("semiring", "sum-product", "measure semiring")
	strategy := flag.String("strategy", "", "default evaluation strategy (see \\strategies)")
	script := flag.String("script", "", "execute a SQL script file and exit")
	command := flag.String("c", "", "execute one statement and exit")
	frames := flag.Int("frames", 256, "buffer pool frames")
	parallel := flag.Int("parallel", 0, "intra-query worker bound (0 or 1 = serial)")
	columnar := flag.Bool("columnar", false, "encode full heap pages columnar (dictionary/RLE segments) and run the encoded-value kernels")
	fuse := flag.Bool("fuse", false, "fuse GroupBy-over-Join pairs into a single non-materializing operator")
	rcache := flag.Int64("result-cache", 0, "shared subplan result cache byte budget (0 = disabled)")
	planCache := flag.Int("plan-cache", 0, "plan cache capacity in entries (0 = disabled)")
	planBudget := flag.Duration("plan-budget", 0, "planning-time budget before falling back to the greedy planner (0 = unlimited)")
	flag.BoolVar(&analyze, "analyze", false, "print per-operator actuals after each query")
	flag.BoolVar(&showMetrics, "metrics", false, "print the engine metrics snapshot before exiting")
	flag.Parse()

	if err := run(*load, *scale, *density, *tables, *seed, *srName, *strategy, *script, *command, *frames, *parallel, *rcache, *planCache, *planBudget, *columnar, *fuse); err != nil {
		fmt.Fprintf(os.Stderr, "mpfcli: %v [%s]\n", err, mpf.ErrorCode(err))
		os.Exit(1)
	}
}

// showMetrics controls the exit-time engine metrics report (-metrics).
var showMetrics bool

func run(load string, scale, density float64, tables int, seed int64, srName, strategy, script, command string, frames, parallel int, rcache int64, planCache int, planBudget time.Duration, columnar, fuse bool) error {
	sr, err := semiring.ByName(srName)
	if err != nil {
		return err
	}
	cfg := core.Config{Semiring: sr, PoolFrames: frames, Parallelism: parallel, ResultCacheBytes: rcache, PlanCacheEntries: planCache, PlanBudget: planBudget, Columnar: columnar, FuseJoinGroupBy: fuse}
	if strategy != "" {
		o, err := opt.ByName(strategy)
		if err != nil {
			return err
		}
		cfg.Optimizer = o
	}
	db, err := core.Open(cfg)
	if err != nil {
		return err
	}
	defer db.Close()
	if showMetrics {
		defer func() { fmt.Print(db.Metrics().String()) }()
	}

	if load != "" {
		if err := loadDataset(db, load, scale, density, tables, seed); err != nil {
			return err
		}
	}
	sess := sqlx.NewSession(db)

	switch {
	case command != "":
		return execute(sess, command)
	case script != "":
		data, err := os.ReadFile(script)
		if err != nil {
			return err
		}
		stmts, err := sqlx.ParseScript(string(data))
		if err != nil {
			return err
		}
		for _, st := range stmts {
			out, err := sess.Run(st)
			if err != nil {
				return err
			}
			printOutput(out)
		}
		return nil
	default:
		return repl(db, sess)
	}
}

func loadDataset(db *core.Database, name string, scale, density float64, tables int, seed int64) error {
	var ds *gen.Dataset
	var err error
	switch name {
	case "supplychain":
		ds, err = gen.SupplyChain(gen.SupplyChainConfig{Scale: scale, CtdealsDensity: density, Seed: seed})
	case "star":
		ds, err = gen.Synthetic(gen.SyntheticConfig{Kind: gen.Star, Tables: tables, Seed: seed})
	case "linear":
		ds, err = gen.Synthetic(gen.SyntheticConfig{Kind: gen.Linear, Tables: tables, Seed: seed})
	case "multistar":
		ds, err = gen.Synthetic(gen.SyntheticConfig{Kind: gen.MultiStar, Tables: tables, Seed: seed})
	default:
		return fmt.Errorf("unknown dataset %q (supplychain, star, linear, multistar)", name)
	}
	if err != nil {
		return err
	}
	for _, r := range ds.Relations {
		if err := db.CreateTable(r); err != nil {
			return err
		}
	}
	if err := db.CreateView(ds.Name, ds.ViewTables); err != nil {
		return err
	}
	fmt.Printf("loaded %s: view %s over %s\n", name, ds.Name, strings.Join(ds.ViewTables, ", "))
	return nil
}

func execute(sess *sqlx.Session, stmt string) error {
	out, err := sess.Exec(stmt)
	if err != nil {
		return err
	}
	printOutput(out)
	return nil
}

// analyze controls per-operator actuals in query output (-analyze flag).
var analyze bool

func printOutput(out *sqlx.Output) {
	if out.Relation != nil {
		fmt.Print(out.Relation.String())
		planned := ""
		if out.Exec.Planner != "" {
			planned = "; planner " + out.Exec.Planner
			if out.Exec.PlanCacheHit {
				planned += " (plan cache hit)"
			}
		}
		fmt.Printf("(%s; optimize %v, execute %v, %d page IOs%s)\n",
			out.Message, out.Optimize, out.Exec.Wall, out.Exec.IO.IO(), planned)
		if analyze {
			fmt.Print(sqlx.RenderAnalyze(out.Exec))
		}
		return
	}
	if out.Message != "" {
		fmt.Println(out.Message)
	}
}

func repl(db *core.Database, sess *sqlx.Session) error {
	fmt.Println("mpf shell — SQL statements end with ';', meta-commands start with '\\' (\\quit to exit)")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Print("mpf> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if done := meta(db, trimmed); done {
				return nil
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if strings.Contains(line, ";") {
			stmt := pending.String()
			pending.Reset()
			if strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(stmt), ";")) != "" {
				if err := execute(sess, stmt); err != nil {
					fmt.Printf("error [%s]: %v\n", mpf.ErrorCode(err), err)
				}
			}
		}
		prompt()
	}
	return scanner.Err()
}

func meta(db *core.Database, cmd string) (quit bool) {
	switch strings.Fields(cmd)[0] {
	case "\\quit", "\\q":
		return true
	case "\\tables":
		cat := db.Catalog()
		for _, t := range cat.Tables() {
			st, _ := cat.Table(t)
			fmt.Printf("%s (%d rows)\n", t, st.Card)
		}
	case "\\views":
		cat := db.Catalog()
		for _, v := range cat.Views() {
			def, _ := cat.View(v)
			fmt.Printf("%s = %s\n", v, strings.Join(def.Tables, " ⋈* "))
		}
	case "\\strategies":
		for _, n := range opt.Names() {
			fmt.Println(n)
		}
	case "\\stats":
		st := db.Pool().Stats()
		fmt.Printf("buffer pool: %d reads, %d writes, %d hits\n", st.Reads, st.Writes, st.Hits)
		fmt.Printf("faults: %d retries, %d transient, %d permanent, %d checksum failures\n",
			st.Retries, st.TransientFaults, st.PermanentFaults, st.ChecksumFailures)
	case "\\metrics":
		fmt.Print(db.Metrics().String())
	case "\\profile":
		fmt.Println("profiling lives in mpfbench: run `mpfbench -exp <name> -cpuprofile cpu.out -memprofile mem.out`")
		fmt.Println("and inspect with `go tool pprof cpu.out`")
	case "\\cache":
		fields := strings.Fields(cmd)
		if len(fields) < 3 {
			fmt.Println("usage: \\cache build <view> | \\cache answer <view> <variable>")
			break
		}
		switch fields[1] {
		case "build":
			cache, err := db.BuildCache(fields[2], nil)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("cached %d tables (%d tuples) for view %s\n",
				len(cache.Tables), cache.Size(), fields[2])
			for _, t := range cache.Tables {
				fmt.Printf("  %s(%s): %d rows\n", t.Name(), strings.Join(t.Vars().Sorted(), ","), t.Len())
			}
		case "answer":
			if len(fields) < 4 {
				fmt.Println("usage: \\cache answer <view> <variable>")
				break
			}
			m, err := db.QueryCached(fields[2], fields[3])
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			m.Sort()
			fmt.Print(m.String())
		default:
			fmt.Println("usage: \\cache build <view> | \\cache answer <view> <variable>")
		}
	default:
		fmt.Println("meta-commands: \\tables \\views \\strategies \\stats \\metrics \\cache \\profile \\quit")
	}
	return false
}
