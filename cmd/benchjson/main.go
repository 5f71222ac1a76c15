// Command benchjson converts `go test -bench` output on stdin into a
// JSON array, one object per benchmark result, keyed by the short
// benchmark name. Metrics are taken from the standard columns (ns/op,
// B/op, allocs/op) plus any custom ReportMetric columns (e.g. the batch
// benchmarks' pages-read/op), so `make bench-json` can snapshot the
// executor's microbenchmark numbers into a machine-readable file.
//
// With -compare old.json the tool instead reads fresh bench text from
// stdin, matches each benchmark against the snapshot, and exits nonzero
// if any benchmark present in both runs regressed by more than the
// tolerance (default 10% ns/op). Benchmarks only in the new run are
// reported as "new" and never fail the gate; benchmarks only in the
// snapshot are reported as "gone".
//
// Usage:
//
//	go test -run=NONE -bench=Batch -benchmem ./internal/exec/ | benchjson
//	go test -run=NONE -bench=Columnar -benchtime=10x ./internal/exec/ | benchjson -compare BENCH_PR15.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	// Op is the benchmark name without the Benchmark prefix, e.g.
	// "BatchScan/tuple".
	Op string `json:"op"`
	// Iterations is b.N for the run.
	Iterations int64 `json:"iterations"`
	// Metrics maps a unit (ns/op, B/op, allocs/op, pages-read/op, ...) to
	// its per-op value.
	Metrics map[string]float64 `json:"metrics"`
}

// parseLine parses one "BenchmarkName N v1 unit1 v2 unit2 ..." line,
// returning ok=false for non-benchmark output (headers, PASS, ok).
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{
		Op:         strings.TrimPrefix(fields[0], "Benchmark"),
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	// The name column carries a -cpus suffix (BenchmarkX-8) on parallel
	// machines; strip it so snapshots diff cleanly across hosts.
	if i := strings.LastIndex(r.Op, "-"); i > 0 {
		if _, err := strconv.Atoi(r.Op[i+1:]); err == nil {
			r.Op = r.Op[:i]
		}
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// parseBench reads bench text from rd and returns one result per
// benchmark. When the same benchmark appears multiple times (go test
// -count=N), the repetition with the smallest ns/op wins — best-of-N is
// the standard defense against scheduler noise on shared machines, and
// applying it to both the snapshot and the compare run keeps the
// regression gate symmetric.
func parseBench(rd io.Reader) ([]result, error) {
	var results []result
	idx := make(map[string]int)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		r, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if i, seen := idx[r.Op]; seen {
			if r.Metrics["ns/op"] < results[i].Metrics["ns/op"] {
				results[i] = r
			}
			continue
		}
		idx[r.Op] = len(results)
		results = append(results, r)
	}
	return results, sc.Err()
}

// compare checks the fresh results against a snapshot and writes a
// per-benchmark verdict line to w. It returns the names of benchmarks
// whose ns/op regressed beyond tol (e.g. 0.10 for +10%).
func compare(w io.Writer, old, fresh []result, tol float64) []string {
	base := make(map[string]result, len(old))
	for _, r := range old {
		base[r.Op] = r
	}
	seen := make(map[string]bool, len(fresh))
	var regressed []string
	for _, r := range fresh {
		seen[r.Op] = true
		b, ok := base[r.Op]
		if !ok {
			fmt.Fprintf(w, "new       %-45s %12.0f ns/op\n", r.Op, r.Metrics["ns/op"])
			continue
		}
		on, nn := b.Metrics["ns/op"], r.Metrics["ns/op"]
		if on <= 0 {
			continue
		}
		delta := (nn - on) / on
		verdict := "ok"
		if delta > tol {
			verdict = "REGRESSED"
			regressed = append(regressed, r.Op)
		}
		fmt.Fprintf(w, "%-9s %-45s %12.0f -> %12.0f ns/op (%+.1f%%)\n", verdict, r.Op, on, nn, 100*delta)
	}
	for _, r := range old {
		if !seen[r.Op] {
			fmt.Fprintf(w, "gone      %-45s\n", r.Op)
		}
	}
	return regressed
}

func main() {
	compareFile := flag.String("compare", "", "snapshot JSON to compare against; exit nonzero on ns/op regressions beyond -tol")
	tol := flag.Float64("tol", 0.10, "allowed fractional ns/op regression in -compare mode")
	flag.Parse()

	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *compareFile != "" {
		data, err := os.ReadFile(*compareFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var old []result
		if err := json.Unmarshal(data, &old); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *compareFile, err)
			os.Exit(1)
		}
		regressed := compare(os.Stdout, old, results, *tol)
		if len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed >%.0f%% vs %s: %s\n",
				len(regressed), 100**tol, *compareFile, strings.Join(regressed, ", "))
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "benchjson: no ns/op regressions beyond %.0f%% vs %s\n", 100**tol, *compareFile)
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
