// Command mpfperf is the repository's benchmark driver.
//
// One run of one workload, which is what BENCHMARK.json's command does:
//
//	mpfperf -workload ds_adhoc -seed 1 -seconds 10 -trace 0
//
// prints a header line, one "workload metric value unit n=" line per
// metric and, as the last line, the result as one JSON object. With
// -trace 1 the run is the traced one: it prints the per-layer metrics
// and writes the spans to <out>/trace-<workload>.json.
//
// With -workload all or -repeat N it starts itself once per run, so that
// every run has a fresh process (peak memory is per process): N untraced
// runs per workload on seeds seed, seed+1, …, then one traced run. It
// prints each end-to-end metric's median, quartiles and spreads, the
// traced run's metrics and trace_overhead_frac, writes
// <out>/results.json, and exits 1 when a spread exceeds the metric's
// bound in BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"mpf/bench"
)

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: "+strings.Join(bench.Workloads(), ", ")+", or all")
		seed      = flag.Int64("seed", 1, "seed for data generation and op choice")
		seconds   = flag.Float64("seconds", 10, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
		repeat    = flag.Int("repeat", 1, "untraced runs per workload, each on the next seed")
		out       = flag.String("out", "bench/out", "directory for traces and results.json")
		benchmark = flag.String("benchmark", "BENCHMARK.json", "where the metric bounds are read from")
	)
	flag.Parse()
	// The clients and the engine share the cores; more than four would
	// let a big machine hide contention a small one shows.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)

	if *workload != "all" && *repeat <= 1 {
		fmt.Printf("# mpfperf commit=%s go=%s nproc=%d gomaxprocs=%d seed=%d seconds=%g trace=%d disk=MemDisk flush=none(engine has no fsync)\n",
			commit(), runtime.Version(), runtime.NumCPU(), procs, *seed, *seconds, *trace)
		res, err := bench.Run(bench.Options{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *out,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpfperf:", err)
			os.Exit(2)
		}
		fmt.Printf("# %s op_sequence_hash=%s\n", res.Workload, res.SequenceHash)
		res.WriteText(os.Stdout)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpfperf:", err)
			os.Exit(2)
		}
		fmt.Printf("%s\n", line)
		return
	}

	names := bench.Workloads()
	if *workload != "all" {
		names = []string{*workload}
	}
	if err := sweep(names, *seed, *seconds, *repeat, *out, *benchmark); err != nil {
		fmt.Fprintln(os.Stderr, "mpfperf:", err)
		os.Exit(1)
	}
}

// commit returns the VCS revision the binary was built from, when the
// build recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// child runs this binary once on one workload and decodes the JSON
// object on its last line. The child's own report goes to stderr.
func child(name string, seed int64, seconds float64, trace int, out string) (*bench.Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w", name, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	res := &bench.Result{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: last line is not a result: %w", name, seed, trace, err)
	}
	res.Workload = name
	return res, nil
}

// bounds reads each end-to-end metric's bound from BENCHMARK.json.
func bounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

func sweep(names []string, seed int64, seconds float64, repeat int, out, benchmark string) error {
	bound, err := bounds(benchmark)
	if err != nil {
		return err
	}
	type record struct {
		Untraced []*bench.Result `json:"untraced"`
		Traced   *bench.Result   `json:"traced"`
	}
	results := make(map[string]*record)
	var wide, wrong []string
	fmt.Printf("# mpfperf sweep go=%s nproc=%d seed=%d seconds=%g repeat=%d\n", runtime.Version(), runtime.NumCPU(), seed, seconds, repeat)
	for _, name := range names {
		rec := &record{}
		results[name] = rec
		values := make(map[string][]float64)
		units := make(map[string]string)
		for i := 0; i < repeat; i++ {
			res, err := child(name, seed+int64(i), seconds, 0, out)
			if err != nil {
				return err
			}
			rec.Untraced = append(rec.Untraced, res)
			for _, m := range res.Metrics {
				values[m.Name] = append(values[m.Name], m.Value)
				units[m.Name] = m.Unit
			}
			if !res.Correct {
				wrong = append(wrong, fmt.Sprintf("%s seed %d: %d of %d ops failed", name, seed+int64(i), res.Failed, res.Attempted))
			}
		}
		metrics := make([]string, 0, len(values))
		for m := range values {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			xs := append([]float64(nil), values[m]...)
			sort.Float64s(xs)
			med := bench.Median(xs)
			q1, q3 := bench.Quartiles(xs)
			fmt.Printf("%s %s median=%.6g q1=%.6g q3=%.6g iqr/median=%.4f range/median=%.4f %s n=%d\n",
				name, m, med, q1, q3, bench.Spread(xs), (xs[len(xs)-1]-xs[0])/med, units[m], len(xs))
			// setup_s is bounded on its median only: its spread is not
			// held against it.
			if b, ok := bound[m]; ok && m != "setup_s" && len(xs) > 1 && bench.Spread(xs) > b {
				wide = append(wide, fmt.Sprintf("%s %s: spread %.4f over bound %.2f", name, m, bench.Spread(xs), b))
			}
		}
		traced, err := child(name, seed, seconds, 1, out)
		if err != nil {
			return err
		}
		rec.Traced = traced
		if !traced.Correct {
			wrong = append(wrong, fmt.Sprintf("%s traced: %d of %d ops failed", name, traced.Failed, traced.Attempted))
		}
		sort.Slice(traced.Metrics, func(i, j int) bool { return traced.Metrics[i].Name < traced.Metrics[j].Name })
		for _, m := range traced.Metrics {
			fmt.Printf("%s %s %.6g %s traced\n", name, m.Name, m.Value, m.Unit)
		}
		if rate, ok := traced.Value("traced_queries_per_s"); ok {
			plain := bench.Median(values["queries_per_s"])
			fmt.Printf("%s trace_overhead_frac %.4f ratio (traced %.6g vs untraced %.6g 1/s)\n", name, 1-rate/plain, rate, plain)
		}
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "results.json"), data, 0o644); err != nil {
		return err
	}
	for _, msg := range append(wrong, wide...) {
		fmt.Println("FAIL", msg)
	}
	if len(wrong)+len(wide) > 0 {
		return fmt.Errorf("%d runs wrong, %d spreads over their bound", len(wrong), len(wide))
	}
	return nil
}
