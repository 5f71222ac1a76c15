// Command mpfbench regenerates the paper's evaluation tables and figures
// (§7) from the reproduction's engine, printing one text table per
// experiment.
//
// Usage:
//
//	mpfbench -exp all                 # every experiment, paper order
//	mpfbench -exp fig7 -scale 0.05    # one experiment at a chosen scale
//	mpfbench -list                    # list experiment ids
//	mpfbench -exp fig8 -cpuprofile cpu.out -memprofile mem.out
//
// Absolute numbers depend on hardware; the shapes (who wins, by what
// factor, where crossovers fall) are the reproduction target recorded in
// EXPERIMENTS.md. The -cpuprofile/-memprofile flags write pprof profiles
// covering the experiment runs, for `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mpf/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (or 'all')")
	scale := flag.Float64("scale", 0, "supply-chain scale factor (0 = default 0.05)")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast pass")
	frames := flag.Int("frames", 0, "buffer pool frames (0 = default 256)")
	parallel := flag.Int("parallel", 0, "intra-query worker bound (0 or 1 = serial)")
	columnar := flag.Bool("columnar", false, "enable columnar page encoding for experiment sessions")
	fuse := flag.Bool("fuse", false, "fuse GroupBy-over-Join pairs into a single non-materializing operator for experiment sessions")
	planner := flag.String("planner", "", "override the planning strategy for experiment sessions (empty = experiment default)")
	planBudget := flag.Duration("plan-budget", 0, "planning-time budget before greedy fallback (0 = unlimited)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the experiment runs to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpfbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mpfbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Quick: *quick, PoolFrames: *frames, Parallelism: *parallel, Columnar: *columnar, Fuse: *fuse, Planner: *planner, PlanBudget: *planBudget}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		tbl, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpfbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		tbl.Render(os.Stdout)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpfbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mpfbench:", err)
			os.Exit(1)
		}
	}
}
