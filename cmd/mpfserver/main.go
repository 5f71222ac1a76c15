// Command mpfserver serves an MPF database over the HTTP/JSON wire
// protocol of internal/server: sessions, queries, explains,
// materializations, base-table writes, catalog, metrics, and health,
// with token-bucket admission control and graceful drain on SIGTERM.
//
// Usage:
//
//	mpfserver -load supplychain -scale 0.01 -addr :8080
//	curl -s localhost:8080/v1/health
//	curl -s -X POST localhost:8080/v1/query \
//	  -d '{"query":{"view":"invest","group_vars":["wid"]}}'
//	curl -s localhost:8080/v1/metrics
//
// The server drains on SIGTERM/SIGINT: in-flight queries finish (up to
// -drain-timeout, then they are canceled), new requests are rejected
// with the typed 503 "draining" envelope, and the process exits 0 once
// idle.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpf"
	"mpf/internal/gen"
	"mpf/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	portFile := flag.String("port-file", "", "write the bound address to this file once listening (for scripts)")
	load := flag.String("load", "", "preload dataset: supplychain, star, linear, multistar")
	scale := flag.Float64("scale", 0.01, "supply-chain scale for -load supplychain")
	density := flag.Float64("density", 0.5, "ctdeals density for -load supplychain")
	tables := flag.Int("tables", 5, "table count for synthetic -load views")
	seed := flag.Int64("seed", 1, "random seed for -load")
	srName := flag.String("semiring", "sum-product", "measure semiring")
	frames := flag.Int("frames", 256, "buffer pool frames")
	parallel := flag.Int("parallel", 0, "intra-query worker bound (0 or 1 = serial)")
	rcache := flag.Int64("result-cache", 0, "shared subplan result cache byte budget (0 = disabled)")
	planCache := flag.Int("plan-cache", 0, "plan cache capacity in entries (0 = disabled)")
	rate := flag.Float64("admit-rate", 0, "admission rate in requests/sec (0 = unlimited)")
	burst := flag.Int("admit-burst", 16, "admission token-bucket burst")
	queueDepth := flag.Int("admit-queue", 64, "admission queue depth")
	queueWait := flag.Duration("admit-wait", 250*time.Millisecond, "max queueable admission wait")
	defTimeout := flag.Duration("default-timeout", 0, "default per-query timeout for sessionless requests (0 = none)")
	maxTemp := flag.Int64("max-temp-tuples", 0, "default per-query intermediate-tuple budget (0 = unlimited)")
	maxRows := flag.Int64("max-rows", 0, "default per-query result-row budget (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "in-flight grace on SIGTERM before queries are canceled")
	flag.Parse()

	if err := run(*addr, *portFile, *load, *scale, *density, *tables, *seed, *srName,
		*frames, *parallel, *rcache, *planCache,
		server.AdmissionConfig{RatePerSec: *rate, Burst: *burst, QueueDepth: *queueDepth, QueueWait: *queueWait},
		*defTimeout, mpf.Budget{MaxTempTuples: *maxTemp, MaxRows: *maxRows}, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "mpfserver:", err)
		os.Exit(1)
	}
}

func run(addr, portFile, load string, scale, density float64, tables int, seed int64, srName string,
	frames, parallel int, rcache int64, planCache int,
	admission server.AdmissionConfig, defTimeout time.Duration, defBudget mpf.Budget,
	drainTimeout time.Duration) error {
	sr, err := mpf.SemiringByName(srName)
	if err != nil {
		return err
	}
	db, err := mpf.Open(mpf.Config{
		Semiring:         sr,
		PoolFrames:       frames,
		Parallelism:      parallel,
		ResultCacheBytes: rcache,
		PlanCacheEntries: planCache,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	if load != "" {
		if err := loadDataset(db, load, scale, density, tables, seed); err != nil {
			return err
		}
	}

	srv := server.New(db, server.Config{
		Admission:      admission,
		DefaultTimeout: defTimeout,
		DefaultBudget:  defBudget,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	hs := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Printf("mpfserver: listening on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("mpfserver: %v: draining (timeout %v)\n", s, drainTimeout)
	}

	// Drain the application layer first (in-flight queries finish or are
	// canceled at the deadline), then close the HTTP side.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		hs.Close()
		return err
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := hs.Shutdown(httpCtx); err != nil {
		return err
	}
	fmt.Println("mpfserver: drained")
	return nil
}

// loadDataset generates and registers one of the paper's datasets.
func loadDataset(db *mpf.Database, name string, scale, density float64, tables int, seed int64) error {
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
	fmt.Printf("mpfserver: loaded %s: view %s over %s\n", name, ds.Name, strings.Join(ds.ViewTables, ", "))
	return nil
}
