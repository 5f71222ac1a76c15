package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mpf"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/server"
	"mpf/internal/storage"
)

// The traced run measures the layers from outside: timers in this
// package around calls into each layer's public functions, and deltas of
// what the engine already publishes (Result.Optimize, Result.Exec,
// Database.Metrics, Server.Stats). Spans inside the program are a later
// change.

const (
	// encodeEvery thins the JSON-encode probe inside the interval:
	// encoding a reply costs about what serving it does, and doing so on
	// every op would double the run.
	encodeEvery = 8
	// serverProbeOps wire/in-process pairs, and commitProbePairs
	// delete/insert pairs per table, are issued after the interval by
	// workloads that have no wire clients or no writer, so that every
	// layer is measured on every workload.
	serverProbeOps   = 16
	commitProbePairs = 6
	storageProbeRows = 1_000_000 // 1961 pages: a scan cannot stay in the pool
)

// decompose runs q in process and splits the call into planning,
// execution and the rest; with a wire client it first runs q over HTTP,
// which is then the op the client observed. Probes of the fingerprint
// and JSON-encode functions follow.
func (r *runner) decompose(q *queryCase, wc *wireClient, encode bool) (sample, *mpf.Result, error) {
	var s sample
	op := r.opIDs.Add(1)
	var observed *mpf.Result
	if wc != nil {
		begin := time.Now()
		res, n, err := wc.query(q.spec)
		end := time.Now()
		if err != nil {
			return s, nil, err
		}
		r.engineSpans("server.wire", op, begin, end, res)
		s.wire, s.replyBytes, observed = end.Sub(begin), n, res
	}
	begin := time.Now()
	res, err := r.in.e.sess.Query(context.Background(), q.spec)
	end := time.Now()
	if err != nil {
		return s, nil, err
	}
	r.engineSpans("core.query", op, begin, end, res)
	s.wall, s.optimize, s.exec = end.Sub(begin), res.Optimize, res.Exec.Wall
	s.cost = res.Plan.TotalCost
	s.recomputed = res.Exec.CacheMisses > 0

	env := plan.FingerprintEnv{
		Semiring:     r.in.e.db.Semiring().Name(),
		TableVersion: func(string) (int64, bool) { return 1, true },
	}
	begin = time.Now()
	plan.QueryFingerprint(env, r.in.ds.tables, q.spec.GroupVars, q.spec.Where)
	plan.Fingerprints(res.Plan, env)
	end = time.Now()
	r.tr.Add("plan.fingerprint", op, -1, begin, end)
	s.fingerprint = end.Sub(begin)

	if encode {
		begin = time.Now()
		if _, err := json.Marshal(server.QueryResponse{Result: res}); err != nil {
			return s, nil, err
		}
		end = time.Now()
		r.tr.Add("server.encode", op, -1, begin, end)
		s.encode = end.Sub(begin)
	}
	if observed == nil {
		observed, s.lat = res, s.wall
	} else {
		s.lat = s.wire
	}
	return s, observed, nil
}

// engineSpans records a call and, under it, the planning and execution
// time the engine reported for it. The engine says how long, not when,
// so the children are laid end to end from the call's start; what is
// left is the caller's own time (for server.wire: HTTP, JSON and
// session handling on both sides).
func (r *runner) engineSpans(name string, op int64, begin, end time.Time, res *mpf.Result) {
	parent := r.tr.Add(name, op, -1, begin, end)
	planned := begin.Add(res.Optimize)
	r.tr.Add("opt.plan", op, parent, begin, planned)
	r.tr.Add("exec.run", op, parent, planned, planned.Add(res.Exec.Wall))
}

// probes holds what the traced run measures after the interval.
type probes struct {
	wire         []sample // wire/in-process pairs
	handlerMS    float64  // server-side mean request latency
	rejected429  int64
	rejected503  int64
	commits      [2][]float64 // ms, big and small table
	writePages   float64      // pool page writes per commit
	buildCacheMS float64
	answerUS     []float64
	joinKRows    float64
	groupByKRows float64
	loadKRows    float64
	scanKRows    float64
}

// probe runs the after-interval measurements. They leave the database
// as they found it.
func (r *runner) probe(opts Options) (*probes, error) {
	p := &probes{}
	if err := r.probeServer(p); err != nil {
		return nil, fmt.Errorf("server probe: %w", err)
	}
	if err := r.probeCommits(p); err != nil {
		return nil, fmt.Errorf("commit probe: %w", err)
	}
	if err := r.probeInfer(p, opts.Seed); err != nil {
		return nil, fmt.Errorf("infer probe: %w", err)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	if err := probeRelation(p, rng); err != nil {
		return nil, fmt.Errorf("relation probe: %w", err)
	}
	if err := probeStorage(p, rng); err != nil {
		return nil, fmt.Errorf("storage probe: %w", err)
	}
	return p, nil
}

// probeServer reads the server's counters and, on a workload whose
// clients are in process, puts the database behind a server for a few
// wire/in-process pairs over the query pool.
func (r *runner) probeServer(p *probes) error {
	e := r.in.e
	if !r.in.w.wire {
		if err := e.serve(1); err != nil {
			return err
		}
		defer e.stopServer()
		pool := r.in.sc.pool
		for i := 0; i < serverProbeOps; i++ {
			q := pool[i%len(pool)]
			// Both halves of the pair must find the caches in the same
			// state, so the query is run once before them.
			if _, err := e.sess.Query(context.Background(), q.spec); err != nil {
				return fmt.Errorf("%s: %w", q.id, err)
			}
			s, res, err := r.decompose(q, e.wires[0], true)
			if err != nil {
				return fmt.Errorf("%s: %w", q.id, err)
			}
			if err := q.check(res.Relation, 0); err != nil {
				return fmt.Errorf("%s: wrong answer: %w", q.id, err)
			}
			p.wire = append(p.wire, s)
		}
	}
	st := e.srv.Stats()
	p.handlerMS = st.Latency.Mean.Seconds() * 1e3
	p.rejected429 = st.RejectedRate
	p.rejected503 = st.RejectedQueue + st.RejectedDrain
	return nil
}

// probeCommits times delete/insert pairs of one row on the workload's
// biggest and smallest table with nothing else running: a commit copies
// the table, so the two differ by about the ratio of their sizes.
func (r *runner) probeCommits(p *probes) error {
	db := r.in.e.db
	writesBefore := db.Metrics().Pool.Writes
	commits := 0
	for t, name := range []string{r.in.ds.big, r.in.ds.small} {
		rel := r.in.ds.relation(name)
		row, measure := append([]int32(nil), rel.Row(0)...), rel.Measure(0)
		for i := 0; i < commitProbePairs; i++ {
			for _, insert := range []bool{false, true} {
				begin := time.Now()
				var err error
				if insert {
					err = db.Insert(name, row, measure)
				} else {
					_, err = db.Delete(name, row)
				}
				end := time.Now()
				if err != nil {
					return err
				}
				r.tr.Add("core.commit."+name, r.opIDs.Add(1), -1, begin, end)
				p.commits[t] = append(p.commits[t], end.Sub(begin).Seconds()*1e3)
				commits++
				r.sampleVersions()
			}
		}
	}
	p.writePages = float64(db.Metrics().Pool.Writes-writesBefore) / float64(commits)
	return nil
}

// probeInfer builds the VE-cache over the bn_infer view in a scratch
// database and answers single-variable marginals from it. No end-to-end
// path uses the cache today; these are the base for routing marginals to
// it.
func (r *runner) probeInfer(p *probes, seed int64) error {
	ds, err := bnDataset(seed, 1)
	if err != nil {
		return err
	}
	e, err := bnInfer.open(ds)
	if err != nil {
		return err
	}
	defer e.close()
	db := e.db
	begin := time.Now()
	if _, err := db.BuildCache(ds.view, nil); err != nil {
		return err
	}
	end := time.Now()
	r.tr.Add("infer.build_cache", r.opIDs.Add(1), -1, begin, end)
	p.buildCacheMS = end.Sub(begin).Seconds() * 1e3
	vars := ds.net.Vars()
	for i := 0; i < 4*len(vars); i++ {
		begin := time.Now()
		if _, err := db.QueryCached(ds.view, vars[i%len(vars)]); err != nil {
			return err
		}
		end := time.Now()
		r.tr.Add("infer.answer", r.opIDs.Add(1), -1, begin, end)
		p.answerUS = append(p.answerUS, end.Sub(begin).Seconds()*1e6)
	}
	return nil
}

// probeRelation times the in-memory algebra the oracle and internal/infer
// run on: a product join of 40 k rows with 800, and the marginalization
// of its 160 k-row output.
func probeRelation(p *probes, rng *rand.Rand) error {
	x, y, z := mpf.Attr{Name: "x", Domain: 4000}, mpf.Attr{Name: "y", Domain: 200}, mpf.Attr{Name: "z", Domain: 4}
	a, err := relation.Random(rng, "a", []mpf.Attr{x, y}, 0.05, relation.UniformMeasure(1, 2))
	if err != nil {
		return err
	}
	b, err := relation.Complete("b", []mpf.Attr{y, z}, func([]int32) float64 { return 1 + rng.Float64() })
	if err != nil {
		return err
	}
	begin := time.Now()
	j, err := relation.ProductJoin(semiring.SumProduct, a, b)
	if err != nil {
		return err
	}
	p.joinKRows = float64(j.Len()) / 1e3 / time.Since(begin).Seconds()
	begin = time.Now()
	if _, err := relation.Marginalize(semiring.SumProduct, j, []string{"x"}); err != nil {
		return err
	}
	p.groupByKRows = float64(j.Len()) / 1e3 / time.Since(begin).Seconds()
	return nil
}

// probeStorage times the heap directly on a pool of its own: appending
// location-shaped rows with columnar encoding, then scanning them back.
// The heap is larger than the pool, so the scan reads every page from
// the disk.
func probeStorage(p *probes, rng *rand.Rand) error {
	vals := make([]int32, 2*storageProbeRows)
	measures := make([]float64, storageProbeRows)
	for i := range measures {
		vals[2*i], vals[2*i+1] = rng.Int31n(100_000), rng.Int31n(5_000)
		measures[i] = 1 + 49*rng.Float64()
	}
	pool := storage.NewPool(poolFrames)
	heap, err := storage.NewHeap(pool, storage.NewMemDisk(), 2)
	if err != nil {
		return err
	}
	defer heap.Drop()
	heap.SetColumnar(true)
	begin := time.Now()
	if err := heap.AppendRows(vals, measures); err != nil {
		return err
	}
	if err := pool.FlushDisk(heap.Handle()); err != nil {
		return err
	}
	p.loadKRows = storageProbeRows / 1e3 / time.Since(begin).Seconds()
	begin = time.Now()
	it := heap.ScanBatches()
	rows := 0
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		rows += b.Len()
	}
	if err := it.Close(); err != nil {
		return err
	}
	if err := it.Err(); err != nil {
		return err
	}
	if rows != storageProbeRows {
		return fmt.Errorf("scan returned %d rows of %d", rows, storageProbeRows)
	}
	p.scanKRows = storageProbeRows / 1e3 / time.Since(begin).Seconds()
	return nil
}

// layerMetrics turns the traced run's samples, the engine's metrics
// before and after the interval, and the probes into the per-layer
// metrics, in BENCHMARK.json order.
func layerMetrics(r *runner, reads, writes []*clientLog, p *probes, before, after mpf.MetricsSnapshot) []Metric {
	var queries []sample
	for _, log := range reads {
		queries = append(queries, log.samples...)
	}
	wire := p.wire
	if r.in.w.wire {
		wire = queries
	}
	col := func(ss []sample, f func(sample) (float64, bool)) []float64 {
		var out []float64
		for _, s := range ss {
			if v, ok := f(s); ok && !s.failed {
				out = append(out, v)
			}
		}
		sort.Float64s(out)
		return out
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	sum := func(xs []float64) (t float64) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	planMS := col(queries, func(s sample) (float64, bool) { return ms(s.optimize), true })
	execMS := col(queries, func(s sample) (float64, bool) { return ms(s.exec), true })
	wallMS := col(queries, func(s sample) (float64, bool) { return ms(s.wall), true })
	selfMS := col(queries, func(s sample) (float64, bool) { return ms(s.wall - s.optimize - s.exec), true })
	costs := col(queries, func(s sample) (float64, bool) { return s.cost, true })
	fpUS := col(queries, func(s sample) (float64, bool) { return s.fingerprint.Seconds() * 1e6, true })
	recomputed := col(queries, func(s sample) (float64, bool) { return 1, s.recomputed })
	overheadMS := col(wire, func(s sample) (float64, bool) { return ms(s.wire - s.wall), true })
	encodeMS := col(wire, func(s sample) (float64, bool) { return ms(s.encode), s.encode > 0 })
	replyKB := col(wire, func(s sample) (float64, bool) { return float64(s.replyBytes) / 1e3, true })

	// Engine counters over the interval. Every figure per query divides
	// by the queries the engine finished, which on a wire workload
	// counts both halves of each pair.
	d := func(f func(mpf.MetricsSnapshot) int64) float64 { return float64(f(after) - f(before)) }
	finished := d(func(m mpf.MetricsSnapshot) int64 { return m.QueriesFinished })
	kindWall := func(kind string) float64 {
		return float64(after.OpKinds[kind].Wall - before.OpKinds[kind].Wall)
	}
	allKinds := 0.0
	for kind := range after.OpKinds {
		allKinds += kindWall(kind)
	}
	busy := 0.0
	for kind, m := range after.Morsels {
		busy += float64(m.Busy - before.Morsels[kind].Busy)
	}
	workers := float64(max(r.in.e.cfg.Parallelism, 1))
	execWall := d(func(m mpf.MetricsSnapshot) int64 { return int64(m.ExecWall) })
	pcHits := d(func(m mpf.MetricsSnapshot) int64 { return m.PlanCache.Hits })
	pcMisses := d(func(m mpf.MetricsSnapshot) int64 { return m.PlanCache.Misses })
	rcHits := d(func(m mpf.MetricsSnapshot) int64 { return m.ResultCache.Hits })
	rcMisses := d(func(m mpf.MetricsSnapshot) int64 { return m.ResultCache.Misses })
	reads0 := d(func(m mpf.MetricsSnapshot) int64 { return m.Pool.Reads })
	hits0 := d(func(m mpf.MetricsSnapshot) int64 { return m.Pool.Hits })

	// Writes: the writer's ops where the workload has one, else the
	// commit probe's.
	writeMS := sortedCopy(append(append([]float64(nil), p.commits[0]...), p.commits[1]...))
	writeActive := sum(writeMS) / 1e3
	if len(writes) > 0 {
		var ops []sample
		writeActive = 0
		for _, log := range writes {
			ops = append(ops, log.samples...)
			writeActive += log.active.Seconds()
		}
		writeMS = col(ops, func(s sample) (float64, bool) { return ms(s.lat), true })
	}
	writeTail, _ := TailPercentile(writeMS, 95)
	planTail, _ := TailPercentile(planMS, 95)
	execTail, _ := TailPercentile(execMS, 95)
	end := r.in.e.db.Metrics()
	r.sampleVersions()

	n := len(queries)
	return []Metric{
		{"opt.plan_ms_p50", Percentile(planMS, 50), "ms", n},
		{"opt.plan_ms_p95", planTail, "ms", n},
		{"opt.plan_share", ratio(sum(planMS), sum(wallMS)), "ratio", n},
		{"opt.plan_cost_est_p50", Percentile(costs, 50), "cost", n},
		{"plan.fingerprint_us_p50", Percentile(fpUS, 50), "us", n},
		{"core.query_self_ms_p50", Percentile(selfMS, 50), "ms", n},
		{"core.plan_cache_hit_ratio", ratio(pcHits, pcHits+pcMisses), "ratio", int(pcHits + pcMisses)},
		{"core.plan_cache_invalidations", d(func(m mpf.MetricsSnapshot) int64 { return m.PlanCache.Invalidations }), "count", 0},
		{"core.commit_ms_p50.big", Median(p.commits[0]), "ms", len(p.commits[0])},
		{"core.commit_ms_p50.small", Median(p.commits[1]), "ms", len(p.commits[1])},
		{"core.writer_stall_ms", ms(end.MVCC.WriterStall - before.MVCC.WriterStall), "ms", int(end.MVCC.Commits - before.MVCC.Commits)},
		{"core.versions_live_max", float64(r.versionsLive), "count", 0},
		{"exec.run_ms_p50", Percentile(execMS, 50), "ms", n},
		{"exec.run_ms_p95", execTail, "ms", n},
		{"exec.run_share", ratio(sum(execMS), sum(wallMS)), "ratio", n},
		{"exec.scan_share", ratio(kindWall("Scan"), allKinds), "ratio", 0},
		{"exec.join_share", ratio(kindWall("ProductJoin"), allKinds), "ratio", 0},
		{"exec.groupby_share", ratio(kindWall("GroupBy"), allKinds), "ratio", 0},
		{"exec.sort_share", ratio(kindWall("Sort"), allKinds), "ratio", 0},
		{"exec.temp_tuples_per_query", ratio(d(func(m mpf.MetricsSnapshot) int64 { return m.TempTuples }), finished), "count", int(finished)},
		{"exec.batches_per_query", ratio(d(func(m mpf.MetricsSnapshot) int64 { return m.Batches }), finished), "count", int(finished)},
		{"exec.morsel_busy_frac", ratio(busy, workers*execWall), "ratio", 0},
		{"exec.hot_key_fallbacks", d(func(m mpf.MetricsSnapshot) int64 { return m.HotKeyFallbacks }), "count", 0},
		{"exec.result_cache_hit_ratio", ratio(rcHits, rcHits+rcMisses), "ratio", int(rcHits + rcMisses)},
		{"exec.result_cache_invalidations", d(func(m mpf.MetricsSnapshot) int64 { return m.ResultCache.Invalidations }), "count", 0},
		{"exec.result_cache_evictions", d(func(m mpf.MetricsSnapshot) int64 { return m.ResultCache.Evictions }), "count", 0},
		{"exec.recompute_share", ratio(float64(len(recomputed)), float64(n)), "ratio", n},
		{"storage.page_reads_per_query", ratio(reads0, finished), "count", int(finished)},
		{"storage.page_writes_per_query", ratio(d(func(m mpf.MetricsSnapshot) int64 { return m.Pool.Writes }), finished), "count", int(finished)},
		{"storage.pool_hit_ratio", ratio(hits0, hits0+reads0), "ratio", int(hits0 + reads0)},
		{"storage.write_pages_per_commit", p.writePages, "count", len(p.commits[0]) + len(p.commits[1])},
		{"storage.pages_encoded", float64(after.Encoding.PagesEncoded), "count", 0},
		{"storage.pages_fallback", float64(after.Encoding.PagesFallback), "count", 0},
		{"storage.retries", float64(after.Pool.Retries), "count", 0},
		{"storage.checksum_failures", float64(after.Pool.ChecksumFailures), "count", 0},
		{"storage.load_krows_per_s", p.loadKRows, "krows/s", 0},
		{"storage.scan_krows_per_s", p.scanKRows, "krows/s", 0},
		{"server.overhead_ms_p50", Percentile(overheadMS, 50), "ms", len(overheadMS)},
		{"server.encode_ms_p50", Percentile(encodeMS, 50), "ms", len(encodeMS)},
		{"server.resp_kb_per_query", ratio(sum(replyKB), float64(len(replyKB))), "kB", len(replyKB)},
		{"server.handler_ms_mean", p.handlerMS, "ms", 0},
		{"server.rejected_429", float64(p.rejected429), "count", 0},
		{"server.rejected_503", float64(p.rejected503), "count", 0},
		{"infer.build_cache_ms", p.buildCacheMS, "ms", 1},
		{"infer.answer_us_p50", Median(p.answerUS), "us", len(p.answerUS)},
		{"relation.join_krows_per_s", p.joinKRows, "krows/s", 0},
		{"relation.groupby_krows_per_s", p.groupByKRows, "krows/s", 0},
		{"gen.generate_s", r.in.genSeconds, "s", 1},
		{"write_p50_ms", Percentile(writeMS, 50), "ms", len(writeMS)},
		{"write_p95_ms", writeTail, "ms", len(writeMS)},
		{"writes_per_s", ratio(float64(len(writeMS)), writeActive), "1/s", len(writeMS)},
		{"traced_queries_per_s", throughput(reads), "1/s", n},
	}
}
