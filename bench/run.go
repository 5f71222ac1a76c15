package bench

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpf"
)

// Options selects one run of one workload.
type Options struct {
	// Workload is a name from Workloads.
	Workload string
	// Seed drives data generation, predicate constants and op choice.
	Seed int64
	// Seconds is how long the clients are kept busy. The run stops when
	// the first client has spent this long in ops and think time; time
	// spent checking answers is not counted.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics
	// and writes trace-<workload>.json into OutDir. End-to-end metrics
	// come only from untraced runs.
	Trace bool
	// Setups is how many times the workload is set up from scratch; the
	// median is setup_s and the last database is the one measured. Zero
	// means three for an untraced run and one for a traced run.
	Setups int
	// OutDir receives the trace file.
	OutDir string
	// Shrink scales the supply-chain data down for smoke tests; zero
	// means full size.
	Shrink float64
}

// Metric is one reported figure. N is the number of samples behind it,
// or 0 for a figure that is not a statistic of samples.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// Result is the outcome of one run.
type Result struct {
	Workload string
	// Correct is false when any op failed or a check after the run did.
	Correct bool
	// Attempted counts ops issued in the measured interval, Failed those
	// that returned an error, panicked, or answered wrongly.
	Attempted, Failed int
	// Metrics are the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced run, in BENCHMARK.json order.
	Metrics []Metric
	// SequenceHash identifies the op sequence the seed produces.
	SequenceHash string
	// LayerSelf is, for a traced run, each span name's total self time:
	// how long that layer was busy with work of its own.
	LayerSelf map[string]time.Duration
	// Errors holds the first few failure messages.
	Errors []string
}

// instance is a workload set up and ready to measure.
type instance struct {
	w          *workload
	ds         *dataset
	e          *env
	sc         *script
	setups     []float64
	genSeconds float64
}

// prepare sets the workload up opts.Setups times and keeps the last
// database. A set-up is generate + open + load + view + one warm-up pass
// over the query pool; computing the oracle answers happens once, on the
// first database, and is left out of the time. Every set-up regenerates
// identical data from the seed, so the answers hold for the one kept.
func prepare(w *workload, opts Options) (*instance, error) {
	in := &instance{w: w}
	for i := 0; i < opts.Setups; i++ {
		in.close()
		start := time.Now()
		ds, err := w.generate(opts.Seed, opts.Shrink)
		if err != nil {
			return nil, err
		}
		in.genSeconds = time.Since(start).Seconds()
		e, err := w.open(ds)
		if err != nil {
			return nil, err
		}
		in.ds, in.e = ds, e
		timed := time.Since(start)
		if in.sc == nil {
			if in.sc, err = w.script(opts.Seed, ds, e.db); err != nil {
				in.close()
				return nil, err
			}
		}
		start = time.Now()
		for _, q := range in.sc.pool {
			if _, err := in.ask(0, q.spec); err != nil {
				in.close()
				return nil, fmt.Errorf("warm-up %s: %w", q.id, err)
			}
		}
		in.setups = append(in.setups, (timed + time.Since(start)).Seconds())
	}
	return in, nil
}

func (in *instance) close() {
	if in.e != nil {
		in.e.close()
		in.e = nil
	}
}

// ask sends one query the way the workload's clients do.
func (in *instance) ask(client int, spec *mpf.QuerySpec) (*mpf.Result, error) {
	if in.w.wire {
		res, _, err := in.e.wires[client].query(spec)
		return res, err
	}
	return in.e.sess.Query(context.Background(), spec)
}

// sample is one op of the measured interval. The fields after failed are
// filled by traced runs only.
type sample struct {
	lat    time.Duration
	failed bool

	// The in-process execution of the query: its wall time, the engine's
	// own account of planning and execution inside it, the plan's
	// estimated cost, and whether the result cache missed.
	wall, optimize, exec time.Duration
	cost                 float64
	recomputed           bool
	fingerprint          time.Duration
	// The same query over the wire, for wire workloads and the server
	// probe: round trip, reply size, and the time to encode the reply.
	wire, encode time.Duration
	replyBytes   int
}

// clientLog is what one client did: its samples and the time it was
// busy with ops, probes and think time (not with checking answers).
type clientLog struct {
	writer  bool
	samples []sample
	active  time.Duration
}

// runner drives the clients of one measured interval.
type runner struct {
	in      *instance
	tr      *Tracer
	budget  time.Duration
	baseSeq int64
	stop    atomic.Bool
	opIDs   atomic.Int64

	mu           sync.Mutex
	errs         []string
	versionsLive int64
}

func (r *runner) note(err error) {
	r.mu.Lock()
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
	r.mu.Unlock()
}

// safely runs f, turning a panic into an error so that one bad op
// counts as failed and the run goes on.
func safely(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// run keeps every client busy until the first has used up the budget.
func (r *runner) run() []*clientLog {
	w := r.in.w
	logs := make([]*clientLog, 0, w.readers+1)
	var wg sync.WaitGroup
	for c := 0; c < w.readers; c++ {
		log := &clientLog{}
		logs = append(logs, log)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.reader(c, log)
		}(c)
	}
	if w.writeThink > 0 {
		log := &clientLog{writer: true}
		logs = append(logs, log)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.writer(log)
		}()
	}
	wg.Wait()
	return logs
}

// spend adds busy time and a think pause to a client's account, and
// ends the run once the account reaches the budget.
func (r *runner) spend(log *clientLog, busy, think time.Duration) {
	if think > 0 {
		start := time.Now()
		time.Sleep(think)
		busy += time.Since(start)
	}
	log.active += busy
	if log.active >= r.budget {
		r.stop.Store(true)
	}
}

func (r *runner) reader(c int, log *clientLog) {
	next := r.in.sc.readers(c)
	for !r.stop.Load() {
		q := next()
		begin := time.Now()
		s, res := r.issue(c, q)
		busy := time.Since(begin)
		if !s.failed {
			err := safely(func() error { return q.check(res.Relation, r.stateOf(res.Snapshot)) })
			if err != nil {
				s.failed = true
				r.note(fmt.Errorf("%s: wrong answer: %w", q.id, err))
			}
		}
		log.samples = append(log.samples, s)
		r.spend(log, busy, r.in.w.think)
	}
}

// stateOf maps the catalog version a read ran against to the table
// contents it saw. Only the writer commits during the interval, one
// version per op, so the version counts the writer's ops.
func (r *runner) stateOf(snapshot int64) int {
	if ws := r.in.sc.writes; ws != nil {
		return ws.stateAfter(snapshot - r.baseSeq)
	}
	return 0
}

// issue runs one query as the workload's client would and, in a traced
// run, decomposes it.
func (r *runner) issue(c int, q *queryCase) (sample, *mpf.Result) {
	var s sample
	var res *mpf.Result
	err := safely(func() (err error) {
		if r.tr != nil {
			var wc *wireClient
			if r.in.w.wire {
				wc = r.in.e.wires[c]
			}
			s, res, err = r.decompose(q, wc, wc != nil && r.opIDs.Load()%encodeEvery == 0)
			return err
		}
		begin := time.Now()
		res, err = r.in.ask(c, q.spec)
		s.lat = time.Since(begin)
		return err
	})
	if err != nil {
		s.failed = true
		r.note(fmt.Errorf("%s: %w", q.id, err))
	}
	return s, res
}

func (r *runner) writer(log *clientLog) {
	ws := r.in.sc.writes
	db := r.in.e.db
	var i int64
	for ; !r.stop.Load(); i++ {
		t, insert := ws.tableOf(i), i%2 == 1
		begin := time.Now()
		err := safely(func() error { return ws.apply(db, t, insert) })
		end := time.Now()
		r.tr.Add("core.commit."+ws.tables[t], r.opIDs.Add(1), -1, begin, end)
		if err != nil {
			r.note(fmt.Errorf("write %d to %s: %w", i, ws.tables[t], err))
		}
		log.samples = append(log.samples, sample{lat: end.Sub(begin), failed: err != nil})
		if r.tr != nil {
			r.sampleVersions()
		}
		r.spend(log, end.Sub(begin), r.in.w.writeThink)
	}
	if i%2 == 1 {
		// The interval ended between a delete and its insert.
		if err := ws.apply(db, ws.tableOf(i), true); err != nil {
			r.note(fmt.Errorf("restoring the writer's row: %w", err))
		}
	}
}

// sampleVersions keeps the largest number of live catalog versions seen.
func (r *runner) sampleVersions() {
	live := r.in.e.db.Metrics().MVCC.VersionsLive
	r.mu.Lock()
	r.versionsLive = max(r.versionsLive, live)
	r.mu.Unlock()
}

// Run performs one run: set-up, the measured interval, and the checks
// after it. The returned error reports a run that could not be carried
// out; wrong answers and failed ops are in the Result.
func Run(opts Options) (*Result, error) {
	w, err := workloadByName(opts.Workload)
	if err != nil {
		return nil, err
	}
	if opts.Seconds <= 0 {
		return nil, fmt.Errorf("bench: seconds must be positive, got %v", opts.Seconds)
	}
	if opts.Setups == 0 {
		opts.Setups = 3
		if opts.Trace {
			opts.Setups = 1
		}
	}
	if opts.Shrink == 0 {
		opts.Shrink = 1
	}
	in, err := prepare(w, opts)
	if err != nil {
		return nil, err
	}
	defer in.close()
	return in.measure(opts)
}

// measure runs the clients for opts.Seconds and reports.
func (in *instance) measure(opts Options) (*Result, error) {
	w := in.w
	r := &runner{in: in, budget: time.Duration(opts.Seconds * float64(time.Second))}
	if opts.Trace {
		r.tr = NewTracer()
	}
	// Return what set-up and the oracle left behind, so that peak memory
	// is the measured interval's.
	debug.FreeOSMemory()
	before := in.e.db.Metrics()
	r.baseSeq = before.MVCC.Seq
	rss := watchRSS()
	logs := r.run()
	peak := rss.stop()
	after := in.e.db.Metrics()

	res := &Result{Workload: w.name, SequenceHash: in.sc.sequenceHash(w, 256)}
	var reads, writes []*clientLog
	for _, log := range logs {
		res.Attempted += len(log.samples)
		for _, s := range log.samples {
			if s.failed {
				res.Failed++
			}
		}
		if log.writer {
			writes = append(writes, log)
		} else {
			reads = append(reads, log)
		}
	}
	if opts.Trace {
		probes, err := r.probe(opts)
		if err != nil {
			return nil, err
		}
		res.Metrics = layerMetrics(r, reads, writes, probes, before, after)
		res.LayerSelf = LayerSelfTime(r.tr.Spans())
		if err := r.tr.WriteFile(filepath.Join(opts.OutDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	} else {
		p50, p95, n := latencies(reads)
		res.Metrics = []Metric{
			{"query_p50_ms", p50, "ms", n},
			{"query_p95_ms", p95, "ms", n},
			{"queries_per_s", throughput(reads), "1/s", n},
			{"peak_rss_mb", peak, "MB", 0},
			{"setup_s", Median(in.setups), "s", len(in.setups)},
		}
	}
	if w.writeThink > 0 {
		// The writer undid every delete, so the tables must be back to
		// what was loaded.
		for _, t := range in.ds.tables {
			if err := sameTable(in, t); err != nil {
				r.note(err)
				res.Failed++
			}
		}
	}
	res.Errors = r.errs
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

func sameTable(in *instance, table string) error {
	ref, err := newReference(in.ds.relation(table))
	if err != nil {
		return err
	}
	now, err := in.e.db.Relation(table)
	if err != nil {
		return err
	}
	if err := ref.compare(now); err != nil {
		return fmt.Errorf("table %s differs from what was loaded: %w", table, err)
	}
	return nil
}

// latencies returns the median and the tail percentile, in ms, of the
// logs' op latencies, and the sample count. The tail is p95, or the
// highest percentile the sample supports when that is lower.
func latencies(logs []*clientLog) (p50, tail float64, n int) {
	var ms []float64
	for _, log := range logs {
		for _, s := range log.samples {
			ms = append(ms, s.lat.Seconds()*1e3)
		}
	}
	sort.Float64s(ms)
	tail, _ = TailPercentile(ms, 95)
	return Percentile(ms, 50), tail, len(ms)
}

// throughput sums each client's ops per second of its own busy time:
// the rate the closed loop sustained, with answer checking left out.
func throughput(logs []*clientLog) float64 {
	total := 0.0
	for _, log := range logs {
		if log.active > 0 {
			total += float64(len(log.samples)) / log.active.Seconds()
		}
	}
	return total
}

// sequenceHash hashes the first n op ids each client would issue: equal
// seeds give equal hashes whatever the machine's speed.
func (sc *script) sequenceHash(w *workload, n int) string {
	h := fnv.New64a()
	for c := 0; c < w.readers; c++ {
		next := sc.readers(c)
		for i := 0; i < n; i++ {
			h.Write([]byte(next().id))
			h.Write([]byte{0})
		}
	}
	if ws := sc.writes; ws != nil {
		for i := int64(0); i < int64(n); i++ {
			fmt.Fprintf(h, "w%d:%s%v;", i, ws.tables[ws.tableOf(i)], ws.rows[ws.tableOf(i)])
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// rssWatch samples the process's resident set while the clients run.
// VmHWM would also hold set-up and the oracle, which are not the
// engine's.
type rssWatch struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func watchRSS() *rssWatch {
	w := &rssWatch{done: make(chan struct{})}
	w.peak = residentMB()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.done:
				return
			case <-tick.C:
				w.peak = max(w.peak, residentMB())
			}
		}
	}()
	return w
}

// stop ends the sampling and returns the peak in MB.
func (w *rssWatch) stop() float64 {
	close(w.done)
	w.wg.Wait()
	return max(w.peak, residentMB())
}

// residentMB reads the resident set size from /proc/self/statm, falling
// back to the Go runtime's own figure where there is no procfs.
func residentMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := bytes.Fields(data); len(f) >= 2 {
			if pages, err := strconv.ParseInt(string(f[1]), 10, 64); err == nil {
				return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
