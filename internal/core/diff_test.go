package core

// The differential harness. Every plan in an optimizer's space computes
// the same marginal of the same product join over any commutative
// semiring, so a single identity covers CS/CS+ GroupBy pushdown, every
// VE elimination order, Proposition 1's FD skip and every physical
// operator path: the answer must equal relation.Select + ProductJoinAll +
// Marginalize computed from the table contents alone. The harness
// generates random MPF instances (genInstance), runs each under a seeded
// draw of engine configurations (drawConfig) and checks that identity
// plus the ones configuration must not change — page layout, worker
// count, transient faults, the HTTP transport — and the storage and MVCC
// contracts around them (runInstance). DESIGN.md, "Differential
// harness", says what is generated and checked and how to add a seed.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpf/internal/catalog"
	"mpf/internal/opt"
	"mpf/internal/plan"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// corpusSize is the number of generated seeds (1..corpusSize) in the
// fixed corpus that runs in tier-1 as FuzzDifferential's seed corpus,
// after the named seeds.
const corpusSize = 48

// namedSeeds are kept in the corpus by name: each once exposed a defect,
// or reaches a path the generated seeds rarely do. A seed names an
// instance only under today's generator: a change to genInstance or
// drawConfig re-deals every seed, so these must then be found again.
var namedSeeds = []struct {
	name string
	seed int64
}{
	// A scan failing on a permanent read fault returned while the
	// read-ahead it issued still pinned frames.
	{"read-ahead outlives its scan", 4655},
	{"read-ahead outlives its scan, key-less", 65318},
	{"read-ahead outlives its scan, linear", 79612},
	// The pool's one prefetch WaitGroup was waited on by every heap drop
	// while other scans kept adding to it: "WaitGroup is reused before
	// previous Wait has returned" crashed concurrent readers.
	{"prefetch wait group reused", 122},
	// An external merge claimed all but four frames of the shared pool,
	// so two readers sorting at once pinned all 256 frames.
	{"merge fan-in claims the pool", 1331},
	// Aggregation inputs of more than one 32-page leaf, whose leaf
	// aggregates merge in leaf order.
	{"multi-leaf aggregation, fused", 1125},
	{"multi-leaf aggregation, parallel", 9027},
	// A log-sum-exp answer with a zero-probability group (measure −Inf)
	// came back from /v1/query as a 200 with an empty body, and an insert
	// of a −Inf measure could not be sent at all: JSON numbers carry no
	// infinities.
	{"−Inf answer over the wire", 67},
	{"−Inf insert over the wire", 275},
}

// diffCorpus lists the corpus seeds.
func diffCorpus() []int64 {
	seeds := make([]int64, 0, len(namedSeeds)+corpusSize)
	for _, r := range namedSeeds {
		seeds = append(seeds, r.seed)
	}
	for s := int64(1); s <= corpusSize; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

// FuzzDifferential runs one generated instance per input seed. Under
// plain `go test` it runs the corpus and then checks the corpus-level
// coverage floor; `make fuzz` explores further seeds.
func FuzzDifferential(f *testing.F) {
	corpus := diffCorpus()
	for _, s := range corpus {
		f.Add(s)
	}
	tally := &diffTally{ran: map[int64]bool{}, seen: map[string]bool{}}
	f.Fuzz(func(t *testing.T, seed int64) {
		tally.mu.Lock()
		tally.ran[seed] = true
		tally.mu.Unlock()
		runInstance(t, seed, tally)
	})
	// The floor is a property of the whole corpus: check it only when
	// exactly the corpus ran in this process (not for a -run of one seed,
	// nor in a fuzzing worker).
	if len(tally.ran) == len(corpus) && !f.Failed() {
		for _, s := range corpus {
			if !tally.ran[s] {
				return
			}
		}
		tally.check(f)
	}
}

// Engine variants, fault regimes and worker counts a configuration
// draws from.
const (
	variantHash = iota
	variantSort // SortJoin + SortGroupBy with tiny runs: external merges
	variantGrace
)

var (
	diffVariants = []string{"hash", "sort", "grace"}
	diffFaults   = []string{"none", "transient", "permanent"}
	diffWorkers  = []int{0, 2, 4}
	diffShapes   = []string{"connected", "disconnected", "keyless"}
)

// The physical thresholds the sort and grace variants set, small enough
// that generated tables cross them.
const (
	sortRunTuples = 8
	graceMaxBuild = 8
)

// jointCap bounds the product of an instance's variable domains, and so
// every intermediate result: big enough for multi-page operator outputs
// under a 6-frame pool, small enough to keep the corpus fast.
const jointCap = 1 << 14

// maxVars is where a component stops minting variables and reuses its
// own, so the cap still leaves most domains wide.
const maxVars = 6

// diffOptimizers lists the optimizers a configuration draws from: the
// paper's variants (opt.All), the statistics-free greedy planner, and
// FD-aware VE (Proposition 1's skip, live once a write declares a key).
// seed drives the random-order VE variants.
func diffOptimizers(seed int64) []opt.Optimizer {
	return append(opt.All(rand.New(rand.NewSource(seed))),
		opt.Greedy{}, opt.VE{Heuristic: opt.Width, Extended: true, UseFDs: true})
}

// diffConfig is one engine configuration.
type diffConfig struct {
	opt        int // index into diffOptimizers
	columnar   bool
	fuse       bool
	workers    int // Parallelism
	frames     int // 6–8 or 256
	variant    int
	readAhead  int
	caches     bool // plan and result caches
	faults     int
	concurrent bool // readers beside a writer in the write phase
	wire       bool // reads and the concurrent phase also go over HTTP
}

func (c diffConfig) String() string {
	return fmt.Sprintf("opt=%s columnar=%v fuse=%v workers=%d frames=%d variant=%s readahead=%d caches=%v faults=%s concurrent=%v transport=%s",
		diffOptimizers(0)[c.opt].Name(), c.columnar, c.fuse, c.workers, c.frames, diffVariants[c.variant],
		c.readAhead, c.caches, diffFaults[c.faults], c.concurrent, c.transport())
}

func (c diffConfig) transport() string {
	if c.wire {
		return "wire"
	}
	return "inproc"
}

// keys names the dimension values the configuration exercises, for the
// coverage floor.
func (c diffConfig) keys() []string {
	frames := "large"
	if c.frames < 256 {
		frames = "small"
	}
	return []string{
		"opt=" + diffOptimizers(0)[c.opt].Name(),
		fmt.Sprint("fuse=", c.fuse), fmt.Sprint("workers=", c.workers), "frames=" + frames,
		"variant=" + diffVariants[c.variant], fmt.Sprint("readahead=", c.readAhead),
		fmt.Sprint("caches=", c.caches), "faults=" + diffFaults[c.faults], "transport=" + c.transport(),
	}
}

// ordered reports whether the configuration folds every sum in a fixed
// order. Only parallel Grace partition pairs do not: they append their
// join output in completion order, so float sums over it may round
// differently from run to run.
func (c diffConfig) ordered() bool { return c.workers <= 1 || c.variant != variantGrace }

// drawConfig draws the configuration of a seed. The optimizer rotates
// with the seed, so consecutive seeds cover every one. The transport
// draws from a stream of its own, so adding it re-dealt no other
// dimension of any seed.
func drawConfig(seed int64, rng *rand.Rand) diffConfig {
	c := diffConfig{
		opt:        int(uint64(seed) % uint64(len(diffOptimizers(0)))),
		columnar:   rng.Intn(2) == 0,
		fuse:       rng.Intn(2) == 0,
		workers:    diffWorkers[rng.Intn(len(diffWorkers))],
		frames:     6 + rng.Intn(3),
		variant:    rng.Intn(len(diffVariants)),
		readAhead:  8 * rng.Intn(2),
		caches:     rng.Intn(2) == 0,
		faults:     rng.Intn(len(diffFaults)),
		concurrent: rng.Intn(2) == 0,
		wire:       rand.New(rand.NewSource(seed^0x77697265)).Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		c.frames = 256
	}
	return c
}

// instance is one random MPF problem: a view over 1–6 tables, a semiring,
// queries against the view, and a sequence of writes.
type instance struct {
	sr     semiring.Semiring
	shape  string
	tables []*relation.Relation
	// exact holds when every semiring operation on the instance's
	// measures is exact — min, max and ∨ always, sums when the measures
	// are small integers — so any two evaluation orders agree bit for bit.
	exact   bool
	measure func(*rand.Rand) float64
	queries []diffQuery
	steps   []diffStep
}

type diffQuery struct {
	group []string
	where relation.Predicate
}

// genInstance builds the instance of a seed.
func genInstance(seed int64) *instance {
	rng := rand.New(rand.NewSource(seed))
	in := &instance{sr: semiring.All()[rng.Intn(len(semiring.All()))], shape: diffShapes[rng.Intn(len(diffShapes))]}
	in.measure, in.exact = measures(in.sr, rng.Intn(3))

	// Variables live in components: one for a connected view, two for a
	// disconnected one, one per table for a key-less one (every join a
	// cross product). A table joins its component through one variable
	// of an earlier table of the component.
	var vars []relation.Attr
	comps := map[int][]int{}
	schemas := make([][]int, 1+rng.Intn(6))
	for i := range schemas {
		c := 0
		switch in.shape {
		case "disconnected":
			c = i % 2
		case "keyless":
			c = i
		}
		chosen := map[int]bool{}
		if pool := comps[c]; len(pool) > 0 {
			chosen[pool[rng.Intn(len(pool))]] = true
		}
		for arity := []int{1, 2, 3, 3, 4, 4, 5, 5}[rng.Intn(8)]; len(chosen) < arity; {
			if pool := comps[c]; len(pool) > 0 && (rng.Intn(2) == 0 || len(vars) >= maxVars) {
				chosen[pool[rng.Intn(len(pool))]] = true
				if len(vars) >= maxVars {
					arity = min(arity, len(pool))
				}
				continue
			}
			vars = append(vars, relation.Attr{Name: fmt.Sprintf("v%d", len(vars)), Domain: []int{1, 2, 3, 4, 5, 5, 5, 5}[rng.Intn(8)]})
			chosen[len(vars)-1] = true
			comps[c] = append(comps[c], len(vars)-1)
		}
		for v := range chosen {
			schemas[i] = append(schemas[i], v)
		}
		slices.Sort(schemas[i])
	}
	for {
		joint := 1
		for _, v := range vars {
			joint *= v.Domain
		}
		if joint <= jointCap {
			break
		}
		if v := &vars[rng.Intn(len(vars))]; v.Domain > 1 {
			v.Domain--
		}
	}

	for i, schema := range schemas {
		attrs := make([]relation.Attr, len(schema))
		for j, v := range schema {
			attrs[j] = vars[v]
		}
		in.tables = append(in.tables, genTable(rng, fmt.Sprintf("t%d", i), attrs, in.measure))
	}
	for range 2 + rng.Intn(2) {
		q := diffQuery{where: relation.Predicate{}}
		if rng.Intn(6) > 0 { // else a total aggregate
			for _, v := range vars {
				if rng.Intn(3) == 0 {
					q.group = append(q.group, v.Name)
				}
			}
		}
		for rng.Intn(10) < 3 && len(q.where) < 2 {
			v := vars[rng.Intn(len(vars))]
			q.where[v.Name] = int32(rng.Intn(v.Domain))
		}
		in.queries = append(in.queries, q)
	}
	if rng.Intn(2) == 0 {
		in.steps = genSteps(rng, in)
	}
	return in
}

// measures returns the instance's measure generator and whether the
// semiring's arithmetic on its measures is exact. regime 0 draws small
// integers, 1 small dyadic fractions, 2 large values; every one includes
// zeros. Values are k·2^e with k < 8, so products (and, for the + of
// min-sum and max-sum, sums over a narrow exponent range) are exact
// and stay finite whatever the plan's evaluation order.
func measures(sr semiring.Semiring, regime int) (func(*rand.Rand) float64, bool) {
	dyadic := func(lo, hi int) func(*rand.Rand) float64 {
		return func(rng *rand.Rand) float64 { return math.Ldexp(float64(rng.Intn(8)), lo+rng.Intn(hi-lo+1)) }
	}
	switch sr {
	case semiring.BoolOrAnd:
		return func(rng *rand.Rand) float64 { return float64(rng.Intn(2)) }, true
	case semiring.LogSumExp:
		return func(rng *rand.Rand) float64 {
			if rng.Intn(8) == 0 {
				return math.Inf(-1) // log 0
			}
			return float64(regime*100+1) * (rng.Float64()*2 - 1.5)
		}, false
	case semiring.MinSum, semiring.MaxSum:
		return dyadic([]int{0, -12, 20}[regime], []int{3, 0, 40}[regime]), true
	}
	gen := dyadic([]int{0, -30, 60}[regime], []int{3, 0, 150}[regime])
	return gen, regime == 0 || sr != semiring.SumProduct
}

// genTable builds an empty, one-row, dense or sparse relation over attrs,
// in a random row order half the time.
func genTable(rng *rand.Rand, name string, attrs []relation.Attr, measure func(*rand.Rand) float64) *relation.Relation {
	var all [][]int32
	row := make([]int32, len(attrs))
	for {
		all = append(all, slices.Clone(row))
		i := len(row) - 1
		for ; i >= 0; i-- {
			if row[i]++; int(row[i]) < attrs[i].Domain {
				break
			}
			row[i] = 0
		}
		if i < 0 {
			break
		}
	}
	if rng.Intn(2) == 0 {
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	}
	density := 1.0
	switch k := rng.Intn(20); {
	case k < 1:
		all = nil
	case k < 3:
		all = all[:1]
	case k >= 12:
		density = 0.3 + 0.4*rng.Float64()
	}
	r := relation.MustNew(name, attrs)
	for _, vals := range all {
		if rng.Float64() < density {
			r.MustAppend(vals, measure(rng))
		}
	}
	return r
}

// Write operations of the write phase.
const (
	opInsert = iota
	opDelete
	opDeclareKey
	opCreateIndex
)

// diffStep is one write with its expected outcome, found by applying it
// to a shadow copy of the tables.
type diffStep struct {
	op      int
	table   int
	vals    []int32
	measure float64
	cols    []string // DeclareKey's columns; CreateIndex's attribute
	want    error    // the sentinel the write fails with; nil = succeeds
	commits bool     // publishes a catalog version
	after   []*relation.Relation
	keys    [][]string // declared keys after the step
}

// genSteps draws 3–10 writes — inserts of new, stored and invalid rows,
// deletes of present, absent and invalid rows, key declarations the data
// holds or breaks, index builds — and simulates each on the shadow.
func genSteps(rng *rand.Rand, in *instance) []diffStep {
	tables := slices.Clone(in.tables)
	keys := make([][]string, len(tables))
	steps := make([]diffStep, 3+rng.Intn(8))
	for k := range steps {
		s := diffStep{table: rng.Intn(len(tables))}
		cur := tables[s.table]
		attrs := cur.Attrs()
		randomRow := func() []int32 {
			vals := make([]int32, len(attrs))
			for i, a := range attrs {
				vals[i] = int32(rng.Intn(a.Domain))
			}
			return vals
		}
		switch p := rng.Intn(10); {
		case p < 4:
			s.op, s.vals, s.measure = opInsert, randomRow(), in.measure(rng)
			switch rng.Intn(10) {
			case 0:
				i := rng.Intn(len(attrs))
				s.vals[i] = int32(attrs[i].Domain) // just outside the domain
				s.want = ErrSchemaMismatch
			case 1:
				s.vals, s.want = append(s.vals, 0), ErrSchemaMismatch
			default:
				if find(cur, s.vals) >= 0 || (keys[s.table] != nil && !distinctOn(withRow(cur, s.vals, 0), keys[s.table])) {
					s.want = ErrNotFunctional
				} else {
					tables[s.table], s.commits = withRow(cur, s.vals, s.measure), true
				}
			}
		case p < 7:
			s.op = opDelete
			switch {
			case rng.Intn(12) == 0:
				s.vals, s.want = randomRow()[1:], ErrSchemaMismatch
			case cur.Len() > 0 && rng.Intn(4) > 0:
				s.vals = slices.Clone(cur.Row(rng.Intn(cur.Len())))
			default:
				s.vals = randomRow()
				if rng.Intn(4) == 0 {
					s.vals[0] = -1 // outside the domain: simply absent
				}
			}
			if i := find(cur, s.vals); s.want == nil && i >= 0 {
				tables[s.table], s.commits = withoutRow(cur, i), true
			}
		case p < 9:
			s.op = opDeclareKey
			for _, a := range attrs {
				if rng.Intn(2) == 0 {
					s.cols = append(s.cols, a.Name)
				}
			}
			switch {
			case len(s.cols) == 0 || rng.Intn(8) == 0:
				s.cols, s.want = append(s.cols, "nope"), ErrSchemaMismatch
			case !distinctOn(cur, s.cols):
				s.want = ErrNotFunctional
			default:
				keys[s.table], s.commits = s.cols, true
			}
		default:
			s.op, s.cols, s.commits = opCreateIndex, []string{attrs[rng.Intn(len(attrs))].Name}, true
		}
		s.after, s.keys = slices.Clone(tables), slices.Clone(keys)
		steps[k] = s
	}
	return steps
}

// rowWriter takes a step's row writes: the database itself, or a
// WireClient serving it.
type rowWriter interface {
	Insert(table string, vals []int32, measure float64) error
	Delete(table string, vals []int32) (bool, error)
}

// apply performs the step's write on db, its row writes through w.
func (s *diffStep) apply(db *Database, w rowWriter, name string) error {
	switch s.op {
	case opInsert:
		return w.Insert(name, s.vals, s.measure)
	case opDelete:
		_, err := w.Delete(name, s.vals)
		return err
	case opDeclareKey:
		return db.DeclareKey(name, s.cols)
	default:
		return db.CreateIndex(name, s.cols[0])
	}
}

// find returns the index of the row with assignment vals, or -1.
func find(r *relation.Relation, vals []int32) int {
	for i := 0; i < r.Len(); i++ {
		if slices.Equal(r.Row(i), vals) {
			return i
		}
	}
	return -1
}

// withRow returns a copy of r with one more row at the end.
func withRow(r *relation.Relation, vals []int32, m float64) *relation.Relation {
	out := r.Clone()
	out.MustAppend(vals, m)
	return out
}

// withoutRow returns a copy of r with row i removed.
func withoutRow(r *relation.Relation, i int) *relation.Relation {
	out := relation.MustNew(r.Name(), r.Attrs())
	for j := 0; j < r.Len(); j++ {
		if j != i {
			out.MustAppend(r.Row(j), r.Measure(j))
		}
	}
	return out
}

// distinctOn reports whether r's rows are pairwise distinct on cols.
func distinctOn(r *relation.Relation, cols []string) bool {
	seen := make(map[string]bool, r.Len())
	for i := 0; i < r.Len(); i++ {
		k := ""
		for _, c := range cols {
			k += fmt.Sprint(r.Value(i, r.ColIndex(c)), ",")
		}
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// oracle answers query qi over the given table contents with the
// relation package alone.
func (in *instance) oracle(tables []*relation.Relation, qi int) *relation.Relation {
	q := in.queries[qi]
	sel := make([]*relation.Relation, len(tables))
	for i, r := range tables {
		sel[i] = r
		p := relation.Predicate{}
		for v, val := range q.where {
			if r.HasVar(v) {
				p[v] = val
			}
		}
		if len(p) > 0 {
			sel[i], _ = relation.Select(r, p)
		}
	}
	joint, err := relation.ProductJoinAll(in.sr, sel...)
	if err != nil {
		panic(err)
	}
	out, err := relation.Marginalize(in.sr, joint, q.group)
	if err != nil {
		panic(err)
	}
	return out
}

// oracles answers every query over the given table contents.
func (in *instance) oracles(tables []*relation.Relation) []*relation.Relation {
	out := make([]*relation.Relation, len(in.queries))
	for qi := range out {
		out[qi] = in.oracle(tables, qi)
	}
	return out
}

// same compares two answers: row for row with bit-equal measures when
// strict, else as functions whose measures agree within tol.
func same(got, want *relation.Relation, strict bool, tol float64) bool {
	if got == nil || want == nil {
		return false
	}
	if !strict {
		return relation.Equal(got, want, math.NaN(), tol)
	}
	if got.Len() != want.Len() || !reflect.DeepEqual(got.Attrs(), want.Attrs()) {
		return false
	}
	for i := 0; i < got.Len(); i++ {
		if !slices.Equal(got.Row(i), want.Row(i)) || math.Float64bits(got.Measure(i)) != math.Float64bits(want.Measure(i)) {
			return false
		}
	}
	return true
}

// tol is the instance's measure tolerance against the oracle: none for
// exact arithmetic, 1e-9 relative for float sums.
func (in *instance) tol() float64 {
	if in.exact {
		return 0
	}
	return 1e-9
}

// diffRun is one instance under one drawn configuration.
type diffRun struct {
	t     *testing.T
	seed  int64
	in    *instance
	cfg   diffConfig
	tally *diffTally
}

func (r *diffRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d [%s]: %s", r.seed, r.cfg, fmt.Sprintf(format, args...))
}

// runInstance generates the seed's instance and configuration and checks
// every identity of the harness.
func runInstance(t *testing.T, seed int64, tally *diffTally) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	r := &diffRun{t: t, seed: seed, in: genInstance(seed), cfg: drawConfig(seed, rng), tally: tally}
	defer func() {
		if p := recover(); p != nil {
			r.fatalf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	tally.note(r.cfg.keys()...)
	tally.note("shape="+r.in.shape, "semiring="+r.in.sr.Name(), fmt.Sprint("writes=", len(r.in.steps) > 0))
	want := r.in.oracles(r.in.tables)

	// 1. The drawn configuration answers like the oracle, in both
	// execution modes, with nothing left pinned or registered.
	base := r.reads(want)

	// 2. Page layout changes neither answers nor, where the schedule is
	// deterministic, physical IO; a row-major run encodes no page.
	flip := r.cfg
	flip.columnar = !flip.columnar
	other := r.with(flip).reads(want)
	for qi := range base {
		if !same(other[qi].rel, base[qi].rel, r.cfg.ordered(), r.in.tol()) {
			r.fatalf("query %d: answer differs between page layouts", qi)
		}
		if r.cfg.readAhead == 0 && r.cfg.workers <= 1 &&
			(other[qi].io.Reads != base[qi].io.Reads || other[qi].io.Writes != base[qi].io.Writes) {
			r.fatalf("query %d: page layout changed physical IO: %+v vs %+v", qi, base[qi].io, other[qi].io)
		}
	}
	tally.note("columnar=true", "columnar=false")

	// 3. Worker count: exact semirings bit-identical, float sums within
	// 1e-9 (parallel Grace pairs append in completion order).
	par := r.cfg
	par.workers = diffWorkers[(slices.Index(diffWorkers, par.workers)+1+rng.Intn(2))%len(diffWorkers)]
	for qi, a := range r.with(par).reads(want) {
		if !same(a.rel, base[qi].rel, false, r.in.tol()) {
			r.fatalf("query %d: answer differs between %d and %d workers", qi, r.cfg.workers, par.workers)
		}
	}

	// 4. Faults.
	switch r.cfg.faults {
	case 1:
		r.transient(base)
	case 2:
		r.permanent(want)
	}

	// 5. Writes, serially and beside concurrent readers.
	if len(r.in.steps) > 0 {
		r.writes(rng.Intn(len(r.in.steps) + 1))
		if r.cfg.concurrent {
			r.concurrent()
		}
		tally.note(fmt.Sprint("concurrent=", r.cfg.concurrent))
	}
}

// answer is one query's result and the physical IO it did.
type answer struct {
	rel *relation.Relation
	io  storage.Stats
}

// open starts a database in configuration c over fleet's disks (plain
// memory disks when fleet is nil) and loads the instance's tables into
// the view "v".
func (r *diffRun) open(c diffConfig, fleet *faultFleet) *Database {
	r.t.Helper()
	cfg := Config{Semiring: r.in.sr, PoolFrames: c.frames, Parallelism: c.workers, ReadAhead: c.readAhead,
		Columnar: c.columnar, FuseJoinGroupBy: c.fuse, IORetries: 8}
	if fleet != nil {
		cfg.DiskFactory = fleet.factory()
	}
	if c.caches {
		cfg.ResultCacheBytes, cfg.PlanCacheEntries = 1<<20, 16
	}
	db, err := Open(cfg)
	if err != nil {
		r.fatalf("open: %v", err)
	}
	r.t.Cleanup(func() { db.Close() })
	switch c.variant {
	case variantSort:
		db.Engine().SortJoin, db.Engine().SortGroupBy, db.Engine().SortRunTuples = true, true, sortRunTuples
	case variantGrace:
		db.Engine().HashJoinMaxBuild = graceMaxBuild
	}
	names := make([]string, len(r.in.tables))
	for i, t := range r.in.tables {
		if err := db.CreateTable(t); err != nil {
			r.fatalf("create %s: %v", t.Name(), err)
		}
		names[i] = t.Name()
	}
	if err := db.CreateView("v", names); err != nil {
		r.fatalf("create view: %v", err)
	}
	return db
}

// spec is query qi in the given mode, planned by the configuration's
// optimizer (a fresh one per query, so runs plan identically).
func (r *diffRun) spec(qi int, mode ExecMode) *QuerySpec {
	q := r.in.queries[qi]
	return &QuerySpec{View: "v", GroupVars: q.group, Where: q.where, Exec: mode,
		Optimizer: diffOptimizers(r.seed*16 + int64(qi))[r.cfg.opt]}
}

// ask runs one query and checks the storage contract every query, failed
// or not, must keep: no frame left pinned — with no draining of
// read-ahead by hand — and no temporary heap left registered.
func (r *diffRun) ask(ctx context.Context, db *Database, qi int, mode ExecMode) (*Result, error) {
	r.t.Helper()
	registered := db.Pool().Registered() - cacheEntries(db)
	res, err := db.QueryContext(ctx, r.spec(qi, mode))
	r.released(db, qi, err, registered)
	return res, err
}

// released checks that query qi, which ended with err, left no frame
// pinned and as many disks registered as before it.
func (r *diffRun) released(db *Database, qi int, err error, registered int) {
	r.t.Helper()
	if n := db.Pool().Pinned(); n != 0 {
		r.fatalf("query %d (err %v): %d frames left pinned", qi, err, n)
	}
	if n := db.Pool().Registered() - cacheEntries(db); n != registered {
		r.fatalf("query %d (err %v): %d disks registered, want %d", qi, err, n, registered)
	}
}

// WireClient is a database served over HTTP, as transport=wire runs
// reach it: queries and row writes travel as JSON, and engine errors come
// back as the sentinels their envelope codes name.
type WireClient interface {
	rowWriter
	// Query runs q and returns the decoded result and its rendered plan.
	Query(q *QuerySpec) (*Result, string, error)
}

// ServeWire serves db over HTTP until the test ends. internal/server
// imports this package, so wire_test.go sets it from package core_test.
var ServeWire func(t *testing.T, db *Database) WireClient

// wireSpec is query qi as it travels: without its optimizer when the
// optimizer's report name resolves to a different one (a seeded random
// order) or to none (FD-aware VE), so the server plans with its default.
func (r *diffRun) wireSpec(qi int, mode ExecMode) *QuerySpec {
	q := r.spec(qi, mode)
	if o, err := opt.ByName(q.Optimizer.Name()); err != nil || !reflect.DeepEqual(o, q.Optimizer) {
		q.Optimizer = nil
	}
	return q
}

// askWire runs query qi through wc under the storage contract of ask.
// The decoded answer must match the oracle, and be bit-equal to local,
// the in-process answer, whenever arithmetic cannot tell two plans apart
// (an exact instance) or both ran the same plan in a fixed order.
func (r *diffRun) askWire(wc WireClient, db *Database, qi int, mode ExecMode, local *Result, want *relation.Relation) {
	r.t.Helper()
	registered := db.Pool().Registered() - cacheEntries(db)
	res, plan, err := wc.Query(r.wireSpec(qi, mode))
	r.released(db, qi, err, registered)
	if err != nil {
		r.fatalf("query %d mode %d over the wire: %v", qi, mode, err)
	}
	if !same(res.Relation, want, false, r.in.tol()) {
		r.fatalf("query %d mode %d: answer over the wire differs from the oracle\ngot  %v\nwant %v", qi, mode, res.Relation, want)
	}
	samePlan := plan == local.Plan.String()
	if (r.in.exact || samePlan && r.cfg.ordered()) && !same(res.Relation, local.Relation, false, 0) {
		r.fatalf("query %d mode %d: answer over the wire differs from the in-process one\nwire  %v\nlocal %v", qi, mode, res.Relation, local.Relation)
	}
	r.tally.add(func(y *diffTally) {
		if samePlan {
			y.wirePlans++
		}
	})
}

// cacheEntries counts the result cache's materializations, each of which
// legitimately keeps a heap registered.
func cacheEntries(db *Database) int {
	if rc := db.ResultCache(); rc != nil {
		return int(rc.Snapshot().Entries)
	}
	return 0
}

// with returns the run under another configuration of the same instance.
func (r *diffRun) with(c diffConfig) *diffRun {
	w := *r
	w.cfg = c
	return &w
}

// reads runs every query — twice when caches are on, the second pass
// hitting them — checks each answer against the oracle in both execution
// modes, over the wire as well under transport=wire, and returns the
// engine's answers.
func (r *diffRun) reads(want []*relation.Relation) []answer {
	r.t.Helper()
	c := r.cfg
	db := r.open(c, nil)
	var wc WireClient
	if c.wire {
		wc = ServeWire(r.t, db)
	}
	out := make([]answer, len(want))
	passes := 1
	if c.caches {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		for qi := range want {
			for _, mode := range []ExecMode{EngineExec, MemoryExec} {
				res, err := r.ask(context.Background(), db, qi, mode)
				if err != nil {
					r.fatalf("pass %d query %d mode %d: %v", pass, qi, mode, err)
				}
				if !same(res.Relation, want[qi], false, r.in.tol()) {
					r.fatalf("pass %d query %d mode %d: answer differs from the oracle\ngot  %v\nwant %v\nplan:\n%v",
						pass, qi, mode, res.Relation, want[qi], res.Plan)
				}
				if wc != nil {
					r.askWire(wc, db, qi, mode, res, want[qi])
				}
				if mode == EngineExec && pass == 0 {
					out[qi] = answer{rel: res.Relation, io: res.Exec.IO}
					if !c.caches {
						r.noteSpills(res.Plan)
					}
				}
			}
		}
	}
	if es := db.Pool().EncodingStats(); !c.columnar && es.PagesEncoded != 0 {
		r.fatalf("row-major run encoded %d pages", es.PagesEncoded)
	} else {
		r.tally.add(func(y *diffTally) { y.encoded += es.PagesEncoded })
	}
	return out
}

// noteSpills records whether running p under the configuration's engine
// variant partitions a join (Grace) or merges external sort runs, from
// the sizes of the plan's operator inputs.
func (r *diffRun) noteSpills(p *plan.Node) {
	if r.cfg.variant == variantHash {
		return
	}
	tables := make(map[string]*relation.Relation, len(r.in.tables))
	for _, t := range r.in.tables {
		tables[t.Name()] = t
	}
	size := func(n *plan.Node) int {
		rel, err := plan.Eval(n, plan.MapResolver(tables), r.in.sr)
		if err != nil {
			r.fatalf("eval: %v", err)
		}
		return rel.Len()
	}
	var grace, merge bool
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil {
			return
		}
		walk(n.Left)
		walk(n.Right)
		switch {
		case n.Op == plan.OpJoin && len(n.Left.Vars().Intersect(n.Right.Vars())) > 0:
			l, rr := size(n.Left), size(n.Right)
			grace = grace || r.cfg.variant == variantGrace && min(l, rr) > graceMaxBuild
			merge = merge || r.cfg.variant == variantSort && max(l, rr) > sortRunTuples
		case n.Op == plan.OpGroupBy:
			merge = merge || r.cfg.variant == variantSort && size(n.Left) > sortRunTuples
		}
	}
	walk(p)
	r.tally.add(func(y *diffTally) {
		if grace {
			y.grace++
		}
		if merge {
			y.merges++
		}
	})
}

// transient: every disk fails 5% of reads, writes and allocations
// transiently from the first load on; retries absorb them all, and every
// answer is the fault-free one.
func (r *diffRun) transient(base []answer) {
	fleet := newFaultFleet(storage.MemDiskFactory(), storage.FaultPlan{Seed: r.seed, ReadErr: 0.05, WriteErr: 0.05, AllocErr: 0.05})
	db := r.open(r.cfg, fleet)
	for qi := range base {
		res, err := r.ask(context.Background(), db, qi, EngineExec)
		if err != nil {
			r.fatalf("query %d under transient faults: %v", qi, err)
		}
		if !same(res.Relation, base[qi].rel, r.cfg.ordered(), r.in.tol()) {
			r.fatalf("query %d: answer under transient faults differs from the fault-free run", qi)
		}
	}
	st := db.Pool().Stats()
	if st.PermanentFaults != 0 || st.ChecksumFailures != 0 {
		r.fatalf("transient faults escaped retry: %+v", st)
	}
	r.tally.add(func(y *diffTally) { y.retries += st.Retries })
}

// permanent: once loaded, every disk fails 5% of reads permanently,
// returns 7% of pages corrupt or torn, and is slow on a fifth of them —
// so read-ahead is still loading when a scan fails. Queries may fail, but
// only with ErrIO or ErrCorrupt, never with a wrong answer; healed, every
// query answers correctly again.
func (r *diffRun) permanent(want []*relation.Relation) {
	fleet := newFaultFleet(storage.MemDiskFactory(), storage.FaultPlan{})
	db := r.open(r.cfg, fleet)
	fleet.setAll(storage.FaultPlan{Seed: r.seed, PermReadErr: 0.05, Corrupt: 0.05, Torn: 0.02,
		SlowProb: 0.5, SlowDelay: time.Millisecond})
	for pass := 0; pass < 2; pass++ {
		for qi := range want {
			res, err := r.ask(context.Background(), db, qi, EngineExec)
			switch {
			case err == nil:
				if !same(res.Relation, want[qi], false, r.in.tol()) {
					r.fatalf("query %d: wrong answer instead of an error under permanent faults", qi)
				}
			case errors.Is(err, ErrIO) || errors.Is(err, ErrCorrupt):
			default:
				r.fatalf("query %d: untyped failure under permanent faults: %v", qi, err)
			}
		}
	}
	fleet.setAll(storage.FaultPlan{})
	for qi := range want {
		res, err := r.ask(context.Background(), db, qi, EngineExec)
		if err != nil || !same(res.Relation, want[qi], false, r.in.tol()) {
			r.fatalf("query %d after healing: err %v, or a wrong answer", qi, err)
		}
	}
}

// writes applies the write sequence one step at a time. After every step
// the catalog sequence moved iff the step committed; the written table's
// stored rows equal the shadow row for row and its statistics a fresh
// analysis of the shadow plus the declared key; both execution modes
// answer from the new contents, while a snapshot taken before the step
// still answers from the old; and once the snapshot is released one
// version is live and nothing is pinned. Before step armAt a commit is
// made to fail on a write fault: ErrIO, the sequence unmoved, the old
// version still served.
func (r *diffRun) writes(armAt int) {
	fleet := newFaultFleet(storage.MemDiskFactory(), storage.FaultPlan{})
	db := r.open(r.cfg, fleet)
	tables := r.in.tables
	want := r.in.oracles(tables)
	check := func(ctx context.Context, when string, want []*relation.Relation) {
		r.t.Helper()
		for qi := range want {
			for _, mode := range []ExecMode{EngineExec, MemoryExec} {
				res, err := r.ask(ctx, db, qi, mode)
				if err != nil || !same(res.Relation, want[qi], false, r.in.tol()) {
					r.fatalf("%s: query %d mode %d: err %v, or an answer other than the oracle's", when, qi, mode, err)
				}
			}
		}
	}
	for k, s := range append(r.in.steps, diffStep{}) {
		if k == armAt {
			r.armedCommit(db, fleet, tables, want)
		}
		if k == len(r.in.steps) {
			break
		}
		name := r.in.tables[s.table].Name()
		when := fmt.Sprintf("step %d (op %d on %s, vals %v, cols %v)", k, s.op, name, s.vals, s.cols)
		snap := db.AcquireSnapshot()
		seq := db.Metrics().MVCC.Seq
		if err := s.apply(db, db, name); !errors.Is(err, s.want) || (s.want == nil && err != nil) {
			r.fatalf("%s: err = %v, want %v", when, err, s.want)
		}
		if moved := db.Metrics().MVCC.Seq != seq; moved != s.commits {
			r.fatalf("%s: catalog sequence moved = %v, want %v", when, moved, s.commits)
		}
		stored, err := db.Relation(name)
		if err != nil || !same(stored, s.after[s.table], true, 0) {
			r.fatalf("%s: stored table differs from the shadow (err %v)", when, err)
		}
		wantSt := catalog.AnalyzeRelation(s.after[s.table])
		wantSt.Key = s.keys[s.table]
		st, err := db.Catalog().Table(name)
		if err != nil || st.Card != wantSt.Card || !reflect.DeepEqual(st.Distinct, wantSt.Distinct) ||
			!reflect.DeepEqual(st.Attrs, wantSt.Attrs) || fmt.Sprint(st.Key) != fmt.Sprint(wantSt.Key) {
			r.fatalf("%s: stats %+v, want %+v (err %v)", when, st, wantSt, err)
		}
		next := want
		if s.commits {
			next = r.in.oracles(s.after)
		}
		check(context.Background(), when, next)
		check(WithSnapshot(context.Background(), snap), when+" (snapshot from before)", want)
		snap.Release()
		if live := db.Metrics().MVCC.VersionsLive; live != 1 {
			r.fatalf("%s: %d versions live after release, want 1", when, live)
		}
		tables, want = s.after, next
	}
}

// armedCommit makes the next heap the engine creates fail its first page
// write and rebuilds a non-empty table through CreateIndex: the commit
// must fail with ErrIO without moving the catalog sequence, and the old
// version must keep answering.
func (r *diffRun) armedCommit(db *Database, fleet *faultFleet, tables, want []*relation.Relation) {
	i := slices.IndexFunc(tables, func(t *relation.Relation) bool { return t.Len() > 0 })
	if i < 0 {
		return
	}
	seq := db.Metrics().MVCC.Seq
	fleet.setNew(storage.FaultPlan{FailWriteOp: 1})
	err := db.CreateIndex(tables[i].Name(), tables[i].Attrs()[0].Name)
	fleet.setNew(storage.FaultPlan{})
	if st := db.Metrics().MVCC; !errors.Is(err, ErrIO) || st.Seq != seq || st.VersionsLive != 1 {
		r.fatalf("commit under an armed write fault: err = %v, sequence %d → %d, %d versions live", err, seq, st.Seq, st.VersionsLive)
	}
	for qi := range want {
		res, err := r.ask(context.Background(), db, qi, EngineExec)
		if err != nil || !same(res.Relation, want[qi], false, r.in.tol()) {
			r.fatalf("query %d after a failed commit: err %v, or an answer other than the old version's", qi, err)
		}
	}
	r.tally.add(func(y *diffTally) { y.armed++ })
}

// concurrent replays the write sequence on one goroutine while readers
// query on two others: every reader's answer must equal the oracle at
// the catalog version it ran against (Result.Snapshot), and once all are
// done one version is live, no snapshot is held, nothing is pinned and
// the stored tables equal the last shadow. Under transport=wire the
// readers and the writer's inserts and deletes go over HTTP.
func (r *diffRun) concurrent() {
	// Left out of the draw: a small pool under concurrent queries. Frames
	// are not reserved per query, so parallel Grace partitioning in two
	// readers beside the writer can pin all 6–8 frames, and a Pin fails
	// untyped with "all frames pinned" (ROADMAP item 5; seeds 265 and 736,
	// both variant=grace workers=4). Merge cursors hold no pin between
	// page batches, so sorting readers no longer pin a small pool out.
	c := r.cfg
	c.frames = 256
	db := r.open(c, nil)
	query := func(qi int) (*Result, error) { return db.Query(r.spec(qi, EngineExec)) }
	var w rowWriter = db
	if c.wire {
		wc := ServeWire(r.t, db)
		query = func(qi int) (*Result, error) {
			res, _, err := wc.Query(r.wireSpec(qi, EngineExec))
			return res, err
		}
		w = wc
	}
	s0 := db.Metrics().MVCC.Seq
	replay := [][]*relation.Relation{r.in.oracles(r.in.tables)}
	for _, s := range r.in.steps {
		if s.commits {
			replay = append(replay, r.in.oracles(s.after))
		}
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4 || !done.Load(); i++ {
				qi := (i + reader) % len(r.in.queries)
				res, err := query(qi)
				if err != nil {
					r.t.Errorf("seed %d [%s]: concurrent query %d: %v", r.seed, r.cfg, qi, err)
					return
				}
				k := int(res.Snapshot - s0)
				if k < 0 || k >= len(replay) || !same(res.Relation, replay[k][qi], false, r.in.tol()) {
					r.t.Errorf("seed %d [%s]: concurrent query %d at snapshot %d differs from the serial replay", r.seed, r.cfg, qi, res.Snapshot)
					return
				}
			}
		}()
	}
	for k, s := range r.in.steps {
		if err := s.apply(db, w, r.in.tables[s.table].Name()); !errors.Is(err, s.want) || (s.want == nil && err != nil) {
			r.t.Errorf("seed %d [%s]: concurrent step %d: err = %v, want %v", r.seed, r.cfg, k, err, s.want)
		}
	}
	done.Store(true)
	wg.Wait()
	if r.t.Failed() {
		r.t.FailNow()
	}
	if st := db.Metrics().MVCC; st.VersionsLive != 1 || st.SnapshotsActive != 0 || st.Seq != s0+int64(len(replay)-1) {
		r.fatalf("after the concurrent phase: %d versions live, %d snapshots held, sequence %d (want %d)",
			st.VersionsLive, st.SnapshotsActive, st.Seq, s0+int64(len(replay)-1))
	}
	if n := db.Pool().Pinned(); n != 0 {
		r.fatalf("%d frames pinned after the concurrent phase", n)
	}
	for i, t := range r.in.steps[len(r.in.steps)-1].after {
		if stored, err := db.Relation(t.Name()); err != nil || !same(stored, t, true, 0) {
			r.fatalf("after the concurrent phase: table %d differs from the serial replay (err %v)", i, err)
		}
	}
}

// diffTally accumulates what the corpus exercised.
type diffTally struct {
	mu                   sync.Mutex
	ran                  map[int64]bool
	seen                 map[string]bool
	retries, encoded     int64
	grace, merges, armed int
	wirePlans            int // wire answers planned as in process
}

func (y *diffTally) note(keys ...string) {
	y.add(func(y *diffTally) {
		for _, k := range keys {
			y.seen[k] = true
		}
	})
}

func (y *diffTally) add(f func(*diffTally)) {
	y.mu.Lock()
	defer y.mu.Unlock()
	f(y)
}

// check is the corpus-level coverage floor: the harness must not pass by
// silently testing nothing.
func (y *diffTally) check(f *testing.F) {
	want := []string{"columnar=true", "columnar=false", "fuse=true", "fuse=false", "frames=small", "frames=large",
		"readahead=0", "readahead=8", "caches=true", "caches=false", "concurrent=true", "concurrent=false",
		"writes=true", "writes=false", "transport=inproc", "transport=wire"}
	for _, o := range diffOptimizers(0) {
		want = append(want, "opt="+o.Name())
	}
	for _, w := range diffWorkers {
		want = append(want, fmt.Sprint("workers=", w))
	}
	for _, v := range diffVariants {
		want = append(want, "variant="+v)
	}
	for _, v := range diffFaults {
		want = append(want, "faults="+v)
	}
	for _, v := range diffShapes {
		want = append(want, "shape="+v)
	}
	for _, s := range semiring.All() {
		want = append(want, "semiring="+s.Name())
	}
	for _, k := range want {
		if !y.seen[k] {
			f.Errorf("corpus never ran %s", k)
		}
	}
	if y.retries == 0 || y.encoded == 0 || y.grace == 0 || y.merges == 0 || y.armed == 0 || y.wirePlans == 0 {
		f.Errorf("corpus coverage: %d retries, %d pages encoded, %d Grace partitionings, %d external merges, %d armed commit faults, "+
			"%d wire answers planned as in process; each must be > 0",
			y.retries, y.encoded, y.grace, y.merges, y.armed, y.wirePlans)
	}
}
