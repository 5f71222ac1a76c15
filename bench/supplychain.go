package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"mpf"
	"mpf/internal/gen"
)

// The three decision-support workloads share the paper's supply-chain
// schema (the chain sid–pid–wid–cid–tid) at three sizes relative to the
// 256-frame pool, and differ in which caches are on and who calls.

// dsAdhoc: ad-hoc aggregates over data larger than the buffer pool with
// both caches off, so the executor and storage do the work and the
// planner and the server none.
var dsAdhoc = &workload{
	name: "ds_adhoc",
	config: func() (mpf.Config, error) {
		return mpf.Config{PoolFrames: poolFrames, Columnar: true, FuseJoinGroupBy: true, Parallelism: 2}, nil
	},
	// location is 400 k rows = 784 pages, 3 × the pool: every scan of it
	// reads from the disk.
	generate: supplyChain(0.4),
	script:   supplyChainScript(adhocForms, rotatingReaders, false),
	readers:  1,
}

// serveHot: a small Zipf-skewed dashboard served over HTTP with plan and
// result caches hitting, so the wire, JSON and the cache-hit path do the
// work and the executor none.
var serveHot = &workload{
	name: "serve_hot",
	config: func() (mpf.Config, error) {
		return mpf.Config{PoolFrames: poolFrames, PlanCacheEntries: 256, ResultCacheBytes: 64 << 20}, nil
	},
	generate: supplyChain(0.05),
	script:   supplyChainScript(dashboardForms, zipfReaders, false),
	wire:     true,
	readers:  2,
}

// mixedRW: dashboard reads beside a writer that deletes and re-inserts
// one row: commits, cache invalidation and recomputation, which no
// read-only workload runs.
var mixedRW = &workload{
	name: "mixed_rw",
	config: func() (mpf.Config, error) {
		return mpf.Config{PoolFrames: poolFrames, PlanCacheEntries: 256, ResultCacheBytes: 64 << 20}, nil
	},
	generate: supplyChain(0.1),
	script:   supplyChainScript(dashboardForms, zipfReaders, true),
	readers:  1,
	think:    2 * time.Millisecond,
	// A commit to location takes about 15 ms and empties both caches. At
	// this pause about three reads in ten recompute: enough that p95 is a
	// recomputation, few enough that p50 is firmly a cache hit. (ISSUE 12
	// asked for 20 ms; there two reads in three recompute and the median
	// read flips between a hit at 0.06 ms and a recomputation at 1 ms or
	// more from seed to seed.)
	writeThink: 100 * time.Millisecond,
}

func supplyChain(scale float64) func(int64, float64) (*dataset, error) {
	return func(seed int64, shrink float64) (*dataset, error) {
		ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: scale * shrink, Seed: seed})
		if err != nil {
			return nil, err
		}
		// location and ctdeals are the biggest table and a small one, and
		// the two mixed_rw's writer uses.
		return &dataset{view: ds.Name, tables: ds.ViewTables, rels: ds.Relations, big: "location", small: "ctdeals"}, nil
	}
}

// form is one §3.1 query shape before its oracle exists: group
// variables, an equality predicate, and whether a having clause is to be
// fitted to the answer.
type form struct {
	group  []string
	where  mpf.Predicate
	having bool
}

func (f form) id() string {
	var b strings.Builder
	b.WriteString(strings.Join(f.group, ","))
	keys := make([]string, 0, len(f.where))
	for k := range f.where {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%d", k, f.where[k])
	}
	if f.having {
		b.WriteString("|having")
	}
	return b.String()
}

// constants draws predicate constants from rows that exist, so that a
// restricted query selects something.
type constants struct {
	rng *rand.Rand
	ds  *dataset
}

// home names a table that carries each variable.
var home = map[string]string{"pid": "contracts", "wid": "location", "sid": "contracts", "cid": "ctdeals", "tid": "ctdeals"}

func (c constants) of(v string) int32 {
	r := c.ds.relation(home[v])
	return r.Value(c.rng.Intn(r.Len()), r.ColIndex(v))
}

// two draws two different constants for v.
func (c constants) two(v string) (int32, int32) {
	first := c.of(v)
	second := first
	for try := 0; second == first && try < 64; try++ {
		second = c.of(v)
	}
	return first, second
}

// The variable pairs asked for are neighbours on the chain, or wid–tid:
// pairs further apart (sid with tid) make answers of the size of the
// cross product and take seconds.
var (
	chain = []string{"pid", "sid", "wid", "cid", "tid"}
	pairs = [][]string{{"pid", "sid"}, {"wid", "cid"}, {"cid", "tid"}, {"wid", "tid"}}
)

// adhocForms is ds_adhoc's pool of 48 distinct forms: basic group-bys on
// every variable and on pairs, constrained-range (having), restricted-
// answer (predicate on the group variable) and constrained-domain
// (predicate on another variable).
//
// Two thirds of the pool (the first 32) join all of location whatever
// the seed: the predicate, if any, is on tid, which restricts only the
// two small tables at the far end of the chain. The last 16 put their
// predicate where it cuts location down and cost a tenth as much. The
// split is not even on purpose: with half the ops in either group the
// median op sits in the gap between the groups and jumps from one to
// the other with the seed.
func adhocForms(rng *rand.Rand, ds *dataset) []form {
	c := constants{rng, ds}
	one := func(v string) []string { return []string{v} }
	var fs []form
	for _, having := range []bool{false, true} {
		for _, v := range chain {
			fs = append(fs, form{group: one(v), having: having})
		}
		for _, p := range pairs {
			fs = append(fs, form{group: p, having: having})
		}
	}
	t1, t2 := c.two("tid")
	for _, tid := range []int32{t1, t2} {
		for _, g := range [][]string{one("pid"), one("sid"), one("wid"), one("cid"), one("tid"), pairs[0], pairs[1]} {
			fs = append(fs, form{group: g, where: mpf.Predicate{"tid": tid}})
		}
	}
	for _, v := range []string{"pid", "sid", "wid", "cid"} {
		first, second := c.two(v)
		fs = append(fs,
			form{group: one(v), where: mpf.Predicate{v: first}},
			form{group: one(v), where: mpf.Predicate{v: second}})
	}
	for _, gu := range [][2]string{{"pid", "wid"}, {"pid", "cid"}, {"sid", "wid"}, {"sid", "cid"}, {"wid", "cid"}, {"cid", "sid"}, {"tid", "sid"}, {"tid", "wid"}} {
		fs = append(fs, form{group: one(gu[0]), where: mpf.Predicate{gu[1]: c.of(gu[1])}})
	}
	return fs
}

// dashboardForms is the 12-query dashboard of serve_hot and mixed_rw, in
// Zipf rank order; answers run from a few rows to a few thousand.
func dashboardForms(rng *rand.Rand, ds *dataset) []form {
	c := constants{rng, ds}
	return []form{
		{group: []string{"wid"}},
		{group: []string{"cid"}},
		{group: []string{"tid"}},
		{group: []string{"sid"}},
		{group: []string{"cid", "tid"}},
		{group: []string{"wid"}, where: mpf.Predicate{"tid": c.of("tid")}},
		{group: []string{"wid", "cid"}},
		{group: []string{"cid"}, where: mpf.Predicate{"tid": c.of("tid")}},
		{group: []string{"pid"}},
		{group: []string{"sid"}, having: true},
		{group: []string{"wid"}, where: mpf.Predicate{"cid": c.of("cid")}},
		{group: []string{"tid"}, where: mpf.Predicate{"wid": c.of("wid")}},
	}
}

// supplyChainScript builds the pool from forms and computes every
// reference answer on db, outside all timed intervals. With a writer it
// also computes the answers for the two states in which the writer's row
// is absent, so that reads overlapping a write are checked as well.
func supplyChainScript(forms func(*rand.Rand, *dataset) []form, readers func(int64, []*queryCase) readerSource, writer bool) func(int64, *dataset, *mpf.Database) (*script, error) {
	return func(seed int64, ds *dataset, db *mpf.Database) (*script, error) {
		rng := rand.New(rand.NewSource(seed))
		fs := forms(rng, ds)
		sc := &script{}
		if writer {
			sc.writes = newWriteScript(seed, rng, ds)
		}
		states := 1
		if writer {
			states += len(sc.writes.rows)
		}
		// refs[state][i] answers form i in that state. Forms that differ
		// only in having share one evaluation.
		refs := make([][]*reference, states)
		thresholds := make([]float64, len(fs))
		for state := 0; state < states; state++ {
			if state > 0 {
				if err := sc.writes.apply(db, state-1, false); err != nil {
					return nil, err
				}
			}
			memo := make(map[string]*mpf.Relation)
			refs[state] = make([]*reference, len(fs))
			for i, f := range fs {
				spec := &mpf.QuerySpec{View: ds.view, GroupVars: f.group, Where: f.where}
				bare := form{group: f.group, where: f.where}.id()
				rel, ok := memo[bare]
				if !ok {
					var err error
					if rel, err = memoryAnswer(db, spec); err != nil {
						return nil, err
					}
					memo[bare] = rel
				}
				if f.having {
					if state == 0 {
						thresholds[i] = splitMeasure(rel)
					}
					rel = above(rel, thresholds[i])
				}
				ref, err := newReference(rel)
				if err != nil {
					return nil, err
				}
				refs[state][i] = ref
			}
			if state > 0 {
				if err := sc.writes.apply(db, state-1, true); err != nil {
					return nil, err
				}
			}
		}
		for i, f := range fs {
			i := i
			spec := &mpf.QuerySpec{View: ds.view, GroupVars: f.group, Where: f.where}
			if f.having {
				spec.Having = &mpf.Having{Op: mpf.HavingGT, Value: thresholds[i]}
			}
			sc.pool = append(sc.pool, &queryCase{
				id:   f.id(),
				spec: spec,
				check: func(got *mpf.Relation, state int) error {
					return refs[state][i].compare(got)
				},
			})
		}
		sc.readers = readers(seed, sc.pool)
		return sc, nil
	}
}

// splitMeasure picks a having threshold that keeps about half of rel's
// rows and lies in a gap between two measures far wider than relTol, so
// that engine and oracle agree on which rows pass.
func splitMeasure(rel *mpf.Relation) float64 {
	ms := make([]float64, rel.Len())
	for i := range ms {
		ms[i] = rel.Measure(i)
	}
	sort.Float64s(ms)
	for i := len(ms) / 2; i+1 < len(ms); i++ {
		if ms[i+1]-ms[i] > 1e-6*ms[i+1] {
			return (ms[i] + ms[i+1]) / 2
		}
	}
	if len(ms) == 0 {
		return 0
	}
	return ms[len(ms)-1] * 2
}

// above is the oracle's own having filter: rows of rel whose measure
// exceeds thr.
func above(rel *mpf.Relation, thr float64) *mpf.Relation {
	out, err := mpf.NewRelation(rel.Name(), rel.Attrs())
	if err != nil {
		panic(err)
	}
	for i := 0; i < rel.Len(); i++ {
		if m := rel.Measure(i); m > thr {
			out.MustAppend(append([]int32(nil), rel.Row(i)...), m)
		}
	}
	return out
}

// rotatingReaders walks the pool in order, forever: with caches off,
// order carries no reuse, and whole cycles keep the mix the same on
// every seed.
func rotatingReaders(_ int64, pool []*queryCase) readerSource {
	return func(int) func() *queryCase {
		i := -1
		return func() *queryCase {
			i++
			return pool[i%len(pool)]
		}
	}
}

// zipfReaders draws pool ranks from Zipf(1.1), each client from its own
// stream of the seed.
func zipfReaders(seed int64, pool []*queryCase) readerSource {
	return func(client int) func() *queryCase {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(client) + 1))
		z := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
		return func() *queryCase { return pool[z.Uint64()] }
	}
}

// writeScript is mixed_rw's writer: it alternates Delete and Insert of
// one seeded row, on location in four pairs of five and on ctdeals in the
// fifth, so every table is back to its initial contents after each pair
// and the catalog state after i commits is a function of i alone. That
// is what lets a reader's Result.Snapshot be mapped to the table
// contents it saw.
type writeScript struct {
	seed     uint64
	tables   []string
	rows     [][]int32
	measures []float64
}

func newWriteScript(seed int64, rng *rand.Rand, ds *dataset) *writeScript {
	ws := &writeScript{seed: uint64(seed), tables: []string{"location", "ctdeals"}}
	for _, t := range ws.tables {
		r := ds.relation(t)
		i := rng.Intn(r.Len())
		ws.rows = append(ws.rows, append([]int32(nil), r.Row(i)...))
		ws.measures = append(ws.measures, r.Measure(i))
	}
	return ws
}

// tableOf returns which table write op i touches (ops 2k and 2k+1 are
// the delete and the insert of pair k).
func (ws *writeScript) tableOf(i int64) int {
	x := ws.seed + uint64(i/2)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	if x%5 == 0 {
		return 1
	}
	return 0
}

// stateAfter returns the table state once n write ops have committed: 0
// for the base contents, t+1 while table t's row is deleted.
func (ws *writeScript) stateAfter(n int64) int {
	if n < 0 || n%2 == 0 {
		return 0
	}
	return ws.tableOf(n-1) + 1
}

// apply deletes the script's row from table t, or inserts it back.
func (ws *writeScript) apply(db *mpf.Database, t int, insert bool) error {
	if insert {
		return db.Insert(ws.tables[t], ws.rows[t], ws.measures[t])
	}
	existed, err := db.Delete(ws.tables[t], ws.rows[t])
	if err == nil && !existed {
		err = fmt.Errorf("delete from %s: row %v was not there", ws.tables[t], ws.rows[t])
	}
	return err
}
