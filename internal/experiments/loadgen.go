package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"mpf"
	"mpf/internal/gen"
	"mpf/internal/metrics"
	"mpf/internal/server"
)

// LoadGen exercises the serving layer under concurrent mixed
// read/write load over real HTTP: hundreds of wire sessions fire
// queries against the supply-chain view while writers grow a separate
// ledger table, with admission control tight enough to force typed
// rejections. Correctness bar: every served answer is byte-identical to
// the serially precomputed answer for its query, the final ledger state
// is byte-identical to a serial replay of the same inserts on a fresh
// database, and every rejection is a typed 429/503 envelope. The table
// reports throughput, rejection mix, and client-observed p50/p99.
func LoadGen(cfg Config) (*Table, error) {
	sessions := 240
	if cfg.Quick {
		sessions = 40
	}
	writers := sessions / 3
	readers := sessions - writers
	const reqPerSession = 4

	// Serving database: supply-chain view plus an initially-empty ledger
	// for the writers. The ledger is outside every view, so reader
	// answers are independent of concurrent writes.
	db, ds, err := loadgenDB(cfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	// Precompute expected answers serially, before any traffic.
	specs := []*mpf.QuerySpec{
		{View: ds.Name, GroupVars: []string{"wid"}},
		{View: ds.Name, GroupVars: []string{"tid"}},
		{View: ds.Name, GroupVars: []string{"wid", "tid"}},
	}
	expected := make([]*mpf.Relation, len(specs))
	for i, q := range specs {
		res, err := db.Query(q)
		if err != nil {
			return nil, err
		}
		res.Relation.Sort()
		expected[i] = res.Relation
	}

	srv := server.New(db, server.Config{Admission: server.AdmissionConfig{
		RatePerSec: 300, Burst: 32, QueueDepth: 48, QueueWait: 100 * time.Millisecond,
	}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = sessions

	var (
		okReqs, retries429, retries503, wrong, untyped atomic.Int64
		lat                                            metrics.Histogram
		wg                                             sync.WaitGroup
		errOnce                                        sync.Once
		firstErr                                       error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }

	// call posts one request, retrying typed admission rejections with
	// backoff; anything else non-OK is a failure. The successful
	// attempt's latency lands in h, so phases keep separate histograms.
	call := func(h *metrics.Histogram, path string, body any) []byte {
		data, _ := json.Marshal(body)
		for attempt := 0; ; attempt++ {
			start := time.Now()
			resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(data))
			if err != nil {
				fail(err)
				return nil
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				fail(err)
				return nil
			}
			switch resp.StatusCode {
			case http.StatusOK:
				h.Observe(time.Since(start))
				okReqs.Add(1)
				return out
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				var env server.ErrorEnvelope
				if json.Unmarshal(out, &env) != nil ||
					(env.Code != server.CodeRateLimited && env.Code != server.CodeOverloaded) {
					untyped.Add(1)
					fail(fmt.Errorf("untyped rejection %d: %s", resp.StatusCode, out))
					return nil
				}
				if env.Code == server.CodeRateLimited {
					retries429.Add(1)
				} else {
					retries503.Add(1)
				}
				if attempt > 200 {
					fail(fmt.Errorf("request rejected %d times", attempt))
					return nil
				}
				time.Sleep(time.Duration(2+attempt) * time.Millisecond)
			default:
				untyped.Add(1)
				fail(fmt.Errorf("unexpected status %d: %s", resp.StatusCode, out))
				return nil
			}
		}
	}

	// Readers: each opens a wire session, runs queries, and verifies
	// byte-identical answers against the serial precompute.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var sessResp server.SessionResponse
			if out := call(&lat, "/v1/sessions", server.SessionRequest{TimeoutMS: 60_000}); out == nil {
				return
			} else if err := json.Unmarshal(out, &sessResp); err != nil {
				fail(err)
				return
			}
			for i := 0; i < reqPerSession; i++ {
				qi := (r + i) % len(specs)
				out := call(&lat, "/v1/query", server.QueryRequest{Session: sessResp.Session, Query: specs[qi]})
				if out == nil {
					return
				}
				var qr server.QueryResponse
				if err := json.Unmarshal(out, &qr); err != nil {
					fail(err)
					return
				}
				got := qr.Result.Relation
				got.Sort()
				if !sameRelation(got, expected[qi]) {
					wrong.Add(1)
					fail(fmt.Errorf("reader %d query %d: answer differs from serial replay", r, qi))
					return
				}
			}
		}(r)
	}

	// Writers: unique (acct, seq) rows, so the final ledger state is
	// interleaving-independent and comparable to a serial replay.
	const rowsPerWriter = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < rowsPerWriter; j++ {
				out := call(&lat, "/v1/insert", server.InsertRequest{
					Table:   "ledger",
					Vals:    []int32{int32(w), int32(j)},
					Measure: float64(w*rowsPerWriter + j),
				})
				if out == nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// --- Reader-overlap phase: long analytical queries over the ledger
	// view while a writer keeps ingesting. Every reader maps its answer
	// back to its pinned catalog version (Result.Snapshot) and must match
	// the serial replay at exactly that prefix — an answer mixing table
	// versions would match no prefix (torn catalog). ---
	overlapInserts, overlapReaders := 30, 8
	if cfg.Quick {
		overlapInserts, overlapReaders = 10, 4
	}
	if err := db.CreateView("book", []string{"ledger"}); err != nil {
		return nil, err
	}
	overlapRow := func(i int) ([]int32, float64) {
		// Accounts disjoint from the main-phase writers, so overlap rows
		// never collide with theirs.
		return []int32{int32(256 + i%16), int32(i)}, float64(i)*1.25 + 0.5
	}
	bookSpec := &mpf.QuerySpec{View: "book", GroupVars: []string{"acct"}}

	// Serial replay prefixes on a shadow database: the main-phase ledger
	// in (writer, seq) order — per-account row order matches the serving
	// database, and group-by sums only mix measures within an account —
	// then one expected answer per overlap commit.
	shadowLedger, err := emptyLedger()
	if err != nil {
		return nil, err
	}
	for w := 0; w < writers; w++ {
		for j := 0; j < rowsPerWriter; j++ {
			shadowLedger.MustAppend([]int32{int32(w), int32(j)}, float64(w*rowsPerWriter+j))
		}
	}
	shadow, err := mpf.Open(mpf.Config{PoolFrames: cfg.frames(), Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	defer shadow.Close()
	if err := shadow.CreateTable(shadowLedger); err != nil {
		return nil, err
	}
	if err := shadow.CreateView("book", []string{"ledger"}); err != nil {
		return nil, err
	}
	expectedOv := make([]*mpf.Relation, overlapInserts+1)
	for p := 0; p <= overlapInserts; p++ {
		if p > 0 {
			vals, m := overlapRow(p - 1)
			if err := shadow.Insert("ledger", vals, m); err != nil {
				return nil, err
			}
		}
		res, err := shadow.Query(bookSpec)
		if err != nil {
			return nil, err
		}
		res.Relation.Sort()
		expectedOv[p] = res.Relation
	}

	// Solo baseline for the reader-p99 comparison, then the base
	// sequence s0: the overlap writer is the only committer from here, so
	// a reader pinned after its p-th commit reports snapshot s0+p.
	var baseLat metrics.Histogram
	for i := 0; i < 12; i++ {
		if out := call(&baseLat, "/v1/query", server.QueryRequest{Query: bookSpec}); out == nil {
			return nil, firstErr
		}
	}
	probe, err := db.Query(bookSpec)
	if err != nil {
		return nil, err
	}
	s0 := probe.Snapshot

	var (
		overlapLat     metrics.Histogram
		overlapQueries atomic.Int64
		torn           atomic.Int64
		ovDone         = make(chan struct{})
		ovWG           sync.WaitGroup
	)
	for r := 0; r < overlapReaders; r++ {
		ovWG.Add(1)
		go func() {
			defer ovWG.Done()
			for {
				select {
				case <-ovDone:
					return
				default:
				}
				out := call(&overlapLat, "/v1/query", server.QueryRequest{Query: bookSpec})
				if out == nil {
					return
				}
				var qr server.QueryResponse
				if err := json.Unmarshal(out, &qr); err != nil {
					fail(err)
					return
				}
				prefix := int(qr.Result.Snapshot - s0)
				if prefix < 0 || prefix > overlapInserts {
					torn.Add(1)
					fail(fmt.Errorf("overlap reader pinned snapshot %d outside [%d,%d]: torn catalog",
						qr.Result.Snapshot, s0, s0+int64(overlapInserts)))
					return
				}
				got := qr.Result.Relation
				got.Sort()
				if !sameRelation(got, expectedOv[prefix]) {
					torn.Add(1)
					fail(fmt.Errorf("overlap answer at snapshot %d differs from serial replay at prefix %d",
						qr.Result.Snapshot, prefix))
					return
				}
				overlapQueries.Add(1)
			}
		}()
	}
	for i := 0; i < overlapInserts; i++ {
		vals, m := overlapRow(i)
		if out := call(&lat, "/v1/insert", server.InsertRequest{Table: "ledger", Vals: vals, Measure: m}); out == nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(ovDone)
	ovWG.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	finalOv, err := db.Query(bookSpec)
	if err != nil {
		return nil, err
	}
	finalOv.Relation.Sort()
	if !sameRelation(finalOv.Relation, expectedOv[overlapInserts]) {
		return nil, fmt.Errorf("post-overlap answer differs from full serial replay")
	}

	// Drain: the server refuses new work typed and goes idle.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	resp, err := client.Post(ts.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"query":{"view":"`+ds.Name+`","group_vars":["wid"]}}`)))
	if err != nil {
		return nil, err
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var env server.ErrorEnvelope
	if resp.StatusCode != http.StatusServiceUnavailable ||
		json.Unmarshal(out, &env) != nil || env.Code != server.CodeDraining {
		return nil, fmt.Errorf("post-drain request not typed draining: %d %s", resp.StatusCode, out)
	}
	if n := db.Pool().Pinned(); n != 0 {
		return nil, fmt.Errorf("%d buffer-pool frames left pinned after drain", n)
	}

	// Serial replay of the full writer workload (main phase plus overlap
	// phase) on a fresh ledger.
	replay, err := emptyLedger()
	if err != nil {
		return nil, err
	}
	for w := 0; w < writers; w++ {
		for j := 0; j < rowsPerWriter; j++ {
			replay.MustAppend([]int32{int32(w), int32(j)}, float64(w*rowsPerWriter+j))
		}
	}
	for i := 0; i < overlapInserts; i++ {
		vals, m := overlapRow(i)
		replay.MustAppend(vals, m)
	}
	final, err := db.Relation("ledger")
	if err != nil {
		return nil, err
	}
	final = final.Clone()
	final.Sort()
	replay.Sort()
	if !sameRelation(final, replay) {
		return nil, fmt.Errorf("ledger diverged from serial replay: %d rows vs %d", final.Len(), replay.Len())
	}

	st := srv.Stats()
	lstats := lat.Stats()
	baseStats := baseLat.Stats()
	ovStats := overlapLat.Stats()
	return &Table{
		ID:     "loadgen",
		Title:  fmt.Sprintf("wire serving under %d concurrent sessions (mixed read/write)", sessions),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"sessions", fmt.Sprintf("%d (%d readers, %d writers)", sessions, readers, writers)},
			{"requests ok", fmt.Sprintf("%d", okReqs.Load())},
			{"admission retries", fmt.Sprintf("%d rate-limited, %d overloaded", retries429.Load(), retries503.Load())},
			{"untyped rejections", fmt.Sprintf("%d", untyped.Load())},
			{"wrong answers", fmt.Sprintf("%d", wrong.Load())},
			{"ledger rows", fmt.Sprintf("%d (serial replay matches)", final.Len())},
			{"client latency", fmt.Sprintf("p50 %v  p99 %v  max %v", lstats.P50, lstats.P99, lstats.Max)},
			{"overlap readers", fmt.Sprintf("%d queries over %d readers during %d-commit ingest, %d torn-catalog reads",
				overlapQueries.Load(), overlapReaders, overlapInserts, torn.Load())},
			{"overlap reader p99", fmt.Sprintf("solo %v -> overlapped %v (reads do not block behind writes)",
				baseStats.P99, ovStats.P99)},
			{"server admitted", fmt.Sprintf("%d (rejected %d rate / %d queue / %d drain)",
				st.Admitted, st.RejectedRate, st.RejectedQueue, st.RejectedDrain)},
		},
		Notes: "acceptance: zero wrong answers and zero untyped rejections under sustained concurrent sessions; " +
			"admission pressure surfaces only as typed 429/503; drain leaves no pinned frames; " +
			"overlap readers pin consistent snapshots (answers match serial replay at their version, zero torn reads)",
	}, nil
}

// loadgenDB opens the serving database: the scaled supply chain plus an
// empty writable ledger table.
func loadgenDB(cfg Config) (*mpf.Database, *gen.Dataset, error) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: cfg.scale(), Seed: cfg.Seed + 1})
	if err != nil {
		return nil, nil, err
	}
	db, err := mpf.Open(mpf.Config{PoolFrames: cfg.frames(), Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, nil, err
	}
	for _, r := range ds.Relations {
		if err := db.CreateTable(r); err != nil {
			db.Close()
			return nil, nil, err
		}
	}
	if err := db.CreateView(ds.Name, ds.ViewTables); err != nil {
		db.Close()
		return nil, nil, err
	}
	ledger, err := emptyLedger()
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	if err := db.CreateTable(ledger); err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, ds, nil
}

// emptyLedger builds the writers' table: unique (acct, seq) rows.
func emptyLedger() (*mpf.Relation, error) {
	return mpf.NewRelation("ledger", []mpf.Attr{
		{Name: "acct", Domain: 512},
		{Name: "seq", Domain: 512},
	})
}

// sameRelation reports byte-identical contents of two sorted relations:
// same rows in the same order with bit-equal measures.
func sameRelation(a, b *mpf.Relation) bool {
	if a.Len() != b.Len() || a.Arity() != b.Arity() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
		if a.Measure(i) != b.Measure(i) {
			return false
		}
	}
	return true
}
