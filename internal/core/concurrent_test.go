package core

import (
	"sync"
	"testing"

	"mpf/internal/gen"
	"mpf/internal/opt"
	"mpf/internal/relation"
)

// TestConcurrentQueries runs read-only queries from many goroutines
// against one database: the buffer pool and catalog are mutex-guarded,
// plan building is pure, and every result must match the single-threaded
// answer. (Writes — CreateTable/Insert/Delete/BuildCache — are not
// concurrent-safe and are documented as such.)
func TestConcurrentQueries(t *testing.T) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.005, CtdealsDensity: 0.7, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{PoolFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, r := range ds.Relations {
		if err := db.CreateTable(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateView("invest", ds.ViewTables); err != nil {
		t.Fatal(err)
	}

	vars := []string{"wid", "cid", "tid", "pid", "sid"}
	want := make(map[string]*relation.Relation, len(vars))
	for _, v := range vars {
		res, err := db.Query(&QuerySpec{View: "invest", GroupVars: []string{v}})
		if err != nil {
			t.Fatal(err)
		}
		want[v] = res.Relation
	}

	const workers = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := vars[(w+i)%len(vars)]
				o := opt.All(nil)[(w+i)%3] // vary among cs / cs+linear / cs+nonlinear
				res, err := db.Query(&QuerySpec{View: "invest", GroupVars: []string{v}, Optimizer: o})
				if err != nil {
					errs <- err
					return
				}
				if !relation.Equal(res.Relation, want[v], 0, 1e-6) {
					errs <- errMismatch(v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch string

func (e errMismatch) Error() string { return "concurrent query mismatch on " + string(e) }

// TestConcurrentGroupBysShareSmallPool runs three hash group-bys at
// once, five rounds each, with two workers per query on a 6-frame pool
// over a table of several 32-page leaves: every query must return the
// serial answer and leave no frame pinned. Frames are not reserved per
// query, so at four workers the leaf scans of three queries pin this
// pool out (ROADMAP item 5(i)); two stay inside it.
func TestConcurrentGroupBysShareSmallPool(t *testing.T) {
	db, err := Open(Config{PoolFrames: 6, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r, err := relation.Complete("r", []relation.Attr{{Name: "a", Domain: 30}, {Name: "b", Domain: 1500}},
		func(v []int32) float64 { return float64(v[0]*7+v[1]%5) + 1 })
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(r); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v", []string{"r"}); err != nil {
		t.Fatal(err)
	}
	vars := []string{"a", "b", "a"}
	want := make(map[string]*relation.Relation)
	for _, v := range vars[:2] {
		res, err := db.Query(&QuerySpec{View: "v", GroupVars: []string{v}})
		if err != nil {
			t.Fatal(err)
		}
		want[v] = res.Relation
	}
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, len(vars)*rounds)
	for _, v := range vars {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := db.Query(&QuerySpec{View: "v", GroupVars: []string{v}})
				if err != nil {
					errs <- err
					continue
				}
				if !relation.Equal(res.Relation, want[v], 0, 0) {
					errs <- errMismatch(v)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	failed := 0
	var first error
	for err := range errs {
		if first == nil {
			first = err
		}
		failed++
	}
	if failed > 0 {
		t.Fatalf("%d of %d concurrent group-bys failed, first: %v", failed, len(vars)*rounds, first)
	}
	if n := db.Pool().Pinned(); n != 0 {
		t.Fatalf("%d frames pinned after the queries", n)
	}
}
