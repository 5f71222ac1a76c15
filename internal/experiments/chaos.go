package experiments

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"mpf/internal/core"
	"mpf/internal/gen"
	"mpf/internal/opt"
	"mpf/internal/relation"
	"mpf/internal/storage"
)

// chaosMode is one engine configuration the chaos matrix replays: the
// serial default and the full concurrent path (parallel workers,
// read-ahead, result cache). tol is the
// answer-comparison tolerance against the fault-free reference: serial
// execution is bit-deterministic, so any deviation at all is a failure;
// parallel partition pairs append join output in completion order, so
// injected latency reorders downstream float summation — answers then
// agree only up to associativity rounding, never beyond tol.
type chaosMode struct {
	name string
	cfg  core.Config
	tol  float64
}

// The pool is kept small so even the quick dataset spills: chaos only
// exercises the fault paths if queries perform real page reads.
func chaosModes() []chaosMode {
	return []chaosMode{
		{"serial", core.Config{PoolFrames: 32}, 0},
		{"par+batch+cache", core.Config{PoolFrames: 32, Parallelism: 4, ReadAhead: 8, ResultCacheBytes: 4 << 20}, 1e-6},
	}
}

// chaosFleet records every FaultDisk a factory produces so a run can
// heal them all mid-flight (SetPlan of an empty plan) and verify the
// engine recovers.
type chaosFleet struct {
	mu    sync.Mutex
	disks []*storage.FaultDisk
}

func (f *chaosFleet) factory(plan storage.FaultPlan) storage.DiskFactory {
	inner := storage.FaultDiskFactory(storage.MemDiskFactory(), plan)
	return func() (storage.Disk, error) {
		d, err := inner()
		if err != nil {
			return nil, err
		}
		fd := d.(*storage.FaultDisk)
		f.mu.Lock()
		f.disks = append(f.disks, fd)
		f.mu.Unlock()
		return fd, nil
	}
}

func (f *chaosFleet) heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range f.disks {
		d.SetPlan(storage.FaultPlan{})
	}
}

// sameResult reports matching answers: same cardinality and every row's
// measure within tol (0 = bit-identical; the serial requirement).
func sameResult(a, b *relation.Relation, tol float64) bool {
	return a != nil && b != nil && a.Len() == b.Len() && relation.Equal(a, b, math.Inf(1), tol)
}

// Chaos replays a query matrix (CS+ and VE plans, serial and
// parallel/read-ahead/cached sessions) under seeded fault injection.
// The fault-free pass records reference answers; the transient regime
// must reproduce every one of them byte-identically (the pool's retry
// machinery absorbs every injected fault); the permanent+corrupt regime
// may fail queries, but only with typed errors — never a wrong answer —
// and after healing every disk the engine must answer a final query
// correctly with zero pinned frames.
func Chaos(cfg Config) (*Table, error) {
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: cfg.scale(), CtdealsDensity: 0.5, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	queryVars := []string{"cid", "sid", "wid"}
	optimizers := []struct {
		name string
		o    opt.Optimizer
	}{
		{"cs+", opt.CSPlus{}},
		{"ve(deg)", opt.VE{Heuristic: opt.Degree}},
	}
	regimes := []struct {
		name string
		plan storage.FaultPlan
	}{
		{"fault-free", storage.FaultPlan{}},
		{"transient p=0.02", storage.FaultPlan{Seed: cfg.Seed, ReadErr: 0.02, WriteErr: 0.02, AllocErr: 0.02}},
		{"permanent+corrupt", storage.FaultPlan{Seed: cfg.Seed, PermReadErr: 0.01, Corrupt: 0.01, Torn: 0.005}},
	}

	t := &Table{
		ID:     "chaos",
		Title:  "fault injection over the optimizer/executor matrix",
		Header: []string{"regime", "mode", "queries", "ok", "identical", "io errs", "corrupt errs", "retries", "transient", "permanent", "checksum"},
		Notes:  "expected: transient regime answers every query identically (bit-exact serial, up to float associativity under parallelism) with retries > 0; permanent+corrupt regime fails only with typed errors (never a wrong answer), leaves zero pinned frames, and recovers after healing",
	}
	baseline := make(map[string]*relation.Relation)
	for _, reg := range regimes {
		for _, mode := range chaosModes() {
			fleet := &chaosFleet{}
			ccfg := mode.cfg
			if reg.plan != (storage.FaultPlan{}) {
				ccfg.DiskFactory = fleet.factory(reg.plan)
			}
			db, err := core.Open(ccfg)
			if err != nil {
				return nil, err
			}
			loadErr := func() error {
				for _, r := range ds.Relations {
					if err := db.CreateTable(r); err != nil {
						return err
					}
				}
				return db.CreateView(ds.Name, ds.ViewTables)
			}()
			if loadErr != nil {
				db.Close()
				return nil, fmt.Errorf("chaos: %s/%s load: %w", reg.name, mode.name, loadErr)
			}
			var queries, ok, identical, ioErrs, corruptErrs int64
			runOne := func(oname string, o opt.Optimizer, qv string) error {
				queries++
				res, qerr := db.Query(&core.QuerySpec{View: ds.Name, GroupVars: []string{qv}, Optimizer: o})
				if pinned := db.Pool().Pinned(); pinned != 0 {
					return fmt.Errorf("chaos: %s/%s %s/%s: %d frames left pinned", reg.name, mode.name, oname, qv, pinned)
				}
				// Reference answers are per optimizer as well as per query:
				// different plans sum in different orders, so answers agree
				// only up to float rounding across optimizers — but must be
				// bit-identical for the same plan across fault regimes.
				key := mode.name + "/" + oname + "/" + qv
				switch {
				case qerr == nil:
					ok++
					if reg.name == "fault-free" {
						if _, have := baseline[key]; !have {
							baseline[key] = res.Relation
						}
					}
					if sameResult(res.Relation, baseline[key], mode.tol) {
						identical++
					} else {
						return fmt.Errorf("chaos: %s/%s %s/%s: answer differs from the reference run", reg.name, mode.name, oname, qv)
					}
				case errors.Is(qerr, core.ErrCorrupt):
					corruptErrs++
				case errors.Is(qerr, core.ErrIO):
					ioErrs++
				default:
					return fmt.Errorf("chaos: %s/%s %s: untyped failure: %w", reg.name, mode.name, qv, qerr)
				}
				return nil
			}
			for _, o := range optimizers {
				for _, qv := range queryVars {
					// Cached sessions run each query twice so the replay also
					// covers result-cache hits under injection.
					passes := 1
					if ccfg.ResultCacheBytes > 0 {
						passes = 2
					}
					for pass := 0; pass < passes; pass++ {
						if err := runOne(o.name, o.o, qv); err != nil {
							db.Close()
							return nil, err
						}
					}
				}
			}
			if reg.name == "permanent+corrupt" {
				// Heal every disk and prove the engine recovered: the next
				// fault-free query must answer correctly.
				fleet.heal()
				if err := runOne(optimizers[0].name, optimizers[0].o, queryVars[0]); err != nil {
					db.Close()
					return nil, err
				}
			}
			st := db.Pool().Stats()
			if reg.name == "transient p=0.02" {
				if ok != queries {
					db.Close()
					return nil, fmt.Errorf("chaos: %s/%s: %d/%d queries failed under transient-only faults", reg.name, mode.name, queries-ok, queries)
				}
				if st.Retries == 0 {
					db.Close()
					return nil, fmt.Errorf("chaos: %s/%s: retry path never exercised", reg.name, mode.name)
				}
			}
			db.Close()
			t.Rows = append(t.Rows, []string{
				reg.name, mode.name, itoa(queries), itoa(ok), itoa(identical),
				itoa(ioErrs), itoa(corruptErrs),
				itoa(st.Retries), itoa(st.TransientFaults), itoa(st.PermanentFaults), itoa(st.ChecksumFailures),
			})
		}
	}
	return t, nil
}
