package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mpf/internal/gen"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds, err := gen.SupplyChain(gen.SupplyChainConfig{Scale: 0.005, CtdealsDensity: 0.7, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Relations {
		if err := db.CreateTable(r); err != nil {
			t.Fatal(err)
		}
	}
	// Declare a key on one table so Key persistence is exercised.
	if err := db.DeclareKey("warehouses", []string{"wid"}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("invest", ds.ViewTables); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(&QuerySpec{View: "invest", GroupVars: []string{"wid"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Load(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// Tables, data and views all restored.
	got, err := db2.Query(&QuerySpec{View: "invest", GroupVars: []string{"wid"}})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(got.Relation, want.Relation, 0, 1e-9) {
		t.Fatal("query answer differs after snapshot round trip")
	}
	// Key restored.
	st2, err := db2.Catalog().Table("warehouses")
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Key) != 1 || st2.Key[0] != "wid" {
		t.Fatalf("key not restored: %v", st2.Key)
	}
	// Exact relation equality for every table.
	for _, r := range ds.Relations {
		got, err := db2.Relation(r.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(got, r, 0, 0) {
			t.Fatalf("table %s differs after round trip", r.Name())
		}
	}
}

func TestSnapshotPreservesSemiring(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Semiring: semiring.MinProduct})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := relation.FromRows("t", []relation.Attr{{Name: "a", Domain: 2}},
		[][]int32{{0}, {1}}, []float64{3, 5})
	db.CreateTable(r)
	db.CreateView("v", []string{"t"})
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db.Close()
	// Load with a conflicting config: the snapshot's semiring wins.
	db2, err := Load(dir, Config{Semiring: semiring.SumProduct})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Semiring().Name() != "min-product" {
		t.Fatalf("semiring = %s, want min-product", db2.Semiring().Name())
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir(), Config{}); err == nil {
		t.Fatal("missing manifest should error")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644)
	if _, err := Load(dir, Config{}); err == nil {
		t.Fatal("corrupt manifest should error")
	}
	// Unsupported version.
	man, _ := json.Marshal(map[string]any{"version": 9, "semiring": "sum-product"})
	os.WriteFile(filepath.Join(dir, manifestName), man, 0o644)
	if _, err := Load(dir, Config{}); err == nil {
		t.Fatal("unsupported version should error")
	}
	// Manifest referencing a missing heap file.
	man2 := snapshotManifest{Version: 1, Semiring: "sum-product", Tables: []manifestTable{{
		Name: "t", Attrs: []manifestAttr{{"a", 2}}, Card: 1, File: "missing.heap",
	}}}
	data, _ := json.Marshal(&man2)
	os.WriteFile(filepath.Join(dir, manifestName), data, 0o644)
	if _, err := Load(dir, Config{}); err == nil {
		t.Fatal("missing heap file should error")
	}
}

func TestSaveOverwritesPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Config{})
	defer db.Close()
	r, _ := relation.FromRows("t", []relation.Attr{{Name: "a", Domain: 2}},
		[][]int32{{0}}, []float64{1})
	db.CreateTable(r)
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatalf("second save should overwrite cleanly: %v", err)
	}
	db2, err := Load(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, err := db2.Relation("t")
	if err != nil || got.Len() != 1 {
		t.Fatalf("reload after overwrite failed: %v", err)
	}
}

// TestLoadMalformedPage loads a snapshot whose first heap page passes its
// checksum but claims 50 tuples more than an arity-2 page holds: Load
// must fail with ErrCorrupt naming the page — no panic — and the read
// must leave no frame of the snapshot pool pinned.
func TestLoadMalformedPage(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	attrs := []relation.Attr{{Name: "a", Domain: 40}, {Name: "b", Domain: 40}}
	r, err := relation.Complete("r", attrs, func(v []int32) float64 { return float64(v[0] + v[1]) })
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(r); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db.Close()

	path := filepath.Join(dir, "r.heap")
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, storage.PageSize)
	if _, err := f.ReadAt(page, 0); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(page, uint16(storage.TuplesPerPage(len(attrs))+50))
	storage.SealPage(page)
	if _, err := f.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = Load(dir, Config{})
	var cpe *storage.CorruptPageError
	if !errors.Is(err, ErrCorrupt) || !errors.As(err, &cpe) || cpe.Page != 0 {
		t.Fatalf("Load of an over-count page = %v, want ErrCorrupt on page 0", err)
	}
	pool := snapshotPool()
	if _, err := readHeapFile(pool, path, "r", attrs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("readHeapFile = %v, want ErrCorrupt", err)
	}
	if n := pool.Pinned(); n != 0 {
		t.Fatalf("%d snapshot-pool frames pinned after the failed read", n)
	}
}
