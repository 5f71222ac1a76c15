package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mpf/internal/exec"
	"mpf/internal/relation"
	"mpf/internal/semiring"
	"mpf/internal/storage"
)

// snapshotManifest is the on-disk catalog of a database snapshot.
type snapshotManifest struct {
	Version  int             `json:"version"`
	Semiring string          `json:"semiring"`
	Tables   []manifestTable `json:"tables"`
	Views    []manifestView  `json:"views"`
}

type manifestTable struct {
	Name  string         `json:"name"`
	Attrs []manifestAttr `json:"attrs"`
	Key   []string       `json:"key,omitempty"`
	Card  int64          `json:"card"`
	File  string         `json:"file"`
}

type manifestAttr struct {
	Name   string `json:"name"`
	Domain int    `json:"domain"`
}

type manifestView struct {
	Name   string   `json:"name"`
	Tables []string `json:"tables"`
}

const manifestName = "catalog.json"

// snapshotPool builds the buffer pool used for snapshot IO, with the
// query pool's transient-fault retry bound (transientRetries) instead of
// the pool default of none, so snapshot reads and writes survive the
// same transient faults regular query IO survives.
func snapshotPool() *storage.Pool {
	p := storage.NewPool(64)
	p.SetRetry(transientRetries, 0, 0)
	return p
}

// wrapSnapshotFile, when non-nil, wraps every file disk the snapshot
// Save and Load paths open: a test hook for injecting faults into them.
var wrapSnapshotFile func(storage.Disk) storage.Disk

// openSnapshotFile opens one snapshot heap file, through
// wrapSnapshotFile when set.
func openSnapshotFile(path string) (storage.Disk, error) {
	d, err := storage.OpenFileDisk(path)
	if err != nil {
		return nil, err
	}
	if wrapSnapshotFile != nil {
		return wrapSnapshotFile(d), nil
	}
	return d, nil
}

// Save writes a snapshot of the database — every base table in the heap
// page format plus a JSON manifest of schemas, keys, and views — into
// dir (created if necessary). The snapshot is taken against one pinned
// catalog version: a commit racing Save cannot mix table versions into
// the saved image, and each pinned heap is streamed to its file page by
// page. Workload caches are not persisted; rebuild them after Load.
func (db *Database) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	snap := db.AcquireSnapshot()
	defer snap.Release()
	man := snapshotManifest{Version: 1, Semiring: db.cfg.Semiring.Name()}
	pool := snapshotPool()
	for _, name := range snap.v.cat.Tables() {
		t, ok := snap.v.table(name)
		if !ok {
			return fmt.Errorf("core: save: %w %q", ErrUnknownTable, name)
		}
		st, err := snap.v.cat.Table(name)
		if err != nil {
			return err
		}
		file := name + ".heap"
		if err := saveHeap(pool, filepath.Join(dir, file), t.Heap); err != nil {
			return err
		}
		mt := manifestTable{Name: name, Card: st.Card, Key: st.Key, File: file}
		for _, a := range st.Attrs {
			mt.Attrs = append(mt.Attrs, manifestAttr{a.Name, a.Domain})
		}
		man.Tables = append(man.Tables, mt)
	}
	for _, v := range snap.v.cat.Views() {
		def, err := snap.v.cat.View(v)
		if err != nil {
			return err
		}
		man.Views = append(man.Views, manifestView{Name: def.Name, Tables: def.Tables})
	}
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestName), data, 0o644)
}

// saveHeap streams one pinned heap, page by page, into a fresh heap file
// at path and flushes it.
func saveHeap(pool *storage.Pool, path string, src *storage.Heap) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("core: save: %w", err)
	}
	disk, err := openSnapshotFile(path)
	if err != nil {
		return err
	}
	defer disk.Close() // error paths; the success path checks Close below
	heap, err := storage.NewHeap(pool, disk, src.Arity())
	if err != nil {
		return err
	}
	if err := copyRows(heap, src, nil, nil); err != nil {
		return err
	}
	if err := pool.FlushAll(); err != nil {
		return err
	}
	if err := heap.Drop(); err != nil {
		return err
	}
	return disk.Close()
}

// Load opens a snapshot previously written by Save, returning a fresh
// database with every table and view restored. The snapshot's semiring
// overrides cfg.Semiring. Snapshot reads retry transient faults like
// Save's writes.
func Load(dir string, cfg Config) (*Database, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	var man snapshotManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("core: load: bad manifest: %w", err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("core: load: unsupported snapshot version %d", man.Version)
	}
	sr, err := semiring.ByName(man.Semiring)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	cfg.Semiring = sr
	db, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	pool := snapshotPool()
	for _, mt := range man.Tables {
		attrs := make([]relation.Attr, len(mt.Attrs))
		for i, a := range mt.Attrs {
			attrs[i] = relation.Attr{Name: a.Name, Domain: a.Domain}
		}
		rel, err := readHeapFile(pool, filepath.Join(dir, mt.File), mt.Name, attrs)
		if err != nil {
			db.Close()
			return nil, err
		}
		if int64(rel.Len()) != mt.Card {
			db.Close()
			return nil, fmt.Errorf("core: load: table %s has %d tuples, manifest says %d",
				mt.Name, rel.Len(), mt.Card)
		}
		if err := db.CreateTable(rel); err != nil {
			db.Close()
			return nil, err
		}
		if len(mt.Key) > 0 {
			if err := db.DeclareKey(mt.Name, mt.Key); err != nil {
				db.Close()
				return nil, err
			}
		}
	}
	for _, v := range man.Views {
		if err := db.CreateView(v.Name, v.Tables); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// readHeapFile loads a snapshot heap file into an in-memory relation.
func readHeapFile(pool *storage.Pool, path, name string, attrs []relation.Attr) (*relation.Relation, error) {
	disk, err := openSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	defer disk.Close()
	heap, err := storage.OpenHeap(pool, disk, len(attrs))
	if err != nil {
		return nil, err
	}
	defer heap.Drop()
	return exec.ReadRelation(&exec.Table{Name: name, Attrs: attrs, Heap: heap})
}
