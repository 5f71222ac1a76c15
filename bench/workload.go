// Package bench is the repository's benchmark: four closed-loop
// workloads driven against the public API (mpf.Session in process,
// internal/server over loopback HTTP), every answer checked against an
// oracle that shares no code with the executor, end-to-end metrics from
// an untraced run and per-layer metrics from a separate traced run. See
// README.md in this directory for every metric and workload, and
// ../BENCHMARK.json for the bounds.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"mpf"
	"mpf/internal/bayes"
	"mpf/internal/server"
)

// poolFrames is every workload's buffer pool: 256 pages of 8 KiB.
const poolFrames = 256

// dataset is the generated input of one workload: base tables and the
// view over them. big and small name the two tables the commit probe
// writes to. net is set for bn_infer only, where it is also the oracle.
type dataset struct {
	view       string
	tables     []string
	rels       []*mpf.Relation
	big, small string
	net        *bayes.Network
}

// relation returns the generated table of that name.
func (d *dataset) relation(name string) *mpf.Relation {
	for _, r := range d.rels {
		if r.Name() == name {
			return r
		}
	}
	panic("bench: dataset has no table " + name)
}

// queryCase is one query a client may issue. check compares an answer
// with the oracle; state is 0 for the base table contents and, under
// mixed_rw, the index of the table whose row is currently deleted plus
// one.
type queryCase struct {
	id    string
	spec  *mpf.QuerySpec
	check func(got *mpf.Relation, state int) error
}

// script is what a workload's clients do, fixed by the seed before any
// timing starts: pool is the distinct-query pool (the warm-up pass and
// the server probe walk it), readers hands each reading client its own
// seeded op generator, writes is the writer's schedule.
type script struct {
	pool    []*queryCase
	readers readerSource
	writes  *writeScript
}

// readerSource returns a fresh op generator for one reading client; the
// same client number always yields the same sequence.
type readerSource func(client int) func() *queryCase

// workload is one named benchmark workload: its engine configuration,
// how its inputs derive from the seed, and its client mix.
type workload struct {
	name     string
	config   func() (mpf.Config, error)
	generate func(seed int64, shrink float64) (*dataset, error)
	script   func(seed int64, ds *dataset, db *mpf.Database) (*script, error)
	// wire sends the readers through server.New behind httptest, one
	// wire session and keep-alive connection each.
	wire    bool
	readers int
	// think is the readers' pause between ops; writeThink the writer's,
	// and zero means the workload has no writer.
	think, writeThink time.Duration
}

// Workloads lists the benchmark's workloads in the order BENCHMARK.json
// names them.
func Workloads() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

var workloads = []*workload{dsAdhoc, bnInfer, serveHot, mixedRW}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, Workloads())
}

// env is one opened instance of a workload: a loaded database and, for
// wire workloads, the server in front of it.
type env struct {
	w     *workload
	cfg   mpf.Config
	db    *mpf.Database
	sess  *mpf.Session
	srv   *server.Server
	ts    *httptest.Server
	wires []*wireClient
}

// open loads ds into a fresh database under the workload's
// configuration. All storage is storage.MemDisk (Config.Dir is empty);
// the engine has no fsync, so that is the flush policy on every run.
func (w *workload) open(ds *dataset) (*env, error) {
	cfg, err := w.config()
	if err != nil {
		return nil, err
	}
	db, err := mpf.Open(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, cfg: cfg, db: db, sess: mpf.NewSession(db, mpf.SessionOptions{})}
	for _, r := range ds.rels {
		if err := db.CreateTable(r); err != nil {
			e.close()
			return nil, err
		}
	}
	if err := db.CreateView(ds.view, ds.tables); err != nil {
		e.close()
		return nil, err
	}
	if w.wire {
		if err := e.serve(w.readers); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// serve puts the database behind the HTTP server with admission
// unlimited and opens one wire session per client.
func (e *env) serve(clients int) error {
	e.srv = server.New(e.db, server.Config{})
	e.ts = httptest.NewServer(e.srv)
	for i := 0; i < clients; i++ {
		c := &wireClient{hc: e.ts.Client(), url: e.ts.URL}
		var resp server.SessionResponse
		if _, err := c.post("/v1/sessions", server.SessionRequest{}, &resp); err != nil {
			return err
		}
		c.session = resp.Session
		e.wires = append(e.wires, c)
	}
	return nil
}

// close stops the server, waiting for its connections, and releases the
// database.
func (e *env) close() {
	e.stopServer()
	e.db.Close()
}

// stopServer undoes serve; it does nothing when no server is up.
func (e *env) stopServer() {
	if e.ts != nil {
		e.ts.Close()
		e.ts, e.srv, e.wires = nil, nil, nil
	}
}

// wireClient is one closed-loop client of the HTTP server.
type wireClient struct {
	hc      *http.Client
	url     string
	session string
}

// post sends one JSON request and decodes the 200 reply into out,
// returning the reply's size. Any other status is an error: admission is
// unlimited, so nothing should be refused.
func (c *wireClient) post(path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(reply), fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, reply)
	}
	return len(reply), json.Unmarshal(reply, out)
}

// query runs spec over the wire.
func (c *wireClient) query(spec *mpf.QuerySpec) (*mpf.Result, int, error) {
	var resp server.QueryResponse
	n, err := c.post("/v1/query", server.QueryRequest{Session: c.session, Query: spec}, &resp)
	if err != nil {
		return nil, n, err
	}
	if resp.Result == nil {
		return nil, n, fmt.Errorf("/v1/query: reply carries no result")
	}
	return resp.Result, n, nil
}

// memoryAnswer evaluates spec under MemoryExec, the interpreter over
// in-memory relations that shares no code with internal/exec or
// internal/storage: the oracle for every supply-chain answer.
func memoryAnswer(db *mpf.Database, spec *mpf.QuerySpec) (*mpf.Relation, error) {
	oracle := *spec
	oracle.Exec = mpf.MemoryExec
	res, err := db.QueryContext(context.Background(), &oracle)
	if err != nil {
		return nil, fmt.Errorf("oracle for %v where %v: %w", spec.GroupVars, spec.Where, err)
	}
	return res.Relation, nil
}
