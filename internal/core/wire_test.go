package core_test

// The differential harness's HTTP transport: it serves a database through
// internal/server, which imports package core, so the harness reaches it
// through the core.ServeWire hook set here.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"mpf"
	"mpf/internal/core"
	"mpf/internal/relation"
	"mpf/internal/server"
)

func init() {
	core.ServeWire = func(t *testing.T, db *core.Database) core.WireClient {
		ts := httptest.NewServer(server.New(db, server.Config{}))
		t.Cleanup(ts.Close)
		return &wireClient{url: ts.URL, http: ts.Client()}
	}
}

// wireClient speaks the wire protocol to one served database.
type wireClient struct {
	url  string
	http *http.Client
}

// sentinels are the engine errors an envelope's code can name.
var sentinels = []error{core.ErrUnknownTable, core.ErrUnknownView, core.ErrDuplicateTable, core.ErrNotFunctional,
	core.ErrSchemaMismatch, core.ErrUnknownExecMode, core.ErrBudget, core.ErrCanceled, core.ErrCorrupt, core.ErrIO}

// post sends body to path and decodes a 200 answer into out; any other
// status is returned as an error wrapping the sentinel its code names.
func (c *wireClient) post(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.url+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusOK {
		return json.Unmarshal(reply, out)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(reply, &env); err != nil {
		return fmt.Errorf("%s: status %d with no envelope: %q", path, resp.StatusCode, reply)
	}
	for _, s := range sentinels {
		if mpf.ErrorCode(s) == env.Code {
			return fmt.Errorf("%s: %w: %s", path, s, env.Error)
		}
	}
	return fmt.Errorf("%s: status %d, code %q: %s", path, resp.StatusCode, env.Code, env.Error)
}

// Query decodes the answer twice: as a QueryResponse, and for the
// rendered plan, which decoding a Result drops.
func (c *wireClient) Query(q *core.QuerySpec) (*core.Result, string, error) {
	var raw json.RawMessage
	if err := c.post("/v1/query", server.QueryRequest{Query: q}, &raw); err != nil {
		return nil, "", err
	}
	var reply server.QueryResponse
	var plan struct {
		Result struct {
			Plan string `json:"plan"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return nil, "", err
	}
	if err := json.Unmarshal(raw, &plan); err != nil {
		return nil, "", err
	}
	return reply.Result, plan.Result.Plan, nil
}

func (c *wireClient) Insert(table string, vals []int32, measure float64) error {
	return c.post("/v1/insert", server.InsertRequest{Table: table, Vals: vals, Measure: relation.WireMeasure(measure)}, &struct{}{})
}

func (c *wireClient) Delete(table string, vals []int32) (bool, error) {
	var reply server.DeleteResponse
	err := c.post("/v1/delete", server.DeleteRequest{Table: table, Vals: vals}, &reply)
	return reply.Existed, err
}
