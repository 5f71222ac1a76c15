// Package server is the network serving layer: an HTTP/JSON wire
// protocol over the mpf query API with multi-session support, per-query
// deadlines and resource budgets, token-bucket admission control, and
// graceful drain. The wire encoding of queries, relations, and results
// is the canonical JSON form defined by the mpf package
// (QuerySpec/Relation/Result MarshalJSON); this package adds the
// request/response framing and the error envelope.
//
// Endpoints (all payloads JSON):
//
//	POST   /v1/sessions      open a session with default timeout/budget
//	DELETE /v1/sessions/{id} close a session
//	POST   /v1/query         run an MPF query
//	POST   /v1/explain       optimize without executing
//	POST   /v1/materialize   run a query and register the answer as a table
//	POST   /v1/insert        insert one row into a base table
//	POST   /v1/delete        delete one row from a base table
//	GET    /v1/catalog       list tables and views
//	GET    /v1/metrics       engine + server metrics snapshot
//	GET    /v1/health        liveness and drain state
//
// Every error response is the same envelope: {"error": "...", "code":
// "..."} with a stable machine-readable code (mpf.ErrorCode for engine
// errors, plus the serving codes rate_limited, overloaded, draining,
// unknown_session, and bad_request) and an HTTP status derived from the
// code alone.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"mpf"
	"mpf/internal/relation"
)

// SessionRequest opens a wire session. The defaults apply to every
// request on the session that does not carry its own.
type SessionRequest struct {
	// TimeoutMS bounds each query's wall time in milliseconds; 0 means
	// no session default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxTempTuples and MaxRows are the session's default query budget;
	// 0 means unbounded.
	MaxTempTuples int64 `json:"max_temp_tuples,omitempty"`
	MaxRows       int64 `json:"max_rows,omitempty"`
}

// SessionResponse returns the opened session's id.
type SessionResponse struct {
	Session string `json:"session"`
}

// QueryRequest runs (or explains) one MPF query. Per-request knobs
// override the session defaults for this request only.
type QueryRequest struct {
	// Session is the id from POST /v1/sessions; empty uses the shared
	// anonymous session (server-wide defaults).
	Session string `json:"session,omitempty"`
	// Query is the spec in the canonical mpf wire encoding.
	Query *mpf.QuerySpec `json:"query"`
	// TimeoutMS overrides the session timeout for this request.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxTempTuples/MaxRows override the session budget for this request.
	MaxTempTuples int64 `json:"max_temp_tuples,omitempty"`
	MaxRows       int64 `json:"max_rows,omitempty"`
}

// QueryResponse carries a query's full result (relation, rendered plan,
// stats) in the canonical mpf Result encoding.
type QueryResponse struct {
	Result *mpf.Result `json:"result"`
}

// ExplainResponse carries an optimized-but-not-executed query's plan.
type ExplainResponse struct {
	// Plan is the rendered plan tree.
	Plan string `json:"plan"`
	// OptimizeNS is the planning wall time in nanoseconds.
	OptimizeNS int64 `json:"optimize_ns"`
}

// MaterializeRequest runs a query and registers its answer as a table.
type MaterializeRequest struct {
	Session string `json:"session,omitempty"`
	// Name is the new table's name.
	Name string `json:"name"`
	// Query is the producing query.
	Query         *mpf.QuerySpec `json:"query"`
	TimeoutMS     int64          `json:"timeout_ms,omitempty"`
	MaxTempTuples int64          `json:"max_temp_tuples,omitempty"`
	MaxRows       int64          `json:"max_rows,omitempty"`
}

// MaterializeResponse returns the materialized relation.
type MaterializeResponse struct {
	Relation *mpf.Relation `json:"relation"`
}

// InsertRequest adds one row to a base table. The measure is a
// relation.WireMeasure, so ±Inf and NaN rows can be inserted.
type InsertRequest struct {
	Session string               `json:"session,omitempty"`
	Table   string               `json:"table"`
	Vals    []int32              `json:"vals"`
	Measure relation.WireMeasure `json:"measure"`
}

// DeleteRequest removes one row from a base table.
type DeleteRequest struct {
	Session string  `json:"session,omitempty"`
	Table   string  `json:"table"`
	Vals    []int32 `json:"vals"`
}

// DeleteResponse reports whether the deleted row existed.
type DeleteResponse struct {
	Existed bool `json:"existed"`
}

// CatalogTable describes one table in the catalog listing.
type CatalogTable struct {
	Name  string     `json:"name"`
	Attrs []mpf.Attr `json:"attrs"`
	Card  int64      `json:"card"`
	Key   []string   `json:"key,omitempty"`
}

// CatalogView describes one registered MPF view.
type CatalogView struct {
	Name     string   `json:"name"`
	Tables   []string `json:"tables"`
	Semiring string   `json:"semiring"`
}

// CatalogResponse lists the database's tables and views.
type CatalogResponse struct {
	Tables []CatalogTable `json:"tables"`
	Views  []CatalogView  `json:"views"`
}

// HealthResponse reports liveness: status is "ok" or "draining".
type HealthResponse struct {
	Status         string `json:"status"`
	SessionsActive int64  `json:"sessions_active"`
	InFlight       int64  `json:"in_flight"`
}

// ErrorEnvelope is the uniform error response body.
type ErrorEnvelope struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Code is the stable machine-readable code (mpf.ErrorCode codes plus
	// the serving codes).
	Code string `json:"code"`
}

// Serving-layer error codes, beyond the mpf.ErrorCode sentinels.
const (
	// CodeRateLimited rejects a request whose admission wait would
	// exceed the queueable bound (HTTP 429).
	CodeRateLimited = "rate_limited"
	// CodeOverloaded rejects a request because the admission queue is
	// full (HTTP 503).
	CodeOverloaded = "overloaded"
	// CodeDraining rejects a request arriving during graceful shutdown
	// (HTTP 503).
	CodeDraining = "draining"
	// CodeUnknownSession rejects a request naming a session that was
	// never opened or is already closed (HTTP 404).
	CodeUnknownSession = "unknown_session"
	// CodeBadRequest rejects a request whose body does not decode (HTTP
	// 400).
	CodeBadRequest = "bad_request"
)

// statusOf maps an error code to its HTTP status. The mapping is by
// code alone so clients can rely on either; anything unrecognized is an
// internal error.
func statusOf(code string) int {
	switch code {
	case "unknown_table", "unknown_view", CodeUnknownSession:
		return http.StatusNotFound
	case "duplicate_table":
		return http.StatusConflict
	case "not_functional", "schema_mismatch", "unknown_exec_mode", CodeBadRequest:
		return http.StatusBadRequest
	case "canceled":
		return http.StatusRequestTimeout
	case "budget_exceeded":
		return http.StatusUnprocessableEntity
	case CodeRateLimited:
		return http.StatusTooManyRequests
	case CodeOverloaded, CodeDraining:
		return http.StatusServiceUnavailable
	default: // "io", "corrupt", "internal"
		return http.StatusInternalServerError
	}
}

// writeJSON encodes v as the response body. It encodes before writing
// the header, so a value that does not encode is answered with a typed
// 500 internal envelope, never a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		status = statusOf("internal")
		// Two strings always encode.
		data, _ = json.Marshal(ErrorEnvelope{Error: fmt.Sprintf("encoding response: %v", err), Code: "internal"})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client has gone; there is no one to tell.
	w.Write(append(data, '\n'))
}

// writeError writes the error envelope for an engine error, classifying
// it with mpf.ErrorCode.
func writeError(w http.ResponseWriter, err error) {
	code := mpf.ErrorCode(err)
	writeJSON(w, statusOf(code), ErrorEnvelope{Error: err.Error(), Code: code})
}

// writeCode writes the error envelope for a serving-layer code.
func writeCode(w http.ResponseWriter, code, msg string) {
	writeJSON(w, statusOf(code), ErrorEnvelope{Error: msg, Code: code})
}
