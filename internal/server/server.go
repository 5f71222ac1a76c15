package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mpf"
	"mpf/internal/metrics"
)

// Config parameterizes a Server.
type Config struct {
	// Admission bounds the request intake; the zero value admits
	// everything immediately.
	Admission AdmissionConfig
	// DefaultTimeout and DefaultBudget apply to requests outside any
	// explicit session (and are the fallback SessionRequest defaults).
	DefaultTimeout time.Duration
	DefaultBudget  mpf.Budget
}

// Server serves one Database over the HTTP/JSON wire protocol. It is an
// http.Handler; the caller owns the listener (net/http Server,
// httptest, ...). Queries and writes run fully concurrently: the
// engine's multi-version catalog pins every query to an immutable
// snapshot at admission, and writes are copy-on-write commits the
// engine serializes internally, so the server needs no read-write lock
// of its own — a long analytical query never stalls ingest and a slow
// insert never stalls readers.
type Server struct {
	db    *mpf.Database
	cfg   Config
	admit *admitter
	mux   *http.ServeMux

	// mu guards the session registry, the in-flight request registry,
	// and the drain flag; drained broadcasts in-flight reaching zero.
	mu       sync.Mutex
	drained  *sync.Cond
	sessions map[string]*mpf.Session
	nextSess int64
	nextReq  int64
	cancels  map[int64]context.CancelFunc
	inflight int64
	draining bool

	// Cumulative counters for ServerStats.
	sessOpened atomic.Int64
	sessClosed atomic.Int64
	admitted   atomic.Int64
	rejRate    atomic.Int64
	rejQueue   atomic.Int64
	rejDrain   atomic.Int64
	latency    metrics.Histogram
}

// New builds a Server over db.
func New(db *mpf.Database, cfg Config) *Server {
	s := &Server{
		db:       db,
		cfg:      cfg,
		admit:    newAdmitter(cfg.Admission),
		sessions: make(map[string]*mpf.Session),
		cancels:  make(map[int64]context.CancelFunc),
	}
	s.drained = sync.NewCond(&s.mu)
	m := http.NewServeMux()
	m.HandleFunc("POST /v1/sessions", s.handleOpenSession)
	m.HandleFunc("DELETE /v1/sessions/{id}", s.handleCloseSession)
	m.HandleFunc("POST /v1/query", s.handleQuery)
	m.HandleFunc("POST /v1/explain", s.handleExplain)
	m.HandleFunc("POST /v1/materialize", s.handleMaterialize)
	m.HandleFunc("POST /v1/insert", s.handleInsert)
	m.HandleFunc("POST /v1/delete", s.handleDelete)
	m.HandleFunc("GET /v1/catalog", s.handleCatalog)
	m.HandleFunc("GET /v1/metrics", s.handleMetrics)
	m.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux = m
	return s
}

// ServeHTTP dispatches to the wire endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Stats returns the serving layer's metrics, in the shape embedded into
// the engine snapshot by /v1/metrics.
func (s *Server) Stats() metrics.ServerStats {
	s.mu.Lock()
	active := int64(len(s.sessions))
	inflight := s.inflight
	draining := s.draining
	s.mu.Unlock()
	return metrics.ServerStats{
		Enabled:        true,
		SessionsOpened: s.sessOpened.Load(),
		SessionsClosed: s.sessClosed.Load(),
		SessionsActive: active,
		Admitted:       s.admitted.Load(),
		InFlight:       inflight,
		Queued:         s.admit.queuedNow(),
		RejectedRate:   s.rejRate.Load(),
		RejectedQueue:  s.rejQueue.Load(),
		RejectedDrain:  s.rejDrain.Load(),
		Draining:       draining,
		Latency:        s.latency.Stats(),
	}
}

// Shutdown drains the server: new requests are rejected with
// CodeDraining immediately, in-flight requests (queued ones included)
// run to completion, and requests still running at ctx's deadline are
// canceled and then waited for. Shutdown returns nil once the server is
// idle; the ctx error is reported only if even cancellation could not
// drain it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.inflight > 0 {
			s.drained.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()

	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}

	// Deadline passed: cancel everything still running and wait again —
	// canceled queries unwind promptly (context polling in the engine).
	s.mu.Lock()
	for _, cancel := range s.cancels {
		cancel()
	}
	s.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-time.After(5 * time.Second):
		return fmt.Errorf("server: drain did not complete: %w", ctx.Err())
	}
}

// track admits one request into the in-flight registry, atomically with
// the drain check. The returned done must be called exactly once.
func (s *Server) track(parent context.Context) (context.Context, func(), error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, nil, errDraining
	}
	s.nextReq++
	id := s.nextReq
	ctx, cancel := context.WithCancel(parent)
	s.cancels[id] = cancel
	s.inflight++
	s.mu.Unlock()
	done := func() {
		cancel()
		s.mu.Lock()
		delete(s.cancels, id)
		s.inflight--
		if s.inflight == 0 {
			s.drained.Broadcast()
		}
		s.mu.Unlock()
	}
	return ctx, done, nil
}

var errDraining = fmt.Errorf("server: draining")

// begin runs the request intake: drain check, in-flight registration,
// admission control, latency clock. On success the caller runs with the
// returned context and must call done; on failure the typed envelope
// has been written.
func (s *Server) begin(w http.ResponseWriter, r *http.Request) (context.Context, func(), bool) {
	start := time.Now()
	ctx, untrack, err := s.track(r.Context())
	if err != nil {
		s.rejDrain.Add(1)
		writeCode(w, CodeDraining, "server is draining")
		return nil, nil, false
	}
	if _, err := s.admit.admit(ctx); err != nil {
		untrack()
		switch err {
		case errRateLimited:
			s.rejRate.Add(1)
			writeCode(w, CodeRateLimited, "admission rate exceeded; retry later")
		case errOverloaded:
			s.rejQueue.Add(1)
			writeCode(w, CodeOverloaded, "admission queue full; retry later")
		default:
			writeError(w, fmt.Errorf("core: %w: %v", mpf.ErrCanceled, err))
		}
		return nil, nil, false
	}
	s.admitted.Add(1)
	done := func() {
		untrack()
		s.latency.Observe(time.Since(start))
	}
	return ctx, done, true
}

// maxBodyBytes caps a request body. A query, a row or a session's
// defaults take a few hundred bytes; the allowance is for hypothetical
// relations carried inside a query spec. A longer body is refused as
// bad_request instead of being read into memory.
const maxBodyBytes = 8 << 20

// decode reads the JSON request body into v, writing the bad_request
// envelope on failure.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		// A body is one JSON value: anything after it but whitespace — or
		// whitespace past the cap — is refused as well.
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("data after the request value")
		}
	}
	writeCode(w, CodeBadRequest, fmt.Sprintf("decoding request: %v", err))
	return false
}

// session resolves a request's session id ("" = the anonymous session
// with the server-wide defaults).
func (s *Server) session(id string) (*mpf.Session, error) {
	if id == "" {
		return mpf.NewSession(s.db, mpf.SessionOptions{
			Timeout: s.cfg.DefaultTimeout,
			Budget:  s.cfg.DefaultBudget,
		}), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("unknown session %q", id)
	}
	return sess, nil
}

// override stamps per-request timeout/budget onto ctx; explicit context
// values beat session defaults inside mpf.Session.
func override(ctx context.Context, timeoutMS, maxTemp, maxRows int64) (context.Context, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if timeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
	}
	if maxTemp > 0 || maxRows > 0 {
		ctx = mpf.WithBudget(ctx, mpf.Budget{MaxTempTuples: maxTemp, MaxRows: maxRows})
	}
	return ctx, cancel
}

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !decode(w, r, &req) {
		return
	}
	opts := mpf.SessionOptions{
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		Budget:  mpf.Budget{MaxTempTuples: req.MaxTempTuples, MaxRows: req.MaxRows},
	}
	if opts.Timeout == 0 {
		opts.Timeout = s.cfg.DefaultTimeout
	}
	if (opts.Budget == mpf.Budget{}) {
		opts.Budget = s.cfg.DefaultBudget
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejDrain.Add(1)
		writeCode(w, CodeDraining, "server is draining")
		return
	}
	s.nextSess++
	id := fmt.Sprintf("s%d", s.nextSess)
	s.sessions[id] = mpf.NewSession(s.db, opts)
	s.mu.Unlock()
	s.sessOpened.Add(1)
	writeJSON(w, http.StatusOK, SessionResponse{Session: id})
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		writeCode(w, CodeUnknownSession, fmt.Sprintf("unknown session %q", id))
		return
	}
	s.sessClosed.Add(1)
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Query == nil {
		writeCode(w, CodeBadRequest, "missing query")
		return
	}
	sess, err := s.session(req.Session)
	if err != nil {
		writeCode(w, CodeUnknownSession, err.Error())
		return
	}
	ctx, done, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer done()
	ctx, cancel := override(ctx, req.TimeoutMS, req.MaxTempTuples, req.MaxRows)
	defer cancel()
	res, err := sess.Query(ctx, req.Query)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{Result: res})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Query == nil {
		writeCode(w, CodeBadRequest, "missing query")
		return
	}
	sess, err := s.session(req.Session)
	if err != nil {
		writeCode(w, CodeUnknownSession, err.Error())
		return
	}
	ctx, done, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer done()
	ctx, cancel := override(ctx, req.TimeoutMS, req.MaxTempTuples, req.MaxRows)
	defer cancel()
	res, err := sess.Explain(ctx, req.Query)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{
		Plan:       res.Plan.String(),
		OptimizeNS: res.Optimize.Nanoseconds(),
	})
}

func (s *Server) handleMaterialize(w http.ResponseWriter, r *http.Request) {
	var req MaterializeRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Query == nil || req.Name == "" {
		writeCode(w, CodeBadRequest, "missing name or query")
		return
	}
	sess, err := s.session(req.Session)
	if err != nil {
		writeCode(w, CodeUnknownSession, err.Error())
		return
	}
	ctx, done, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer done()
	ctx, cancel := override(ctx, req.TimeoutMS, req.MaxTempTuples, req.MaxRows)
	defer cancel()
	rel, err := sess.Materialize(ctx, req.Name, req.Query)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MaterializeResponse{Relation: rel})
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !decode(w, r, &req) {
		return
	}
	sess, err := s.session(req.Session)
	if err != nil {
		writeCode(w, CodeUnknownSession, err.Error())
		return
	}
	_, done, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer done()
	err = sess.Insert(req.Table, req.Vals, float64(req.Measure))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if !decode(w, r, &req) {
		return
	}
	sess, err := s.session(req.Session)
	if err != nil {
		writeCode(w, CodeUnknownSession, err.Error())
		return
	}
	_, done, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer done()
	existed, err := sess.Delete(req.Table, req.Vals)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Existed: existed})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	cat := s.db.Catalog()
	resp := CatalogResponse{Tables: []CatalogTable{}, Views: []CatalogView{}}
	for _, name := range cat.Tables() {
		t, err := cat.Table(name)
		if err != nil {
			continue // dropped between listing and lookup
		}
		resp.Tables = append(resp.Tables, CatalogTable{
			Name: t.Name, Attrs: t.Attrs, Card: t.Card, Key: t.Key,
		})
	}
	for _, name := range cat.Views() {
		v, err := cat.View(name)
		if err != nil {
			continue
		}
		resp.Views = append(resp.Views, CatalogView{
			Name: v.Name, Tables: v.Tables, Semiring: v.Semiring,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.db.Metrics()
	snap.Server = s.Stats()
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	resp := HealthResponse{
		Status:         status,
		SessionsActive: int64(len(s.sessions)),
		InFlight:       s.inflight,
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
