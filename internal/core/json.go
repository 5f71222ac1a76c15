package core

import (
	"encoding/json"
	"fmt"
	"time"

	"mpf/internal/exec"
	"mpf/internal/opt"
	"mpf/internal/relation"
)

// This file defines the canonical JSON wire encoding of the query API:
// QuerySpec, Having, and Result. The HTTP server (internal/server), its
// clients, and the differential harness's wire transport all speak
// exactly this encoding, so it must stay stable and round-trip:
// Marshal(Unmarshal(x)) is a fixpoint (asserted by
// TestQuerySpecJSONRoundTrip and the JSON fuzz targets at the package
// root).

// havingJSON is the wire form of a Having clause; the operator uses its
// SQL spelling ("<", "<=", ">", ">=", "=").
type havingJSON struct {
	Op    string  `json:"op"`
	Value float64 `json:"value"`
}

// parseHavingOp inverts HavingOp.String.
func parseHavingOp(s string) (HavingOp, error) {
	switch s {
	case "<":
		return HavingLT, nil
	case "<=":
		return HavingLE, nil
	case ">":
		return HavingGT, nil
	case ">=":
		return HavingGE, nil
	case "=":
		return HavingEQ, nil
	default:
		return 0, fmt.Errorf("core: unknown having operator %q", s)
	}
}

// MarshalJSON encodes the clause with its SQL operator spelling.
func (h *Having) MarshalJSON() ([]byte, error) {
	return json.Marshal(havingJSON{Op: h.Op.String(), Value: h.Value})
}

// UnmarshalJSON decodes the clause, rejecting unknown operators.
func (h *Having) UnmarshalJSON(data []byte) error {
	var w havingJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	op, err := parseHavingOp(w.Op)
	if err != nil {
		return err
	}
	h.Op, h.Value = op, w.Value
	return nil
}

// querySpecJSON is the wire form of a QuerySpec. The optimizer travels
// by report name (opt.ByName), the execution mode as "engine"/"memory"
// with engine omitted as the default, and hypothetical replacements as
// full relation payloads.
type querySpecJSON struct {
	View         string                        `json:"view"`
	GroupVars    []string                      `json:"group_vars,omitempty"`
	Where        relation.Predicate            `json:"where,omitempty"`
	Having       *Having                       `json:"having,omitempty"`
	Hypothetical map[string]*relation.Relation `json:"hypothetical,omitempty"`
	Optimizer    string                        `json:"optimizer,omitempty"`
	Exec         string                        `json:"exec,omitempty"`
}

// execModeName renders an ExecMode for the wire ("" for the engine
// default, so the common case stays off the wire).
func execModeName(m ExecMode) (string, error) {
	switch m {
	case EngineExec:
		return "", nil
	case MemoryExec:
		return "memory", nil
	default:
		return "", fmt.Errorf("core: %w %d", ErrUnknownExecMode, m)
	}
}

// parseExecMode inverts execModeName; "engine" is accepted explicitly.
func parseExecMode(s string) (ExecMode, error) {
	switch s {
	case "", "engine":
		return EngineExec, nil
	case "memory":
		return MemoryExec, nil
	default:
		return 0, fmt.Errorf("core: %w %q", ErrUnknownExecMode, s)
	}
}

// MarshalJSON encodes the spec in the canonical wire form. Specs whose
// Exec mode or optimizer cannot travel (an invalid mode, an optimizer
// value whose Name is not resolvable by OptimizerByName) fail rather
// than encode something the other side cannot reconstruct.
func (q *QuerySpec) MarshalJSON() ([]byte, error) {
	mode, err := execModeName(q.Exec)
	if err != nil {
		return nil, err
	}
	w := querySpecJSON{
		View:         q.View,
		GroupVars:    q.GroupVars,
		Where:        q.Where,
		Having:       q.Having,
		Hypothetical: q.Hypothetical,
		Exec:         mode,
	}
	if q.Optimizer != nil {
		name := q.Optimizer.Name()
		if _, err := opt.ByName(name); err != nil {
			return nil, fmt.Errorf("core: optimizer %q does not round-trip: %w", name, err)
		}
		w.Optimizer = name
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire form, resolving the optimizer by
// report name and validating the execution mode.
func (q *QuerySpec) UnmarshalJSON(data []byte) error {
	var w querySpecJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	mode, err := parseExecMode(w.Exec)
	if err != nil {
		return err
	}
	var o opt.Optimizer
	if w.Optimizer != "" {
		if o, err = opt.ByName(w.Optimizer); err != nil {
			return err
		}
	}
	*q = QuerySpec{
		View:         w.View,
		GroupVars:    w.GroupVars,
		Where:        w.Where,
		Having:       w.Having,
		Hypothetical: w.Hypothetical,
		Optimizer:    o,
		Exec:         mode,
	}
	return nil
}

// resultJSON is the wire form of a Result besides its relation, which
// the relation codec writes and reads in place (Relation.AppendJSON,
// relation.UnmarshalJSONMember), so its bytes pass through
// encoding/json neither way. The plan travels as its rendered text —
// plans are diagnostic output on the wire, not an executable structure —
// so unmarshaling a Result leaves Plan nil and keeps only the rendering.
// RunStats carries its own snake_case json tags (see internal/exec), so
// it encodes with the default machinery.
type resultJSON struct {
	Plan       string        `json:"plan,omitempty"`
	OptimizeNS int64         `json:"optimize_ns"`
	Snapshot   int64         `json:"snapshot,omitempty"`
	Exec       exec.RunStats `json:"exec"`
}

// MarshalJSON encodes the result with its relation, rendered plan, and
// execution stats; it is AppendJSON(nil).
func (r *Result) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil)
}

// AppendJSON appends the result's wire form to dst and returns the
// extended buffer: {"relation":...} first (omitted when nil), then the
// rendered plan, optimize time, snapshot and execution stats.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	w := resultJSON{
		OptimizeNS: r.Optimize.Nanoseconds(),
		Snapshot:   r.Snapshot,
		Exec:       r.Exec,
	}
	if r.Plan != nil {
		w.Plan = r.Plan.String()
	}
	tail, err := json.Marshal(&w)
	if err != nil {
		return dst, err
	}
	dst = append(dst, '{')
	if r.Relation != nil {
		dst = append(dst, `"relation":`...)
		dst = append(r.Relation.AppendJSON(dst), ',')
	}
	// tail is a non-empty object: optimize_ns and exec are always there.
	return append(dst, tail[1:]...), nil
}

// UnmarshalJSON decodes the wire form in one pass over the relation.
// Plan stays nil (the wire carries only its rendering); Trace is
// restored as an alias of Exec.Trace, matching how core fills it.
func (r *Result) UnmarshalJSON(data []byte) error {
	rel, rest, err := relation.UnmarshalJSONMember(data, "relation")
	if err != nil {
		return err
	}
	var w resultJSON
	if err := json.Unmarshal(rest, &w); err != nil {
		return err
	}
	*r = Result{
		Relation: rel,
		Optimize: time.Duration(w.OptimizeNS),
		Snapshot: w.Snapshot,
		Exec:     w.Exec,
	}
	r.Trace = r.Exec.Trace
	return nil
}
