package mpf

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

// wireSpecs returns a spread of QuerySpecs covering every wire field:
// bare, predicated, having-filtered, hypothetical, optimizer-pinned,
// and memory-mode.
func wireSpecs(t *testing.T) []*QuerySpec {
	t.Helper()
	hypo, err := FromRows("price",
		[]Attr{{Name: "pid", Domain: 3}},
		[][]int32{{0}, {1}, {2}},
		[]float64{9.5, 1.25, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	ve, err := OptimizerByName("ve(deg)")
	if err != nil {
		t.Fatal(err)
	}
	return []*QuerySpec{
		{View: "invest"},
		{View: "invest", GroupVars: []string{"wid", "tid"}},
		{View: "invest", GroupVars: []string{"wid"}, Where: Predicate{"tid": 2}},
		{View: "invest", GroupVars: []string{"wid"}, Having: &Having{Op: HavingGE, Value: 10.5}},
		{View: "invest", GroupVars: []string{"wid"}, Hypothetical: map[string]*Relation{"price": hypo}},
		{View: "invest", GroupVars: []string{"wid"}, Optimizer: ve},
		{View: "invest", GroupVars: []string{"wid"}, Exec: MemoryExec},
	}
}

// TestQuerySpecJSONRoundTrip asserts the wire encoding round-trips:
// decoding a marshaled spec reproduces every field (the optimizer up to
// report name — it travels by name), and re-marshaling is a byte-level
// fixpoint.
func TestQuerySpecJSONRoundTrip(t *testing.T) {
	for _, spec := range wireSpecs(t) {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal %+v: %v", spec, err)
		}
		var back QuerySpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back.View != spec.View || !reflect.DeepEqual(back.GroupVars, spec.GroupVars) ||
			!reflect.DeepEqual(back.Where, spec.Where) || !reflect.DeepEqual(back.Having, spec.Having) ||
			back.Exec != spec.Exec {
			t.Fatalf("round trip changed spec: %s -> %+v", data, back)
		}
		switch {
		case spec.Optimizer == nil:
			if back.Optimizer != nil {
				t.Fatalf("round trip invented optimizer %q", back.Optimizer.Name())
			}
		case back.Optimizer == nil || back.Optimizer.Name() != spec.Optimizer.Name():
			t.Fatalf("optimizer lost in round trip: %s", data)
		}
		if len(spec.Hypothetical) != len(back.Hypothetical) {
			t.Fatalf("hypothetical lost in round trip: %s", data)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("marshal not a fixpoint:\n first %s\nsecond %s", data, again)
		}
	}

	// Unknown optimizer names, exec modes, and having operators must be
	// rejected, not silently defaulted.
	for _, bad := range []string{
		`{"view":"v","optimizer":"nope"}`,
		`{"view":"v","exec":"gpu"}`,
		`{"view":"v","having":{"op":"!=","value":1}}`,
	} {
		var q QuerySpec
		if err := json.Unmarshal([]byte(bad), &q); err == nil {
			t.Fatalf("decoded invalid spec %s", bad)
		}
	}
}

// TestRelationJSONRoundTrip asserts relations survive the wire intact
// (schema, row order, measures bit for bit, non-finite ones included),
// that finite measures are plain JSON numbers, and that schema
// violations are rejected on decode.
func TestRelationJSONRoundTrip(t *testing.T) {
	r, err := FromRows("price",
		[]Attr{{Name: "pid", Domain: 3}, {Name: "tid", Domain: 2}},
		[][]int32{{2, 0}, {0, 1}, {1, 1}},
		[]float64{4.5, 0, math.MaxFloat64},
	)
	if err != nil {
		t.Fatal(err)
	}
	nonFinite, err := FromRows("logp",
		[]Attr{{Name: "x", Domain: 4}},
		[][]int32{{0}, {1}, {2}, {3}},
		[]float64{math.Inf(-1), -0.25, math.Inf(1), math.NaN()},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rel  *Relation
		wire string
	}{
		{r, `{"name":"price","attrs":[{"name":"pid","domain":3},{"name":"tid","domain":2}],"rows":[[2,0],[0,1],[1,1]],"measures":[4.5,0,1.7976931348623157e+308]}`},
		{MustNewRelation(t, "empty", []Attr{{Name: "x", Domain: 1}}), `{"name":"empty","attrs":[{"name":"x","domain":1}],"rows":[],"measures":[]}`},
		{nonFinite, `{"name":"logp","attrs":[{"name":"x","domain":4}],"rows":[[0],[1],[2],[3]],"measures":["-Infinity",-0.25,"Infinity","NaN"]}`},
	} {
		rel := tc.rel
		data, err := json.Marshal(rel)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.wire {
			t.Fatalf("wire form\n got %s\nwant %s", data, tc.wire)
		}
		var back Relation
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back.Name() != rel.Name() || !reflect.DeepEqual(back.Attrs(), rel.Attrs()) || back.Len() != rel.Len() {
			t.Fatalf("round trip changed relation: %s", data)
		}
		for i := 0; i < rel.Len(); i++ {
			if !reflect.DeepEqual(back.Row(i), rel.Row(i)) || math.Float64bits(back.Measure(i)) != math.Float64bits(rel.Measure(i)) {
				t.Fatalf("row %d changed in round trip: %s", i, data)
			}
		}
	}

	for _, bad := range []string{
		`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[5]],"measures":[1]}`,     // out of domain
		`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[1]],"measures":[1,2]}`,   // rows/measures mismatch
		`{"name":"r","attrs":[{"name":"x","domain":0}],"rows":[],"measures":[]}`,         // bad domain
		`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[1]],"measures":["inf"]}`, // unknown measure string
		`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[1]],"measures":[1e999]}`, // out of float range
		`{"name":7,"attrs":[{"name":"x","domain":2}],"rows":[[1]],"measures":["NaN"]}`,   // a type error elsewhere
	} {
		var rel Relation
		if err := json.Unmarshal([]byte(bad), &rel); err == nil {
			t.Fatalf("decoded invalid relation %s", bad)
		}
	}
}

// MustNewRelation is a test helper building an empty relation.
func MustNewRelation(t *testing.T, name string, attrs []Attr) *Relation {
	t.Helper()
	r, err := NewRelation(name, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResultJSONRoundTrip asserts a query Result survives the wire:
// relation rows, optimize time, and RunStats counters. The plan travels
// as rendered text only, so decoding leaves Plan nil by contract.
func TestResultJSONRoundTrip(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r, err := FromRows("costs",
		[]Attr{{Name: "a", Domain: 2}, {Name: "b", Domain: 2}},
		[][]int32{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
		[]float64{1, 2, 3, 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(r); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v", []string{"costs"}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(&QuerySpec{View: "v", GroupVars: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Plan != nil {
		t.Fatal("Plan must stay nil after decode: the wire carries only its rendering")
	}
	if back.Optimize != res.Optimize || back.Exec.RowsOut != res.Exec.RowsOut ||
		back.Exec.Wall != res.Exec.Wall || back.Exec.Operators != res.Exec.Operators ||
		back.Exec.Planner != res.Exec.Planner {
		t.Fatalf("round trip changed result stats: %s", data)
	}
	if back.Relation == nil || back.Relation.Len() != res.Relation.Len() {
		t.Fatalf("round trip changed result relation: %s", data)
	}
	if len(back.Trace) != len(res.Trace) {
		t.Fatalf("round trip changed trace: %d spans, want %d", len(back.Trace), len(res.Trace))
	}
}

// TestRunStatsJSONRoundTrip asserts RunStats — including nested IO
// stats, per-operator actuals, and trace spans — survives the wire.
func TestRunStatsJSONRoundTrip(t *testing.T) {
	st := RunStats{
		Wall:            123 * time.Microsecond,
		RowsOut:         7,
		Operators:       3,
		TempTuples:      42,
		HotKeyFallbacks: 1,
		CacheHits:       2,
		CacheMisses:     3,
		Batches:         4,
		Planner:         "cs+linear",
		PlanCacheHit:    true,
		Ops:             []OpStat{{Desc: "Scan(costs)", Rows: 4, Wall: time.Millisecond}},
		Trace: []Span{{
			Desc: "Scan(costs)", Kind: "Scan", Depth: 1, Rows: 4,
			Start: time.Microsecond, Stop: 2 * time.Microsecond, Wall: time.Microsecond,
		}},
		Morsels: []MorselStat{{Kind: "GroupBy", Count: 16, Busy: 3 * time.Millisecond}},
	}
	st.IO.Reads = 10
	st.IO.Hits = 20
	st.Trace[0].IO.Reads = 10
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back RunStats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("round trip changed stats:\n%+v\n%+v", st, back)
	}
}

// FuzzQuerySpecJSON fuzzes the decoder with arbitrary bytes: any input
// the decoder accepts must re-marshal to a fixpoint (the canonical wire
// form), and neither direction may panic.
func FuzzQuerySpecJSON(f *testing.F) {
	f.Add([]byte(`{"view":"invest"}`))
	f.Add([]byte(`{"view":"invest","group_vars":["wid","tid"],"where":{"tid":2}}`))
	f.Add([]byte(`{"view":"v","having":{"op":"<=","value":3.5},"exec":"memory","optimizer":"cs"}`))
	f.Add([]byte(`{"view":"v","hypothetical":{"price":{"name":"price","attrs":[{"name":"p","domain":2}],"rows":[[1]],"measures":[2.5]}}}`))
	f.Add([]byte(`{"view":"v","hypothetical":{"price":{"name":"price","attrs":[{"name":"p","domain":2}],"rows":[[0],[1]],"measures":["-Infinity","NaN"]}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var q QuerySpec
		if err := json.Unmarshal(data, &q); err != nil {
			return
		}
		out, err := json.Marshal(&q)
		if err != nil {
			t.Fatalf("decoded spec does not re-encode: %s: %v", data, err)
		}
		var back QuerySpec
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("canonical form does not decode: %s: %v", out, err)
		}
		again, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("marshal not a fixpoint:\n first %s\nsecond %s", out, again)
		}
	})
}
