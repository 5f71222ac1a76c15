package relation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// refJSON, refMeasure and refDecode are the encoding/json codec the
// one-pass codec replaced, kept as the reference it must agree with.
type refJSON[M float64 | refMeasure] struct {
	Name     string    `json:"name"`
	Attrs    []Attr    `json:"attrs"`
	Rows     [][]int32 `json:"rows"`
	Measures []M       `json:"measures"`
}

type refMeasure float64

func (m refMeasure) MarshalJSON() ([]byte, error) {
	switch f := float64(m); {
	case math.IsNaN(f):
		return []byte(`"NaN"`), nil
	case math.IsInf(f, 1):
		return []byte(`"Infinity"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-Infinity"`), nil
	default:
		return json.Marshal(f)
	}
}

func (m *refMeasure) UnmarshalJSON(data []byte) error {
	if len(data) == 0 || data[0] != '"' {
		return json.Unmarshal(data, (*float64)(m))
	}
	switch string(data) {
	case `"NaN"`:
		*m = refMeasure(math.NaN())
	case `"Infinity"`:
		*m = refMeasure(math.Inf(1))
	case `"-Infinity"`:
		*m = refMeasure(math.Inf(-1))
	default:
		return fmt.Errorf("measure %s is neither a number nor Infinity, -Infinity or NaN", data)
	}
	return nil
}

// refEncode is json.Marshal of the reference struct.
func refEncode(r *Relation) ([]byte, error) {
	rows := make([][]int32, r.Len())
	for i := range rows {
		rows[i] = r.Row(i)
	}
	measures := make([]refMeasure, r.Len())
	for i, m := range r.measures {
		measures[i] = refMeasure(m)
	}
	return json.Marshal(refJSON[refMeasure]{Name: r.name, Attrs: r.attrs, Rows: rows, Measures: measures})
}

// refDecode decodes as encoding/json, then New and Append; a string where
// a number was expected retries with non-finite measures allowed.
func refDecode(data []byte) (*Relation, error) {
	var w refJSON[float64]
	err := json.Unmarshal(data, &w)
	if te := (*json.UnmarshalTypeError)(nil); errors.As(err, &te) {
		var nw refJSON[refMeasure]
		if err = json.Unmarshal(data, &nw); err == nil {
			w = refJSON[float64]{Name: nw.Name, Attrs: nw.Attrs, Rows: nw.Rows, Measures: make([]float64, len(nw.Measures))}
			for i, m := range nw.Measures {
				w.Measures[i] = float64(m)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if len(w.Rows) != len(w.Measures) {
		return nil, fmt.Errorf("%d rows but %d measures", len(w.Rows), len(w.Measures))
	}
	r, err := New(w.Name, w.Attrs)
	if err != nil {
		return nil, err
	}
	for i, row := range w.Rows {
		if err := r.Append(row, w.Measures[i]); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// sameBits reports whether two relations agree in name, schema, row order
// and every measure bit.
func sameBits(a, b *Relation) bool {
	if a.name != b.name || !reflect.DeepEqual(a.attrs, b.attrs) || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !reflect.DeepEqual(a.Row(i), b.Row(i)) || math.Float64bits(a.measures[i]) != math.Float64bits(b.measures[i]) {
			return false
		}
	}
	return true
}

// tableMeasures are the measures whose text sits at the edges of
// encoding/json's float64 rule.
var tableMeasures = []float64{
	0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 1e20, 1e21,
	5e-324, math.MaxFloat64, -1.5e-300, 0.1 + 0.2,
}

// TestMeasureEncodingMatchesEncodingJSON pins every edge of the float64
// rule: the appender writes what json.Marshal writes, and the decoder
// reads back the same bits.
func TestMeasureEncodingMatchesEncodingJSON(t *testing.T) {
	r := MustNew("m", []Attr{{Name: "x", Domain: len(tableMeasures)}})
	for i, m := range tableMeasures {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendMeasure(nil, m); !bytes.Equal(got, want) {
			t.Errorf("measure %v: appended %s, encoding/json writes %s", m, got, want)
		}
		r.MustAppend([]int32{int32(i)}, m)
	}
	data := r.AppendJSON(nil)
	want, err := refEncode(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("relation encodes\n%s\nwant\n%s", data, want)
	}
	var back Relation
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if !sameBits(&back, r) {
		t.Fatalf("round trip changed measures: %s", data)
	}
}

// relationSeeds are wire forms that reach every branch of the decoder:
// canonical ones, non-finite measures, the arity-0 forms, any member
// order, whitespace, unknown, repeated and case-folded members, nulls,
// and a spread of inputs both codecs refuse.
var relationSeeds = []string{
	`{"name":"price","attrs":[{"name":"pid","domain":3},{"name":"tid","domain":2}],"rows":[[2,0],[0,1],[1,1]],"measures":[4.5,0,1.7976931348623157e+308]}`,
	`{"name":"empty","attrs":[{"name":"x","domain":1}],"rows":[],"measures":[]}`,
	`{"name":"logp","attrs":[{"name":"x","domain":4}],"rows":[[0],[1],[2],[3]],"measures":["-Infinity",-0.25,"Infinity","NaN"]}`,
	`{"name":"m","attrs":[{"name":"x","domain":11}],"rows":[[0],[1],[2],[3],[4],[5],[6],[7],[8],[9],[10]],"measures":[0,-0,0.000001,9.99e-7,1e-7,100000000000000000000,1e+21,5e-324,1.7976931348623157e+308,-1.5e-300,0.30000000000000004]}`,
	`{"name":"total","attrs":[],"rows":[[]],"measures":[2.5]}`,
	`{"name":"total","attrs":null,"rows":[null],"measures":[2.5]}`,
	`null`,
	` { "measures" : [ 1 , 2 ] , "rows" : [ [ 1 ] , [ 0 ] ] , "attrs" : [ { "domain" : 2 , "name" : "x" } ] , "name" : "r" } `,
	`{"NAME":"r","Attrs":[{"name":"x","domain":2}],"rowſ":[[1]],"MEASURES":[1],"extra":{"a":[1,{"b":null}],"c":"é\n"}}`,
	`{"name":"ré","attrs":[{"name":"x","domain":2}],"rows":[[1]],"measures":[1]}`,
	`{"name":"r","attrs":[{"name":"x","domain":2},{"name":"y","domain":3}],"rows":[[1,2],[0,1]],"rows":[[null,0]],"measures":[5,6],"measures":[null]}`,
	`{"name":"r","attrs":[{"name":"x","domain":3}],"rows":[[1],[2]],"rows":[],"rows":[[null],[null]],"measures":[1,2]}`,
	`{"name":"r","name":null,"attrs":[{"name":"x","domain":2}],"rows":null,"measures":null}`,
	`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[-0]],"measures":[-0.0e0]}`,
	`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[5]],"measures":[1]}`,
	`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[1]],"measures":[1,2]}`,
	`{"name":"r","attrs":[{"name":"x","domain":0}],"rows":[],"measures":[]}`,
	`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[1]],"measures":["inf"]}`,
	`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[1]],"measures":[1e999]}`,
	`{"name":7,"attrs":[{"name":"x","domain":2}],"rows":[[1]],"measures":["NaN"]}`,
	`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[1.0]],"measures":[1]}`,
	`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[2147483648]],"measures":[1]}`,
	`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[1]],"measures":["NaN"]}`,
	`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[1]],"measures":[1]} x`,
	`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[01]],"measures":[1]}`,
	`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[1],],"measures":[1]}`,
	`{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[true]],"measures":[1]}`,
	`[1]`,
	``,
	// encoding/json's nesting limit: 10 000 levels pass, 10 001 do not.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

// FuzzRelationJSON checks the one-pass codec against the encoding/json
// reference on arbitrary bytes: both accept or both refuse, accepted
// relations agree bit for bit, and re-encoding one with variables writes
// the reference's bytes.
func FuzzRelationJSON(f *testing.F) {
	for _, s := range relationSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, refErr := refDecode(data)
		var got Relation
		err := got.UnmarshalJSON(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: decoder error %v, reference error %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !sameBits(&got, want) {
			t.Fatalf("%q: decoded %v, reference %v", data, &got, want)
		}
		if got.Arity() == 0 {
			return
		}
		enc, err := refEncode(want)
		if err != nil {
			t.Fatal(err)
		}
		if out := got.AppendJSON(nil); !bytes.Equal(out, enc) {
			t.Fatalf("%q: re-encodes\n%s\nreference\n%s", data, out, enc)
		}
	})
}

// TestUnmarshalJSONMember checks the member split a Result decodes with:
// the relation member, matched as encoding/json matches field names, and
// the rest copied through.
func TestUnmarshalJSONMember(t *testing.T) {
	for _, tc := range []struct {
		in, rest string
		rows     int // -1: no relation
	}{
		{`{"relation":{"name":"r","attrs":[{"name":"x","domain":2}],"rows":[[1]],"measures":[1]},"plan":"p","exec":{}}`, `{"plan":"p","exec":{}}`, 1},
		{`{"plan":"p", "RELATION" :null}`, `{"plan":"p"}`, -1},
		{`{"relation":{"name":"r","attrs":[],"rows":[],"measures":[]},"relation":{"name":"r","attrs":[],"rows":[[],[]],"measures":[1,2]}}`, `{}`, 2},
		{`{}`, `{}`, -1},
		{` null `, `null`, -1},
	} {
		rel, rest, err := UnmarshalJSONMember([]byte(tc.in), "relation")
		if err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if string(rest) != tc.rest {
			t.Errorf("%s: rest %s, want %s", tc.in, rest, tc.rest)
		}
		if rel == nil && tc.rows != -1 || rel != nil && rel.Len() != tc.rows {
			t.Errorf("%s: relation %v, want %d rows", tc.in, rel, tc.rows)
		}
	}
	for _, bad := range []string{`[]`, `{"relation":5}`, `{"relation":{"rows":[[1]]}}`, `{"plan":"p"`, `{"plan":"p"} {}`} {
		if _, _, err := UnmarshalJSONMember([]byte(bad), "relation"); err == nil {
			t.Errorf("%s decoded", bad)
		}
	}
}

// wideRelation is an n-row relation over three variables.
func wideRelation(n int) *Relation {
	r := MustNew("wide", []Attr{{Name: "a", Domain: 1000}, {Name: "b", Domain: 7}, {Name: "c", Domain: 50}})
	for i := 0; i < n; i++ {
		r.MustAppend([]int32{int32(i % 1000), int32(i % 7), int32(i % 50)}, float64(i)/3)
	}
	return r
}

// TestJSONAllocations pins the codec's allocations: appending into a
// reused buffer allocates only for the name and attributes, whatever the
// row count, and decoding allocates the same for 50 rows as for 500.
func TestJSONAllocations(t *testing.T) {
	buf := make([]byte, 0, 64<<10)
	appendAllocs := func(r *Relation) float64 {
		return testing.AllocsPerRun(20, func() { buf = r.AppendJSON(buf[:0]) })
	}
	head := testing.AllocsPerRun(20, func() {
		_, _ = json.Marshal(wireHead{Name: "wide", Attrs: wideRelation(0).attrs})
	})
	if got := appendAllocs(wideRelation(500)); got > head {
		t.Errorf("appending 500 rows allocates %v times, encoding name and attrs %v", got, head)
	}
	if raceEnabled {
		return // the decoder's scratch pool drops items at random
	}
	decodeAllocs := func(r *Relation) float64 {
		data := r.AppendJSON(nil)
		return testing.AllocsPerRun(20, func() {
			var back Relation
			if err := back.UnmarshalJSON(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := decodeAllocs(wideRelation(50)), decodeAllocs(wideRelation(500)); small != large {
		t.Errorf("decoding allocates %v times for 50 rows, %v for 500", small, large)
	}
}

// BenchmarkRelationJSON times the codec on a dashboard-sized answer.
func BenchmarkRelationJSON(b *testing.B) {
	r := wideRelation(250)
	data := r.AppendJSON(nil)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 2*len(data))
		for i := 0; i < b.N; i++ {
			buf = r.AppendJSON(buf[:0])
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var back Relation
			if err := back.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
