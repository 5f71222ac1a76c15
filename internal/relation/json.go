package relation

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// relationJSON is the wire form of a Relation: schema plus row-major
// values and a parallel measure column. The encoding is the canonical
// one shared by the HTTP wire protocol (internal/server) and any client
// that round-trips relations as JSON. M is float64 whenever every
// measure is finite, so such payloads encode and decode through
// encoding/json's own float path; WireMeasure carries the rest.
type relationJSON[M float64 | WireMeasure] struct {
	Name     string    `json:"name"`
	Attrs    []Attr    `json:"attrs"`
	Rows     [][]int32 `json:"rows"`
	Measures []M       `json:"measures"`
}

// WireMeasure is a measure in the JSON wire form. A finite value is a
// JSON number, encoded exactly as encoding/json encodes a float64; the
// values JSON numbers cannot carry are the strings "Infinity",
// "-Infinity" and "NaN", as in the protobuf JSON mapping. Log-space
// semirings need them: log 0 is −Inf.
type WireMeasure float64

// MarshalJSON encodes the measure as a number, or as a string when it is
// not finite.
func (m WireMeasure) MarshalJSON() ([]byte, error) {
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

// UnmarshalJSON decodes a number or one of the three non-finite strings.
func (m *WireMeasure) UnmarshalJSON(data []byte) error {
	if len(data) == 0 || data[0] != '"' {
		return json.Unmarshal(data, (*float64)(m))
	}
	switch string(data) {
	case `"NaN"`:
		*m = WireMeasure(math.NaN())
	case `"Infinity"`:
		*m = WireMeasure(math.Inf(1))
	case `"-Infinity"`:
		*m = WireMeasure(math.Inf(-1))
	default:
		return fmt.Errorf("relation: measure %s is neither a number nor Infinity, -Infinity or NaN", data)
	}
	return nil
}

// MarshalJSON encodes the relation as
// {"name":...,"attrs":[...],"rows":[[...]...],"measures":[...]}.
// Row order is preserved; callers needing a canonical byte encoding
// should Sort first. Non-finite measures encode as WireMeasure strings.
func (r *Relation) MarshalJSON() ([]byte, error) {
	rows := make([][]int32, r.Len())
	for i := range rows {
		rows[i] = r.Row(i)
	}
	finite := true
	for _, m := range r.measures {
		if math.IsInf(m, 0) || math.IsNaN(m) {
			finite = false
			break
		}
	}
	if finite {
		measures := r.measures
		if measures == nil {
			measures = []float64{}
		}
		return json.Marshal(relationJSON[float64]{Name: r.name, Attrs: r.attrs, Rows: rows, Measures: measures})
	}
	measures := make([]WireMeasure, len(r.measures))
	for i, m := range r.measures {
		measures[i] = WireMeasure(m)
	}
	return json.Marshal(relationJSON[WireMeasure]{Name: r.name, Attrs: r.attrs, Rows: rows, Measures: measures})
}

// UnmarshalJSON decodes the wire form, validating the schema (unique
// attribute names, positive domains) and every value against its
// attribute domain. The functional-dependency check is not performed
// here — CreateTable and hypothetical validation do that where it
// matters — so decoding stays linear in the payload.
func (r *Relation) UnmarshalJSON(data []byte) error {
	var w relationJSON[float64]
	err := json.Unmarshal(data, &w)
	if te := (*json.UnmarshalTypeError)(nil); errors.As(err, &te) {
		// A string where a number was expected: a non-finite measure,
		// or a type error the second decode reports as well.
		var nw relationJSON[WireMeasure]
		if err = json.Unmarshal(data, &nw); err == nil {
			w = relationJSON[float64]{Name: nw.Name, Attrs: nw.Attrs, Rows: nw.Rows, Measures: make([]float64, len(nw.Measures))}
			for i, m := range nw.Measures {
				w.Measures[i] = float64(m)
			}
		}
	}
	if err != nil {
		return err
	}
	if len(w.Rows) != len(w.Measures) {
		return fmt.Errorf("relation %s: %d rows but %d measures", w.Name, len(w.Rows), len(w.Measures))
	}
	fresh, err := New(w.Name, w.Attrs)
	if err != nil {
		return err
	}
	for i, row := range w.Rows {
		if err := fresh.Append(row, w.Measures[i]); err != nil {
			return err
		}
	}
	*r = *fresh
	return nil
}
