package relation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// The wire form of a Relation is the JSON object
//
//	{"name":...,"attrs":[{"name":...,"domain":...},...],"rows":[[...],...],"measures":[...]}
//
// with rows row-major and measures parallel to them. It is the canonical
// encoding shared by the HTTP wire protocol (internal/server) and every
// client that round-trips relations; DESIGN.md "Wire protocol" states its
// byte contract. One appender writes it and one decoder reads it, each in
// a single pass over the bytes.

// WireMeasure is a measure in the JSON wire form. A finite value is a
// JSON number, encoded exactly as encoding/json encodes a float64; the
// values JSON numbers cannot carry are the strings "Infinity",
// "-Infinity" and "NaN", as in the protobuf JSON mapping. Log-space
// semirings need them: log 0 is −Inf.
type WireMeasure float64

// MarshalJSON encodes the measure as a number, or as a string when it is
// not finite.
func (m WireMeasure) MarshalJSON() ([]byte, error) {
	return appendMeasure(nil, float64(m)), nil
}

// UnmarshalJSON decodes a number or one of the three non-finite strings.
func (m *WireMeasure) UnmarshalJSON(data []byte) error {
	if len(data) == 0 || data[0] != '"' {
		return json.Unmarshal(data, (*float64)(m))
	}
	f, ok := nonFinite(data[1 : len(data)-1])
	if !ok {
		return fmt.Errorf("relation: measure %s is neither a number nor Infinity, -Infinity or NaN", data)
	}
	*m = WireMeasure(f)
	return nil
}

// nonFinite reads the unquoted text of a non-finite measure string. The
// text is compared as written, escapes included.
func nonFinite(text []byte) (float64, bool) {
	switch string(text) {
	case "NaN":
		return math.NaN(), true
	case "Infinity":
		return math.Inf(1), true
	case "-Infinity":
		return math.Inf(-1), true
	}
	return 0, false
}

// appendMeasure appends one measure as encoding/json writes a float64 —
// the shortest 'f' form, 'e' outside [1e-6, 1e21) with e-07 written e-7 —
// or, when it is not finite, as a WireMeasure string.
func appendMeasure(dst []byte, m float64) []byte {
	switch {
	case math.IsNaN(m):
		return append(dst, `"NaN"`...)
	case math.IsInf(m, 1):
		return append(dst, `"Infinity"`...)
	case math.IsInf(m, -1):
		return append(dst, `"-Infinity"`...)
	}
	format := byte('f')
	if abs := math.Abs(m); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, m, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// wireHead is the part of the wire form that goes through encoding/json,
// so that names are escaped exactly as the standard library escapes them.
type wireHead struct {
	Name  string `json:"name"`
	Attrs []Attr `json:"attrs"`
}

// MarshalJSON encodes the relation in its wire form; it is AppendJSON(nil).
func (r *Relation) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil), nil
}

// AppendJSON appends the relation's wire form to dst and returns the
// extended buffer. Row order is preserved; callers needing a canonical
// byte encoding should Sort first. Non-finite measures encode as
// WireMeasure strings, and a relation without variables as "attrs":[]
// with one empty list per row.
func (r *Relation) AppendJSON(dst []byte) []byte {
	attrs := r.attrs
	if attrs == nil {
		attrs = []Attr{}
	}
	// A string and a list of Attr always encode.
	head, _ := json.Marshal(wireHead{Name: r.name, Attrs: attrs})
	dst = append(dst, head[:len(head)-1]...)
	dst = append(dst, `,"rows":[`...)
	a := len(r.attrs)
	for i := range r.measures {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range r.vals[i*a : i*a+a] {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `],"measures":[`...)
	for i, m := range r.measures {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendMeasure(dst, m)
	}
	return append(dst, "]}"...)
}

// UnmarshalJSON decodes the wire form, validating the schema (unique
// attribute names, positive domains) and every value against its
// attribute domain, as New and Append do. The functional-dependency
// check is not performed here — CreateTable and hypothetical validation
// do that where it matters — so decoding stays linear in the payload.
//
// The decoder accepts exactly what encoding/json accepts for the wire
// form: members in any order, whitespace, null, unknown and repeated
// members, and member names matched without regard to case. A
// top-level null decodes as an empty relation without variables.
func (r *Relation) UnmarshalJSON(data []byte) error {
	d := decoder{data: data}
	rel, err := d.relation()
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return err
	}
	*r = *rel
	return nil
}

// UnmarshalJSONMember decodes the JSON object data in one pass. The
// member named key — matched as encoding/json matches a field name —
// decodes as a relation; null, or no such member, gives nil, and a
// repeated member replaces the earlier one. Every other member is copied
// in order into rest, a JSON object for encoding/json to decode into the
// caller's remaining fields. A null data gives a nil relation and a null
// rest.
func UnmarshalJSONMember(data []byte, key string) (rel *Relation, rest []byte, err error) {
	d := decoder{data: data}
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return nil, nil, err
		}
		return nil, []byte("null"), d.end()
	case '{':
	default:
		return nil, nil, d.unexpected("an object")
	}
	rest = append(rest, '{')
	err = d.object(func(quoted, name []byte) error {
		if strings.EqualFold(string(name), key) {
			if d.peek() == 'n' {
				rel = nil
				return d.literal("null")
			}
			r, err := d.relation()
			rel = r
			return err
		}
		start := d.off
		if err := d.skip(); err != nil {
			return err
		}
		if len(rest) > 1 {
			rest = append(rest, ',')
		}
		rest = append(rest, quoted...)
		rest = append(rest, ':')
		rest = append(rest, d.data[start:d.off]...)
		return nil
	})
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, nil, err
	}
	return rel, append(rest, '}'), nil
}

// maxDepth is encoding/json's nesting limit, so that the decoder refuses
// the same deeply nested input.
const maxDepth = 10000

// decoder walks JSON text once. Every value it passes over is checked
// against the JSON grammar, so it rejects what encoding/json's validity
// scan rejects.
type decoder struct {
	data  []byte
	off   int
	depth int
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// end checks that only whitespace follows the decoded value.
func (d *decoder) end() error {
	if d.peek(); d.off < len(d.data) {
		return d.unexpected("the end of the input")
	}
	return nil
}

// unexpected reports the byte at d.off, or the end of the input.
func (d *decoder) unexpected(want string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("relation: unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("relation: unexpected %q at offset %d of the JSON input, want %s", d.data[d.off], d.off, want)
}

// next consumes the separator after a list element or object member: it
// reports whether another one follows, or consumes the closing byte.
func (d *decoder) next(closing byte) (bool, error) {
	switch d.peek() {
	case ',':
		d.off++
		return true, nil
	case closing:
		d.off++
		d.depth--
		return false, nil
	}
	return false, d.unexpected(fmt.Sprintf("',' or '%c'", closing))
}

// open consumes the opening byte of a list or object, reporting whether
// it is empty (and then consumes its closing byte too).
func (d *decoder) open(closing byte) (empty bool, err error) {
	d.off++
	if d.depth++; d.depth > maxDepth {
		return false, errors.New("relation: JSON input nested too deeply")
	}
	if d.peek() == closing {
		d.off++
		d.depth--
		return true, nil
	}
	return false, nil
}

// literal consumes true, false or null.
func (d *decoder) literal(word string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(word)) {
		return d.unexpected(word)
	}
	d.off += len(word)
	return nil
}

// str consumes a string and returns its text between the quotes, escapes
// still in place, and whether it holds any.
func (d *decoder) str() (text []byte, escaped bool, err error) {
	start := d.off + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], escaped, nil
		case c == '\\':
			escaped = true
			if i++; i == len(d.data) {
				break
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i == len(d.data) || !isHex(d.data[i]) {
						d.off = i
						return nil, false, d.unexpected("a hex digit")
					}
				}
			default:
				d.off = i
				return nil, false, d.unexpected("an escape")
			}
		case c < ' ':
			d.off = i
			return nil, false, d.unexpected("a string byte")
		}
	}
	d.off = len(d.data)
	return nil, false, d.unexpected(`'"'`)
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits consumes a run of digits, reporting whether there was one.
func (d *decoder) digits() bool {
	start := d.off
	for d.off < len(d.data) && isDigit(d.data[d.off]) {
		d.off++
	}
	return d.off > start
}

// number consumes a number and returns its text.
func (d *decoder) number() ([]byte, error) {
	start := d.off
	if d.data[d.off] == '-' {
		d.off++
	}
	switch {
	case d.off < len(d.data) && d.data[d.off] == '0':
		d.off++
	case !d.digits():
		return nil, d.unexpected("a digit")
	}
	if d.off < len(d.data) && d.data[d.off] == '.' {
		d.off++
		if !d.digits() {
			return nil, d.unexpected("a digit")
		}
	}
	if d.off < len(d.data) && (d.data[d.off] == 'e' || d.data[d.off] == 'E') {
		d.off++
		if d.off < len(d.data) && (d.data[d.off] == '+' || d.data[d.off] == '-') {
			d.off++
		}
		if !d.digits() {
			return nil, d.unexpected("a digit")
		}
	}
	return d.data[start:d.off], nil
}

// skip consumes any one value, checking its grammar.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func(_, _ []byte) error { return d.skip() })
	case c == '[':
		return d.list(d.skip)
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	}
	return d.unexpected("a value")
}

// list consumes the list at d.off, calling elem with d.off at each
// element, which elem must consume.
func (d *decoder) list(elem func() error) error {
	if empty, err := d.open(']'); empty || err != nil {
		return err
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if more, err := d.next(']'); !more || err != nil {
			return err
		}
	}
}

// object consumes the object at d.off, calling member for each member
// with its key as written (quotes included), its key unescaped, and
// d.off at its value, which member must consume.
func (d *decoder) object(member func(quoted, key []byte) error) error {
	if empty, err := d.open('}'); empty || err != nil {
		return err
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("a member name")
		}
		start := d.off
		key, escaped, err := d.str()
		if err != nil {
			return err
		}
		quoted := d.data[start:d.off]
		if escaped {
			var s string
			if err := json.Unmarshal(quoted, &s); err != nil {
				return err
			}
			key = []byte(s)
		}
		if d.peek() != ':' {
			return d.unexpected("':'")
		}
		d.off++
		if err := member(quoted, key); err != nil {
			return err
		}
		if more, err := d.next('}'); !more || err != nil {
			return err
		}
	}
}

// scratch holds a relation's rows and measures while they are decoded:
// the schema may follow them, and the relation's own slices are sized
// once their lengths are known. Scratches are pooled, so decoding
// allocates the same whatever the row count.
type scratch struct {
	vals []int32 // row values, flat
	ends []int   // ends[i] is the end of row i in vals
	// measures holds every measure decoded since the member was last
	// reset, nm of them current; see measures.
	measures []float64
	nm       int
	// hist serves a repeated rows member; see rows.
	hist [][]int32
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// maxPooled bounds the slices of a scratch returned to the pool, so one
// large relation does not pin its buffers for every later decode.
const maxPooled = 1 << 16

// relation decodes a relation's wire form at d.off.
func (d *decoder) relation() (*Relation, error) {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return nil, err
		}
		return New("", nil)
	case '{':
	default:
		return nil, d.unexpected("a relation object")
	}
	s := scratches.Get().(*scratch)
	defer func() {
		if cap(s.vals) <= maxPooled && cap(s.ends) <= maxPooled && cap(s.measures) <= maxPooled {
			s.hist = nil
			scratches.Put(s)
		}
	}()
	*s = scratch{vals: s.vals[:0], ends: s.ends[:0], measures: s.measures[:0]}
	var name string
	var attrs []Attr
	err := d.object(func(_, key []byte) error {
		switch k := string(key); {
		case strings.EqualFold(k, "name"):
			return d.name(&name)
		case strings.EqualFold(k, "attrs"):
			start := d.off
			if err := d.skip(); err != nil {
				return err
			}
			return json.Unmarshal(d.data[start:d.off], &attrs)
		case strings.EqualFold(k, "rows"):
			return d.rows(s)
		case strings.EqualFold(k, "measures"):
			return d.measures(s)
		}
		return d.skip()
	})
	if err != nil {
		return nil, err
	}
	return s.relation(name, attrs)
}

// name decodes the name member; null leaves it as it was.
func (d *decoder) name(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.unexpected("a string")
	}
	start := d.off
	text, escaped, err := d.str()
	if err != nil {
		return err
	}
	if !escaped && utf8.Valid(text) {
		*dst = string(text)
		return nil
	}
	return json.Unmarshal(d.data[start:d.off], dst)
}

// rows decodes the rows member into s.vals and s.ends. encoding/json
// decodes a repeated member into the slices the earlier one left, where a
// null value keeps what was decoded at its place before; s.hist keeps
// those values for a repeated member. A null or empty list, as a row or as
// the whole member, starts afresh.
func (d *decoder) rows(s *scratch) error {
	switch d.peek() {
	case 'n':
		s.vals, s.ends, s.hist = s.vals[:0], s.ends[:0], nil
		return d.literal("null")
	case '[':
	default:
		return d.unexpected("a list of rows")
	}
	s.keepRows()
	s.vals, s.ends = s.vals[:0], s.ends[:0]
	err := d.list(func() error {
		switch d.peek() {
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case '[':
			if err := d.row(s); err != nil {
				return err
			}
		default:
			return d.unexpected("a row")
		}
		s.ends = append(s.ends, len(s.vals))
		return nil
	})
	if len(s.ends) == 0 {
		s.hist = nil
	}
	return err
}

// row decodes one row's values onto s.vals. A number with a fraction or
// an exponent, or one outside the int32 range, is refused as
// encoding/json refuses it.
func (d *decoder) row(s *scratch) error {
	j, start := len(s.ends), len(s.vals)
	return d.list(func() error {
		var v int32
		switch c := d.peek(); {
		case c == 'n':
			if h, k := s.hist, len(s.vals)-start; j < len(h) && k < len(h[j]) {
				v = h[j][k]
			}
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			text, err := d.number()
			if err != nil {
				return err
			}
			n, err := strconv.ParseInt(string(text), 10, 32)
			if err != nil {
				return fmt.Errorf("relation: row value %s: %w", text, err)
			}
			v = int32(n)
		default:
			return d.unexpected("a row value")
		}
		s.vals = append(s.vals, v)
		return nil
	})
}

// keepRows folds the rows an earlier rows member decoded into s.hist, the
// values a repeated member decodes over.
func (s *scratch) keepRows() {
	start := 0
	for j, end := range s.ends {
		if j == len(s.hist) {
			s.hist = append(s.hist, nil)
		}
		row := s.vals[start:end]
		switch h := s.hist[j]; {
		case len(row) == 0:
			s.hist[j] = nil
		case len(row) >= len(h):
			s.hist[j] = append(h[:0], row...)
		default:
			copy(h, row)
		}
		start = end
	}
}

// measures decodes the measures member into s.measures. Like rows, a
// repeated member decodes over the values the earlier one left: s.measures
// keeps all of them, and s.nm counts the current ones.
func (d *decoder) measures(s *scratch) error {
	switch d.peek() {
	case 'n':
		s.measures, s.nm = s.measures[:0], 0
		return d.literal("null")
	case '[':
	default:
		return d.unexpected("a list of measures")
	}
	s.nm = 0
	err := d.list(func() error {
		if s.nm == len(s.measures) {
			s.measures = append(s.measures, 0)
		}
		s.nm++
		return d.measure(&s.measures[s.nm-1])
	})
	if s.nm == 0 {
		s.measures = s.measures[:0]
	}
	return err
}

// measure decodes one measure: a number, a non-finite WireMeasure string,
// or null, which leaves *m as it was.
func (d *decoder) measure(m *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '"':
		text, _, err := d.str()
		if err != nil {
			return err
		}
		f, ok := nonFinite(text)
		if !ok {
			return fmt.Errorf("relation: measure %q is neither a number nor Infinity, -Infinity or NaN", text)
		}
		*m = f
		return nil
	case c == '-' || isDigit(c):
		text, err := d.number()
		if err != nil {
			return err
		}
		f, err := strconv.ParseFloat(string(text), 64)
		if err != nil {
			return fmt.Errorf("relation: measure %s: %w", text, err)
		}
		*m = f
		return nil
	}
	return d.unexpected("a measure")
}

// relation builds the decoded relation, checking it as New and Append do.
func (s *scratch) relation(name string, attrs []Attr) (*Relation, error) {
	n := len(s.ends)
	if n != s.nm {
		return nil, fmt.Errorf("relation %s: %d rows but %d measures", name, n, s.nm)
	}
	r, err := New(name, attrs)
	if err != nil {
		return nil, err
	}
	start := 0
	for _, end := range s.ends {
		if err := r.checkRow(s.vals[start:end]); err != nil {
			return nil, err
		}
		start = end
	}
	if n > 0 {
		r.measures = append(make([]float64, 0, n), s.measures[:n]...)
	}
	if len(s.vals) > 0 {
		r.vals = append(make([]int32, 0, len(s.vals)), s.vals...)
	}
	return r, nil
}
