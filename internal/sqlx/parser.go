package sqlx

import (
	"fmt"
	"strconv"
	"strings"

	"mpf/internal/relation"
)

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// CreateTable declares a functional relation's variable attributes (the
// measure column f is implicit).
type CreateTable struct {
	Name  string
	Attrs []relation.Attr
}

func (*CreateTable) stmt() {}

// Insert adds one tuple (variable values then measure) to a table.
type Insert struct {
	Table   string
	Values  []int32
	Measure float64
}

func (*Insert) stmt() {}

// Drop removes a table or a view: DROP TABLE t / DROP MPFVIEW v.
type Drop struct {
	// View selects view semantics; otherwise a table is dropped.
	View bool
	Name string
}

func (*Drop) stmt() {}

// CreateView is the paper's `create mpfview` statement.
type CreateView struct {
	Name string
	// Vars is the select list (informational; the view spans the union
	// of base-table variables).
	Vars []string
	// MeasureTables lists the tables whose measures the `measure = (* …)`
	// clause multiplies; empty when the clause is omitted.
	MeasureTables []string
	// Tables is the from list.
	Tables []string
}

func (*CreateView) stmt() {}

// Select is an MPF query, optionally explained instead of executed.
type Select struct {
	Explain bool
	// Analyze (EXPLAIN ANALYZE) executes the query and reports the
	// per-operator actuals instead of the result rows.
	Analyze   bool
	GroupVars []string
	// Agg is the aggregate name: sum, min or max.
	Agg string
	// MeasureArg is the aggregated column name (informational).
	MeasureArg string
	View       string
	Where      relation.Predicate
	// HavingOp and HavingValue hold the constrained-range clause
	// ("having f < c"); HavingOp is empty when absent.
	HavingOp    string
	HavingValue float64
	// Using names the evaluation strategy (optimizer), empty for the
	// database default.
	Using string
}

func (*Select) stmt() {}

// Parse parses one statement (a trailing semicolon is allowed).
func Parse(input string) (Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokPunct, ";")
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sqlx: trailing input at %v", p.peek())
	}
	return st, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(input string) ([]Statement, error) {
	var out []Statement
	for _, piece := range splitStatements(input) {
		if strings.TrimSpace(piece) == "" {
			continue
		}
		st, err := Parse(piece)
		if err != nil {
			return nil, fmt.Errorf("%w (in statement %q)", err, strings.TrimSpace(piece))
		}
		out = append(out, st)
	}
	return out, nil
}

// splitStatements splits on semicolons outside quotes.
func splitStatements(input string) []string {
	var parts []string
	depth := false
	start := 0
	for i := 0; i < len(input); i++ {
		switch input[i] {
		case '\'':
			depth = !depth
		case ';':
			if !depth {
				parts = append(parts, input[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, input[start:])
	return parts
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// at reports whether the current token matches kind (and text for
// punctuation/keywords; text match is case-insensitive).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	if t.kind != kind {
		return false
	}
	return text == "" || strings.EqualFold(t.text, text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = map[tokenKind]string{tokIdent: "identifier", tokNumber: "number"}[kind]
		}
		return token{}, fmt.Errorf("sqlx: expected %s, found %v", want, p.peek())
	}
	return p.next(), nil
}

func (p *parser) keyword(word string) error {
	_, err := p.expect(tokIdent, word)
	return err
}

func (p *parser) ident() (string, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return "", err
	}
	return strings.ToLower(t.text), nil
}

func (p *parser) intLit() (int64, error) {
	t, err := p.expect(tokNumber, "")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sqlx: %q is not an integer", t.text)
	}
	return v, nil
}

func (p *parser) numberLit() (float64, error) {
	t, err := p.expect(tokNumber, "")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("sqlx: %q is not a number", t.text)
	}
	return v, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(tokIdent, "create"):
		p.next()
		switch {
		case p.at(tokIdent, "table"):
			p.next()
			return p.createTable()
		case p.at(tokIdent, "mpfview"):
			p.next()
			return p.createView()
		default:
			return nil, fmt.Errorf("sqlx: expected TABLE or MPFVIEW after CREATE, found %v", p.peek())
		}
	case p.at(tokIdent, "drop"):
		p.next()
		isView := false
		switch {
		case p.accept(tokIdent, "table"):
		case p.accept(tokIdent, "mpfview"):
			isView = true
		default:
			return nil, fmt.Errorf("sqlx: expected TABLE or MPFVIEW after DROP, found %v", p.peek())
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Drop{View: isView, Name: name}, nil
	case p.at(tokIdent, "insert"):
		p.next()
		return p.insert()
	case p.at(tokIdent, "select"):
		p.next()
		return p.selectStmt(false)
	case p.at(tokIdent, "explain"):
		p.next()
		analyze := p.accept(tokIdent, "analyze")
		if err := p.keyword("select"); err != nil {
			return nil, err
		}
		st, err := p.selectStmt(true)
		if err != nil {
			return nil, err
		}
		st.(*Select).Analyze = analyze
		return st, nil
	default:
		return nil, fmt.Errorf("sqlx: expected a statement, found %v", p.peek())
	}
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	st := &CreateTable{Name: name}
	for {
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.keyword("domain"); err != nil {
			return nil, err
		}
		d, err := p.intLit()
		if err != nil {
			return nil, err
		}
		st.Attrs = append(st.Attrs, relation.Attr{Name: attr, Domain: int(d)})
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) insert() (Statement, error) {
	if err := p.keyword("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("values"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var nums []float64
	for {
		v, err := p.numberLit()
		if err != nil {
			return nil, err
		}
		nums = append(nums, v)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	if len(nums) < 1 {
		return nil, fmt.Errorf("sqlx: insert needs at least a measure value")
	}
	st := &Insert{Table: name, Measure: nums[len(nums)-1]}
	for _, v := range nums[:len(nums)-1] {
		iv := int32(v)
		if float64(iv) != v {
			return nil, fmt.Errorf("sqlx: variable value %v is not an integer", v)
		}
		st.Values = append(st.Values, iv)
	}
	return st, nil
}

func (p *parser) createView() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("as"); err != nil {
		return nil, err
	}
	paren := p.accept(tokPunct, "(")
	if err := p.keyword("select"); err != nil {
		return nil, err
	}
	st := &CreateView{Name: name}
	// Select list: identifiers or * until MEASURE or FROM.
	for {
		if p.at(tokIdent, "measure") || p.at(tokIdent, "from") {
			break
		}
		if p.accept(tokPunct, "*") {
			if !p.accept(tokPunct, ",") {
				break
			}
			continue
		}
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Vars = append(st.Vars, v)
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	// Optional measure clause: measure = (* t1.f, t2.f, ...).
	if p.accept(tokIdent, "measure") {
		if _, err := p.expect(tokPunct, "="); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "*"); err != nil {
			return nil, err
		}
		for {
			tbl, err := p.ident()
			if err != nil {
				return nil, err
			}
			if p.accept(tokPunct, ".") {
				if _, err := p.ident(); err != nil {
					return nil, err
				}
			}
			st.MeasureTables = append(st.MeasureTables, tbl)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.keyword("from"); err != nil {
		return nil, err
	}
	aliases := make(map[string]string)
	for {
		tbl, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Tables = append(st.Tables, tbl)
		// Optional table alias (the paper writes `from contracts c`).
		if p.at(tokIdent, "") && !p.at(tokIdent, "where") {
			alias, _ := p.ident()
			if other, dup := aliases[alias]; dup && other != tbl {
				return nil, fmt.Errorf("sqlx: alias %s bound to both %s and %s", alias, other, tbl)
			}
			aliases[alias] = tbl
		}
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	// Optional where joinquals: parsed and discarded — product joins are
	// natural joins on shared variable names, so explicit equality quals
	// on same-named columns are redundant; they are validated for shape.
	if p.accept(tokIdent, "where") {
		for {
			if err := p.qualifiedEquality(); err != nil {
				return nil, err
			}
			if p.accept(tokIdent, "and") {
				continue
			}
			break
		}
	}
	if paren {
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
	}
	if len(st.MeasureTables) > 0 {
		have := make(map[string]bool, len(st.Tables))
		for _, t := range st.Tables {
			have[t] = true
		}
		for i, t := range st.MeasureTables {
			if have[t] {
				continue
			}
			if full, ok := aliases[t]; ok {
				st.MeasureTables[i] = full
				continue
			}
			return nil, fmt.Errorf("sqlx: measure clause references %s which is not in FROM", t)
		}
	}
	return st, nil
}

// qualifiedEquality parses t1.a = t2.b (or a = b) and discards it.
func (p *parser) qualifiedEquality() error {
	if _, err := p.ident(); err != nil {
		return err
	}
	if p.accept(tokPunct, ".") {
		if _, err := p.ident(); err != nil {
			return err
		}
	}
	if _, err := p.expect(tokPunct, "="); err != nil {
		return err
	}
	if _, err := p.ident(); err != nil {
		return err
	}
	if p.accept(tokPunct, ".") {
		if _, err := p.ident(); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) selectStmt(explain bool) (Statement, error) {
	st := &Select{Explain: explain, Where: relation.Predicate{}}
	// Select list: group variables then one aggregate call.
	for {
		if p.at(tokIdent, "sum") || p.at(tokIdent, "min") || p.at(tokIdent, "max") {
			agg, _ := p.ident()
			st.Agg = agg
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			arg, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.MeasureArg = arg
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			break
		}
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.GroupVars = append(st.GroupVars, v)
		if _, err := p.expect(tokPunct, ","); err != nil {
			return nil, fmt.Errorf("sqlx: select list must end with an aggregate: %w", err)
		}
	}
	if st.Agg == "" {
		return nil, fmt.Errorf("sqlx: select list needs an aggregate (sum/min/max)")
	}
	if err := p.keyword("from"); err != nil {
		return nil, err
	}
	view, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.View = view
	if p.accept(tokIdent, "where") {
		for {
			v, err := p.ident()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "="); err != nil {
				return nil, err
			}
			val, err := p.intLit()
			if err != nil {
				return nil, err
			}
			if _, dup := st.Where[v]; dup {
				return nil, fmt.Errorf("sqlx: duplicate predicate on %s", v)
			}
			st.Where[v] = int32(val)
			if p.accept(tokIdent, "and") {
				continue
			}
			break
		}
	}
	if err := p.keyword("group"); err != nil {
		return nil, err
	}
	if err := p.keyword("by"); err != nil {
		return nil, err
	}
	var groupBy []string
	for {
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		groupBy = append(groupBy, v)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if !sameStrings(st.GroupVars, groupBy) {
		return nil, fmt.Errorf("sqlx: select list variables %v must match group by %v", st.GroupVars, groupBy)
	}
	if p.accept(tokIdent, "having") {
		if _, err := p.ident(); err != nil { // the measure column name
			return nil, err
		}
		op := ""
		switch {
		case p.accept(tokPunct, "<"):
			op = "<"
		case p.accept(tokPunct, ">"):
			op = ">"
		case p.accept(tokPunct, "="):
			op = "="
		default:
			return nil, fmt.Errorf("sqlx: expected comparison in HAVING, found %v", p.peek())
		}
		if op != "=" && p.accept(tokPunct, "=") {
			op += "="
		}
		v, err := p.numberLit()
		if err != nil {
			return nil, err
		}
		st.HavingOp, st.HavingValue = op, v
	}
	if p.accept(tokIdent, "using") {
		var b strings.Builder
		for !p.at(tokEOF, "") && !p.at(tokPunct, ";") {
			b.WriteString(p.next().text)
		}
		st.Using = strings.ToLower(b.String())
		if st.Using == "" {
			return nil, fmt.Errorf("sqlx: USING clause needs a strategy name")
		}
	}
	return st, nil
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]bool, len(a))
	for _, x := range a {
		seen[x] = true
	}
	for _, y := range b {
		if !seen[y] {
			return false
		}
	}
	return true
}
