// Package sqlx is a small SQL front end for the MPF engine. It supports
// the paper's language extensions (§2): functional-relation DDL, the
// `create mpfview ... measure = (* s1.f, ..., sn.f)` view definition, MPF
// select/where/group-by queries, and a `using <algorithm>` clause that
// selects the evaluation strategy (the paper's PostgreSQL extension that
// specifies the evaluation strategy).
//
// Grammar (case-insensitive keywords; identifiers are [a-z_][a-z0-9_]*):
//
//	stmt        := create_table | insert | create_view
//	             | drop | select | explain
//	create_table:= CREATE TABLE name '(' attr (',' attr)* ')'
//	drop        := DROP (TABLE | MPFVIEW) name
//	attr        := name DOMAIN int
//	insert      := INSERT INTO name VALUES '(' int (',' int)* ',' number ')'
//	create_view := CREATE MPFVIEW name AS '(' SELECT sel_list
//	               [',' MEASURE '=' '(' '*' name'.'f (',' name'.'f)* ')']
//	               FROM name (',' name)* [WHERE joinquals] ')'
//	select      := SELECT var (',' var)* ',' agg '(' name ')'
//	               FROM name [WHERE eq (AND eq)*] GROUP BY var (',' var)*
//	               [HAVING name cmp number] [USING strategy]
//	explain     := EXPLAIN [ANALYZE] select
//	agg         := SUM | MIN | MAX
//	eq          := name '=' int
//	cmp         := '<' | '<=' | '>' | '>=' | '='
package sqlx

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokPunct // single characters: ( ) , = * . ;
	tokString
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex splits input into tokens. Keywords are returned as identifiers and
// matched case-insensitively by the parser.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < n && (isIdentRune(rune(input[i]))) {
				i++
			}
			toks = append(toks, token{tokIdent, input[start:i], start})
		case unicode.IsDigit(c) || (c == '-' && i+1 < n && unicode.IsDigit(rune(input[i+1]))):
			start := i
			i++
			seenDot := false
			for i < n {
				r := rune(input[i])
				if unicode.IsDigit(r) {
					i++
					continue
				}
				if r == '.' && !seenDot && i+1 < n && unicode.IsDigit(rune(input[i+1])) {
					seenDot = true
					i++
					continue
				}
				if r == 'e' || r == 'E' {
					j := i + 1
					if j < n && (input[j] == '+' || input[j] == '-') {
						j++
					}
					if j < n && unicode.IsDigit(rune(input[j])) {
						i = j + 1
						continue
					}
				}
				break
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			for i < n && input[i] != '\'' {
				i++
			}
			if i >= n {
				return nil, fmt.Errorf("sqlx: unterminated string at offset %d", start)
			}
			toks = append(toks, token{tokString, input[start+1 : i], start})
			i++
		case strings.ContainsRune("(),=*.;+&<>", c):
			toks = append(toks, token{tokPunct, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("sqlx: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
