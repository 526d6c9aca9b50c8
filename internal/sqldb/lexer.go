// Package sqldb implements the SQL front end of the reproduction: a lexer,
// parser, rule-based planner and executor over the rel storage layer, plus
// the object-relational extensible-indexing hooks of paper §5.
//
// The dialect covers exactly what the paper's figures need — DDL
// (Figure 2), single-statement DML (Figure 5), and SELECT with composite
// index range scans, transient collection iterators, BETWEEN, UNION ALL and
// bind variables (Figures 8, 9, 11) — with EXPLAIN producing the Figure 10
// plan shape.
package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tkEOF tokenKind = iota
	tkIdent
	tkNumber
	tkBind   // :name
	tkSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // identifiers are lower-cased; symbols canonical
	pos  int
}

// lexer tokenizes a SQL string.
type lexer struct {
	src    string
	pos    int
	tokens []token
}

// lex splits src into tokens. Identifiers and keywords are folded to lower
// case (the dialect is case-insensitive, like SQL).
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(tkEOF, "", l.pos)
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.pos++
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			l.emit(tkIdent, strings.ToLower(l.src[start:l.pos]), start)
		case c >= '0' && c <= '9':
			l.pos++
			for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '_') {
				l.pos++
			}
			l.emit(tkNumber, strings.ReplaceAll(l.src[start:l.pos], "_", ""), start)
		case c == ':':
			l.pos++
			if l.pos >= len(l.src) || !isIdentStart(rune(l.src[l.pos])) {
				return nil, fmt.Errorf("sql: lone ':' at offset %d", start)
			}
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			l.emit(tkBind, strings.ToLower(l.src[start+1:l.pos]), start)
		default:
			// Multi-character operators first.
			two := ""
			if l.pos+1 < len(l.src) {
				two = l.src[l.pos : l.pos+2]
			}
			switch two {
			case ">=", "<=", "<>", "!=":
				l.pos += 2
				if two == "!=" {
					two = "<>"
				}
				l.emit(tkSymbol, two, start)
				continue
			}
			switch c {
			case '(', ')', ',', '*', '+', '-', '/', '=', '<', '>', '.', ';':
				l.pos++
				l.emit(tkSymbol, string(c), start)
			case '\'':
				return nil, fmt.Errorf("sql: string literals are not supported (offset %d); the reproduction's relations are all-integer like the paper's schema", start)
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
			}
		}
	}
}

func (l *lexer) emit(kind tokenKind, text string, pos int) {
	l.tokens = append(l.tokens, token{kind: kind, text: text, pos: pos})
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// BindNames returns the distinct :name bind variables of src in order of
// first appearance (lower-cased, without the colon): the positions of a
// prepared statement's arguments. The database/sql driver uses it to
// place sql.Named arguments.
func BindNames(src string) ([]string, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return bindNames(toks), nil
}

func bindNames(toks []token) []string {
	n := 0
	for _, tk := range toks {
		if tk.kind == tkBind {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	names := make([]string, 0, n)
	for _, tk := range toks {
		if tk.kind == tkBind && !slices.Contains(names, tk.text) {
			names = append(names, tk.text)
		}
	}
	return names
}
