// Package tql implements the Tableau Query Language front end: a lexer and
// parser for the logical-tree-style query text, and a binder that resolves
// the parse tree against a catalog into a typed logical plan
// (Sect. 4.1.2: "a classic query compiler that accepts a TQL query as text
// and translates it into some logical operator tree structure ... parsing,
// syntax checking, binding and semantic analysis").
//
// TQL is written as s-expressions mirroring the operator tree:
//
//	(topn
//	  (aggregate
//	    (select (table Extract.flights) (> delay 0))
//	    (groupby carrier)
//	    (aggs (flights count *) (avgdelay avg delay)))
//	  5 (desc flights))
package tql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenKind identifies a lexical token class.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokAtom   // identifier or operator symbol
	tokString // quoted string literal
	tokNumber // numeric literal
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// Error is a TQL front-end error with source position.
type Error struct {
	Line, Col int
	Msg       string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("tql:%d:%d: %s", e.Line, e.Col, e.Msg) }

func errAt(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	ch := l.src[l.pos]
	l.pos++
	if ch == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return ch
}

func isAtomRune(ch byte) bool {
	if ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch >= '0' && ch <= '9' {
		return true
	}
	switch ch {
	case '_', '.', '-', '*', '+', '/', '%', '=', '<', '>', '!', '?', '$':
		return true
	}
	return ch >= 0x80 // allow UTF-8 identifiers
}

// bareAtom reports whether a lexes back as itself without backquotes.
func bareAtom(a string) bool {
	t, err := newLexer(a).next()
	return err == nil && t.kind == tokAtom && t.text == a
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		ch := l.peekByte()
		switch {
		case ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n':
			l.advance()
		case ch == ';': // comment to end of line
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line, col: l.col}, nil

scan:
	line, col := l.line, l.col
	ch := l.peekByte()
	switch {
	case ch == '(':
		l.advance()
		return token{kind: tokLParen, text: "(", line: line, col: col}, nil
	case ch == ')':
		l.advance()
		return token{kind: tokRParen, text: ")", line: line, col: col}, nil
	case ch == '[':
		l.advance()
		return token{kind: tokLBracket, text: "[", line: line, col: col}, nil
	case ch == ']':
		l.advance()
		return token{kind: tokRBracket, text: "]", line: line, col: col}, nil
	case ch == '"':
		l.advance()
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, errAt(line, col, "unterminated string literal")
			}
			c := l.advance()
			if c == '"' {
				return token{kind: tokString, text: b.String(), line: line, col: col}, nil
			}
			if c == '\\' { // Go's escapes: clients render literals with %q
				v, multibyte, tail, err := strconv.UnquoteChar(l.src[l.pos-1:], '"')
				if err != nil {
					return token{}, errAt(l.line, l.col, "bad string escape")
				}
				for l.pos < len(l.src)-len(tail) {
					l.advance()
				}
				if multibyte {
					b.WriteRune(v)
				} else {
					b.WriteByte(byte(v))
				}
				continue
			}
			b.WriteByte(c)
		}
	case ch == '`':
		l.advance()
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, errAt(line, col, "unterminated quoted identifier")
			}
			c := l.advance()
			if c == '`' {
				return token{kind: tokAtom, text: b.String(), line: line, col: col}, nil
			}
			b.WriteByte(c)
		}
	case ch >= '0' && ch <= '9' || (ch == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'):
		var b strings.Builder
		b.WriteByte(l.advance())
		for l.pos < len(l.src) {
			c := l.peekByte()
			if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' ||
				((c == '+' || c == '-') && (b.String()[b.Len()-1] == 'e' || b.String()[b.Len()-1] == 'E')) {
				b.WriteByte(l.advance())
				continue
			}
			break
		}
		return token{kind: tokNumber, text: b.String(), line: line, col: col}, nil
	case isAtomRune(ch):
		var b strings.Builder
		for l.pos < len(l.src) && isAtomRune(l.peekByte()) {
			b.WriteByte(l.advance())
		}
		return token{kind: tokAtom, text: b.String(), line: line, col: col}, nil
	default:
		r := rune(ch)
		if !unicode.IsPrint(r) {
			return token{}, errAt(line, col, "unexpected byte 0x%02x", ch)
		}
		return token{}, errAt(line, col, "unexpected character %q", r)
	}
}
