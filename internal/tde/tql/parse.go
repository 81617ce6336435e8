package tql

import (
	"fmt"
	"strings"
)

// SExpr is a node of the parse tree: an atom (identifier/operator), a string
// or number literal, a bracketed value list, or a parenthesized list.
type SExpr struct {
	// Exactly one of the following is meaningful, discriminated by Kind.
	Kind SKind
	Atom string
	Str  string
	Num  string
	List []*SExpr

	Line, Col int
}

// SKind discriminates SExpr variants.
type SKind uint8

// SExpr kinds.
const (
	SAtom SKind = iota
	SStr
	SNum
	SList    // ( ... )
	SBracket // [ ... ]
)

// String renders the s-expression back to source-ish text.
func (s *SExpr) String() string {
	switch s.Kind {
	case SAtom:
		if bareAtom(s.Atom) {
			return s.Atom
		}
		return "`" + s.Atom + "`"
	case SStr:
		return fmt.Sprintf("%q", s.Str)
	case SNum:
		return s.Num
	case SBracket:
		parts := make([]string, len(s.List))
		for i, c := range s.List {
			parts[i] = c.String()
		}
		return "[" + strings.Join(parts, " ") + "]"
	default:
		parts := make([]string, len(s.List))
		for i, c := range s.List {
			parts[i] = c.String()
		}
		return "(" + strings.Join(parts, " ") + ")"
	}
}

// IsAtom reports whether s is the given atom (case-insensitive).
func (s *SExpr) IsAtom(name string) bool {
	return s.Kind == SAtom && strings.EqualFold(s.Atom, name)
}

// Head returns the leading atom of a list, or "".
func (s *SExpr) Head() string {
	if s.Kind == SList && len(s.List) > 0 && s.List[0].Kind == SAtom {
		return strings.ToLower(s.List[0].Atom)
	}
	return ""
}

type parser struct {
	lex *lexer
	cur token
}

// Parse parses a single TQL query into its s-expression form.
func Parse(src string) (*SExpr, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur.kind != tokEOF {
		return nil, errAt(p.cur.line, p.cur.col, "unexpected trailing input %q", p.cur.text)
	}
	return e, nil
}

func (p *parser) next() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *parser) parseExpr() (*SExpr, error) {
	t := p.cur
	switch t.kind {
	case tokAtom:
		if err := p.next(); err != nil {
			return nil, err
		}
		return &SExpr{Kind: SAtom, Atom: t.text, Line: t.line, Col: t.col}, nil
	case tokString:
		if err := p.next(); err != nil {
			return nil, err
		}
		return &SExpr{Kind: SStr, Str: t.text, Line: t.line, Col: t.col}, nil
	case tokNumber:
		if err := p.next(); err != nil {
			return nil, err
		}
		return &SExpr{Kind: SNum, Num: t.text, Line: t.line, Col: t.col}, nil
	case tokLParen, tokLBracket:
		open := t
		closer := tokRParen
		kind := SList
		if t.kind == tokLBracket {
			closer = tokRBracket
			kind = SBracket
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		node := &SExpr{Kind: kind, Line: open.line, Col: open.col}
		for p.cur.kind != closer {
			if p.cur.kind == tokEOF {
				return nil, errAt(open.line, open.col, "unclosed %q", open.text)
			}
			child, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			node.List = append(node.List, child)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return node, nil
	case tokEOF:
		return nil, errAt(t.line, t.col, "unexpected end of query")
	default:
		return nil, errAt(t.line, t.col, "unexpected token %q", t.text)
	}
}
