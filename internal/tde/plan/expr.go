// Package plan defines the TDE's logical query representation: typed
// expressions, aggregate specifications and the logical operator tree that
// the TQL compiler produces, the optimizer rewrites and the execution engine
// interprets (Sect. 4.1.2 of the paper).
package plan

import (
	"fmt"
	"strings"

	"vizq/internal/tde/storage"
)

// Expr is a typed scalar expression over the rows of one operator's output.
type Expr interface {
	// Type returns the result type.
	Type() storage.Type
	// String renders a canonical TQL-ish form used for plan printing and
	// cache keys.
	String() string
}

// ColRef references a column of the child operator's schema by ordinal.
type ColRef struct {
	Name string
	Idx  int
	Typ  storage.Type
	Coll storage.Collation
}

// Type implements Expr.
func (c *ColRef) Type() storage.Type { return c.Typ }

// String implements Expr.
func (c *ColRef) String() string { return c.Name }

// Lit is a literal value.
type Lit struct {
	Val storage.Value
}

// Type implements Expr.
func (l *Lit) Type() storage.Type { return l.Val.Type }

// String implements Expr.
func (l *Lit) String() string {
	if l.Val.Type == storage.TStr && !l.Val.Null {
		return fmt.Sprintf("%q", l.Val.S)
	}
	return l.Val.String()
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the TQL spelling.
func (o CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[o]
}

// Negate returns the complement operator (< becomes >=, etc.).
func (o CmpOp) Negate() CmpOp {
	switch o {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	default:
		return CmpLt
	}
}

// Cmp compares two expressions. String comparisons use Coll.
type Cmp struct {
	Op   CmpOp
	L, R Expr
	Coll storage.Collation
}

// Type implements Expr.
func (c *Cmp) Type() storage.Type { return storage.TBool }

// String implements Expr.
func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.Op, c.L, c.R)
}

// LogicOp is a boolean connective.
type LogicOp uint8

// Boolean connectives.
const (
	LogicAnd LogicOp = iota
	LogicOr
	LogicNot
)

// String returns the TQL spelling.
func (o LogicOp) String() string { return [...]string{"and", "or", "not"}[o] }

// Logic combines boolean expressions.
type Logic struct {
	Op   LogicOp
	Args []Expr
}

// Type implements Expr.
func (l *Logic) Type() storage.Type { return storage.TBool }

// String implements Expr.
func (l *Logic) String() string {
	parts := make([]string, len(l.Args))
	for i, a := range l.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("(%s %s)", l.Op, strings.Join(parts, " "))
}

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	ArithAdd ArithOp = iota
	ArithSub
	ArithMul
	ArithDiv
	ArithMod
)

// String returns the TQL spelling.
func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[o] }

// Arith applies integer or float arithmetic with promotion.
type Arith struct {
	Op   ArithOp
	L, R Expr
	Typ  storage.Type
}

// Type implements Expr.
func (a *Arith) Type() storage.Type { return a.Typ }

// String implements Expr.
func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.Op, a.L, a.R)
}

// InList tests membership of E in a literal value set. Large enumerations
// are what Tableau externalizes into temporary tables; the binder reads such
// a table back into Vals, so both spellings of a set are this one node.
type InList struct {
	E      Expr
	Vals   []storage.Value
	Negate bool
	Coll   storage.Collation
}

// Type implements Expr.
func (e *InList) Type() storage.Type { return storage.TBool }

// String implements Expr.
func (e *InList) String() string {
	parts := make([]string, len(e.Vals))
	for i, v := range e.Vals {
		parts[i] = (&Lit{Val: v}).String()
	}
	op := "in"
	if e.Negate {
		op = "not-in"
	}
	return fmt.Sprintf("(%s %s [%s])", op, e.E, strings.Join(parts, " "))
}

// IsNull tests nullness.
type IsNull struct {
	E      Expr
	Negate bool
}

// Type implements Expr.
func (e *IsNull) Type() storage.Type { return storage.TBool }

// String implements Expr.
func (e *IsNull) String() string {
	if e.Negate {
		return fmt.Sprintf("(isnotnull %s)", e.E)
	}
	return fmt.Sprintf("(isnull %s)", e.E)
}

// If is the conditional expression if(cond, then, else).
type If struct {
	Cond, Then, Else Expr
	Typ              storage.Type
}

// Type implements Expr.
func (e *If) Type() storage.Type { return e.Typ }

// String implements Expr.
func (e *If) String() string {
	return fmt.Sprintf("(if %s %s %s)", e.Cond, e.Then, e.Else)
}

// Call invokes a built-in scalar function.
type Call struct {
	Fn   *FuncDef
	Args []Expr
}

// Type implements Expr.
func (c *Call) Type() storage.Type { return c.Fn.RetType(c.Args) }

// String implements Expr.
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("(%s %s)", c.Fn.Name, strings.Join(parts, " "))
}

// Children returns the direct sub-expressions of e.
func Children(e Expr) []Expr {
	switch x := e.(type) {
	case *Cmp:
		return []Expr{x.L, x.R}
	case *Logic:
		return x.Args
	case *Arith:
		return []Expr{x.L, x.R}
	case *InList:
		return []Expr{x.E}
	case *IsNull:
		return []Expr{x.E}
	case *If:
		return []Expr{x.Cond, x.Then, x.Else}
	case *Call:
		return x.Args
	}
	return nil
}

// Rewrite applies f bottom-up over the expression tree, returning the
// rewritten expression. f receives each node after its children have been
// rewritten.
func Rewrite(e Expr, f func(Expr) Expr) Expr {
	switch x := e.(type) {
	case *Cmp:
		c := *x
		c.L, c.R = Rewrite(x.L, f), Rewrite(x.R, f)
		return f(&c)
	case *Logic:
		c := *x
		c.Args = make([]Expr, len(x.Args))
		for i, a := range x.Args {
			c.Args[i] = Rewrite(a, f)
		}
		return f(&c)
	case *Arith:
		c := *x
		c.L, c.R = Rewrite(x.L, f), Rewrite(x.R, f)
		return f(&c)
	case *InList:
		c := *x
		c.E = Rewrite(x.E, f)
		return f(&c)
	case *IsNull:
		c := *x
		c.E = Rewrite(x.E, f)
		return f(&c)
	case *If:
		c := *x
		c.Cond, c.Then, c.Else = Rewrite(x.Cond, f), Rewrite(x.Then, f), Rewrite(x.Else, f)
		return f(&c)
	case *Call:
		c := *x
		c.Args = make([]Expr, len(x.Args))
		for i, a := range x.Args {
			c.Args[i] = Rewrite(a, f)
		}
		return f(&c)
	}
	return f(e)
}

// Walk visits every node of the expression tree pre-order; it stops
// descending when f returns false.
func Walk(e Expr, f func(Expr) bool) {
	if !f(e) {
		return
	}
	for _, c := range Children(e) {
		Walk(c, f)
	}
}

// ReferencedCols collects the distinct column ordinals referenced by e.
func ReferencedCols(e Expr) []int {
	seen := map[int]bool{}
	var out []int
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*ColRef); ok && !seen[c.Idx] {
			seen[c.Idx] = true
			out = append(out, c.Idx)
		}
		return true
	})
	return out
}

// RemapCols rewrites every ColRef ordinal through mapping (old -> new).
// Ordinals missing from the mapping are left untouched.
func RemapCols(e Expr, mapping map[int]int) Expr {
	return Rewrite(e, func(x Expr) Expr {
		if c, ok := x.(*ColRef); ok {
			if n, ok := mapping[c.Idx]; ok {
				cc := *c
				cc.Idx = n
				return &cc
			}
		}
		return x
	})
}

// AndSplit flattens a conjunction into its conjuncts.
func AndSplit(e Expr) []Expr {
	if l, ok := e.(*Logic); ok && l.Op == LogicAnd {
		var out []Expr
		for _, a := range l.Args {
			out = append(out, AndSplit(a)...)
		}
		return out
	}
	return []Expr{e}
}

// AndJoin combines conjuncts back into a single predicate; nil for empty.
func AndJoin(conjuncts []Expr) Expr {
	switch len(conjuncts) {
	case 0:
		return nil
	case 1:
		return conjuncts[0]
	}
	return &Logic{Op: LogicAnd, Args: conjuncts}
}
