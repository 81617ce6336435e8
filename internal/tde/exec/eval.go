// Package exec implements the TDE execution engine: a vectorized Volcano
// interpreter over the logical plan, including the Exchange operator for
// parallel plans and shared-table materialization (Sect. 4.1.3 and 4.2 of
// the paper). Operators pull batches of rows; streaming operators emit
// output while consuming input, stop-and-go operators (aggregate, sort,
// top-n) consume their entire input first.
package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// EvalExpr evaluates an expression over a batch, producing one output
// vector. Comparisons and arithmetic are vectorized; scalar function calls
// fall back to row-at-a-time evaluation of the registered Eval.
//
// Null semantics: nulls propagate through comparisons, arithmetic and
// functions; a null predicate value is treated as false by Filter and If.
func EvalExpr(e plan.Expr, b *storage.Batch) (*storage.Vector, error) {
	switch x := e.(type) {
	case *plan.ColRef:
		return b.Cols[x.Idx], nil
	case *plan.Lit:
		return storage.ConstVector(x.Val, b.N), nil
	case *plan.Cmp:
		return evalCmp(x, b)
	case *plan.Logic:
		return evalLogic(x, b)
	case *plan.Arith:
		return evalArith(x, b)
	case *plan.InList:
		return evalIn(x, b)
	case *plan.IsNull:
		return evalIsNull(x, b)
	case *plan.If:
		return evalIf(x, b)
	case *plan.Call:
		return evalCall(x, b)
	}
	return nil, fmt.Errorf("exec: cannot evaluate %T", e)
}

func orNulls(a, b []bool, n int) []bool {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = a[i] || b[i]
	}
	return out
}

func evalCmp(c *plan.Cmp, b *storage.Batch) (*storage.Vector, error) {
	l, err := EvalExpr(c.L, b)
	if err != nil {
		return nil, err
	}
	r, err := EvalExpr(c.R, b)
	if err != nil {
		return nil, err
	}
	n := b.N
	out := storage.NewVector(storage.TBool, n)
	out.Null = orNulls(l.Null, r.Null, n)

	switch {
	case l.Type == storage.TStr || r.Type == storage.TStr:
		if l.Dict != nil && r.Dict != nil && l.Dict == r.Dict {
			// Same dictionary: compare tokens (dictionary order = value order).
			cmpInts(c.Op, l.I, r.I, out)
			return out, nil
		}
		ld, rd := l.Decode(), r.Decode()
		for i := 0; i < n; i++ {
			if out.Null != nil && out.Null[i] {
				continue
			}
			setBool(out, i, cmpHolds(c.Op, c.Coll.Compare(ld.S[i], rd.S[i])))
		}
	case l.Type == storage.TFloat || r.Type == storage.TFloat:
		lf, rf := asFloats(l), asFloats(r)
		for i := 0; i < n; i++ {
			if !out.IsNull(i) {
				setBool(out, i, cmpHolds(c.Op, cmp.Compare(lf[i], rf[i])))
			}
		}
	default:
		cmpInts(c.Op, l.I, r.I, out)
	}
	return out, nil
}

// litCmp reads c as "x op lit" when one operand is a literal, mirroring the
// operator when the literal is on the left: (5 < x) is (x > 5).
func litCmp(c *plan.Cmp) (x plan.Expr, op plan.CmpOp, lit storage.Value, ok bool) {
	if l, ok := c.R.(*plan.Lit); ok {
		return c.L, c.Op, l.Val, true
	}
	if l, ok := c.L.(*plan.Lit); ok {
		return c.R, flipCmp(c.Op), l.Val, true
	}
	return nil, 0, storage.Value{}, false
}

// flipCmp mirrors the comparison when operands are swapped (a < b == b > a).
func flipCmp(op plan.CmpOp) plan.CmpOp {
	switch op {
	case plan.CmpLt:
		return plan.CmpGt
	case plan.CmpLe:
		return plan.CmpGe
	case plan.CmpGt:
		return plan.CmpLt
	case plan.CmpGe:
		return plan.CmpLe
	}
	return op
}

func cmpInts(op plan.CmpOp, l, r []int64, out *storage.Vector) {
	for i := range l {
		if !out.IsNull(i) {
			setBool(out, i, cmpHolds(op, cmp.Compare(l[i], r[i])))
		}
	}
}

func cmpHolds(op plan.CmpOp, c int) bool {
	switch op {
	case plan.CmpEq:
		return c == 0
	case plan.CmpNe:
		return c != 0
	case plan.CmpLt:
		return c < 0
	case plan.CmpLe:
		return c <= 0
	case plan.CmpGt:
		return c > 0
	default:
		return c >= 0
	}
}

func setBool(v *storage.Vector, i int, b bool) {
	if b {
		v.I[i] = 1
	} else {
		v.I[i] = 0
	}
}

func asFloats(v *storage.Vector) []float64 {
	if v.Type == storage.TFloat {
		return v.F
	}
	out := make([]float64, len(v.I))
	for i, x := range v.I {
		out[i] = float64(x)
	}
	return out
}

func evalLogic(l *plan.Logic, b *storage.Batch) (*storage.Vector, error) {
	n := b.N
	out := storage.NewVector(storage.TBool, n)
	switch l.Op {
	case plan.LogicNot:
		a, err := EvalExpr(l.Args[0], b)
		if err != nil {
			return nil, err
		}
		out.Null = a.Null
		for i := 0; i < n; i++ {
			setBool(out, i, a.I[i] == 0)
		}
	case plan.LogicAnd:
		for i := 0; i < n; i++ {
			out.I[i] = 1
		}
		for _, arg := range l.Args {
			a, err := EvalExpr(arg, b)
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				// Null operands count as false (two-valued logic, see EvalExpr doc).
				if a.I[i] == 0 || (a.Null != nil && a.Null[i]) {
					out.I[i] = 0
				}
			}
		}
	case plan.LogicOr:
		for _, arg := range l.Args {
			a, err := EvalExpr(arg, b)
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				if a.I[i] != 0 && (a.Null == nil || !a.Null[i]) {
					out.I[i] = 1
				}
			}
		}
	}
	return out, nil
}

func evalArith(a *plan.Arith, b *storage.Batch) (*storage.Vector, error) {
	l, err := EvalExpr(a.L, b)
	if err != nil {
		return nil, err
	}
	r, err := EvalExpr(a.R, b)
	if err != nil {
		return nil, err
	}
	n := b.N
	out := storage.NewVector(a.Typ, n)
	out.Null = orNulls(l.Null, r.Null, n)
	if a.Op == plan.ArithDiv || a.Op == plan.ArithMod {
		// Division by zero sets nulls: own the mask orNulls may share
		// with an operand.
		out.Null = slices.Clone(out.Null)
	}
	if a.Typ == storage.TFloat {
		lf, rf := asFloats(l), asFloats(r)
		for i := 0; i < n; i++ {
			switch a.Op {
			case plan.ArithAdd:
				out.F[i] = lf[i] + rf[i]
			case plan.ArithSub:
				out.F[i] = lf[i] - rf[i]
			case plan.ArithMul:
				out.F[i] = lf[i] * rf[i]
			case plan.ArithDiv:
				if rf[i] == 0 {
					out.SetNull(i)
				} else {
					out.F[i] = lf[i] / rf[i]
				}
			case plan.ArithMod:
				if rf[i] == 0 {
					out.SetNull(i)
				} else {
					out.F[i] = math.Mod(lf[i], rf[i])
				}
			}
		}
		return out, nil
	}
	for i := 0; i < n; i++ {
		switch a.Op {
		case plan.ArithAdd:
			out.I[i] = l.I[i] + r.I[i]
		case plan.ArithSub:
			out.I[i] = l.I[i] - r.I[i]
		case plan.ArithMul:
			out.I[i] = l.I[i] * r.I[i]
		case plan.ArithDiv, plan.ArithMod:
			if r.I[i] == 0 {
				out.SetNull(i)
			} else if a.Op == plan.ArithDiv {
				out.I[i] = l.I[i] / r.I[i]
			} else {
				out.I[i] = l.I[i] % r.I[i]
			}
		}
	}
	return out, nil
}

func evalIn(e *plan.InList, b *storage.Batch) (*storage.Vector, error) {
	v, err := EvalExpr(e.E, b)
	if err != nil {
		return nil, err
	}
	out := storage.NewVector(storage.TBool, b.N)
	out.Null = v.Null
	set := newInSet(e, v)
	for i := 0; i < b.N; i++ {
		if !v.IsNull(i) {
			setBool(out, i, set.has(v, i) != e.Negate)
		}
	}
	return out, nil
}

// inSet holds the members of an IN list for one shape of its input vector:
// for a dictionary vector a membership slice indexed by token, translated
// from the list once ("decompression as join"); otherwise a KeySet.
type inSet struct {
	dict *storage.Dictionary
	toks []bool
	keys *storage.KeySet
}

func newInSet(in *plan.InList, v *storage.Vector) *inSet {
	s := &inSet{dict: v.Dict}
	if v.Dict == nil {
		s.keys = storage.NewKeySet(v.Type, in.Coll, in.Vals)
		return s
	}
	s.toks = make([]bool, v.Dict.Len())
	for _, val := range in.Vals {
		if val.Null || val.Type != storage.TStr {
			continue
		}
		if t, ok := v.Dict.Lookup(val.S); ok {
			s.toks[t] = true
		}
	}
	return s
}

// has reports whether the non-null row i of v is a member.
func (s *inSet) has(v *storage.Vector, i int) bool {
	if s.dict != nil {
		return s.toks[v.I[i]]
	}
	return s.keys.Has(v.Value(i))
}

// coerce widens a literal to the vector's type so int/float and date/int
// mismatches hash consistently.
func coerce(v storage.Value, t storage.Type) storage.Value {
	if v.Null || v.Type == t {
		return v
	}
	switch {
	case t == storage.TFloat:
		return storage.FloatValue(v.AsFloat())
	case t.IntBacked() && v.Type.IntBacked():
		return storage.Value{Type: t, I: v.I}
	}
	return v
}

func evalIsNull(e *plan.IsNull, b *storage.Batch) (*storage.Vector, error) {
	v, err := EvalExpr(e.E, b)
	if err != nil {
		return nil, err
	}
	out := storage.NewVector(storage.TBool, b.N)
	for i := 0; i < b.N; i++ {
		setBool(out, i, v.IsNull(i) != e.Negate)
	}
	return out, nil
}

func evalIf(e *plan.If, b *storage.Batch) (*storage.Vector, error) {
	cond, err := EvalExpr(e.Cond, b)
	if err != nil {
		return nil, err
	}
	thenV, err := EvalExpr(e.Then, b)
	if err != nil {
		return nil, err
	}
	elseV, err := EvalExpr(e.Else, b)
	if err != nil {
		return nil, err
	}
	out := storage.NewVector(e.Typ, b.N)
	for i := 0; i < b.N; i++ {
		src := elseV
		if cond.I[i] != 0 && !cond.IsNull(i) {
			src = thenV
		}
		out.Set(i, coerce(src.Value(i), e.Typ))
	}
	return out, nil
}

// evalCall calls the function row by row, except that a row whose
// arguments all equal the previous row's reuses its answer: over sorted or
// run-length encoded input the function runs once per run.
func evalCall(c *plan.Call, b *storage.Batch) (*storage.Vector, error) {
	args := make([]*storage.Vector, len(c.Args))
	for i, a := range c.Args {
		v, err := EvalExpr(a, b)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	out := storage.NewVector(c.Type(), b.N)
	row := make([]storage.Value, len(args))
	var ans storage.Value
	for i := 0; i < b.N; i++ {
		if i == 0 || !sameAsPrev(args, i) {
			null := false
			for j, a := range args {
				row[j] = a.Value(i)
				null = null || row[j].Null
			}
			if null && !c.Fn.NullSafe {
				ans = storage.NullValue(c.Type())
			} else {
				ans = coerce(c.Fn.Eval(row), c.Type())
			}
		}
		out.Set(i, ans)
	}
	return out, nil
}

// sameAsPrev reports whether row i of every vector holds what its row i-1
// does: the same null flag and the same int, token, float bits or string.
func sameAsPrev(vs []*storage.Vector, i int) bool {
	for _, v := range vs {
		if v.IsNull(i) != v.IsNull(i-1) || v.I != nil && v.I[i] != v.I[i-1] || v.S != nil && v.S[i] != v.S[i-1] ||
			v.F != nil && math.Float64bits(v.F[i]) != math.Float64bits(v.F[i-1]) {
			return false
		}
	}
	return true
}
