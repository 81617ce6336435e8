package plan

import (
	"fmt"
	"math"
	"strings"
	"time"

	"vizq/internal/tde/storage"
)

// FuncDef describes a built-in scalar function: signature checking, result
// typing, a scalar evaluator, and an empirically-set cost constant. The cost
// profile is what the parallelizer consults to decide how expensive an
// expression is (Sect. 4.2.2: "cost constants are obtained by empirical
// measuring; certain operations, such as string manipulations, are much more
// expensive than others").
type FuncDef struct {
	Name    string
	MinArgs int
	MaxArgs int
	// Cost is the per-row evaluation cost relative to an integer addition.
	Cost float64
	// RetType derives the result type from the bound argument expressions.
	RetType func(args []Expr) storage.Type
	// Check validates argument types at bind time.
	Check func(args []Expr) error
	// Eval computes the function for one row; any null argument yields null
	// unless the function overrides NullSafe.
	Eval func(args []storage.Value) storage.Value
	// NullSafe marks functions that handle null inputs themselves.
	NullSafe bool
}

func fixed(t storage.Type) func([]Expr) storage.Type {
	return func([]Expr) storage.Type { return t }
}

func wantType(name string, pos int, ok func(storage.Type) bool, desc string) func([]Expr) error {
	return func(args []Expr) error {
		if pos < len(args) && !ok(args[pos].Type()) && args[pos].Type() != storage.TNull {
			return fmt.Errorf("plan: %s: argument %d must be %s, got %s", name, pos+1, desc, args[pos].Type())
		}
		return nil
	}
}

func isStr(t storage.Type) bool  { return t == storage.TStr }
func isNum(t storage.Type) bool  { return t.Numeric() }
func isTemp(t storage.Type) bool { return t == storage.TDate || t == storage.TDateTime }
func allChecks(fs ...func([]Expr) error) func([]Expr) error {
	return func(args []Expr) error {
		for _, f := range fs {
			if err := f(args); err != nil {
				return err
			}
		}
		return nil
	}
}

var funcRegistry = map[string]*FuncDef{}

func register(f *FuncDef) { funcRegistry[f.Name] = f }

// LookupFunc resolves a built-in function by name (case-insensitive).
func LookupFunc(name string) (*FuncDef, bool) {
	f, ok := funcRegistry[strings.ToLower(name)]
	return f, ok
}

func numFloat(v storage.Value) float64 { return v.AsFloat() }

func dateParts(v storage.Value) time.Time {
	if v.Type == storage.TDate {
		return time.Unix(v.I*86400, 0).UTC()
	}
	return time.Unix(v.I, 0).UTC()
}

func init() {
	register(&FuncDef{
		Name: "abs", MinArgs: 1, MaxArgs: 1, Cost: 1,
		RetType: func(args []Expr) storage.Type { return args[0].Type() },
		Check:   wantType("abs", 0, isNum, "numeric"),
		Eval: func(a []storage.Value) storage.Value {
			if a[0].Type == storage.TFloat {
				return storage.FloatValue(math.Abs(a[0].F))
			}
			if a[0].I < 0 {
				return storage.IntValue(-a[0].I)
			}
			return a[0]
		},
	})
	register(&FuncDef{
		Name: "round", MinArgs: 1, MaxArgs: 1, Cost: 2,
		RetType: fixed(storage.TFloat),
		Check:   wantType("round", 0, isNum, "numeric"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.FloatValue(math.Round(numFloat(a[0])))
		},
	})
	register(&FuncDef{
		Name: "floor", MinArgs: 1, MaxArgs: 1, Cost: 2,
		RetType: fixed(storage.TFloat),
		Check:   wantType("floor", 0, isNum, "numeric"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.FloatValue(math.Floor(numFloat(a[0])))
		},
	})
	register(&FuncDef{
		Name: "ceil", MinArgs: 1, MaxArgs: 1, Cost: 2,
		RetType: fixed(storage.TFloat),
		Check:   wantType("ceil", 0, isNum, "numeric"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.FloatValue(math.Ceil(numFloat(a[0])))
		},
	})
	register(&FuncDef{
		Name: "sqrt", MinArgs: 1, MaxArgs: 1, Cost: 4,
		RetType: fixed(storage.TFloat),
		Check:   wantType("sqrt", 0, isNum, "numeric"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.FloatValue(math.Sqrt(numFloat(a[0])))
		},
	})
	register(&FuncDef{
		Name: "upper", MinArgs: 1, MaxArgs: 1, Cost: 20,
		RetType: fixed(storage.TStr),
		Check:   wantType("upper", 0, isStr, "string"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.StrValue(strings.ToUpper(a[0].S))
		},
	})
	register(&FuncDef{
		Name: "lower", MinArgs: 1, MaxArgs: 1, Cost: 20,
		RetType: fixed(storage.TStr),
		Check:   wantType("lower", 0, isStr, "string"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.StrValue(strings.ToLower(a[0].S))
		},
	})
	register(&FuncDef{
		Name: "trim", MinArgs: 1, MaxArgs: 1, Cost: 15,
		RetType: fixed(storage.TStr),
		Check:   wantType("trim", 0, isStr, "string"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.StrValue(strings.TrimSpace(a[0].S))
		},
	})
	register(&FuncDef{
		Name: "len", MinArgs: 1, MaxArgs: 1, Cost: 10,
		RetType: fixed(storage.TInt),
		Check:   wantType("len", 0, isStr, "string"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.IntValue(int64(len(a[0].S)))
		},
	})
	register(&FuncDef{
		Name: "substr", MinArgs: 3, MaxArgs: 3, Cost: 25,
		RetType: fixed(storage.TStr),
		Check: allChecks(
			wantType("substr", 0, isStr, "string"),
			wantType("substr", 1, isNum, "numeric"),
			wantType("substr", 2, isNum, "numeric"),
		),
		Eval: func(a []storage.Value) storage.Value {
			s := a[0].S
			start := int(a[1].I)
			n := int(a[2].I)
			if start < 0 {
				start = 0
			}
			if start > len(s) {
				start = len(s)
			}
			end := start + n
			if end > len(s) || n < 0 {
				end = len(s)
			}
			return storage.StrValue(s[start:end])
		},
	})
	register(&FuncDef{
		Name: "contains", MinArgs: 2, MaxArgs: 2, Cost: 30,
		RetType: fixed(storage.TBool),
		Check: allChecks(
			wantType("contains", 0, isStr, "string"),
			wantType("contains", 1, isStr, "string"),
		),
		Eval: func(a []storage.Value) storage.Value {
			return storage.BoolValue(strings.Contains(a[0].S, a[1].S))
		},
	})
	register(&FuncDef{
		Name: "startswith", MinArgs: 2, MaxArgs: 2, Cost: 25,
		RetType: fixed(storage.TBool),
		Check: allChecks(
			wantType("startswith", 0, isStr, "string"),
			wantType("startswith", 1, isStr, "string"),
		),
		Eval: func(a []storage.Value) storage.Value {
			return storage.BoolValue(strings.HasPrefix(a[0].S, a[1].S))
		},
	})
	register(&FuncDef{
		Name: "concat", MinArgs: 2, MaxArgs: 8, Cost: 30,
		RetType: fixed(storage.TStr),
		Eval: func(a []storage.Value) storage.Value {
			var b strings.Builder
			for _, v := range a {
				b.WriteString(v.String())
			}
			return storage.StrValue(b.String())
		},
	})
	register(&FuncDef{
		Name: "year", MinArgs: 1, MaxArgs: 1, Cost: 3,
		RetType: fixed(storage.TInt),
		Check:   wantType("year", 0, isTemp, "date or datetime"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.IntValue(int64(dateParts(a[0]).Year()))
		},
	})
	register(&FuncDef{
		Name: "month", MinArgs: 1, MaxArgs: 1, Cost: 3,
		RetType: fixed(storage.TInt),
		Check:   wantType("month", 0, isTemp, "date or datetime"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.IntValue(int64(dateParts(a[0]).Month()))
		},
	})
	register(&FuncDef{
		Name: "day", MinArgs: 1, MaxArgs: 1, Cost: 3,
		RetType: fixed(storage.TInt),
		Check:   wantType("day", 0, isTemp, "date or datetime"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.IntValue(int64(dateParts(a[0]).Day()))
		},
	})
	register(&FuncDef{
		Name: "weekday", MinArgs: 1, MaxArgs: 1, Cost: 3,
		RetType: fixed(storage.TInt),
		Check:   wantType("weekday", 0, isTemp, "date or datetime"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.IntValue(int64(dateParts(a[0]).Weekday()))
		},
	})
	register(&FuncDef{
		Name: "hour", MinArgs: 1, MaxArgs: 1, Cost: 3,
		RetType: fixed(storage.TInt),
		Check:   wantType("hour", 0, func(t storage.Type) bool { return t == storage.TDateTime }, "datetime"),
		Eval: func(a []storage.Value) storage.Value {
			return storage.IntValue(int64(dateParts(a[0]).Hour()))
		},
	})
	register(&FuncDef{
		Name: "ifnull", MinArgs: 2, MaxArgs: 2, Cost: 1, NullSafe: true,
		RetType: func(args []Expr) storage.Type {
			t, err := storage.Promote(args[0].Type(), args[1].Type())
			if err != nil {
				return args[0].Type()
			}
			return t
		},
		Eval: func(a []storage.Value) storage.Value {
			if a[0].Null {
				return a[1]
			}
			return a[0]
		},
	})
}

// ExprCost estimates the per-row evaluation cost of an expression using the
// function cost profile. Column references and literals are free; arithmetic
// and comparisons cost 1; string comparisons cost more.
func ExprCost(e Expr) float64 {
	cost := 0.0
	Walk(e, func(x Expr) bool {
		switch v := x.(type) {
		case *Arith, *IsNull, *If:
			cost++
		case *Logic:
			cost++
		case *Cmp:
			if v.L.Type() == storage.TStr || v.R.Type() == storage.TStr {
				cost += 10
			} else {
				cost++
			}
		case *InList:
			cost += 2
		case *Call:
			cost += v.Fn.Cost
		}
		return true
	})
	return cost
}
