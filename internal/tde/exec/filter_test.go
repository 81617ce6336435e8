package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// A division by zero nulls its own output row, never a row of an operand:
// the operand may be a scan's view of the stored column.
func TestDivisionByZeroLeavesOperandAlone(t *testing.T) {
	tbl := mkTable(t, "t", map[string][]storage.Value{
		"a": {storage.IntValue(1), storage.NullValue(storage.TInt), storage.IntValue(3)},
		"b": iv(0, 1, 1),
	}, []string{"a", "b"})
	a := &plan.ColRef{Name: "a", Idx: 0, Typ: storage.TInt}
	b := &plan.ColRef{Name: "b", Idx: 1, Typ: storage.TInt}
	for _, c := range []struct {
		op  plan.ArithOp
		typ storage.Type
	}{{plan.ArithDiv, storage.TFloat}, {plan.ArithMod, storage.TInt}} {
		q := &plan.Arith{Op: c.op, L: a, R: b, Typ: c.typ}
		res, err := Run(context.Background(), &plan.Project{
			Child: scanAll(tbl), Exprs: []plan.Expr{a, q}, Names: []string{"a", "q"}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Value(0, 0); got.Null || got.I != 1 {
			t.Errorf("op %v: a row 0 = %v, want 1", c.op, got)
		}
		if !res.Value(0, 1).Null || !res.Value(1, 0).Null || res.Value(2, 0).I != 3 {
			t.Errorf("op %v: got rows %v %v %v", c.op, row(res, 0), row(res, 1), row(res, 2))
		}
		if got := tbl.Cols[0].Value(0); got.Null || got.I != 1 {
			t.Errorf("op %v: stored a row 0 = %v, want 1", c.op, got)
		}
	}
}

// filterCol is one column of the filter differential's batch: together
// they cover every column shape the filter's fast paths tell apart.
type filterCol struct {
	name string
	typ  storage.Type
	coll storage.Collation
	opt  storage.BuildOptions
}

var filterCols = []filterCol{
	{"sd", storage.TStr, storage.CollBinary, storage.BuildOptions{}},
	{"sdn", storage.TStr, storage.CollBinary, storage.BuildOptions{}}, // no nulls
	{"sdci", storage.TStr, storage.CollCI, storage.BuildOptions{}},
	{"sp", storage.TStr, storage.CollBinary, storage.BuildOptions{NoDictionary: true, HasForce: true, ForceEncoding: storage.EncPlain}},
	{"spci", storage.TStr, storage.CollCI, storage.BuildOptions{NoDictionary: true, HasForce: true, ForceEncoding: storage.EncPlain}},
	{"i", storage.TInt, storage.CollBinary, storage.BuildOptions{}},
	{"ir", storage.TInt, storage.CollBinary, storage.BuildOptions{HasForce: true, ForceEncoding: storage.EncRLE}},
	{"f", storage.TFloat, storage.CollBinary, storage.BuildOptions{}},
	{"b", storage.TBool, storage.CollBinary, storage.BuildOptions{}},
}

var filterWords = []string{"ant", "Ant", "bee", "BEE", "cat", "dog", "eel", "fox"}

// filterBatch draws n rows; string columns draw from words, which sets
// their dictionaries.
func filterBatch(t *testing.T, rng *rand.Rand, n int, words []string) *storage.Batch {
	t.Helper()
	cols := make([]*storage.Vector, len(filterCols))
	for c, fc := range filterCols {
		vals := make([]storage.Value, n)
		for i := range vals {
			switch {
			case rng.Intn(8) == 0 && fc.name != "sdn":
				vals[i] = storage.NullValue(fc.typ)
			case fc.typ == storage.TStr:
				vals[i] = storage.StrValue(words[rng.Intn(len(words))])
			case fc.typ == storage.TFloat:
				vals[i] = storage.FloatValue(float64(rng.Intn(9)-4) / 2)
			case fc.typ == storage.TBool:
				vals[i] = storage.BoolValue(rng.Intn(2) == 0)
			case fc.name == "ir":
				vals[i] = storage.IntValue(int64(i / 16)) // long runs
			default:
				vals[i] = storage.IntValue(int64(rng.Intn(9) - 4))
			}
		}
		col, err := storage.BuildColumn(fc.name, fc.typ, fc.coll, vals, fc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := fc.opt.NoDictionary || fc.typ != storage.TStr; want != (col.Dict == nil) {
			t.Fatalf("column %s: dictionary %v", fc.name, col.Dict != nil)
		}
		cols[c] = col.ScanRange(0, n)
		if fc.name == "sdn" && cols[c].Null != nil {
			t.Fatal("column sdn: want no null mask")
		}
	}
	return storage.NewBatch(cols)
}

// randLit draws a literal for a column of type typ: sometimes null, and for
// strings sometimes a value no row holds.
func randLit(rng *rand.Rand, typ storage.Type) storage.Value {
	switch {
	case rng.Intn(10) == 0:
		return storage.NullValue(storage.TNull)
	case typ == storage.TStr:
		return storage.StrValue(filterWords[rng.Intn(len(filterWords))])
	case typ == storage.TBool:
		return storage.BoolValue(rng.Intn(2) == 0)
	case rng.Intn(3) == 0:
		return storage.FloatValue(float64(rng.Intn(11)-5) / 2)
	}
	return storage.IntValue(int64(rng.Intn(11) - 5))
}

// randPred draws a predicate tree. Its leaves compare, IN-test or
// null-test a column or a function of one string column, or call a boolean
// function of one; an OR may stay on one column. col < 0 picks the column.
func randPred(rng *rand.Rand, depth, col int) plan.Expr {
	if col < 0 {
		col = rng.Intn(len(filterCols))
	}
	fc := filterCols[col]
	var x plan.Expr = &plan.ColRef{Name: fc.name, Idx: col, Typ: fc.typ, Coll: fc.coll}
	typ := fc.typ
	if typ == storage.TStr && rng.Intn(3) == 0 {
		x, typ = randStrCall(rng, x)
	}
	switch k := rng.Intn(11); {
	case depth > 0 && k < 3:
		args := []plan.Expr{randPred(rng, depth-1, -1), randPred(rng, depth-1, -1)}
		if rng.Intn(3) == 0 {
			args = append(args, randPred(rng, depth-1, -1))
		}
		op := []plan.LogicOp{plan.LogicAnd, plan.LogicOr}[k%2]
		if k == 2 {
			op, args = plan.LogicNot, args[:1]
		}
		return &plan.Logic{Op: op, Args: args}
	case depth > 0 && k == 3:
		return &plan.Logic{Op: plan.LogicOr, Args: []plan.Expr{randPred(rng, depth-1, col), randPred(rng, depth-1, col)}}
	case k < 6:
		var l, r plan.Expr = x, &plan.Lit{Val: randLit(rng, typ)}
		if rng.Intn(2) == 0 {
			l, r = r, l
		}
		op := []plan.CmpOp{plan.CmpEq, plan.CmpNe, plan.CmpLt, plan.CmpLe, plan.CmpGt, plan.CmpGe}[rng.Intn(6)]
		return &plan.Cmp{Op: op, L: l, R: r, Coll: fc.coll}
	case k < 8:
		vals := make([]storage.Value, rng.Intn(5))
		for i := range vals {
			vals[i] = randLit(rng, typ)
		}
		return &plan.InList{E: x, Vals: vals, Negate: rng.Intn(2) == 0, Coll: fc.coll}
	case k < 10 && typ == storage.TStr:
		name := []string{"startswith", "contains"}[rng.Intn(2)]
		w := filterWords[rng.Intn(len(filterWords))]
		return call(name, x, &plan.Lit{Val: storage.StrValue(w[:1+rng.Intn(len(w))])})
	}
	return &plan.IsNull{E: x, Negate: rng.Intn(2) == 0}
}

// randStrCall wraps the string expression x in a function of it
// and returns the function's type.
func randStrCall(rng *rand.Rand, x plan.Expr) (plan.Expr, storage.Type) {
	switch rng.Intn(4) {
	case 0:
		return call("lower", x), storage.TStr
	case 1:
		return call("upper", x), storage.TStr
	case 2:
		return call("ifnull", x, &plan.Lit{Val: storage.StrValue("cat")}), storage.TStr
	}
	return call("len", x), storage.TInt
}

func call(name string, args ...plan.Expr) *plan.Call {
	fn, ok := plan.LookupFunc(name)
	if !ok {
		panic("no function " + name)
	}
	return &plan.Call{Fn: fn, Args: args}
}

// decoded returns b with every dictionary vector decoded to strings.
func decoded(b *storage.Batch) *storage.Batch {
	cols := make([]*storage.Vector, len(b.Cols))
	for i, v := range b.Cols {
		cols[i] = v.Decode()
	}
	return storage.NewBatch(cols)
}

// The filter's selection equals the rows at which EvalExpr is true and not
// null, for random predicate trees. One filter sees two halves of a batch
// (its token tables and IN sets are built on the first), a batch whose
// string columns carry other dictionaries, the first half again, and then
// the batch decoded.
func TestFilterMatchesEvalExpr(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	full := filterBatch(t, rng, 300, filterWords[:6]) // "eel" and "fox" stay absent
	other := filterBatch(t, rng, 200, filterWords[2:])
	half := func(from, to int) *storage.Batch {
		cols := make([]*storage.Vector, len(full.Cols))
		for i, v := range full.Cols {
			cols[i] = v.Slice(from, to)
		}
		return storage.NewBatch(cols)
	}
	batches := []*storage.Batch{half(0, 150), half(150, 300), other, half(0, 150), decoded(full)}
	for trial := 0; trial < 1000; trial++ {
		pred := randPred(rng, 3, -1)
		f := newFilterOp(nil, pred)
		for bi, b := range batches {
			v, err := EvalExpr(pred, b)
			if err != nil {
				t.Fatal(err)
			}
			var want []int32
			for i := 0; i < b.N; i++ {
				if v.I[i] != 0 && !v.IsNull(i) {
					want = append(want, int32(i))
				}
			}
			got, err := f.selectRows(b)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d batch %d: %s\nfilter keeps %v\nEvalExpr    %v", trial, bi, pred, got, want)
			}
		}
	}
}

// evalCall answers every row as a row-by-row Fn.Eval does, over run-length
// encoded, dictionary, plain and null-bearing columns whose runs cross the
// scan's batch boundaries. A boolean function of the dictionary column
// filters the same rows through its token table.
func TestCallMatchesRowEval(t *testing.T) {
	const n = 2600
	rng := rand.New(rand.NewSource(11))
	words := []string{"ant", "Bee", "bee", "cat", ""}
	cols := map[string][]storage.Value{}
	for _, c := range []string{"d", "i", "s", "p", "f"} {
		cols[c] = make([]storage.Value, n)
	}
	// Each of i, s, p and f repeats one draw per run, and a run starts 1 row
	// in 40; one run in six is null.
	var run [4]int
	var null [4]bool
	for r := 0; r < n; r++ {
		for k := range run {
			if r == 0 || rng.Intn(40) == 0 {
				run[k], null[k] = rng.Intn(12), rng.Intn(6) == 0
			}
		}
		cols["d"][r] = storage.Value{Type: storage.TDate, I: 16000 + int64(r/200)} // runs across rows 1024 and 2048
		if r%700 > 640 {
			cols["d"][r] = storage.NullValue(storage.TDate)
		}
		cols["i"][r] = storage.IntValue(int64(run[0]) - 6)
		cols["s"][r] = storage.StrValue(words[run[1]%len(words)])
		cols["p"][r] = storage.StrValue(words[run[2]%len(words)])
		cols["f"][r] = storage.FloatValue([]float64{0, math.Copysign(0, -1), -2.5, 2.5, 1e300, math.NaN()}[run[3]%6])
		for k, c := range []string{"i", "s", "p", "f"} {
			if null[k] {
				cols[c][r] = storage.NullValue(cols[c][r].Type)
			}
		}
	}
	rle := storage.BuildOptions{HasForce: true, ForceEncoding: storage.EncRLE}
	plain := storage.BuildOptions{NoDictionary: true, HasForce: true, ForceEncoding: storage.EncPlain}
	var built []*storage.Column
	for _, c := range []struct {
		name string
		typ  storage.Type
		opt  storage.BuildOptions
	}{{"d", storage.TDate, rle}, {"i", storage.TInt, rle}, {"s", storage.TStr, rle}, {"p", storage.TStr, plain}, {"f", storage.TFloat, plain}} {
		col, err := storage.BuildColumn(c.name, c.typ, storage.CollBinary, cols[c.name], c.opt)
		if err != nil {
			t.Fatal(err)
		}
		built = append(built, col)
	}
	if built[2].Dict == nil || built[3].Dict != nil || built[0].Encoding() != storage.EncRLE {
		t.Fatal("want an RLE date, a dictionary s and a plain p")
	}
	tbl, err := storage.NewTable("Extract", "t", built)
	if err != nil {
		t.Fatal(err)
	}
	ref := func(i int) plan.Expr {
		return &plan.ColRef{Name: built[i].Name, Idx: i, Typ: built[i].Type}
	}
	d, i, s, p, f := ref(0), ref(1), ref(2), ref(3), ref(4)
	str := func(v string) plan.Expr { return &plan.Lit{Val: storage.StrValue(v)} }
	calls := []*plan.Call{
		call("weekday", d), call("year", d), call("abs", i), call("lower", s), call("len", s),
		call("startswith", s, str("b")), call("ifnull", s, str("none")), call("concat", s, p, i),
		call("upper", p), call("abs", f), call("round", f), call("ifnull", f, &plan.Lit{Val: storage.FloatValue(-1)}),
	}
	preds := []plan.Expr{
		calls[5],
		&plan.Cmp{Op: plan.CmpEq, L: calls[6], R: str("none")},
	}
	op, err := Build(context.Background(), scanAll(tbl))
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	for bi := 0; ; bi++ {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		answers := map[plan.Expr][]storage.Value{}
		for _, c := range calls {
			got, err := evalCall(c, b)
			if err != nil {
				t.Fatal(err)
			}
			args := make([]*storage.Vector, len(c.Args))
			for j, a := range c.Args {
				if args[j], err = EvalExpr(a, b); err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < b.N; r++ {
				vals, null := make([]storage.Value, len(args)), false
				for j, a := range args {
					vals[j] = a.Value(r)
					null = null || vals[j].Null
				}
				want := storage.NullValue(c.Type())
				if !null || c.Fn.NullSafe {
					want = coerce(c.Fn.Eval(vals), c.Type())
				}
				answers[c] = append(answers[c], want)
				g := got.Value(r)
				if g.Null != want.Null || g.S != want.S || g.I != want.I || math.Float64bits(g.F) != math.Float64bits(want.F) {
					t.Fatalf("batch %d row %d: %s = %v, row-by-row %v", bi, r, c, g, want)
				}
			}
		}
		for pi, pred := range preds {
			var want []int32
			for r, v := range answers[calls[5]] {
				if pi == 0 && !v.Null && v.I != 0 || pi == 1 && answers[calls[6]][r].S == "none" {
					want = append(want, int32(r))
				}
			}
			got, err := newFilterOp(nil, pred).selectRows(b)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("batch %d: filter %s keeps %v\nrow by row %v", bi, pred, got, want)
			}
		}
	}
}

// A filter over a scan allocates for the rows it keeps, not for the rows it
// reads: scans are views and the predicate writes no vector. An IN, a
// comparison and a function of the dictionary column are each decided per
// token, once per operator.
func TestFilterAllocatesForSurvivorsOnly(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(3))
	keys, nums := make([]storage.Value, n), make([]storage.Value, n)
	for i := range keys {
		keys[i] = storage.StrValue(fmt.Sprintf("k%02d", rng.Intn(100)))
		nums[i] = storage.IntValue(rng.Int63n(1000))
	}
	plain := storage.BuildOptions{HasForce: true, ForceEncoding: storage.EncPlain}
	kc, err := storage.BuildColumn("k", storage.TStr, storage.CollBinary, keys, plain)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := storage.BuildColumn("n", storage.TInt, storage.CollBinary, nums, plain)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := storage.NewTable("Extract", "t", []*storage.Column{kc, nc})
	if err != nil {
		t.Fatal(err)
	}
	if kc.Dict == nil || kc.Encoding() != storage.EncPlain || nc.Encoding() != storage.EncPlain {
		t.Fatal("want a plain dictionary column and a plain int column")
	}
	k := &plan.ColRef{Name: "k", Idx: 0, Typ: storage.TStr}
	k42 := &plan.Lit{Val: storage.StrValue("k42")}
	for _, pred := range []plan.Expr{
		&plan.InList{E: k, Vals: sv("k42")},
		&plan.Cmp{Op: plan.CmpEq, L: k, R: k42},
		&plan.Cmp{Op: plan.CmpEq, L: call("lower", k), R: k42},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		op, err := Build(context.Background(), &plan.Filter{Child: scanAll(tbl), Pred: pred})
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for {
			b, err := op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			kept += b.N
		}
		op.Close()
		runtime.ReadMemStats(&after)
		if kept < n/200 || kept > n/50 {
			t.Fatalf("%s: kept %d of %d rows, want about 1 %%", pred, kept, n)
		}
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%s: %.2f B/row", pred, perRow)
		if perRow >= 8 {
			t.Errorf("%s: filtered scan allocated %.1f bytes per input row, want < 8", pred, perRow)
		}
	}
}
