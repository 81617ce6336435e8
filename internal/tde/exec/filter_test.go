package exec

import (
	"context"
	"fmt"
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
			t.Errorf("op %v: got rows %v %v %v", c.op, res.Row(0), res.Row(1), res.Row(2))
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
	{"sdci", storage.TStr, storage.CollCI, storage.BuildOptions{}},
	{"sp", storage.TStr, storage.CollBinary, storage.BuildOptions{NoDictionary: true, HasForce: true, ForceEncoding: storage.EncPlain}},
	{"spci", storage.TStr, storage.CollCI, storage.BuildOptions{NoDictionary: true, HasForce: true, ForceEncoding: storage.EncPlain}},
	{"i", storage.TInt, storage.CollBinary, storage.BuildOptions{}},
	{"ir", storage.TInt, storage.CollBinary, storage.BuildOptions{HasForce: true, ForceEncoding: storage.EncRLE}},
	{"f", storage.TFloat, storage.CollBinary, storage.BuildOptions{}},
	{"b", storage.TBool, storage.CollBinary, storage.BuildOptions{}},
}

var filterWords = []string{"ant", "Ant", "bee", "BEE", "cat", "dog", "eel", "fox"}

func filterBatch(t *testing.T, rng *rand.Rand, n int) *storage.Batch {
	t.Helper()
	cols := make([]*storage.Vector, len(filterCols))
	for c, fc := range filterCols {
		vals := make([]storage.Value, n)
		for i := range vals {
			switch {
			case rng.Intn(8) == 0:
				vals[i] = storage.NullValue(fc.typ)
			case fc.typ == storage.TStr:
				vals[i] = storage.StrValue(filterWords[rng.Intn(6)]) // "eel" and "fox" stay absent
			case fc.typ == storage.TFloat:
				vals[i] = storage.FloatValue(float64(rng.Intn(9)-4) / 2)
			case fc.typ == storage.TBool:
				vals[i] = storage.BoolValue(rng.Intn(2) == 0)
			case c == 5:
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

func randPred(rng *rand.Rand, depth int) plan.Expr {
	c := rng.Intn(len(filterCols))
	fc := filterCols[c]
	col := &plan.ColRef{Name: fc.name, Idx: c, Typ: fc.typ, Coll: fc.coll}
	switch k := rng.Intn(9); {
	case depth > 0 && k < 3:
		args := []plan.Expr{randPred(rng, depth-1), randPred(rng, depth-1)}
		if rng.Intn(3) == 0 {
			args = append(args, randPred(rng, depth-1))
		}
		op := []plan.LogicOp{plan.LogicAnd, plan.LogicOr}[k%2]
		if k == 2 {
			op, args = plan.LogicNot, args[:1]
		}
		return &plan.Logic{Op: op, Args: args}
	case k < 6:
		var l, r plan.Expr = col, &plan.Lit{Val: randLit(rng, fc.typ)}
		if rng.Intn(2) == 0 {
			l, r = r, l
		}
		op := []plan.CmpOp{plan.CmpEq, plan.CmpNe, plan.CmpLt, plan.CmpLe, plan.CmpGt, plan.CmpGe}[rng.Intn(6)]
		return &plan.Cmp{Op: op, L: l, R: r, Coll: fc.coll}
	case k < 8:
		vals := make([]storage.Value, rng.Intn(5))
		for i := range vals {
			vals[i] = randLit(rng, fc.typ)
		}
		return &plan.InList{E: col, Vals: vals, Negate: rng.Intn(2) == 0, Coll: fc.coll}
	}
	return &plan.IsNull{E: col, Negate: rng.Intn(2) == 0}
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
// (its IN sets are built on the first) and then the batch decoded.
func TestFilterMatchesEvalExpr(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	full := filterBatch(t, rng, 300)
	half := func(from, to int) *storage.Batch {
		cols := make([]*storage.Vector, len(full.Cols))
		for i, v := range full.Cols {
			cols[i] = v.Slice(from, to)
		}
		return storage.NewBatch(cols)
	}
	batches := []*storage.Batch{half(0, 150), half(150, 300), decoded(full)}
	for trial := 0; trial < 600; trial++ {
		pred := randPred(rng, 3)
		f := &filterOp{pred: pred}
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

// A filter over a scan allocates for the rows it keeps, not for the rows it
// reads: scans are views and the predicate writes no vector.
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
	pred := &plan.InList{E: &plan.ColRef{Name: "k", Idx: 0, Typ: storage.TStr}, Vals: sv("k42")}
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
		t.Fatalf("kept %d of %d rows, want about 1 %%", kept, n)
	}
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.2f B/row", perRow)
	if perRow >= 8 {
		t.Errorf("filtered scan allocated %.1f bytes per input row, want < 8", perRow)
	}
}
