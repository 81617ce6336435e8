package plan

import (
	"strings"
	"testing"

	"vizq/internal/tde/storage"
)

func col(name string, idx int, t storage.Type) *ColRef {
	return &ColRef{Name: name, Idx: idx, Typ: t}
}

func lit(v storage.Value) *Lit { return &Lit{Val: v} }

func TestExprString(t *testing.T) {
	e := &Logic{Op: LogicAnd, Args: []Expr{
		&Cmp{Op: CmpGt, L: col("delay", 0, storage.TFloat), R: lit(storage.FloatValue(10))},
		&InList{E: col("carrier", 1, storage.TStr), Vals: []storage.Value{storage.StrValue("WN")}},
	}}
	want := `(and (> delay 10) (in carrier ["WN"]))`
	if got := e.String(); got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
}

func TestCmpOpNegate(t *testing.T) {
	cases := map[CmpOp]CmpOp{
		CmpEq: CmpNe, CmpNe: CmpEq, CmpLt: CmpGe, CmpLe: CmpGt, CmpGt: CmpLe, CmpGe: CmpLt,
	}
	for op, want := range cases {
		if got := op.Negate(); got != want {
			t.Errorf("%v.Negate() = %v, want %v", op, got, want)
		}
	}
}

func TestRewriteAndWalk(t *testing.T) {
	e := &Arith{Op: ArithAdd, L: col("a", 0, storage.TInt), R: col("b", 3, storage.TInt), Typ: storage.TInt}
	// Rewrite does not mutate the original.
	out := RemapCols(e, map[int]int{0: 5, 3: 7})
	if got := ReferencedCols(out); len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Errorf("remapped refs = %v", got)
	}
	if got := ReferencedCols(e); got[0] != 0 || got[1] != 3 {
		t.Errorf("original mutated: %v", got)
	}
	// Walk stops descending on false.
	count := 0
	Walk(e, func(Expr) bool { count++; return false })
	if count != 1 {
		t.Errorf("walk visited %d", count)
	}
}

func TestAndSplitJoin(t *testing.T) {
	a := &Cmp{Op: CmpGt, L: col("x", 0, storage.TInt), R: lit(storage.IntValue(1))}
	b := &Cmp{Op: CmpLt, L: col("x", 0, storage.TInt), R: lit(storage.IntValue(9))}
	c := &Cmp{Op: CmpEq, L: col("y", 1, storage.TInt), R: lit(storage.IntValue(5))}
	nested := &Logic{Op: LogicAnd, Args: []Expr{a, &Logic{Op: LogicAnd, Args: []Expr{b, c}}}}
	split := AndSplit(nested)
	if len(split) != 3 {
		t.Fatalf("split = %d conjuncts", len(split))
	}
	if AndJoin(nil) != nil {
		t.Error("empty join should be nil")
	}
	if AndJoin(split[:1]) != split[0] {
		t.Error("single join should pass through")
	}
	if got := AndJoin(split); len(AndSplit(got)) != 3 {
		t.Error("join/split not inverse")
	}
}

func TestExprCostProfile(t *testing.T) {
	cheap := &Arith{Op: ArithAdd, L: col("a", 0, storage.TInt), R: lit(storage.IntValue(1)), Typ: storage.TInt}
	upper, _ := LookupFunc("upper")
	expensive := &Call{Fn: upper, Args: []Expr{col("s", 1, storage.TStr)}}
	if ExprCost(expensive) <= ExprCost(cheap) {
		t.Error("string manipulation must cost more than arithmetic")
	}
	strCmp := &Cmp{Op: CmpEq, L: col("s", 1, storage.TStr), R: lit(storage.StrValue("x"))}
	intCmp := &Cmp{Op: CmpEq, L: col("a", 0, storage.TInt), R: lit(storage.IntValue(1))}
	if ExprCost(strCmp) <= ExprCost(intCmp) {
		t.Error("string compare must cost more than int compare")
	}
}

func TestAggFnResultType(t *testing.T) {
	if AggAvg.ResultType(storage.TInt) != storage.TFloat {
		t.Error("avg is float")
	}
	if AggSum.ResultType(storage.TInt) != storage.TInt || AggSum.ResultType(storage.TFloat) != storage.TFloat {
		t.Error("sum keeps numeric class")
	}
	if AggCount.ResultType(storage.TStr) != storage.TInt {
		t.Error("count is int")
	}
	if AggMin.ResultType(storage.TStr) != storage.TStr {
		t.Error("min keeps type")
	}
	if _, err := ParseAggFn("median"); err == nil {
		t.Error("unknown agg should fail")
	}
}

func TestFuncRegistry(t *testing.T) {
	if _, ok := LookupFunc("UPPER"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if len(funcRegistry) < 15 {
		t.Errorf("registry too small: %d functions", len(funcRegistry))
	}
	ifnull, _ := LookupFunc("ifnull")
	out := ifnull.Eval([]storage.Value{storage.NullValue(storage.TInt), storage.IntValue(7)})
	if out.I != 7 {
		t.Errorf("ifnull = %v", out)
	}
	substr, _ := LookupFunc("substr")
	if got := substr.Eval([]storage.Value{storage.StrValue("hello"), storage.IntValue(1), storage.IntValue(3)}); got.S != "ell" {
		t.Errorf("substr = %q", got.S)
	}
	// Out-of-range substr clamps.
	if got := substr.Eval([]storage.Value{storage.StrValue("hi"), storage.IntValue(5), storage.IntValue(3)}); got.S != "" {
		t.Errorf("clamped substr = %q", got.S)
	}
}

func TestFormatWithShared(t *testing.T) {
	vals := []storage.Value{storage.IntValue(1), storage.IntValue(2)}
	c, err := storage.BuildColumn("k", storage.TInt, storage.CollBinary, vals, storage.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := storage.NewTable("Extract", "tiny", []*storage.Column{c})
	if err != nil {
		t.Fatal(err)
	}
	scan := &Scan{Table: tbl, ColIdxs: []int{0}}
	shared := &Shared{Child: scan, ID: 1}
	ex := &Exchange{Inputs: []Node{
		&Join{Left: scan.WithChildren(nil), Right: shared, LKeys: []int{0}, RKeys: []int{0}},
		&Join{Left: scan.WithChildren(nil), Right: shared, LKeys: []int{0}, RKeys: []int{0}},
	}}
	got := Format(ex)
	if strings.Count(got, "shared-table #1") != 2 {
		t.Errorf("both references shown:\n%s", got)
	}
	// The shared child subtree prints exactly once.
	if strings.Count(got, "scan Extract.tiny [k]\n") < 1 {
		t.Errorf("missing scan lines:\n%s", got)
	}
}

func TestSchemaComputation(t *testing.T) {
	vals := []storage.Value{storage.StrValue("a"), storage.StrValue("b")}
	c1, _ := storage.BuildColumn("k", storage.TInt, storage.CollBinary,
		[]storage.Value{storage.IntValue(1), storage.IntValue(2)}, storage.BuildOptions{})
	c2, _ := storage.BuildColumn("s", storage.TStr, storage.CollCI, vals, storage.BuildOptions{})
	tbl, _ := storage.NewTable("Extract", "x", []*storage.Column{c1, c2})
	scan := &Scan{Table: tbl, ColIdxs: []int{0, 1}}
	agg := &Aggregate{Child: scan, GroupBy: []int{1},
		Aggs: []AggSpec{{Fn: AggCount, ArgIdx: -1, Name: "n"}, {Fn: AggAvg, ArgIdx: 0, Name: "a"}}}
	sch := agg.Schema()
	if len(sch) != 3 || sch[0].Name != "s" || sch[0].Coll != storage.CollCI {
		t.Errorf("schema[0] = %+v", sch[0])
	}
	if sch[1].Type != storage.TInt || sch[2].Type != storage.TFloat {
		t.Errorf("agg types = %v %v", sch[1].Type, sch[2].Type)
	}
	j := &Join{Left: scan, Right: scan, LKeys: []int{0}, RKeys: []int{0}}
	if len(j.Schema()) != 4 {
		t.Errorf("join schema = %d cols", len(j.Schema()))
	}
}
