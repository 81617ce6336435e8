package query

import (
	"testing"

	"vizq/internal/tde/storage"
)

func TestTempFilter(t *testing.T) {
	f := TempFilter("carrier", "majors")
	if f.Kind != FilterTemp || f.Temp != "majors" {
		t.Fatalf("temp filter = %+v", f)
	}
	g := TempFilter("carrier", "MAJORS")
	if !f.Implies(g, storage.CollBinary) || !f.Equals(g, storage.CollBinary) {
		t.Error("temp filters with same name should be equal (case-insensitive)")
	}
	other := TempFilter("carrier", "minors")
	if f.Implies(other, storage.CollBinary) {
		t.Error("different temp names are opaque")
	}
	in := InFilter("carrier", storage.StrValue("WN"))
	if f.Implies(in, storage.CollBinary) || in.Implies(f, storage.CollBinary) {
		t.Error("temp vs in is unprovable")
	}
	// Key stability + validation.
	if f.key() == other.key() {
		t.Error("keys must differ")
	}
	q := &Query{View: View{Table: "t"}, Dims: []Dim{{Col: "a"}},
		Filters: []Filter{{Col: "a", Kind: FilterTemp}}}
	if err := q.Validate(); err == nil {
		t.Error("temp filter without name should fail validation")
	}
	// A temp filter renders as an IN whose value set is the table.
	if got := FilterTQL(f); got != "(in carrier (table majors))" {
		t.Errorf("render = %s", got)
	}
}

func TestLtGtFilters(t *testing.T) {
	lt := LtFilter("x", storage.IntValue(10))
	if !lt.HiSet || !lt.HiOpen || lt.LoSet {
		t.Fatalf("lt = %+v", lt)
	}
	gt := GtFilter("x", storage.IntValue(0))
	if !gt.LoSet || !gt.LoOpen || gt.HiSet {
		t.Fatalf("gt = %+v", gt)
	}
	closed := RangeFilter("x", storage.IntValue(1), storage.IntValue(9))
	if !closed.Implies(lt, storage.CollBinary) {
		t.Error("[1,9] implies <10")
	}
	if !closed.Implies(gt, storage.CollBinary) {
		t.Error("[1,9] implies >0")
	}
	if lt.Implies(closed, storage.CollBinary) {
		t.Error("<10 does not imply [1,9]")
	}
}

func TestFilterEquals(t *testing.T) {
	a := InFilter("c", storage.StrValue("x"), storage.StrValue("y"))
	b := InFilter("c", storage.StrValue("y"), storage.StrValue("x"))
	if !a.Equals(b, storage.CollBinary) {
		t.Error("order-insensitive equality")
	}
	c := InFilter("c", storage.StrValue("x"))
	if a.Equals(c, storage.CollBinary) {
		t.Error("different sets are unequal")
	}
	r1 := RangeFilter("c", storage.IntValue(1), storage.IntValue(2))
	r2 := RangeFilter("c", storage.IntValue(1), storage.IntValue(2))
	if !r1.Equals(r2, storage.CollBinary) {
		t.Error("identical ranges are equal")
	}
}

func TestOutputColumnsAndNames(t *testing.T) {
	q := &Query{
		View: View{Table: "t"},
		Dims: []Dim{{Col: "a"}, {Col: "b", As: "bee"}, {Expr: "(weekday d)", As: "wd"}},
		Measures: []Measure{
			{Fn: Count},
			{Fn: Sum, Col: "x"},
			{Fn: Avg, Col: "y", As: "avg_y"},
		},
	}
	got := q.OutputColumns()
	want := []string{"a", "bee", "wd", "count", "sum_x", "avg_y"}
	if len(got) != len(want) {
		t.Fatalf("cols = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("col %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestViewKeyStability(t *testing.T) {
	v1 := View{Table: "f", Joins: []JoinSpec{{Table: "a", LeftCol: "x", RightCol: "y"}, {Table: "b", LeftCol: "p", RightCol: "q"}}}
	v2 := View{Table: "F", Joins: []JoinSpec{{Table: "B", LeftCol: "P", RightCol: "Q"}, {Table: "A", LeftCol: "X", RightCol: "Y"}}}
	if v1.Key() != v2.Key() {
		t.Errorf("view keys differ:\n%s\n%s", v1.Key(), v2.Key())
	}
}
