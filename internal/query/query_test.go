package query

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"vizq/internal/tde/engine"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

func iv(i int64) storage.Value  { return storage.IntValue(i) }
func sv(s string) storage.Value { return storage.StrValue(s) }

func TestFilterImplication(t *testing.T) {
	coll := storage.CollBinary // over a column of unknown type: members keyed as they are
	cases := []struct {
		name string
		a, b Filter
		want bool
	}{
		{"subset in", InFilter("c", sv("x")), InFilter("c", sv("x"), sv("y")), true},
		{"superset in", InFilter("c", sv("x"), sv("y")), InFilter("c", sv("x")), false},
		{"equal in reordered", InFilter("c", sv("y"), sv("x")), InFilter("c", sv("x"), sv("y")), true},
		{"different col", InFilter("a", sv("x")), InFilter("b", sv("x")), false},
		{"narrow range", RangeFilter("c", iv(5), iv(10)), RangeFilter("c", iv(0), iv(20)), true},
		{"wide range", RangeFilter("c", iv(0), iv(20)), RangeFilter("c", iv(5), iv(10)), false},
		{"half open implies unbounded", GtFilter("c", iv(5)), RangeFilter("c", iv(0), storage.NullValue(storage.TInt)), true},
		{"unbounded does not imply bounded", RangeFilter("c", iv(0), storage.NullValue(storage.TInt)), RangeFilter("c", iv(0), iv(10)), false},
		{"strict vs closed same bound", GtFilter("c", iv(5)), RangeFilter("c", iv(5), storage.NullValue(storage.TInt)), true},
		{"closed vs strict same bound", RangeFilter("c", iv(5), storage.NullValue(storage.TInt)), GtFilter("c", iv(5)), false},
		{"in implies covering range", InFilter("c", iv(3), iv(7)), RangeFilter("c", iv(0), iv(10)), true},
		{"in outside range", InFilter("c", iv(3), iv(70)), RangeFilter("c", iv(0), iv(10)), false},
		{"range into in unprovable", RangeFilter("c", iv(3), iv(4)), InFilter("c", iv(3), iv(4)), false},
	}
	for _, c := range cases {
		if got := c.a.Implies(c.b, storage.TNull, coll); got != c.want {
			t.Errorf("%s: Implies = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFilterImpliesReflexiveQuick(t *testing.T) {
	f := func(vals []int16, lo, hi int16) bool {
		in := make([]storage.Value, len(vals))
		for i, v := range vals {
			in[i] = iv(int64(v))
		}
		a := InFilter("c", in...)
		r := RangeFilter("c", iv(int64(lo)), iv(int64(hi)))
		// Reflexivity.
		if len(in) > 0 && !a.Implies(a, storage.TInt, storage.CollBinary) {
			return false
		}
		return r.Implies(r, storage.TInt, storage.CollBinary)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFilterImplicationTransitiveQuick(t *testing.T) {
	// a ⇒ b and b ⇒ c must give a ⇒ c for ranges.
	f := func(a1, a2, b1, b2, c1, c2 int8) bool {
		mk := func(lo, hi int8) Filter {
			if lo > hi {
				lo, hi = hi, lo
			}
			return RangeFilter("x", iv(int64(lo)), iv(int64(hi)))
		}
		a, b, c := mk(a1, a2), mk(b1, b2), mk(c1, c2)
		coll := storage.CollBinary
		if a.Implies(b, storage.TInt, coll) && b.Implies(c, storage.TInt, coll) && !a.Implies(c, storage.TInt, coll) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQueryKeyStability(t *testing.T) {
	q1 := &Query{
		DataSource: "flights",
		View:       View{Table: "flights"},
		Dims:       []Dim{{Col: "carrier"}},
		Measures:   []Measure{{Fn: Count, As: "n"}},
		Filters: []Filter{
			InFilter("origin", sv("LAX"), sv("SFO")),
			GtFilter("delay", storage.FloatValue(0)),
		},
	}
	q2 := q1.Clone()
	// Reorder filters and in-values: key must not change.
	q2.Filters[0], q2.Filters[1] = q2.Filters[1], q2.Filters[0]
	q2.Filters[1].In[0], q2.Filters[1].In[1] = q2.Filters[1].In[1], q2.Filters[1].In[0]
	if q1.Key() != q2.Key() {
		t.Errorf("keys differ:\n%s\n%s", q1.Key(), q2.Key())
	}
	// A different filter value changes the key.
	q3 := q1.Clone()
	q3.Filters[0].In = append(q3.Filters[0].In, sv("JFK"))
	if q1.Key() == q3.Key() {
		t.Error("different filters must have different keys")
	}
	// Same group key though.
	if q1.GroupKey() != q3.GroupKey() {
		t.Error("group keys should match for the same view")
	}
}

func TestValidate(t *testing.T) {
	good := &Query{View: View{Table: "t"}, Dims: []Dim{{Col: "a"}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	bad := []*Query{
		{View: View{}, Dims: []Dim{{Col: "a"}}},
		{View: View{Table: "t"}},
		{View: View{Table: "t"}, Measures: []Measure{{Fn: "median", Col: "x"}}},
		{View: View{Table: "t"}, Measures: []Measure{{Fn: Sum}}},
		{View: View{Table: "t"}, Dims: []Dim{{Col: "a"}}, N: 3},
		{View: View{Table: "t"}, Dims: []Dim{{Col: "a"}, {Col: "A"}}},
		{View: View{Table: "t"}, Dims: []Dim{{Col: "a"}}, Filters: []Filter{{Col: "x", Kind: FilterRange}}},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestToTQLExecutes(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 5000, Days: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(db)
	q := &Query{
		DataSource: "flights",
		View:       View{Table: "flights", Joins: []JoinSpec{{Table: "carriers", LeftCol: "carrier", RightCol: "carrier"}}},
		Dims:       []Dim{{Col: "airline_name"}},
		Measures: []Measure{
			{Fn: Count, As: "flights"},
			{Fn: Avg, Col: "delay", As: "avgdelay"},
		},
		Filters: []Filter{
			InFilter("origin", sv("LAX"), sv("SFO"), sv("ATL")),
			GtFilter("distance", iv(200)),
		},
		OrderBy: []Order{{Col: "flights", Desc: true}},
		N:       5,
	}
	src := q.ToTQL()
	res, err := e.Query(context.Background(), src)
	if err != nil {
		t.Fatalf("generated TQL failed: %v\n%s", err, src)
	}
	if res.N == 0 || res.N > 5 {
		t.Errorf("rows = %d", res.N)
	}
	cols := q.OutputColumns()
	for i, c := range cols {
		if !strings.EqualFold(res.Schema[i].Name, c) {
			t.Errorf("column %d = %s, want %s", i, res.Schema[i].Name, c)
		}
	}
	// Sorted descending by flights.
	for i := 1; i < res.N; i++ {
		if res.Value(i, 1).I > res.Value(i-1, 1).I {
			t.Error("top-n not ordered")
		}
	}
}

func TestToTQLCalculatedDim(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 3000, Days: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(db)
	q := &Query{
		View:     View{Table: "flights"},
		Dims:     []Dim{{Expr: "(weekday date)", As: "wd"}},
		Measures: []Measure{{Fn: Count, As: "n"}},
	}
	res, err := e.Query(context.Background(), q.ToTQL())
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 || res.N > 7 {
		t.Errorf("weekday groups = %d", res.N)
	}
}
