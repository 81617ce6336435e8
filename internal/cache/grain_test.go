package cache

import (
	"fmt"
	"testing"

	"vizq/internal/query"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// TestDeriveRefusesAvgAcrossHiddenRollup: a request that names one stored
// dimension twice has as many dimensions as the stored query but is
// coarser. A stored AVG must not pass through it; stored SUM and COUNT
// partials roll up to the right AVG.
func TestDeriveRefusesAvgAcrossHiddenRollup(t *testing.T) {
	flights := query.View{Table: "flights"}
	s := &query.Query{DataSource: "flights", View: flights,
		Dims:     []query.Dim{{Col: "carrier"}, {Col: "origin"}},
		Measures: []query.Measure{{Fn: query.Avg, Col: "delay", As: "avgdelay"}}}
	sres := exec.NewResult([]plan.ColInfo{
		{Name: "carrier", Type: storage.TStr}, {Name: "origin", Type: storage.TStr}, {Name: "avgdelay", Type: storage.TFloat}})
	sres.AppendRow([]storage.Value{storage.StrValue("AA"), storage.StrValue("SFO"), storage.FloatValue(10)})
	sres.AppendRow([]storage.Value{storage.StrValue("AA"), storage.StrValue("LAX"), storage.FloatValue(20)})
	r := s.Clone()
	r.Dims = []query.Dim{{Col: "carrier"}, {Col: "carrier", As: "c2"}}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, ok := Derive(s, sres, r); ok {
		t.Fatalf("AVG passed through a roll-up:\n%s", got)
	}

	adj := AdjustForReuse(s)
	pres := exec.NewResult([]plan.ColInfo{{Name: "carrier", Type: storage.TStr}, {Name: "origin", Type: storage.TStr},
		{Name: "$sum_delay", Type: storage.TFloat}, {Name: "$cnt_delay", Type: storage.TInt}})
	pres.AppendRow([]storage.Value{storage.StrValue("AA"), storage.StrValue("SFO"), storage.FloatValue(10), storage.IntValue(1)})
	pres.AppendRow([]storage.Value{storage.StrValue("AA"), storage.StrValue("LAX"), storage.FloatValue(60), storage.IntValue(3)})
	got, ok := Derive(adj, pres, r)
	if !ok {
		t.Fatal("roll-up from partials refused")
	}
	if got.N != 1 || got.Value(0, 2).F != 17.5 {
		t.Fatalf("roll-up from partials:\n%s", got)
	}
}

// TestDeriveNullCounts: a null COUNT or COUNTD cell reads as 0 at the
// stored grain and after a roll-up, and a null partial count makes AVG null.
func TestDeriveNullCounts(t *testing.T) {
	s := &query.Query{DataSource: "d", View: query.View{Table: "t"},
		Dims: []query.Dim{{Col: "a"}, {Col: "b"}},
		Measures: []query.Measure{{Fn: query.Count, Col: "x", As: "n"}, {Fn: query.CountD, Col: "x", As: "nd"},
			{Fn: query.Sum, Col: "x", As: "$sum_x"}}}
	sres := exec.NewResult([]plan.ColInfo{{Name: "a", Type: storage.TStr}, {Name: "b", Type: storage.TStr},
		{Name: "n", Type: storage.TInt}, {Name: "nd", Type: storage.TInt}, {Name: "$sum_x", Type: storage.TFloat}})
	null := storage.NullValue(storage.TInt)
	sres.AppendRow([]storage.Value{storage.StrValue("p"), storage.StrValue("q"), null, null, storage.NullValue(storage.TFloat)})
	sres.AppendRow([]storage.Value{storage.StrValue("p"), storage.StrValue("r"), storage.IntValue(2), storage.IntValue(1), storage.FloatValue(3)})

	r := s.Clone()
	r.Measures = []query.Measure{{Fn: query.Count, Col: "x", As: "n"}, {Fn: query.CountD, Col: "x", As: "nd"},
		{Fn: query.Avg, Col: "x", As: "avgx"}}
	got, ok := Derive(s, sres, r)
	if !ok {
		t.Fatal("derive at the stored grain failed")
	}
	if want := "[p q 0 0 null] [p r 2 1 1.5]"; fmt.Sprint(got.Row(0), " ", got.Row(1)) != want {
		t.Errorf("at the stored grain: got %v %v, want %s", got.Row(0), got.Row(1), want)
	}
	up := s.Clone()
	up.Dims = up.Dims[:1]
	up.Measures = []query.Measure{{Fn: query.Count, Col: "x", As: "n"}, {Fn: query.Avg, Col: "x", As: "avgx"}}
	up.Filters = []query.Filter{query.InFilter("b", storage.StrValue("Q"), storage.StrValue("q"))}
	got, ok = Derive(s, sres, up)
	if !ok {
		t.Fatal("roll-up failed")
	}
	if want := "[p 0 null]"; got.N != 1 || fmt.Sprint(got.Row(0)) != want {
		t.Errorf("roll-up: got %v, want %s", got.Row(0), want)
	}
}

// routeResult is a RouteCarrier-shaped stored answer: n rows of
// origin×dest×carrier with COUNT and the SUM/COUNT partials of AVG(delay).
func routeResult(n int) (*query.Query, *query.Query, *exec.Result) {
	q := &query.Query{DataSource: "flights", View: query.View{Table: "flights"},
		Dims: []query.Dim{{Col: "origin"}, {Col: "dest"}, {Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"},
			{Fn: query.Avg, Col: "delay", As: "avgdelay"}, {Fn: query.Sum, Col: "distance", As: "dist"}}}
	adj := AdjustForReuse(q)
	schema := []plan.ColInfo{
		{Name: "origin", Type: storage.TStr, Coll: storage.CollCI},
		{Name: "dest", Type: storage.TStr, Coll: storage.CollCI},
		{Name: "carrier", Type: storage.TStr, Coll: storage.CollCI},
	}
	for _, m := range adj.Measures {
		typ := storage.TInt
		if m.Fn == query.Sum {
			typ = storage.TFloat
		}
		schema = append(schema, plan.ColInfo{Name: m.Name(), Type: typ})
	}
	res := exec.NewResult(schema)
	for i := 0; i < n; i++ {
		row := []storage.Value{
			storage.StrValue(fmt.Sprintf("O%03d", i%100)), storage.StrValue(fmt.Sprintf("D%03d", i/100)),
			storage.StrValue(fmt.Sprintf("C%02d", i%7)),
		}
		for range adj.Measures {
			row = append(row, storage.Value{Type: storage.TInt, I: int64(1 + i%5)})
		}
		res.AppendRow(row)
	}
	return q, adj, res
}

// TestDeriveAtGrainSharesAndAllocatesPerColumn: an exact hit and an
// adjusted-AVG round trip over 10^4 rows cost a bounded number of
// allocations, independent of the row count, and the exact hit shares the
// stored vectors under a header of its own.
func TestDeriveAtGrainSharesAndAllocatesPerColumn(t *testing.T) {
	q, adj, sres := routeResult(10_000)
	got, ok := Derive(adj, sres, adj)
	if !ok || got == sres || got.Cols[0] != sres.Cols[0] || got.N != sres.N {
		t.Fatalf("exact hit: ok=%v, own header=%v, shared=%v", ok, got != sres, ok && got.Cols[0] == sres.Cols[0])
	}
	for name, r := range map[string]*query.Query{"exact hit": adj, "adjusted AVG": q} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, ok := Derive(adj, sres, r); !ok {
				t.Fatal("derive failed")
			}
		})
		if allocs >= 50 {
			t.Errorf("%s: Derive of %d rows allocated %.0f times", name, sres.N, allocs)
		}
	}
}
