package engine_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"vizq/internal/query"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/storage"
	"vizq/internal/vizql"
	"vizq/internal/workload"
)

// TestTokenPathMatchesPlainStrings runs every zone query of the fig3, FAA,
// Flights and detail dashboards, each also under the filters its actions
// apply, plus edge-row queries, against the flights tables as built and
// against a copy whose string columns carry no dictionary. The hash
// operators group, join and filter on tokens in the first and on strings in
// the second; the answers at DOP 1 and at the default DOP must equal the
// plain tables' plan run as compiled.
func TestTokenPathMatchesPlainStrings(t *testing.T) {
	tokens, plain := flightsPair(t)
	var qs []string
	for _, d := range []*vizql.Dashboard{
		fig3Dashboard(), vizql.FAADashboard("flights"), vizql.FlightsDashboard("flights"), detailDashboard(),
	} {
		for _, z := range d.Zones {
			if z.Spec == nil {
				continue
			}
			qs = append(qs, z.Spec.ToTQL())
			for _, a := range d.Actions {
				for _, target := range a.Targets {
					if target == z.Name {
						q := z.Spec.Clone()
						q.Filters = append(q.Filters, query.InFilter(a.Col, selection(t, tokens, a.Col)...))
						qs = append(qs, q.ToTQL())
					}
				}
			}
		}
	}
	qs = append(qs,
		`(aggregate (table edge) (groupby f) (aggs (n count *)))`,
		`(aggregate (table edge) (groupby s1 s2) (aggs (n count *) (d countd f)))`,
		`(aggregate (table edge) (groupby) (aggs (d1 countd s1) (d2 countd f) (d3 countd s2)))`,
		`(aggregate (select (table edge) (in s2 ["C" "x" "nope"])) (groupby s1) (aggs (n count *)))`,
		`(aggregate (join (table edge) (table edgedim) (on (= edge.s1 edgedim.k))) (groupby v s2) (aggs (n count *)))`,
	)
	for qi, q := range qs {
		want := rows(t, plain.QueryReference, q)
		for _, run := range []struct {
			name string
			fn   func(context.Context, string) (*exec.Result, error)
		}{
			{"plain/serial", plain.QuerySerial},
			{"plain/default", plain.Query},
			{"tokens/reference", tokens.QueryReference},
			{"tokens/serial", tokens.QuerySerial},
			{"tokens/default", tokens.Query},
		} {
			if got := rows(t, run.fn, q); got != want {
				t.Errorf("query %d %s differs from plain/reference:\n%s\n got  %s\n want %s", qi, run.name, q, got, want)
			}
		}
	}
}

// flightsPair builds the flights database and edge tables twice: once as
// the generator builds them and once with every string column plain.
func flightsPair(t *testing.T) (tokens, plain *engine.Engine) {
	t.Helper()
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 20_000, Days: 120, Seed: 3, Carriers: 10, Airports: 30})
	if err != nil {
		t.Fatal(err)
	}
	nz := storage.FloatValue(math.Copysign(0, -1))
	null := storage.NullValue(storage.TStr)
	s := storage.StrValue
	edge := map[string][]storage.Value{
		"f": {nz, storage.FloatValue(0), storage.FloatValue(1.5), storage.NullValue(storage.TFloat),
			nz, storage.FloatValue(2.5), storage.FloatValue(1.5), storage.NullValue(storage.TFloat)},
		"s1": {s("a\x03b"), s("a"), s("A\x03B"), null, s("B"), s("b"), s("a"), s("c")},
		"s2": {s("c"), s("b\x03c"), s("C"), s("x"), null, s("X"), s("B\x03C"), s("c")},
	}
	dim := map[string][]storage.Value{
		"k": {s("A"), s("b"), s("C"), s("a\x03B")},
		"v": {s("one"), s("two"), s("three"), s("four")},
	}
	for _, tbl := range []struct {
		name  string
		cols  map[string][]storage.Value
		order []string
	}{{"edge", edge, []string{"f", "s1", "s2"}}, {"edgedim", dim, []string{"k", "v"}}} {
		var cols []*storage.Column
		for _, name := range tbl.order {
			vals := tbl.cols[name]
			typ := storage.TStr
			if vals[0].Type == storage.TFloat {
				typ = storage.TFloat
			}
			c, err := storage.BuildColumn(name, typ, storage.CollCI, vals, storage.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cols = append(cols, c)
		}
		st, err := storage.NewTable("Extract", tbl.name, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddTable(st); err != nil {
			t.Fatal(err)
		}
	}

	pdb := storage.NewDatabase("flights")
	dicts := 0
	for _, st := range db.Tables("Extract") {
		cols := make([]*storage.Column, len(st.Cols))
		for i, c := range st.Cols {
			if c.Dict != nil {
				dicts++
			}
			vals := make([]storage.Value, st.Rows)
			for r := range vals {
				vals[r] = c.Value(r)
			}
			if cols[i], err = storage.BuildColumn(c.Name, c.Type, c.Coll, vals, storage.BuildOptions{NoDictionary: true}); err != nil {
				t.Fatal(err)
			}
		}
		pt, err := storage.NewTable(st.Schema, st.Name, cols)
		if err != nil {
			t.Fatal(err)
		}
		pt.SortKey, pt.UniqueKeys = st.SortKey, st.UniqueKeys
		if err := pdb.AddTable(pt); err != nil {
			t.Fatal(err)
		}
	}
	if dicts < 10 {
		t.Fatalf("only %d dictionary columns in the token database", dicts)
	}
	return engine.New(db), engine.New(pdb)
}

// selection picks the values an action on col filters by: two for the
// small domains, in mixed case, and 300 of the markets, as the detail
// dashboard's multi-select does.
func selection(t *testing.T, e *engine.Engine, col string) []storage.Value {
	t.Helper()
	res, err := e.QueryReference(context.Background(), fmt.Sprintf(`(distinct (project (table flights) (%s %s)))`, col, col))
	if err != nil {
		t.Fatal(err)
	}
	var vals []string
	for i := 0; i < res.N; i++ {
		vals = append(vals, res.Value(i, 0).S)
	}
	sort.Strings(vals)
	n := 2
	if col == "market" {
		n = 300
	}
	var out []storage.Value
	for i := 0; i < n && i < len(vals); i++ {
		v := vals[i*len(vals)/n]
		if i%2 == 1 {
			v = strings.ToLower(v)
		}
		out = append(out, storage.StrValue(v))
	}
	return out
}

// rows runs q and renders its rows order-free. Strings are lower-cased,
// since a CI group keeps whichever spelling it met first, and floats are
// rounded, since parallel sums add in another order.
func rows(t *testing.T, run func(context.Context, string) (*exec.Result, error), q string) string {
	t.Helper()
	res, err := run(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return render(res)
}

// render prints a result's rows order-free, as rows does.
func render(res *exec.Result) string {
	out := make([]string, res.N)
	for i := range out {
		parts := make([]string, len(res.Cols))
		for c := range parts {
			v := res.Value(i, c)
			switch {
			case v.Null:
				parts[c] = "null"
			case v.Type == storage.TFloat:
				parts[c] = fmt.Sprintf("%.6f", v.F+0) // +0 folds -0 into 0
			default:
				parts[c] = strings.ToLower(v.String())
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return fmt.Sprintf("%d rows: %s", res.N, strings.Join(out, "; "))
}

// fig3Dashboard and detailDashboard restate the benchmark's two dashboards
// (bench/dash.go) for the zone queries they send.
func fig3Dashboard() *vizql.Dashboard {
	count := []query.Measure{{Fn: query.Count, As: "n"}}
	zone := func(name string, q *query.Query) *vizql.Zone {
		q.DataSource, q.View = "flights", query.View{Table: "flights"}
		return &vizql.Zone{Name: name, Kind: vizql.ZoneChart, Spec: q}
	}
	return &vizql.Dashboard{
		Name: "fig3",
		Zones: []*vizql.Zone{
			zone("CarrierOrigin", &query.Query{
				Dims:     []query.Dim{{Col: "carrier"}, {Col: "origin"}},
				Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Sum, Col: "distance", As: "dist"}}}),
			zone("ByCarrier", &query.Query{Dims: []query.Dim{{Col: "carrier"}}, Measures: count}),
			zone("OriginBigTwo", &query.Query{Dims: []query.Dim{{Col: "origin"}}, Measures: count,
				Filters: []query.Filter{query.InFilter("carrier", storage.StrValue("WN"), storage.StrValue("AA"))}}),
			zone("ByOrigin", &query.Query{Dims: []query.Dim{{Col: "origin"}}, Measures: count}),
			zone("DestDelay", &query.Query{Dims: []query.Dim{{Col: "dest"}},
				Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Avg, Col: "delay", As: "avgdelay"}}}),
			zone("ByDest", &query.Query{Dims: []query.Dim{{Col: "dest"}}, Measures: count}),
			zone("Daily", &query.Query{Dims: []query.Dim{{Col: "date"}}, Measures: count}),
			zone("DailyWindow", &query.Query{Dims: []query.Dim{{Col: "date"}}, Measures: count,
				Filters: []query.Filter{query.RangeFilter("date", storage.DateValue(2015, 3, 1), storage.DateValue(2015, 6, 30))}}),
		},
		Actions: []vizql.FilterAction{
			{Source: "ByCarrier", Col: "carrier", Targets: []string{"CarrierOrigin", "ByOrigin"}},
			{Source: "ByOrigin", Col: "origin", Targets: []string{"CarrierOrigin", "ByCarrier"}},
			{Source: "ByDest", Col: "dest", Targets: []string{"DestDelay", "Daily", "DailyWindow"}},
		},
	}
}

func detailDashboard() *vizql.Dashboard {
	flights := query.View{Table: "flights"}
	count := []query.Measure{{Fn: query.Count, As: "n"}}
	daytime := query.RangeFilter("hour", storage.IntValue(6), storage.IntValue(21))
	return &vizql.Dashboard{
		Name: "detail",
		Zones: []*vizql.Zone{
			{Name: "Markets", Kind: vizql.ZoneChart, Spec: &query.Query{
				DataSource: "flights", View: flights,
				Dims: []query.Dim{{Col: "market"}}, Measures: count}},
			{Name: "Carriers", Kind: vizql.ZoneChart, Spec: &query.Query{
				DataSource: "flights", View: flights,
				Dims: []query.Dim{{Col: "carrier"}}, Measures: count}},
			{Name: "RouteCarrier", Kind: vizql.ZoneChart, Spec: &query.Query{
				DataSource: "flights", View: flights,
				Dims: []query.Dim{{Col: "origin"}, {Col: "dest"}, {Col: "carrier"}},
				Measures: []query.Measure{{Fn: query.Count, As: "n"},
					{Fn: query.Avg, Col: "delay", As: "avgdelay"}, {Fn: query.Sum, Col: "distance", As: "dist"}},
				Filters: []query.Filter{daytime}}},
			{Name: "MarketDaily", Kind: vizql.ZoneChart, Spec: &query.Query{
				DataSource: "flights", View: flights,
				Dims:     []query.Dim{{Col: "market"}, {Col: "date"}},
				Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Max, Col: "delay", As: "maxdelay"}},
				Filters:  []query.Filter{daytime}}},
		},
		Actions: []vizql.FilterAction{
			{Source: "Markets", Col: "market", Targets: []string{"RouteCarrier"}},
			{Source: "Carriers", Col: "carrier", Targets: []string{"RouteCarrier", "MarketDaily"}},
		},
	}
}
