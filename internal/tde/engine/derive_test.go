package engine_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"vizq/internal/cache"
	"vizq/internal/query"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/storage"
	"vizq/internal/vizql"
)

// TestDeriveMatchesEngine runs every zone query of the fig3, FAA, Flights
// and detail dashboards, plus edge-table queries with null SUM cells, empty
// inputs and a float dimension, in its reuse-adjusted form. From that one
// stored result cache.Derive answers the original query, the original under
// a residual IN on each stored column dimension (three in four stored values
// in alternating case, up to 300 of them, plus a null and a value not
// stored; on a float column also a list of ints) and under a residual range
// on it. Every answer must equal engine.QueryReference of the same request:
// order-free, but in OrderBy order where the query has one.
func TestDeriveMatchesEngine(t *testing.T) {
	e, _ := flightsPair(t)
	reference := func(q *query.Query) *exec.Result {
		res, err := e.QueryReference(context.Background(), q.ToTQL())
		if err != nil {
			t.Fatalf("%s: %v", q.ToTQL(), err)
		}
		return res
	}
	var zones []*query.Query
	for _, d := range []*vizql.Dashboard{
		fig3Dashboard(), vizql.FAADashboard("flights"), vizql.FlightsDashboard("flights"), detailDashboard(),
	} {
		for _, z := range d.Zones {
			if z.Spec != nil {
				zones = append(zones, z.Spec)
			}
		}
	}
	edge := query.View{Table: "edge"}
	f := func(fn query.AggFunc, as string) query.Measure { return query.Measure{Fn: fn, Col: "f", As: as} }
	never := query.RangeFilter("hour", storage.IntValue(100), storage.IntValue(200))
	zones = append(zones,
		&query.Query{View: edge, Dims: []query.Dim{{Col: "s1"}},
			Measures: []query.Measure{f(query.Count, "n"), f(query.Sum, "sf"), f(query.Avg, "af"), f(query.Min, "lo"), f(query.Max, "hi")}},
		&query.Query{View: edge, Dims: []query.Dim{{Col: "f"}, {Col: "s2"}},
			Measures: []query.Measure{{Fn: query.Count, As: "n"}, f(query.Avg, "af"), {Fn: query.CountD, Col: "s1", As: "d"}}},
		&query.Query{View: edge, Measures: []query.Measure{f(query.Count, "n"), f(query.Sum, "sf"), f(query.Avg, "af")}},
		&query.Query{View: query.View{Table: "flights"}, Dims: []query.Dim{{Col: "carrier"}},
			Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Avg, Col: "delay", As: "avgdelay"}},
			Filters:  []query.Filter{never}},
		&query.Query{View: query.View{Table: "flights"},
			Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Avg, Col: "delay", As: "avgdelay"}},
			Filters:  []query.Filter{never}},
	)

	checked, longest := 0, 0
	for _, q := range zones {
		s := cache.AdjustForReuse(q)
		sres := reference(s)
		requests := []*query.Query{q}
		for _, d := range q.Dims {
			if d.Expr != "" {
				continue
			}
			c := sres.ColumnIndex(d.Name())
			for _, vals := range residualLists(sres, c) {
				r := q.Clone()
				r.Filters = append(r.Filters, query.InFilter(d.Col, vals...))
				requests = append(requests, r)
				longest = max(longest, len(vals))
			}
			if lo, hi, ok := quartiles(sres, c); ok {
				r := q.Clone()
				r.Filters = append(r.Filters, query.RangeFilter(d.Col, lo, hi))
				requests = append(requests, r)
			}
		}
		for _, r := range requests {
			got, ok := cache.Derive(s, sres, r)
			if !ok {
				if r != q && s.N > 0 {
					continue // a stored top-n answers only itself
				}
				t.Errorf("Derive refused %s from %s", r.ToTQL(), s.ToTQL())
				continue
			}
			want := reference(r)
			if g, w := render(got), render(want); g != w {
				t.Errorf("%s derived from %s:\n got  %s\n want %s", r.ToTQL(), s.ToTQL(), g, w)
			}
			if err := inOrder(got, r); err != nil {
				t.Errorf("%s: %v", r.ToTQL(), err)
			}
			checked++
		}
	}
	if checked < 60 || longest < 300 {
		t.Fatalf("%d derivations checked, longest IN list %d values", checked, longest)
	}
}

// residualLists builds the IN lists a residual filter on column c of res
// tries: three in four distinct stored values, up to 300, in alternating case,
// with a null and an absent value; on a float column, also a list of ints.
func residualLists(res *exec.Result, c int) [][]storage.Value {
	seen := map[string]bool{}
	list := []storage.Value{storage.NullValue(res.Schema[c].Type)}
	for i := 0; i < res.N && len(list) < 300; i++ {
		v := res.Value(i, c)
		if k := strings.ToLower(v.String()); v.Null || seen[k] || !inTQL(v) {
			continue
		} else {
			seen[k] = true
		}
		if len(seen)%4 == 0 {
			continue
		}
		if v.Type == storage.TStr && len(list)%2 == 0 {
			v.S = strings.ToLower(v.S)
		} else if v.Type == storage.TStr {
			v.S = strings.ToUpper(v.S)
		}
		list = append(list, v)
	}
	switch res.Schema[c].Type {
	case storage.TStr:
		list = append(list, storage.StrValue("no such value"))
	case storage.TFloat:
		return [][]storage.Value{list, {storage.IntValue(0), storage.IntValue(1), storage.IntValue(7)}}
	}
	return [][]storage.Value{list}
}

// quartiles returns the first and third quartile of column c's non-null
// values, the bounds of a residual range that keeps about half the rows.
func quartiles(res *exec.Result, c int) (lo, hi storage.Value, ok bool) {
	var vals []storage.Value
	for i := 0; i < res.N; i++ {
		if v := res.Value(i, c); !v.Null && inTQL(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return lo, hi, false
	}
	coll := res.Schema[c].Coll
	sort.Slice(vals, func(i, j int) bool { return storage.Compare(vals[i], vals[j], coll) < 0 })
	return vals[len(vals)/4], vals[3*len(vals)/4], true
}

// inOrder checks that res is sorted by r's first order key.
func inOrder(res *exec.Result, r *query.Query) error {
	if len(r.OrderBy) == 0 {
		return nil
	}
	o := r.OrderBy[0]
	c := res.ColumnIndex(o.Col)
	if c < 0 {
		return fmt.Errorf("no order column %q", o.Col)
	}
	for i := 1; i < res.N; i++ {
		cmp := storage.Compare(res.Value(i-1, c), res.Value(i, c), res.Schema[c].Coll)
		if (o.Desc && cmp < 0) || (!o.Desc && cmp > 0) {
			return fmt.Errorf("rows %d and %d out of %v order", i-1, i, o)
		}
	}
	return nil
}

// inTQL reports whether v can be written as a TQL literal, which has no
// escape for control bytes.
func inTQL(v storage.Value) bool {
	return !strings.ContainsFunc(v.S, func(r rune) bool { return r < ' ' })
}
