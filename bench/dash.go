package main

import (
	"vizq/internal/query"
	"vizq/internal/tde/storage"
	"vizq/internal/vizql"
)

// dataSource is the connection name every bench dashboard queries through.
const dataSource = "bench"

// fig3Dashboard is the E1 opportunity-graph batch (the paper's Fig. 3) as
// dashboard zones: three broad sources and five zones derivable from them
// by roll-up, filter or projection. Selecting a carrier or an origin keeps
// every target derivable from the cached carrier x origin source; selecting
// a destination filters the daily zones on a column their cached results do
// not carry, so those go remote.
func fig3Dashboard() *vizql.Dashboard {
	flights := query.View{Table: "flights"}
	count := []query.Measure{{Fn: query.Count, As: "n"}}
	zone := func(name string, q *query.Query) *vizql.Zone {
		q.DataSource, q.View = dataSource, flights
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

// detailDashboard is two crosstabs whose results run to 10^4 rows and more,
// so the wire, the cache put and the post-processing carry them. Selecting
// in Markets is a multi-select of 300+ values: past MaxInlineFilterValues
// the pipeline uploads the list as a session temp table and joins it. The
// market selection does not filter MarketDaily: that zone carries market as
// a dimension, so the cache would answer it locally by testing each of its
// 10^4 rows against each of the 300 values, and that scan, not the wire,
// would be the workload.
func detailDashboard() *vizql.Dashboard {
	flights := query.View{Table: "flights"}
	count := []query.Measure{{Fn: query.Count, As: "n"}}
	daytime := query.RangeFilter("hour", storage.IntValue(6), storage.IntValue(21))
	return &vizql.Dashboard{
		Name: "detail",
		Zones: []*vizql.Zone{
			{Name: "Markets", Kind: vizql.ZoneChart, Spec: &query.Query{
				DataSource: dataSource, View: flights,
				Dims: []query.Dim{{Col: "market"}}, Measures: count}},
			{Name: "Carriers", Kind: vizql.ZoneChart, Spec: &query.Query{
				DataSource: dataSource, View: flights,
				Dims: []query.Dim{{Col: "carrier"}}, Measures: count}},
			{Name: "RouteCarrier", Kind: vizql.ZoneChart, Spec: &query.Query{
				DataSource: dataSource, View: flights,
				Dims: []query.Dim{{Col: "origin"}, {Col: "dest"}, {Col: "carrier"}},
				Measures: []query.Measure{{Fn: query.Count, As: "n"},
					{Fn: query.Avg, Col: "delay", As: "avgdelay"}, {Fn: query.Sum, Col: "distance", As: "dist"}},
				Filters: []query.Filter{daytime}}},
			{Name: "MarketDaily", Kind: vizql.ZoneChart, Spec: &query.Query{
				DataSource: dataSource, View: flights,
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
