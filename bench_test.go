package vizq_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"vizq/internal/cache"
	"vizq/internal/experiments"
	"vizq/internal/query"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/opt"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// ---- experiment benchmarks: one per table in EXPERIMENTS.md ----
// Each iteration runs the complete experiment at test scale; run
// cmd/benchrunner for the full-scale tables.

func benchExperiment(b *testing.B, run func(experiments.Scale) (*experiments.Table, error)) {
	b.Helper()
	s := experiments.TestScale()
	for i := 0; i < b.N; i++ {
		t, err := run(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1BatchProcessing(b *testing.B) { benchExperiment(b, experiments.E1BatchProcessing) }
func BenchmarkE2QueryFusion(b *testing.B)     { benchExperiment(b, experiments.E2QueryFusion) }
func BenchmarkE3ConcurrentConnections(b *testing.B) {
	benchExperiment(b, experiments.E3ConcurrentConnections)
}
func BenchmarkE4QueryCaching(b *testing.B)  { benchExperiment(b, experiments.E4QueryCaching) }
func BenchmarkE5ParallelPlans(b *testing.B) { benchExperiment(b, experiments.E5ParallelPlans) }
func BenchmarkE6RLEIndexScan(b *testing.B)  { benchExperiment(b, experiments.E6RLEIndexScan) }
func BenchmarkE7ShadowExtract(b *testing.B) { benchExperiment(b, experiments.E7ShadowExtract) }
func BenchmarkE8DataServerTempTables(b *testing.B) {
	benchExperiment(b, experiments.E8DataServerTempTables)
}
func BenchmarkE9PublishedVsEmbeddedExtracts(b *testing.B) {
	benchExperiment(b, experiments.E9PublishedVsEmbeddedExtracts)
}

// ---- micro-benchmarks of the hot engine paths ----

var benchEngine *engine.Engine

func getBenchEngine(b *testing.B) *engine.Engine {
	if benchEngine == nil {
		db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 200_000, Days: 365, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchEngine = engine.New(db)
	}
	return benchEngine
}

func benchQuery(b *testing.B, dop int, tql string) {
	b.Helper()
	e := getBenchEngine(b)
	o := opt.DefaultOptions()
	o.MaxDOP = dop
	e.SetOptions(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(context.Background(), tql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTDEScanFilter(b *testing.B) {
	benchQuery(b, 1, `(aggregate (select (table flights) (> distance 1500)) (groupby) (aggs (n count *)))`)
}

func BenchmarkTDEHashAggregate(b *testing.B) {
	benchQuery(b, 1, `(aggregate (table flights) (groupby carrier) (aggs (n count *) (a avg delay)))`)
}

// BenchmarkTDEHashAggregateWide groups on three string columns, the detail
// dashboard's RouteCarrier zone: thousands of groups, so per-group cost shows.
func BenchmarkTDEHashAggregateWide(b *testing.B) {
	benchQuery(b, 1, `(aggregate (table flights) (groupby origin dest carrier) (aggs (n count *) (a avg delay) (d sum distance)))`)
}

// BenchmarkTDEHashAggregateIntKey groups on one int column.
func BenchmarkTDEHashAggregateIntKey(b *testing.B) {
	benchQuery(b, 1, `(aggregate (table flights) (groupby hour) (aggs (n count *) (a avg delay) (d sum distance)))`)
}

func BenchmarkTDEStreamingAggregate(b *testing.B) {
	benchQuery(b, 1, `(aggregate (table flights) (groupby date) (aggs (n count *)))`)
}

func BenchmarkTDEHashJoin(b *testing.B) {
	benchQuery(b, 1, `
		(aggregate
			(join (table flights) (table carriers) (on (= flights.carrier carriers.carrier)))
			(groupby airline_name) (aggs (n count *)))`)
}

func BenchmarkTDETopN(b *testing.B) {
	benchQuery(b, 1, `(topn (aggregate (table flights) (groupby market) (aggs (n count *))) 10 (desc n))`)
}

func BenchmarkTDEDictFilter(b *testing.B) {
	// Token fast path: string equality on a dictionary column.
	benchQuery(b, 1, `(aggregate (select (table flights) (= carrier "WN")) (groupby) (aggs (n count *)))`)
}

// BenchmarkTDEInFilter is a click: an IN on a dictionary column, then a
// group by another. The IN is decided once per token of origin.
func BenchmarkTDEInFilter(b *testing.B) {
	benchQuery(b, 1, `(aggregate (select (table flights) (in origin ["LAX" "SFO" "JFK"])) (groupby carrier) (aggs (n count *) (a avg delay)))`)
}

// BenchmarkTDEWeekday is a load grouped by a function of the date-sorted
// date column: the function runs once per run of equal dates.
func BenchmarkTDEWeekday(b *testing.B) {
	benchQuery(b, 1, `(aggregate (table flights) (groupby (wd (weekday date))) (aggs (n count *)))`)
}

func BenchmarkTDECompileOptimize(b *testing.B) {
	e := getBenchEngine(b)
	src := `
		(topn
			(aggregate
				(select (join (table flights) (table carriers) (on (= flights.carrier carriers.carrier)))
					(and (> distance 500) (in origin ["LAX" "SFO" "JFK"])))
				(groupby airline_name)
				(aggs (n count *) (a avg delay)))
			5 (desc n))`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Plan(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheDerivRollup(b *testing.B) {
	e := getBenchEngine(b)
	s := &query.Query{
		View:     query.View{Table: "flights"},
		Dims:     []query.Dim{{Col: "carrier"}, {Col: "origin"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Sum, Col: "distance", As: "d"}},
	}
	sres, err := e.Query(context.Background(), s.ToTQL())
	if err != nil {
		b.Fatal(err)
	}
	r := s.Clone()
	r.Dims = []query.Dim{{Col: "carrier"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cache.Derive(s, sres, r); !ok {
			b.Fatal("derive failed")
		}
	}
}

func BenchmarkCacheSubsumptionCheck(b *testing.B) {
	s := &query.Query{
		View:     query.View{Table: "flights"},
		Dims:     []query.Dim{{Col: "carrier"}, {Col: "origin"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
		Filters:  []query.Filter{query.GtFilter("distance", storage.IntValue(100))},
	}
	r := s.Clone()
	r.Dims = []query.Dim{{Col: "carrier"}}
	// Same base filter plus a residual filter on a stored dimension.
	r.Filters = append(r.Filters, query.InFilter("origin", storage.StrValue("LAX"), storage.StrValue("SFO")))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cache.Subsumes(s, r) {
			b.Fatal("should subsume")
		}
	}
}

// BenchmarkCacheDeriveAtGrain answers the detail dashboard's RouteCarrier
// zone from its reuse-adjusted result: AVG from SUM/COUNT partials, one
// requested group per stored row.
func BenchmarkCacheDeriveAtGrain(b *testing.B) {
	e := getBenchEngine(b)
	r := &query.Query{
		View: query.View{Table: "flights"},
		Dims: []query.Dim{{Col: "origin"}, {Col: "dest"}, {Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"},
			{Fn: query.Avg, Col: "delay", As: "avgdelay"}, {Fn: query.Sum, Col: "distance", As: "dist"}},
		Filters: []query.Filter{query.RangeFilter("hour", storage.IntValue(6), storage.IntValue(21))},
	}
	s := cache.AdjustForReuse(r)
	sres, err := e.Query(context.Background(), s.ToTQL())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cache.Derive(s, sres, r); !ok {
			b.Fatal("derive failed")
		}
	}
}

// BenchmarkCacheDeriveInResidual filters a stored market×carrier result by
// a 300-value IN list on market, in the other case from the stored values.
func BenchmarkCacheDeriveInResidual(b *testing.B) {
	e := getBenchEngine(b)
	s := &query.Query{
		View:     query.View{Table: "flights"},
		Dims:     []query.Dim{{Col: "market"}, {Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
	}
	sres, err := e.Query(context.Background(), s.ToTQL())
	if err != nil {
		b.Fatal(err)
	}
	var in []storage.Value
	seen := map[string]bool{}
	for i := 0; i < sres.N && len(in) < 300; i++ {
		if m := strings.ToLower(sres.Value(i, 0).S); !seen[m] {
			seen[m] = true
			in = append(in, storage.StrValue(m))
		}
	}
	r := s.Clone()
	r.Filters = []query.Filter{query.InFilter("market", in...)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cache.Derive(s, sres, r); !ok {
			b.Fatal("derive failed")
		}
	}
}

func BenchmarkResultJSONCodec(b *testing.B) {
	e := getBenchEngine(b)
	q := &query.Query{
		View:     query.View{Table: "flights"},
		Dims:     []query.Dim{{Col: "market"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
	}
	res, err := e.Query(context.Background(), q.ToTQL())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := cache.EncodeEntry(q, res, time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := cache.DecodeEntry(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColumnBuildRLE(b *testing.B) {
	vals := make([]storage.Value, 100_000)
	for i := range vals {
		vals[i] = storage.IntValue(int64(i / 100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := storage.BuildColumn("c", storage.TInt, storage.CollBinary, vals, storage.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRLEMaterialize(b *testing.B) {
	vals := make([]storage.Value, 100_000)
	for i := range vals {
		vals[i] = storage.IntValue(int64(i / 100))
	}
	col, err := storage.BuildColumn("c", storage.TInt, storage.CollBinary, vals, storage.BuildOptions{ForceEncoding: storage.EncRLE, HasForce: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for from := 0; from < 100_000; from += storage.BatchSize {
			to := from + storage.BatchSize
			if to > 100_000 {
				to = 100_000
			}
			col.ScanRange(from, to)
		}
	}
}

func BenchmarkParallelVsSerialAgg(b *testing.B) {
	// An ablation pair usable with -bench to see the Exchange benefit under
	// simulated disk latency.
	for _, dop := range []int{1, 4} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			e := getBenchEngine(b)
			o := opt.DefaultOptions()
			o.MaxDOP = dop
			o.GrainWork = 1 << 14
			e.SetOptions(o)
			ctx := exec.WithConfig(context.Background(), exec.Config{ScanBatchDelay: 50 * time.Microsecond})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(ctx, `(aggregate (table flights) (groupby carrier) (aggs (n count *)))`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
