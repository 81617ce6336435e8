package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"vizq/internal/connection"
	"vizq/internal/core"
	"vizq/internal/extract"
	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/opt"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// E5ParallelPlans measures the TDE parallel execution work of Sect. 4.2:
// parallel scans, local/global aggregation, and range-partitioned
// aggregation, across degrees of parallelism.
func E5ParallelPlans(s Scale) (*Table, error) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: s.Rows, Days: 365, Seed: 55})
	if err != nil {
		return nil, err
	}
	eng := engine.New(db)
	t := &Table{
		ID:     "E5",
		Title:  fmt.Sprintf("TDE parallel plans (%d rows)", s.Rows),
		Claim:  "Exchange-based parallel plans speed up scans and aggregations; local/global aggregation reduces Exchange input; range partitioning removes the global phase when the group-by is a sort prefix",
		Header: []string{"query", "plan", "DOP", "ms", "vs serial"},
	}
	cases := []struct {
		name string
		tql  string
		// forbidRange disables range partitioning (to isolate local/global).
		forbidRange bool
	}{
		{"filtered scan + string calc", `
			(aggregate (select (table flights) (contains market "LAX"))
				(groupby carrier) (aggs (n count *)))`, true},
		{"group-by carrier (local/global)", `
			(aggregate (table flights) (groupby carrier)
				(aggs (n count *) (a avg delay) (mx max distance)))`, true},
		{"group-by date (range partition)", `
			(aggregate (table flights) (groupby date)
				(aggs (n count *) (a avg delay)))`, false},
		{"group-by date (forced local/global)", `
			(aggregate (table flights) (groupby date)
				(aggs (n count *) (a avg delay)))`, true},
		{"top-10 markets", `
			(topn (aggregate (table flights) (groupby market) (aggs (n count *)))
				10 (desc n))`, true},
	}
	dops := []int{1, 2, 4}
	if s.MaxDOP >= 8 {
		dops = append(dops, 8)
	}
	for _, c := range cases {
		var serial time.Duration
		for _, dop := range dops {
			o := opt.DefaultOptions()
			o.MaxDOP = dop
			o.GrainWork = 1 << 14
			o.DisableRangePartition = c.forbidRange
			eng.SetOptions(o)
			ctx := exec.WithConfig(context.Background(), exec.Config{ScanBatchDelay: s.ScanIODelay})
			elapsed, err := median(s.Repeat, func() error {
				_, err := eng.Query(ctx, c.tql)
				return err
			})
			if err != nil {
				return nil, err
			}
			if dop == 1 {
				serial = elapsed
			}
			planName := "serial"
			if dop > 1 {
				switch {
				case c.name == "group-by date (range partition)":
					planName = "range-partitioned"
				case c.name == "top-10 markets":
					planName = "local/global topn"
				default:
					planName = "local/global"
				}
			}
			t.Rows = append(t.Rows, []string{c.name, planName, fmt.Sprint(dop), ms(elapsed), speedup(serial, elapsed)})
		}
	}
	return t, nil
}

// E6RLEIndexScan measures Sect. 4.3: the IndexTable rewrite that turns
// selective filters on RLE columns into range-skipping scans.
func E6RLEIndexScan(s Scale) (*Table, error) {
	rows := s.Rows
	t := &Table{
		ID:     "E6",
		Title:  fmt.Sprintf("RLE index-range scans (%d rows, sorted run-length column)", rows),
		Claim:  "pushing a filter into the RLE run index skips disk ranges and significantly reduces scan cost for selective predicates; the gain shrinks as selectivity grows",
		Header: []string{"selectivity", "full-scan ms", "index-scan ms", "speedup"},
	}
	// Build a table with an RLE region column of 1000 sorted segments.
	const segments = 1000
	regionVals := make([]storage.Value, rows)
	amountVals := make([]storage.Value, rows)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < rows; i++ {
		regionVals[i] = storage.IntValue(int64(i * segments / rows))
		amountVals[i] = storage.IntValue(int64(rng.Intn(10_000)))
	}
	region, err := storage.BuildColumn("segment", storage.TInt, storage.CollBinary, regionVals, storage.BuildOptions{})
	if err != nil {
		return nil, err
	}
	amount, err := storage.BuildColumn("amount", storage.TInt, storage.CollBinary, amountVals, storage.BuildOptions{})
	if err != nil {
		return nil, err
	}
	tbl, err := storage.NewTable("Extract", "segments", []*storage.Column{region, amount})
	if err != nil {
		return nil, err
	}
	tbl.SortKey = []string{"segment"}
	db := storage.NewDatabase("rle")
	if err := db.AddTable(tbl); err != nil {
		return nil, err
	}
	eng := engine.New(db)

	for _, sel := range []struct {
		name string
		hi   int // filter keeps segments [0, hi)
	}{
		{"0.1%", 1}, {"1%", 10}, {"10%", 100}, {"50%", 500},
	} {
		tql := fmt.Sprintf(`
			(aggregate (select (table segments) (< segment %d))
				(groupby) (aggs (n count *) (total sum amount)))`, sel.hi)
		var with, without time.Duration
		for _, disable := range []bool{false, true} {
			o := opt.DefaultOptions()
			o.MaxDOP = 1
			o.DisableRLEIndex = disable
			o.RLEIndexMaxSelectivity = 0.6
			eng.SetOptions(o)
			ctx := exec.WithConfig(context.Background(), exec.Config{ScanBatchDelay: s.ScanIODelay})
			elapsed, err := median(s.Repeat, func() error {
				_, err := eng.Query(ctx, tql)
				return err
			})
			if err != nil {
				return nil, err
			}
			if disable {
				without = elapsed
			} else {
				with = elapsed
			}
		}
		t.Rows = append(t.Rows, []string{sel.name, ms(without), ms(with), speedup(without, with)})
	}
	t.Notes = append(t.Notes, "serial plans; the paper notes the rewrite can reduce parallelism, so DOP is pinned to 1 for a clean comparison")
	return t, nil
}

// E7ShadowExtract measures Sect. 4.4: per-query file parsing vs one-time
// extraction into the TDE.
func E7ShadowExtract(s Scale) (*Table, error) {
	rows := s.Rows / 6
	if rows < 5000 {
		rows = 5000
	}
	dir, err := os.MkdirTemp("", "vizq-e7")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "sales.csv")
	if err := writeSalesCSV(path, rows); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("shadow extracts for text files (%d-row CSV)", rows),
		Claim:  "extracting the file into the TDE once beats re-parsing it per query as soon as more than one query runs; the one-time cost is visible at n=1",
		Header: []string{"queries", "parse-per-query ms", "shadow-extract ms", "speedup"},
	}
	tql := `(aggregate (table sales) (groupby region) (aggs (n count *) (total sum amount)))`
	for _, n := range []int{1, 2, 5, 10} {
		reparse, err := median(s.Repeat, func() error {
			for i := 0; i < n; i++ {
				if _, err := extract.QueryWithoutExtract(context.Background(), path, "sales", tql, extract.ParseOptions{}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		shadow, err := median(s.Repeat, func() error {
			mgr := extract.NewShadowManager() // fresh: includes the one-time cost
			for i := 0; i < n; i++ {
				if _, err := mgr.Query(context.Background(), path, "sales", tql, extract.ParseOptions{}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), ms(reparse), ms(shadow), speedup(reparse, shadow)})
	}
	return t, nil
}

func writeSalesCSV(path string, rows int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(17))
	regions := []string{"east", "west", "north", "south"}
	fmt.Fprintln(f, "day,region,amount")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(f, "2015-%02d-%02d,%s,%d\n",
			1+i%12, 1+i%28, regions[rng.Intn(len(regions))], rng.Intn(1000))
	}
	return nil
}

// E8DataServerTempTables measures Sect. 5.3: large-cardinality filters as
// inline IN lists vs externalized temporary tables, across repeated use.
func E8DataServerTempTables(s Scale) (*Table, error) {
	srv, err := startRemote(s.RemoteRows, remote.Config{Latency: s.Latency})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	t := &Table{
		ID:     "E8",
		Title:  "temporary tables for large filters (5 queries reusing one filter)",
		Claim:  "externalizing a large enumeration into a session temp table shrinks the repeated query text and improves response times once the filter is reused; tiny filters stay inline",
		Header: []string{"filter size", "strategy", "query text bytes", "total ms"},
	}
	const reuses = 5
	for _, size := range []int{10, 100, 1000, 5000} {
		vals := make([]storage.Value, size)
		for i := range vals {
			vals[i] = storage.IntValue(int64(i * 3))
		}
		mk := func() *query.Query {
			return &query.Query{
				View:     query.View{Table: "flights"},
				Dims:     []query.Dim{{Col: "carrier"}},
				Measures: []query.Measure{{Fn: query.Count, As: "n"}},
				Filters:  []query.Filter{query.InFilter("distance", vals...)},
			}
		}
		for _, external := range []bool{false, true} {
			opt := core.Options{DisableIntelligentCache: true, DisableLiteralCache: true}
			if external {
				opt.MaxInlineFilterValues = 9 // force externalization beyond 9
			}
			pool := connection.NewPool(srv.Addr(), connection.PoolConfig{Max: 1})
			proc := core.NewProcessor(pool, nil, nil, opt)
			sent := mk()
			if external && size > 9 {
				// The rewritten text names a temp table as the IN's value set.
				sent.Filters[0] = query.TempFilter("distance", "TEMP.filter0")
			}
			textBytes := len(sent.ToTQL())
			elapsed, err := median(s.Repeat, func() error {
				for i := 0; i < reuses; i++ {
					if _, err := proc.Execute(context.Background(), mk()); err != nil {
						return err
					}
				}
				return nil
			})
			pool.Close()
			if err != nil {
				return nil, err
			}
			name := "inline IN list"
			if external {
				name = "temp table"
			}
			t.Rows = append(t.Rows, []string{fmt.Sprint(size), name, fmt.Sprint(textBytes), ms(elapsed)})
		}
	}
	t.Notes = append(t.Notes, "temp table strategy re-creates the table per query here; session reuse (pool pinning) removes even that cost — see connection.Pool tests")
	return t, nil
}
