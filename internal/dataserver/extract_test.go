package dataserver

import (
	"context"
	"testing"
	"time"

	"vizq/internal/core"
	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

func TestPublishedExtractServesWithoutLiveBackend(t *testing.T) {
	live := startBackend(t)
	s := NewServer(Config{PipelineOptions: core.DefaultOptions()})
	src := &PublishedSource{
		Name:    "Flights Extract",
		Backend: live.Addr(),
		View: query.View{Table: "flights",
			Joins: []query.JoinSpec{{Table: "carriers", LeftCol: "carrier", RightCol: "carrier"}}},
	}
	if err := s.PublishExtract(src); err != nil {
		t.Fatal(err)
	}
	defer s.Unpublish("Flights Extract")
	if !s.IsExtract("Flights Extract") {
		t.Fatal("source should be marked as extract")
	}
	pullQueries := live.Stats().Queries // the snapshot pulls

	conn, _, err := s.Connect("Flights Extract", "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	res, err := conn.Query(ctx, &query.Query{
		Dims:     []query.Dim{{Col: "airline_name"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 {
		t.Fatal("extract query empty")
	}
	var total int64
	for i := 0; i < res.N; i++ {
		total += res.Value(i, 1).I
	}
	if total != 9000 {
		t.Errorf("total flights = %d", total)
	}
	// The live database saw only the extraction pulls, no per-query load.
	if got := live.Stats().Queries; got != pullQueries {
		t.Errorf("live backend received %d extra queries", got-pullQueries)
	}
}

func TestRefreshExtractPicksUpNewDataAndPurgesCaches(t *testing.T) {
	// A live backend whose table we can replace between refreshes.
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 3000, Days: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	liveEng := engine.New(db)
	live := remote.NewServer(liveEng, remote.Config{})
	if err := live.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })

	s := NewServer(Config{PipelineOptions: core.DefaultOptions()})
	src := &PublishedSource{
		Name:    "Snapshot",
		Backend: live.Addr(),
		View:    query.View{Table: "flights"},
	}
	if err := s.PublishExtract(src); err != nil {
		t.Fatal(err)
	}
	defer s.Unpublish("Snapshot")

	conn, _, err := s.Connect("Snapshot", "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	countQ := func() int64 {
		res, err := conn.Query(ctx, &query.Query{
			Measures: []query.Measure{{Fn: query.Count, As: "n"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Value(0, 0).I
	}
	if got := countQ(); got != 3000 {
		t.Fatalf("initial count = %d", got)
	}

	// The live data grows; the extract (and its caches) are stale until
	// refresh.
	bigger, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 5000, Days: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	newTbl, _ := bigger.Table("Extract", "flights")
	liveEng.Database().Replace(newTbl)
	if got := countQ(); got != 3000 {
		t.Fatalf("pre-refresh count should be the cached snapshot, got %d", got)
	}
	if err := s.RefreshExtract("Snapshot"); err != nil {
		t.Fatal(err)
	}
	if got := countQ(); got != 5000 {
		t.Fatalf("post-refresh count = %d, want 5000 (cache must be purged)", got)
	}
	// Refreshing an unknown source fails.
	if err := s.RefreshExtract("nope"); err == nil {
		t.Error("refresh of unknown extract should fail")
	}
}

// TestRefreshKeepsExtractQueryable: queries sent while RefreshExtract pulls
// from a slow live database all succeed. The old tables answer until the
// new ones are all pulled and swapped in.
func TestRefreshKeepsExtractQueryable(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 2000, Days: 30, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	live := remote.NewServer(engine.New(db), remote.Config{Latency: 20 * time.Millisecond})
	if err := live.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	opt := core.DefaultOptions()
	opt.DisableIntelligentCache, opt.DisableLiteralCache = true, true // every query reaches the extract
	s := NewServer(Config{PipelineOptions: opt})
	src := &PublishedSource{
		Name:    "Refreshing",
		Backend: live.Addr(),
		View: query.View{Table: "flights",
			Joins: []query.JoinSpec{{Table: "carriers", LeftCol: "carrier", RightCol: "carrier"}}},
	}
	if err := s.PublishExtract(src); err != nil {
		t.Fatal(err)
	}
	defer s.Unpublish("Refreshing")
	conn, _, err := s.Connect("Refreshing", "carol")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	refreshed := make(chan struct{})
	var sent, failed int
	var firstErr error
	loop := make(chan struct{})
	go func() {
		defer close(loop)
		for {
			select {
			case <-refreshed:
				return
			default:
			}
			sent++
			if _, err := conn.Query(context.Background(), &query.Query{
				Dims:     []query.Dim{{Col: "airline_name"}},
				Measures: []query.Measure{{Fn: query.Count, As: "n"}},
			}); err != nil {
				if failed++; firstErr == nil {
					firstErr = err
				}
			}
		}
	}()
	err = s.RefreshExtract("Refreshing")
	close(refreshed)
	<-loop
	if err != nil {
		t.Fatal(err)
	}
	if sent == 0 {
		t.Fatal("no query was sent before the refresh returned")
	}
	if failed > 0 {
		t.Fatalf("%d of %d queries failed during the refresh, first: %v", failed, sent, firstErr)
	}
}

func TestExtractUserFiltersStillApply(t *testing.T) {
	live := startBackend(t)
	s := NewServer(Config{PipelineOptions: core.DefaultOptions()})
	src := &PublishedSource{
		Name:    "Filtered Extract",
		Backend: live.Addr(),
		View:    query.View{Table: "flights"},
		UserFilters: map[string][]query.Filter{
			"west": {query.InFilter("origin", storage.StrValue("LAX"))},
		},
	}
	if err := s.PublishExtract(src); err != nil {
		t.Fatal(err)
	}
	defer s.Unpublish("Filtered Extract")
	conn, _, err := s.Connect("Filtered Extract", "west")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := conn.Query(context.Background(), &query.Query{
		Dims:     []query.Dim{{Col: "origin"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1 || res.Value(0, 0).S != "LAX" {
		t.Errorf("user filter on extract broken: %d rows", res.N)
	}
}
