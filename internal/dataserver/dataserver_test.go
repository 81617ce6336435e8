package dataserver

import (
	"context"
	"testing"

	"vizq/internal/core"
	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

func startBackend(t testing.TB) *remote.Server {
	t.Helper()
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 9000, Days: 60, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(engine.New(db), remote.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func publishFlights(t testing.TB, backend *remote.Server, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	err := s.Publish(&PublishedSource{
		Name:    "FAA Flights",
		Backend: backend.Addr(),
		View:    query.View{Table: "flights"},
		Calculations: map[string]string{
			"Weekday":   "(weekday date)",
			"LongHaul":  "(> distance 1500)",
			"DelayBand": "(if (> delay 30.0) \"late\" \"ontime\")",
		},
		UserFilters: map[string][]query.Filter{
			"west_analyst": {query.InFilter("origin", storage.StrValue("LAX"), storage.StrValue("SFO"), storage.StrValue("SEA"))},
		},
		BackendSupportsTempTables: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPublishAndConnect(t *testing.T) {
	backend := startBackend(t)
	s := publishFlights(t, backend, Config{PipelineOptions: core.DefaultOptions()})
	conn, md, err := s.Connect("faa flights", "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if md.Table != "flights" || !md.SupportsTempTables {
		t.Errorf("metadata = %+v", md)
	}
	if len(md.Calculations) != 3 {
		t.Errorf("calculations = %v", md.Calculations)
	}
	if _, _, err := s.Connect("nope", "alice"); err == nil {
		t.Error("connecting to unpublished source should fail")
	}
	if err := s.Publish(&PublishedSource{Name: "FAA Flights", Backend: backend.Addr(), View: query.View{Table: "flights"}}); err == nil {
		t.Error("double publish should fail")
	}
}

func TestSharedCalculation(t *testing.T) {
	backend := startBackend(t)
	s := publishFlights(t, backend, Config{PipelineOptions: core.DefaultOptions()})
	conn, _, err := s.Connect("FAA Flights", "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := conn.Query(context.Background(), &query.Query{
		Dims:     []query.Dim{{Col: "Weekday"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
		View:     query.View{Table: "ignored-by-server"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 || res.N > 7 {
		t.Errorf("weekday groups = %d", res.N)
	}
}

func TestUserFiltersEnforced(t *testing.T) {
	backend := startBackend(t)
	s := publishFlights(t, backend, Config{PipelineOptions: core.DefaultOptions()})
	ctx := context.Background()

	admin, _, err := s.Connect("FAA Flights", "admin")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	analyst, _, err := s.Connect("FAA Flights", "west_analyst")
	if err != nil {
		t.Fatal(err)
	}
	defer analyst.Close()

	q := &query.Query{
		View:     query.View{Table: "flights"},
		Dims:     []query.Dim{{Col: "origin"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
	}
	all, err := admin.Query(ctx, q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := analyst.Query(ctx, q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if restricted.N >= all.N {
		t.Errorf("user filter not applied: %d vs %d origins", restricted.N, all.N)
	}
	if restricted.N == 0 || restricted.N > 3 {
		t.Errorf("analyst should see at most 3 origins, got %d", restricted.N)
	}
	// The analyst cannot widen access via their own filters.
	q2 := q.Clone()
	q2.Filters = []query.Filter{query.InFilter("origin", storage.StrValue("JFK"))}
	none, err := analyst.Query(ctx, q2)
	if err != nil {
		t.Fatal(err)
	}
	if none.N != 0 {
		t.Error("user filter must intersect, not be replaced")
	}
}

func TestSharedPipelineCache(t *testing.T) {
	backend := startBackend(t)
	s := publishFlights(t, backend, Config{PipelineOptions: core.DefaultOptions()})
	ctx := context.Background()
	q := &query.Query{
		View:     query.View{Table: "flights"},
		Dims:     []query.Dim{{Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
	}
	c1, _, _ := s.Connect("FAA Flights", "u1")
	defer c1.Close()
	if _, err := c1.Query(ctx, q.Clone()); err != nil {
		t.Fatal(err)
	}
	sent := backend.Stats().Queries
	// A different client issuing the same query hits the shared cache.
	c2, _, _ := s.Connect("FAA Flights", "u2")
	defer c2.Close()
	if _, err := c2.Query(ctx, q.Clone()); err != nil {
		t.Fatal(err)
	}
	if got := backend.Stats().Queries; got != sent {
		t.Errorf("cross-client cache miss: %d -> %d backend queries", sent, got)
	}
}

func TestTempTableLifecycle(t *testing.T) {
	backend := startBackend(t)
	s := publishFlights(t, backend, Config{PipelineOptions: core.DefaultOptions()})
	ctx := context.Background()
	c1, _, _ := s.Connect("FAA Flights", "u1")
	c2, _, _ := s.Connect("FAA Flights", "u2")

	vals := []storage.Value{storage.StrValue("WN"), storage.StrValue("AA"), storage.StrValue("DL")}
	if err := c1.CreateTempTable("myfilter", "carrier", vals); err != nil {
		t.Fatal(err)
	}
	// Identical content from another client shares the definition.
	if err := c2.CreateTempTable("othername", "carrier", vals); err != nil {
		t.Fatal(err)
	}
	if s.SharedTempCount() != 1 {
		t.Errorf("shared defs = %d, want 1", s.SharedTempCount())
	}
	if s.Stats().SharedTempReuses != 1 {
		t.Errorf("reuses = %d", s.Stats().SharedTempReuses)
	}

	// A query on the temp table itself never touches the database.
	sent := backend.Stats().Queries
	res, err := c1.Query(ctx, &query.Query{
		View: query.View{Table: "myfilter"},
		Dims: []query.Dim{{Col: "carrier"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3 {
		t.Errorf("temp rows = %d", res.N)
	}
	if backend.Stats().Queries != sent {
		t.Error("temp-table-only query should not reach the database")
	}
	if s.Stats().LocalAnswers != 1 {
		t.Errorf("local answers = %d", s.Stats().LocalAnswers)
	}

	// Queries referencing the temp filter are rewritten for the backend.
	filtered, err := c1.Query(ctx, &query.Query{
		View:     query.View{Table: "flights"},
		Dims:     []query.Dim{{Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
		Filters:  []query.Filter{query.TempFilter("carrier", "myfilter")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if filtered.N != 3 {
		t.Errorf("filtered carriers = %d", filtered.N)
	}

	// Unknown temp filter errors.
	if _, err := c1.Query(ctx, &query.Query{
		View:     query.View{Table: "flights"},
		Dims:     []query.Dim{{Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
		Filters:  []query.Filter{query.TempFilter("carrier", "gone")},
	}); err == nil {
		t.Error("unknown temp table should fail")
	}

	// Dropping references: the shared definition dies with the last one.
	c1.Close()
	if s.SharedTempCount() != 1 {
		t.Error("definition still referenced by c2")
	}
	c2.Close()
	if s.SharedTempCount() != 0 {
		t.Error("definition should be gone after last reference")
	}
}

func TestCloseReclaimsState(t *testing.T) {
	backend := startBackend(t)
	s := publishFlights(t, backend, Config{PipelineOptions: core.DefaultOptions()})
	c, _, _ := s.Connect("FAA Flights", "u1")
	if err := c.CreateTempTable("t1", "carrier", []storage.Value{storage.StrValue("WN")}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if s.SharedTempCount() != 0 {
		t.Error("close should reclaim temp state")
	}
	if _, err := c.Query(context.Background(), &query.Query{
		View: query.View{Table: "flights"},
		Dims: []query.Dim{{Col: "carrier"}},
	}); err == nil {
		t.Error("query on closed connection should fail")
	}
}
