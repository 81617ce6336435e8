package vizql

import (
	"context"
	"strings"
	"testing"

	"vizq/internal/connection"
	"vizq/internal/core"
	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

func newProc(t testing.TB) (*core.Processor, *remote.Server) {
	t.Helper()
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 12_000, Days: 90, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(engine.New(db), remote.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pool := connection.NewPool(srv.Addr(), connection.PoolConfig{Max: 4})
	t.Cleanup(pool.Close)
	return core.NewProcessor(pool, nil, nil, core.DefaultOptions()), srv
}

func TestDashboardValidation(t *testing.T) {
	d := FlightsDashboard("flights")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Dashboard{
		Zones:   []*Zone{{Name: "a", Kind: ZoneChart}},
		Actions: nil,
	}
	if err := bad.Validate(); err == nil {
		t.Error("zone without query should fail validation")
	}
	dup := &Dashboard{Zones: []*Zone{
		{Name: "x", Kind: ZoneQuickFilter, FilterCol: "c"},
		{Name: "X", Kind: ZoneQuickFilter, FilterCol: "c"},
	}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate zones should fail")
	}
	badAction := FlightsDashboard("flights")
	badAction.Actions = append(badAction.Actions, FilterAction{Source: "Market", Col: "nope", Targets: []string{"Carrier"}})
	if err := badAction.Validate(); err == nil {
		t.Error("action column missing from source should fail")
	}
}

func TestInitialRender(t *testing.T) {
	proc, _ := newProc(t)
	sess, err := NewSession(FlightsDashboard("flights"), proc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Render(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 1 {
		t.Errorf("initial render iterations = %d", rep.Iterations)
	}
	if rep.ZonesDrawn != 3 {
		t.Errorf("zones drawn = %d", rep.ZonesDrawn)
	}
	carrier := sess.Result("Carrier")
	if carrier == nil || carrier.N != 5 {
		t.Fatalf("carrier top-5 wrong: %+v", carrier)
	}
	if sess.Result("Market") == nil || sess.Result("Airline Name") == nil {
		t.Fatal("missing zone results")
	}
}

func TestInteractionFiltersTargets(t *testing.T) {
	proc, _ := newProc(t)
	sess, err := NewSession(FlightsDashboard("flights"), proc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Render(ctx); err != nil {
		t.Fatal(err)
	}
	full := sess.Result("Airline Name").N

	// Select the busiest market.
	market := sess.Result("Market").Value(0, 0)
	if err := sess.Select("Market", market); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Render(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ZonesDrawn < 2 {
		t.Errorf("selection should redraw Carrier and Airline Name, drew %d", rep.ZonesDrawn)
	}
	filtered := sess.Result("Airline Name").N
	if filtered > full {
		t.Errorf("filtered rows %d > unfiltered %d", filtered, full)
	}
	// The Market zone itself is not a target of its own action.
	if sess.Result("Market").N == 0 {
		t.Error("market zone should keep its rows")
	}
}

// TestSelectionInvalidation reproduces Fig. 2: after selecting market and a
// carrier, switching to a market the carrier does not serve eliminates the
// carrier selection and requeries the dependent zone without that filter.
func TestSelectionInvalidation(t *testing.T) {
	proc, _ := newProc(t)
	sess, err := NewSession(FlightsDashboard("flights"), proc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Render(ctx); err != nil {
		t.Fatal(err)
	}

	// Find a market and a carrier such that the carrier does not fly the
	// market: select the carrier first under a market where it exists.
	markets := sess.Result("Market")
	var marketA, marketB storage.Value
	var carrierSel storage.Value
	eng := getBackendEngine(t)
	for i := 0; i < markets.N && marketB.S == ""; i++ {
		m := markets.Value(i, 0)
		carriers := carriersForMarket(t, eng, m.S)
		if len(carriers) == 0 || len(carriers) == workloadCarriers() {
			continue
		}
		if marketA.S == "" {
			marketA = m
			carrierSel = storage.StrValue(carriers[0])
			continue
		}
		// marketB must exclude carrierSel.
		excluded := true
		for _, c := range carriersForMarket(t, eng, m.S) {
			if strings.EqualFold(c, carrierSel.S) {
				excluded = false
				break
			}
		}
		if excluded {
			marketB = m
		}
	}
	if marketB.S == "" {
		t.Skip("no market pair found in this seed")
	}

	if err := sess.Select("Market", marketA); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Render(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sess.Select("Carrier", carrierSel); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Render(ctx); err != nil {
		t.Fatal(err)
	}

	// Now switch to the market that eliminates the carrier selection.
	if err := sess.Select("Market", marketB); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Render(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations < 2 {
		t.Errorf("invalidation should trigger a second iteration, got %d", rep.Iterations)
	}
	if len(rep.Invalidated) == 0 {
		t.Error("carrier selection should be invalidated")
	}
	if len(sess.Selection("Carrier")) != 0 {
		t.Error("carrier selection should be cleared")
	}
}

var backendEngine *engine.Engine

func getBackendEngine(t testing.TB) *engine.Engine {
	if backendEngine == nil {
		db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 12_000, Days: 90, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		backendEngine = engine.New(db)
	}
	return backendEngine
}

func workloadCarriers() int { return workload.DefaultFlightsConfig().Carriers }

func carriersForMarket(t testing.TB, eng *engine.Engine, market string) []string {
	res, err := eng.Query(context.Background(),
		`(distinct (project (select (table flights) (= market "`+market+`")) (carrier carrier)))`)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, res.N)
	for i := 0; i < res.N; i++ {
		out[i] = res.Value(i, 0).S
	}
	return out
}

func TestQuickFilterDomainCached(t *testing.T) {
	proc, srv := newProc(t)
	sess, err := NewSession(FAADashboard("flights"), proc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Render(ctx); err != nil {
		t.Fatal(err)
	}
	afterFirst := srv.Stats().Queries

	// Check two carriers in the quick filter: targets requery, but the
	// domain query must NOT be resent.
	dom := sess.Result("Carrier Filter")
	if dom == nil || dom.N == 0 {
		t.Fatal("quick filter domain missing")
	}
	if err := sess.Select("Carrier Filter", dom.Value(0, 0), dom.Value(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Render(ctx); err != nil {
		t.Fatal(err)
	}
	// The record count zone honors the filter.
	rc := sess.Result("Record Count")
	if rc.Value(0, 0).I <= 0 || rc.Value(0, 0).I >= 12_000 {
		t.Errorf("record count = %d", rc.Value(0, 0).I)
	}
	afterSecond := srv.Stats().Queries
	if afterSecond == afterFirst {
		t.Error("interaction should send some queries")
	}
	// Render a second session over the same processor: everything should be
	// answerable from cache (multi-user sharing).
	sess2, err := NewSession(FAADashboard("flights"), proc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Render(ctx); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Queries; got != afterSecond {
		t.Errorf("second user should be served from cache: %d -> %d", afterSecond, got)
	}
}

func TestZoneQueryComposition(t *testing.T) {
	d := FlightsDashboard("flights")
	proc, _ := newProc(t)
	sess, err := NewSession(d, proc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Select("Market", storage.StrValue("LAX-SFO")); err != nil {
		t.Fatal(err)
	}
	if err := sess.Select("Carrier", storage.StrValue("AA")); err != nil {
		t.Fatal(err)
	}
	q := sess.ZoneQuery(d.Zone("Airline Name"))
	if len(q.Filters) != 2 {
		t.Fatalf("airline zone should carry 2 filters, got %d", len(q.Filters))
	}
	q2 := sess.ZoneQuery(d.Zone("Carrier"))
	if len(q2.Filters) != 1 {
		t.Fatalf("carrier zone should carry only the market filter, got %d", len(q2.Filters))
	}
	// Selecting in a zone never filters itself.
	q3 := sess.ZoneQuery(d.Zone("Market"))
	if len(q3.Filters) != 0 {
		t.Errorf("market zone should be unfiltered")
	}
	// Unknown zone errors.
	if err := sess.Select("Nope", storage.StrValue("x")); err == nil {
		t.Error("selecting unknown zone should fail")
	}
	_ = query.Query{}
}

// TestSelectKeepsCallerSlice pins that Select copies its values: when a
// selected value vanishes (the HNL-OGG shape), Render compacts the
// session's selection, and the slice the caller passed must not change.
func TestSelectKeepsCallerSlice(t *testing.T) {
	proc, _ := newProc(t)
	sess, err := NewSession(FlightsDashboard("flights"), proc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Render(ctx); err != nil {
		t.Fatal(err)
	}
	// A market that some carrier flies and some other carrier does not:
	// kept is a carrier it has, gone one it lacks.
	eng := getBackendEngine(t)
	all := sess.Result("Carrier")
	markets := sess.Result("Market")
	var market, gone, kept storage.Value
	for i := 0; i < markets.N && gone.S == ""; i++ {
		has := map[string]bool{}
		for _, c := range carriersForMarket(t, eng, markets.Value(i, 0).S) {
			has[strings.ToLower(c)] = true
		}
		var in, out storage.Value
		for j := 0; j < all.N; j++ {
			if c := all.Value(j, 0); has[strings.ToLower(c.S)] {
				in = c
			} else {
				out = c
			}
		}
		if in.S != "" && out.S != "" {
			market, gone, kept = markets.Value(i, 0), out, in
		}
	}
	if gone.S == "" {
		t.Skip("no market without some carrier in this seed")
	}

	sel := []storage.Value{gone, kept}
	if err := sess.Select("Carrier", sel...); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Render(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sess.Select("Market", market); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Render(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Invalidated) != 1 {
		t.Fatalf("invalidated %v, want the one vanished carrier", rep.Invalidated)
	}
	if got := sess.Selection("Carrier"); len(got) != 1 || got[0].S != kept.S {
		t.Fatalf("carrier selection %v, want [%s]", got, kept.S)
	}
	if sel[0].S != gone.S || sel[1].S != kept.S {
		t.Fatalf("caller's slice reads %v after Render, want [%s %s]", sel, gone.S, kept.S)
	}
}
