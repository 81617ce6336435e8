package workload

import (
	"testing"

	"vizq/internal/tde/storage"
)

func TestBuildFlightsDBDeterministic(t *testing.T) {
	cfg := FlightsConfig{Rows: 2000, Days: 30, Seed: 5, Carriers: 6, Airports: 12}
	a, err := BuildFlightsDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildFlightsDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := a.Table("Extract", "flights")
	tb, _ := b.Table("Extract", "flights")
	if ta.Rows != tb.Rows {
		t.Fatal("row counts differ")
	}
	for c := range ta.Cols {
		for i := 0; i < int(ta.Rows); i += 97 {
			va, vb := ta.Cols[c].Value(i), tb.Cols[c].Value(i)
			if !storage.Equal(va, vb, ta.Cols[c].Coll) {
				t.Fatalf("nondeterministic at col %d row %d: %v vs %v", c, i, va, vb)
			}
		}
	}
}

func TestFlightsSchema(t *testing.T) {
	db, err := BuildFlightsDB(FlightsConfig{Rows: 1000, Days: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fact, err := db.Table("Extract", "flights")
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"date", "hour", "origin", "dest", "market", "carrier", "delay", "cancelled", "distance"}
	if len(fact.Cols) != len(wantCols) {
		t.Fatalf("cols = %d", len(fact.Cols))
	}
	for i, w := range wantCols {
		if fact.Cols[i].Name != w {
			t.Errorf("col %d = %s, want %s", i, fact.Cols[i].Name, w)
		}
	}
	// Sorted by date, and by nothing more: hour is random within a day.
	if len(fact.SortKey) != 1 || fact.SortKey[0] != "date" {
		t.Errorf("sort key = %v", fact.SortKey)
	}
	date := fact.Column("date")
	for i := 1; i < int(fact.Rows); i++ {
		if date.Value(i).I < date.Value(i-1).I {
			t.Fatal("date column not sorted")
		}
	}
	// Dimension tables exist with unique keys.
	carriers, err := db.Table("Extract", "carriers")
	if err != nil {
		t.Fatal(err)
	}
	if !carriers.HasUniqueKey([]string{"carrier"}) {
		t.Error("carriers.carrier must be unique")
	}
	airports, err := db.Table("Extract", "airports")
	if err != nil {
		t.Fatal(err)
	}
	if !airports.HasUniqueKey([]string{"airport"}) {
		t.Error("airports.airport must be unique")
	}
}

func TestFlightsSkewAndNulls(t *testing.T) {
	db, err := BuildFlightsDB(FlightsConfig{Rows: 20_000, Days: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fact, _ := db.Table("Extract", "flights")
	// Carrier skew: the most popular carrier should dominate.
	counts := map[string]int{}
	carrier := fact.Column("carrier")
	for i := 0; i < int(fact.Rows); i++ {
		counts[carrier.Value(i).S]++
	}
	if counts["WN"] < counts["EV"]*3 {
		t.Errorf("expected power-law skew, got WN=%d EV=%d", counts["WN"], counts["EV"])
	}
	// ~1.5% cancelled with null delay.
	delay := fact.Column("delay")
	nulls := int(delay.Stats.Nulls)
	if nulls < 100 || nulls > 1000 {
		t.Errorf("null delays = %d", nulls)
	}
}

func TestCodeHelpers(t *testing.T) {
	if got := CarrierCodes(3); len(got) != 3 || got[0] != "WN" {
		t.Errorf("CarrierCodes = %v", got)
	}
	if got := AirportCodesList(2); len(got) != 2 || got[0] != "ATL" {
		t.Errorf("AirportCodesList = %v", got)
	}
	if got := CarrierCodes(0); len(got) == 0 {
		t.Error("0 should return all")
	}
}

func TestConfigClamps(t *testing.T) {
	db, err := BuildFlightsDB(FlightsConfig{Rows: 100, Days: 0, Seed: 1, Carriers: 999, Airports: 999})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("Extract", "flights"); err != nil {
		t.Fatal(err)
	}
}
