package query

import (
	"context"
	"testing"

	"vizq/internal/tde/engine"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// TestHavingFilter reproduces the Fig. 2 Carrier zone shape: "the top 5
// carriers, based upon number of flights, that have more than N flights".
func TestHavingFilter(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 6000, Days: 60, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(db)
	ctx := context.Background()

	all := &Query{
		View:     View{Table: "flights"},
		Dims:     []Dim{{Col: "carrier"}},
		Measures: []Measure{{Fn: Count, As: "flights"}},
		OrderBy:  []Order{{Col: "flights", Desc: true}},
	}
	allRes, err := e.Query(ctx, all.ToTQL())
	if err != nil {
		t.Fatal(err)
	}
	threshold := allRes.Value(2, 1).I // the 3rd-busiest carrier's count

	top5having := all.Clone()
	top5having.Having = []Filter{GtFilter("flights", storage.IntValue(threshold-1))}
	top5having.N = 5
	res, err := e.Query(ctx, top5having.ToTQL())
	if err != nil {
		t.Fatalf("having query failed: %v\n%s", err, top5having.ToTQL())
	}
	// Only carriers at/above the threshold survive, capped at 5.
	if res.N != 3 {
		t.Fatalf("having kept %d carriers, want 3", res.N)
	}
	for i := 0; i < res.N; i++ {
		if res.Value(i, 1).I < threshold {
			t.Errorf("carrier below threshold leaked: %v with %v flights", res.Value(i, 0), res.Value(i, 1))
		}
	}
	// Key identity: having changes the cache key.
	if all.Key() == top5having.Key() {
		t.Error("having must change the query key")
	}
	if err := top5having.Validate(); err != nil {
		t.Fatal(err)
	}
}
