package core

import (
	"context"
	"strings"
	"testing"

	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// TestExternalizedFilterFollowsColumnCollation pins that an IN list sent as
// a temp table keeps exactly the rows the inline list keeps. Both lists hold
// every value in two spellings. On a case-insensitive column the spellings
// are one value and on a binary column two; the backend binds the table as
// the IN's value set under the column's collation, whatever the base
// relation is, so the answer cannot depend on which side sent the list.
func TestExternalizedFilterFollowsColumnCollation(t *testing.T) {
	srv := startBackend(t, remote.Config{})
	ctx := context.Background()
	noCache := Options{DisableIntelligentCache: true, DisableLiteralCache: true}
	inlineOpt, externOpt := noCache, noCache
	inlineOpt.MaxInlineFilterValues = 1000
	externOpt.MaxInlineFilterValues = 5
	inline := newProcessor(t, srv, inlineOpt, 2)

	bothSpellings := func(vals []string) []storage.Value {
		var out []storage.Value
		for _, v := range vals {
			out = append(out, storage.StrValue(v), storage.StrValue(strings.ToLower(v)))
		}
		return out
	}

	// origin is case-insensitive.
	ci := carrierCounts()
	ci.Filters = []query.Filter{query.InFilter("origin", bothSpellings(workload.AirportCodesList(20))...)}

	// airline_name, on the joined carriers table, is binary.
	withNames := query.View{Table: "flights", Joins: []query.JoinSpec{{Table: "carriers", LeftCol: "carrier", RightCol: "carrier"}}}
	names, err := inline.Execute(ctx, &query.Query{
		DataSource: "flights", View: withNames,
		Dims: []query.Dim{{Col: "airline_name"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var nameList []string
	for i := 0; i < names.N; i++ {
		nameList = append(nameList, names.Value(i, 0).S)
	}
	binary := carrierCounts()
	binary.View = withNames
	binary.Filters = []query.Filter{query.InFilter("airline_name", bothSpellings(nameList)...)}

	// The same case-insensitive filter over a Custom base relation.
	custom := ci.Clone()
	custom.View = query.View{Custom: `(select (table flights) (> distance 0))`}

	for _, tc := range []struct {
		name string
		q    *query.Query
	}{{"case-insensitive", ci}, {"binary", binary}, {"custom-view", custom}} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := inline.Execute(ctx, tc.q.Clone())
			if err != nil {
				t.Fatal(err)
			}
			p := newProcessor(t, srv, externOpt, 2)
			got, err := p.Execute(ctx, tc.q.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if p.Stats().TempTables != 1 {
				t.Fatalf("temp tables = %d, want 1: the filter was not externalized", p.Stats().TempTables)
			}
			sameResult(t, got, want)
		})
	}
}
