package cache

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"vizq/internal/clock"
	"vizq/internal/kvstore"
	"vizq/internal/query"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

var eng *engine.Engine

func getEngine(t testing.TB) *engine.Engine {
	if eng == nil {
		db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 10_000, Days: 90, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		eng = engine.New(db)
	}
	return eng
}

func run(t testing.TB, q *query.Query) *exec.Result {
	t.Helper()
	res, err := getEngine(t).Query(context.Background(), q.ToTQL())
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, q.ToTQL())
	}
	return res
}

func canon(r *exec.Result) []string {
	out := make([]string, r.N)
	for i := 0; i < r.N; i++ {
		parts := make([]string, len(r.Cols))
		for c := range r.Cols {
			v := r.Value(i, c)
			if v.Type == storage.TFloat && !v.Null {
				parts[c] = fmt.Sprintf("%.6f", v.F)
			} else {
				parts[c] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func sameResult(t *testing.T, got, want *exec.Result) {
	t.Helper()
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("rows: got %d want %d\ngot: %v\nwant: %v", len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d:\n got %s\nwant %s", i, g[i], w[i])
		}
	}
}

func baseQuery() *query.Query {
	return &query.Query{
		DataSource: "flights",
		View:       query.View{Table: "flights"},
		Dims:       []query.Dim{{Col: "carrier"}, {Col: "origin"}},
		Measures: []query.Measure{
			{Fn: query.Count, As: "n"},
			{Fn: query.Sum, Col: "distance", As: "dist"},
			{Fn: query.Min, Col: "delay", As: "mindelay"},
			{Fn: query.Max, Col: "delay", As: "maxdelay"},
		},
	}
}

func TestDeriveRollup(t *testing.T) {
	s := baseQuery()
	sres := run(t, s)
	// Roll up to carrier only.
	r := s.Clone()
	r.Dims = []query.Dim{{Col: "carrier"}}
	want := run(t, r)
	got, ok := Derive(s, sres, r)
	if !ok {
		t.Fatal("derive failed")
	}
	sameResult(t, got, want)
}

func TestDeriveResidualFilter(t *testing.T) {
	s := baseQuery()
	sres := run(t, s)
	// The Fig. 1 interaction: deselect some filter values — the intelligent
	// cache filters the stored rows as long as the filter column is present.
	r := s.Clone()
	r.Filters = []query.Filter{query.InFilter("origin", storage.StrValue("LAX"), storage.StrValue("ATL"))}
	want := run(t, r)
	got, ok := Derive(s, sres, r)
	if !ok {
		t.Fatal("derive failed")
	}
	sameResult(t, got, want)
}

func TestDeriveFilterPlusRollup(t *testing.T) {
	s := baseQuery()
	sres := run(t, s)
	r := s.Clone()
	r.Dims = []query.Dim{{Col: "origin"}}
	r.Filters = []query.Filter{query.InFilter("carrier", storage.StrValue("WN"), storage.StrValue("AA"))}
	want := run(t, r)
	got, ok := Derive(s, sres, r)
	if !ok {
		t.Fatal("derive failed")
	}
	sameResult(t, got, want)
}

func TestDeriveTighterRange(t *testing.T) {
	s := baseQuery()
	s.Dims = append(s.Dims, query.Dim{Col: "date"})
	s.Filters = []query.Filter{query.RangeFilter("date", storage.DateValue(2015, 1, 1), storage.DateValue(2015, 3, 31))}
	sres := run(t, s)
	r := s.Clone()
	r.Filters = []query.Filter{query.RangeFilter("date", storage.DateValue(2015, 2, 1), storage.DateValue(2015, 2, 28))}
	want := run(t, r)
	got, ok := Derive(s, sres, r)
	if !ok {
		t.Fatal("tighter range should derive")
	}
	sameResult(t, got, want)
}

func TestDeriveAvgFromPartials(t *testing.T) {
	r := &query.Query{
		DataSource: "flights",
		View:       query.View{Table: "flights"},
		Dims:       []query.Dim{{Col: "carrier"}},
		Measures:   []query.Measure{{Fn: query.Avg, Col: "delay", As: "avgdelay"}},
	}
	s := AdjustForReuse(r)
	if len(s.Measures) != 2 {
		t.Fatalf("adjusted measures = %v", s.Measures)
	}
	// Execute the adjusted query at finer grain, then derive the requested
	// avg at carrier grain — only possible because of the adjustment.
	s.Dims = []query.Dim{{Col: "carrier"}, {Col: "origin"}}
	sres := run(t, s)
	want := run(t, r)
	got, ok := Derive(s, sres, r)
	if !ok {
		t.Fatal("avg should derive from sum+count partials")
	}
	if got.N != want.N {
		t.Fatalf("rows %d vs %d", got.N, want.N)
	}
	wi := map[string]float64{}
	for i := 0; i < want.N; i++ {
		wi[want.Value(i, 0).S] = want.Value(i, 1).F
	}
	for i := 0; i < got.N; i++ {
		k := got.Value(i, 0).S
		if math.Abs(got.Value(i, 1).F-wi[k]) > 1e-9 {
			t.Errorf("%s: %v vs %v", k, got.Value(i, 1).F, wi[k])
		}
	}
}

// Rolling a grouped result with no surviving rows up to a global aggregate
// must still give the one row the engine gives (count 0, null sum/min/avg);
// Derive used to return zero rows.
func TestDeriveGlobalAggregateOverEmptyInput(t *testing.T) {
	nothing := query.RangeFilter("distance", storage.IntValue(-10), storage.IntValue(-5))
	noCarrier := query.InFilter("carrier", storage.StrValue("no-such-carrier"))
	for _, c := range []struct {
		name          string
		stored, extra []query.Filter
	}{
		{"empty stored result", []query.Filter{nothing}, nil},
		{"residual filter drops every row", nil, []query.Filter{noCarrier}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := &query.Query{
				DataSource: "flights",
				View:       query.View{Table: "flights"},
				Filters:    append(append([]query.Filter(nil), c.stored...), c.extra...),
				Measures: []query.Measure{
					{Fn: query.Count, As: "n"},
					{Fn: query.Sum, Col: "distance", As: "dist"},
					{Fn: query.Min, Col: "delay", As: "mindelay"},
					{Fn: query.Avg, Col: "delay", As: "avgdelay"},
				},
			}
			s := AdjustForReuse(r)
			s.Dims = []query.Dim{{Col: "carrier"}, {Col: "origin"}}
			s.Filters = c.stored
			sres := run(t, s)
			if len(c.stored) > 0 && sres.N != 0 {
				t.Fatalf("stored result has %d rows, want 0", sres.N)
			}
			want, err := getEngine(t).QueryReference(context.Background(), r.ToTQL())
			if err != nil {
				t.Fatal(err)
			}
			got, ok := Derive(s, sres, r)
			if !ok {
				t.Fatal("derive failed")
			}
			sameResult(t, got, want)
		})
	}
}

func TestDeriveAvgWithoutPartialsNeedsSameDims(t *testing.T) {
	s := &query.Query{
		DataSource: "flights",
		View:       query.View{Table: "flights"},
		Dims:       []query.Dim{{Col: "carrier"}, {Col: "origin"}},
		Measures:   []query.Measure{{Fn: query.Avg, Col: "delay", As: "a"}},
	}
	sres := run(t, s)
	// Same dims, residual filter: whole groups drop, avg stays valid.
	r := s.Clone()
	r.Filters = []query.Filter{query.InFilter("carrier", storage.StrValue("WN"))}
	want := run(t, r)
	got, ok := Derive(s, sres, r)
	if !ok {
		t.Fatal("avg with unchanged grouping should derive")
	}
	sameResult(t, got, want)
	// Roll-up of a bare avg is NOT derivable.
	r2 := s.Clone()
	r2.Dims = []query.Dim{{Col: "carrier"}}
	if _, ok := Derive(s, sres, r2); ok {
		t.Fatal("avg roll-up without partials must not derive")
	}
}

func TestDeriveCountD(t *testing.T) {
	s := &query.Query{
		DataSource: "flights",
		View:       query.View{Table: "flights"},
		Dims:       []query.Dim{{Col: "carrier"}},
		Measures:   []query.Measure{{Fn: query.CountD, Col: "market", As: "mkts"}},
	}
	sres := run(t, s)
	r := s.Clone()
	r.Filters = []query.Filter{query.InFilter("carrier", storage.StrValue("DL"))}
	want := run(t, r)
	got, ok := Derive(s, sres, r)
	if !ok {
		t.Fatal("countd with unchanged grouping should derive")
	}
	sameResult(t, got, want)
	// Roll-up across countd is impossible.
	r2 := s.Clone()
	r2.Dims = nil
	r2.Measures = []query.Measure{{Fn: query.CountD, Col: "market", As: "mkts"}}
	if _, ok := Derive(s, sres, r2); ok {
		t.Fatal("countd roll-up must not derive")
	}
}

func TestDeriveTopNLocally(t *testing.T) {
	s := baseQuery()
	sres := run(t, s)
	r := s.Clone()
	r.Dims = []query.Dim{{Col: "carrier"}}
	r.OrderBy = []query.Order{{Col: "n", Desc: true}}
	r.N = 3
	want := run(t, r)
	got, ok := Derive(s, sres, r)
	if !ok {
		t.Fatal("local top-n should derive")
	}
	sameResult(t, got, want)
}

func TestDeriveRefusals(t *testing.T) {
	s := baseQuery()
	s.Filters = []query.Filter{query.InFilter("carrier", storage.StrValue("WN"), storage.StrValue("AA"))}
	sres := run(t, s)

	// Requested is wider than stored: no subsumption.
	r := s.Clone()
	r.Filters = nil
	if _, ok := Derive(s, sres, r); ok {
		t.Error("wider query must not derive from narrower cache entry")
	}
	// Filter on a column not in the stored dims.
	r = s.Clone()
	r.Filters = append(r.Filters, query.GtFilter("distance", storage.IntValue(500)))
	if _, ok := Derive(s, sres, r); ok {
		t.Error("residual filter on a missing column must not derive")
	}
	// Dim not stored.
	r = s.Clone()
	r.Dims = append(r.Dims, query.Dim{Col: "dest"})
	if _, ok := Derive(s, sres, r); ok {
		t.Error("missing dimension must not derive")
	}
	// Different view.
	r = s.Clone()
	r.View.Table = "carriers"
	if _, ok := Derive(s, sres, r); ok {
		t.Error("different view must not derive")
	}
	// Stored top-n only answers itself.
	sTop := baseQuery()
	sTop.Dims = []query.Dim{{Col: "carrier"}}
	sTop.OrderBy = []query.Order{{Col: "n", Desc: true}}
	sTop.N = 3
	topRes := run(t, sTop)
	r = sTop.Clone()
	r.N = 5
	if _, ok := Derive(sTop, topRes, r); ok {
		t.Error("stored top-3 must not answer top-5")
	}
}

func TestIntelligentCacheFlow(t *testing.T) {
	c := NewIntelligentCache(DefaultOptions())
	s := baseQuery()
	sres := run(t, s)
	c.Put(s, sres, 10*time.Millisecond)

	// Exact hit.
	if _, ok := c.Get(s.Clone()); !ok {
		t.Fatal("exact hit missed")
	}
	// Derived hit.
	r := s.Clone()
	r.Dims = []query.Dim{{Col: "carrier"}}
	if _, ok := c.Get(r); !ok {
		t.Fatal("derived hit missed")
	}
	// Miss.
	m := s.Clone()
	m.Dims = append(m.Dims, query.Dim{Col: "dest"})
	if _, ok := c.Get(m); ok {
		t.Fatal("unexpected hit")
	}
	st := c.Stats()
	if st.ExactHits != 1 || st.DerivedHits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLiteralCache(t *testing.T) {
	// One shard: with a cache-wide budget of 2 the survivor set is exact.
	c := NewLiteralCache(Options{MaxEntries: 2, Shards: 1})
	res := exec.NewResult(nil)
	c.Put("q1", res, time.Millisecond)
	c.Put("q2", res, time.Second) // expensive: should survive eviction
	if _, ok := c.Get("q1"); !ok {
		t.Error("q1 missing")
	}
	c.Put("q3", res, time.Millisecond)
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	if _, ok := c.Get("q2"); !ok {
		t.Error("expensive entry should survive eviction")
	}
	c.Clear()
	if c.Len() != 0 {
		t.Error("clear failed")
	}
}

func TestIntelligentEvictionByCount(t *testing.T) {
	// One shard: all six entries share a GroupKey, so the per-shard budget
	// must equal the cache-wide budget for the eviction count to be exact.
	c := NewIntelligentCache(Options{MaxEntries: 3, Shards: 1})
	for i := 0; i < 6; i++ {
		q := baseQuery()
		q.Filters = []query.Filter{query.GtFilter("distance", storage.IntValue(int64(i)))}
		c.Put(q, exec.NewResult(nil), time.Duration(i)*time.Millisecond)
	}
	if c.Len() != 3 {
		t.Errorf("len = %d", c.Len())
	}
	if c.Stats().Evictions != 3 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestDistributedCache(t *testing.T) {
	store := kvstore.NewStore(64 << 20)
	srv, err := kvstore.Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mkNode := func() *Distributed {
		cl := kvstore.NewClient(srv.Addr(), 0)
		return NewDistributed(NewIntelligentCache(DefaultOptions()), cl, time.Minute)
	}
	nodeA, nodeB := mkNode(), mkNode()

	s := baseQuery()
	sres := run(t, s)
	nodeA.Put(s, sres, 10*time.Millisecond)

	// Node B, which never executed the query, answers it from the shared
	// store ("keeping data warm regardless of which node handles particular
	// requests").
	got, ok := nodeB.Get(s.Clone())
	if !ok {
		t.Fatal("node B should hit via the shared store")
	}
	sameResult(t, got, sres)
	if hits, _, errs := nodeB.RemoteStats(); hits != 1 || errs != 0 {
		t.Errorf("remote hits = %d errors = %d", hits, errs)
	}
	// After warming, node B can serve derived queries locally.
	r := s.Clone()
	r.Dims = []query.Dim{{Col: "carrier"}}
	if _, ok := nodeB.Get(r); !ok {
		t.Fatal("warmed node should serve derived queries")
	}
	if nodeB.Local.Stats().DerivedHits != 1 {
		t.Error("derived hit should be local")
	}
}

func TestKVStoreBasics(t *testing.T) {
	s := kvstore.NewStore(0)
	s.Set("a", []byte("1"), 0)
	if v, ok := s.Get("a"); !ok || string(v) != "1" {
		t.Error("get failed")
	}
	// TTL expiry with a manual clock.
	clk := clock.Manual(time.Now())
	s.SetClock(clk)
	s.Set("b", []byte("2"), time.Second)
	clk.Advance(2 * time.Second)
	if _, ok := s.Get("b"); ok {
		t.Error("expired entry served")
	}
	// LRU byte cap.
	small := kvstore.NewStore(64)
	small.Set("k1", make([]byte, 40), 0)
	small.Set("k2", make([]byte, 40), 0)
	if small.Len() != 1 {
		t.Errorf("len = %d", small.Len())
	}
}

func TestKVStoreNetwork(t *testing.T) {
	store := kvstore.NewStore(0)
	srv, err := kvstore.Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := kvstore.NewClient(srv.Addr(), 0)
	defer cl.Close()
	if err := cl.Set("x", []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get("x")
	if err != nil || !ok || string(v) != "hello" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
}
