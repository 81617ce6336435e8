package core

import (
	"context"
	"io"
	"math"
	"slices"
	"testing"
	"time"

	"vizq/internal/cache"
	"vizq/internal/query"
	"vizq/internal/resilience"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// entrySnap is a deep copy of a cached result, taken when it was stored.
type entrySnap struct {
	res   *exec.Result
	n     int
	stale bool
	cols  []*storage.Vector
	data  []storage.Vector
}

func snapEntry(res *exec.Result) entrySnap {
	s := entrySnap{res: res, n: res.N, stale: res.Stale, cols: slices.Clone(res.Cols)}
	for _, v := range res.Cols {
		s.data = append(s.data, storage.Vector{Type: v.Type, Dict: v.Dict,
			I: slices.Clone(v.I), F: slices.Clone(v.F), S: slices.Clone(v.S), Null: slices.Clone(v.Null)})
	}
	return s
}

// check fails unless the cached result is bit for bit what was stored.
func (s entrySnap) check(t *testing.T, name string) {
	t.Helper()
	if s.res.N != s.n || s.res.Stale != s.stale || len(s.res.Cols) != len(s.cols) {
		t.Fatalf("%s: entry header changed: N %d→%d, Stale %v→%v, %d→%d columns",
			name, s.n, s.res.N, s.stale, s.res.Stale, len(s.cols), len(s.res.Cols))
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for c, v := range s.res.Cols {
		w := s.data[c]
		switch {
		case v != s.cols[c]:
			t.Errorf("%s: column %d replaced", name, c)
		case v.Type != w.Type || v.Dict != w.Dict || !slices.Equal(v.I, w.I) || !slices.Equal(v.S, w.S) ||
			!slices.Equal(v.Null, w.Null) || !slices.EqualFunc(v.F, w.F, sameBits):
			t.Errorf("%s: column %d changed", name, c)
		}
	}
}

// TestCachedEntriesSurviveTheirAnswers: a cache hit at the stored grain
// shares the entry's vectors. Ordering, truncating, deriving back from a
// stale source and stale tagging all work on the answer, and must leave
// every cached entry's vectors, N and Stale exactly as stored.
func TestCachedEntriesSurviveTheirAnswers(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 3000, Days: 30, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(db)
	run := func(q *query.Query) *exec.Result {
		res, err := eng.QueryReference(context.Background(), q.ToTQL())
		if err != nil {
			t.Fatalf("%s: %v", q.ToTQL(), err)
		}
		return res
	}
	flights := query.View{Table: "flights"}
	routes := &query.Query{DataSource: "flights", View: flights,
		Dims:     []query.Dim{{Col: "origin"}, {Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Sum, Col: "distance", As: "dist"}}}
	delays := &query.Query{DataSource: "flights", View: flights,
		Dims:     []query.Dim{{Col: "origin"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Avg, Col: "delay", As: "avgdelay"}}}
	adjusted := cache.AdjustForReuse(delays)
	top := carrierCounts()
	top.OrderBy, top.N = []query.Order{{Col: "n", Desc: true}}, 3

	ic := cache.NewIntelligentCache(cache.DefaultOptions())
	lit := cache.NewLiteralCache(cache.DefaultOptions())
	var snaps []entrySnap
	for _, s := range []*query.Query{routes, adjusted, top} {
		res := run(s)
		ic.Put(s, res, time.Millisecond)
		snaps = append(snaps, snapEntry(res))
	}
	litRes := run(routes)
	lit.Put(routes.ToTQL(), litRes, time.Millisecond)
	snaps = append(snaps, snapEntry(litRes))
	p := NewProcessor(nil, ic, lit, Options{Resilience: &resilience.Config{ServeStale: true}})

	inList := routes.Clone()
	inList.Filters = []query.Filter{query.InFilter("origin",
		storage.StrValue("lax"), storage.StrValue("ATL"), storage.StrValue("Sfo"))}
	ordered := routes.Clone()
	ordered.OrderBy = []query.Order{{Col: "dist", Desc: true}}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		q    *query.Query
		text string // literal cache text for the degraded read
	}{
		{"exact hit", routes, routes.ToTQL()},
		{"adjusted AVG", delays, ""},
		{"residual IN", inList, ""},
		{"ordered", ordered, ""},
		{"top-n", top, ""},
	} {
		got, ok := ic.Get(c.q)
		if !ok {
			t.Fatalf("%s: no hit", c.name)
		}
		got.Truncate(1)
		stale, ok := p.staleFallback(ctx, c.q, c.text, io.EOF)
		if !ok || !stale.Stale {
			t.Fatalf("%s: no stale answer", c.name)
		}
		stale.Truncate(0)
		for _, s := range snaps {
			s.check(t, c.name)
		}
	}

	src, ok := p.staleFallback(ctx, adjusted, "", io.EOF)
	if !ok {
		t.Fatal("no stale answer for the adjusted query")
	}
	back, err := deriveBack(adjusted, src, delays)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Stale {
		t.Error("deriving back dropped the stale tag")
	}
	back.Truncate(0)
	for _, s := range snaps {
		s.check(t, "derive back")
	}
	if got, _ := ic.Get(delays); got.Stale {
		t.Error("a fresh hit is tagged stale")
	}
}
