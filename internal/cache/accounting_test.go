package cache

import (
	"testing"
	"time"

	"vizq/internal/clock"
	"vizq/internal/query"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// TestExactHitAccountingOnFailedDerive is the regression for the exact-hit
// double count: two queries can share a structural Key (the filter key
// renders IntValue(1) and StrValue("1") identically) while Derive still
// rejects the pair. The old Get counted an ExactHit and bumped Uses BEFORE
// trying Derive, then fell through and counted a Miss too — one Get, two
// stat counts, plus LRU pollution on an entry that served nothing.
func TestExactHitAccountingOnFailedDerive(t *testing.T) {
	s := &query.Query{
		DataSource: "flights",
		View:       query.View{Table: "flights"},
		Dims:       []query.Dim{{Col: "carrier"}},
		Measures:   []query.Measure{{Fn: query.Count, As: "n"}},
		Filters:    []query.Filter{query.InFilter("cancelled", storage.StrValue("1"))},
	}
	r := s.Clone()
	r.Filters = []query.Filter{query.InFilter("cancelled", storage.IntValue(1))}
	if s.Key() != r.Key() {
		t.Fatalf("fixture: keys must collide\n s=%s\n r=%s", s.Key(), r.Key())
	}

	c := NewIntelligentCache(DefaultOptions())
	c.Put(s, exec.NewResult(nil), time.Millisecond)
	if _, ok := c.Get(r); ok {
		t.Fatal("underivable exact-key entry must miss")
	}
	st := c.Stats()
	if st.ExactHits != 0 {
		t.Errorf("failed derive counted as exact hit: %+v", st)
	}
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if total := st.ExactHits + st.DerivedHits + st.Misses; total != 1 {
		t.Errorf("one Get produced %d outcome counts: %+v", total, st)
	}
	// LRU state untouched: the entry served nothing.
	e := c.shardFor(s).byKey[s.Key()]
	if e == nil {
		t.Fatal("entry vanished")
	}
	if e.Uses != 0 {
		t.Errorf("failed derive bumped Uses to %d", e.Uses)
	}
}

// TestLiteralPutRefreshKeepsUsageHistory is the regression for the
// Put-refresh cold-start: refreshing an existing key used to discard the
// old entry's Uses/Created, so hot frequently-refreshed entries scored like
// cold ones and were evicted first.
func TestLiteralPutRefreshKeepsUsageHistory(t *testing.T) {
	c := NewLiteralCache(Options{MaxEntries: 8, Shards: 1})
	t0 := time.Unix(1_000_000, 0)
	clk := clock.Manual(t0)
	c.setClock(clk)

	res := exec.NewResult(nil)
	c.Put("hot", res, time.Millisecond)
	for i := 0; i < 5; i++ {
		c.Get("hot")
	}
	now := clk.Advance(time.Minute)
	c.Put("hot", res, time.Millisecond) // refresh

	e := c.shardFor("hot").byKey["hot"]
	if e.Uses != 5 {
		t.Errorf("refresh dropped usage history: Uses = %d, want 5", e.Uses)
	}
	if !e.Created.Equal(t0) {
		t.Errorf("refresh reset Created to %v, want %v", e.Created, t0)
	}
	if !e.LastUsed.Equal(now) {
		t.Errorf("refresh should update LastUsed: %v", e.LastUsed)
	}
}

// TestIntelligentPutRefreshKeepsUsageHistory mirrors the literal-cache
// refresh regression for the intelligent cache.
func TestIntelligentPutRefreshKeepsUsageHistory(t *testing.T) {
	c := NewIntelligentCache(Options{MaxEntries: 8, Shards: 1})
	t0 := time.Unix(2_000_000, 0)
	clk := clock.Manual(t0)
	c.setClock(clk)

	q := &query.Query{
		DataSource: "flights",
		View:       query.View{Table: "flights"},
		Dims:       []query.Dim{{Col: "carrier"}},
		Measures:   []query.Measure{{Fn: query.Count, As: "n"}},
	}
	res := exec.NewResult([]plan.ColInfo{
		{Name: "carrier", Type: storage.TStr},
		{Name: "n", Type: storage.TInt},
	})
	res.AppendRow([]storage.Value{storage.StrValue("AA"), storage.IntValue(3)})
	c.Put(q, res, time.Millisecond)
	for i := 0; i < 3; i++ {
		c.Get(q.Clone())
	}
	clk.Advance(time.Minute)
	c.Put(q.Clone(), res, 2*time.Millisecond) // refresh

	e := c.shardFor(q).byKey[q.Key()]
	if e.Uses != 3 {
		t.Errorf("refresh dropped usage history: Uses = %d, want 3", e.Uses)
	}
	if !e.Created.Equal(t0) {
		t.Errorf("refresh reset Created to %v, want %v", e.Created, t0)
	}
	if e.Cost != 2*time.Millisecond {
		t.Errorf("refresh should take the new cost: %v", e.Cost)
	}
	// The bucket must hold exactly one candidate after a refresh.
	if n := len(c.shardFor(q).buckets[q.GroupKey()]); n != 1 {
		t.Errorf("bucket has %d candidates after refresh, want 1", n)
	}
}
