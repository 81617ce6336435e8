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

// Staleness semantics: with FreshFor set, entries expire for the normal Get
// path but remain reachable through GetStale for a further StaleGrace
// window — the graceful-degradation read used while a backend is down.

func staleTestQuery() *query.Query {
	return &query.Query{
		DataSource: "flights",
		View:       query.View{Table: "flights"},
		Dims:       []query.Dim{{Col: "carrier"}},
		Measures:   []query.Measure{{Fn: query.Count, As: "n"}},
	}
}

func staleTestResult() *exec.Result {
	res := exec.NewResult([]plan.ColInfo{
		{Name: "carrier", Type: storage.TStr},
		{Name: "n", Type: storage.TInt},
	})
	res.AppendRow([]storage.Value{storage.StrValue("AA"), storage.IntValue(3)})
	return res
}

func TestLiteralFreshForExpiresGets(t *testing.T) {
	c := NewLiteralCache(Options{MaxEntries: 8, Shards: 1,
		FreshFor: time.Minute, StaleGrace: time.Hour})
	clk := clock.Manual(time.Unix(1_000_000, 0))
	c.setClock(clk)

	c.Put("q", exec.NewResult(nil), time.Millisecond)
	if _, ok := c.Get("q"); !ok {
		t.Fatal("fresh entry missed")
	}
	clk.Advance(time.Minute) // exactly FreshUntil: still fresh (inclusive)
	if _, ok := c.Get("q"); !ok {
		t.Fatal("entry at its exact FreshUntil instant missed")
	}
	clk.Advance(time.Second)
	if _, ok := c.Get("q"); ok {
		t.Fatal("expired entry served by the fresh path")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("expired Get accounted as %+v, want exactly 1 miss", st)
	}
}

func TestLiteralGetStaleServesWithinGrace(t *testing.T) {
	c := NewLiteralCache(Options{MaxEntries: 8, Shards: 1,
		FreshFor: time.Minute, StaleGrace: time.Hour})
	clk := clock.Manual(time.Unix(1_000_000, 0))
	c.setClock(clk)

	c.Put("q", exec.NewResult(nil), time.Millisecond)
	clk.Advance(30 * time.Minute) // expired, inside grace
	if _, ok := c.Get("q"); ok {
		t.Fatal("expired entry served fresh")
	}
	if _, ok := c.GetStale("q"); !ok {
		t.Fatal("GetStale refused an entry inside its grace window")
	}
	if st := c.Stats(); st.StaleServed != 1 {
		t.Fatalf("StaleServed = %d, want 1", st.StaleServed)
	}
	// GetStale also serves fresh entries: callers reach it only after the
	// backend failed, and a fresh answer is strictly better than none.
	c.Put("q2", exec.NewResult(nil), time.Millisecond)
	if _, ok := c.GetStale("q2"); !ok {
		t.Fatal("GetStale refused a fresh entry")
	}
	// Past the grace window nothing is served, fresh or stale.
	clk.Advance(31*time.Minute + time.Second) // 1 s past StaleUntil
	if _, ok := c.GetStale("q"); ok {
		t.Fatal("GetStale served past StaleUntil")
	}
	if _, ok := c.Get("q"); ok {
		t.Fatal("Get served past StaleUntil")
	}
}

func TestLiteralDeadEntryIsDroppedAndAccounted(t *testing.T) {
	c := NewLiteralCache(Options{MaxEntries: 8, Shards: 1,
		FreshFor: time.Minute, StaleGrace: time.Minute})
	clk := clock.Manual(time.Unix(1_000_000, 0))
	c.setClock(clk)

	c.Put("q", exec.NewResult(nil), time.Millisecond)
	sh := c.shardFor("q")
	clk.Advance(3 * time.Minute) // past StaleUntil
	if _, ok := c.Get("q"); ok {
		t.Fatal("dead entry served")
	}
	if c.Len() != 0 {
		t.Fatalf("dead entry not dropped: Len = %d", c.Len())
	}
	if sh.curBytes != 0 {
		t.Fatalf("byte accounting leaked %d bytes after drop", sh.curBytes)
	}
}

func TestLiteralPutRefreshRestartsFreshness(t *testing.T) {
	c := NewLiteralCache(Options{MaxEntries: 8, Shards: 1,
		FreshFor: time.Minute, StaleGrace: time.Hour})
	clk := clock.Manual(time.Unix(1_000_000, 0))
	c.setClock(clk)

	c.Put("q", exec.NewResult(nil), time.Millisecond)
	clk.Advance(30 * time.Minute) // stale now
	c.Put("q", exec.NewResult(nil), time.Millisecond)
	if _, ok := c.Get("q"); !ok {
		t.Fatal("refreshed entry inherited the old entry's expiry")
	}
	e := c.shardFor("q").byKey["q"]
	if !e.FreshUntil.Equal(clk.Now().Add(time.Minute)) {
		t.Fatalf("FreshUntil = %v, want %v", e.FreshUntil, clk.Now().Add(time.Minute))
	}
}

func TestZeroFreshForIsFreshForever(t *testing.T) {
	c := NewLiteralCache(Options{MaxEntries: 8, Shards: 1})
	clk := clock.Manual(time.Unix(1_000_000, 0))
	c.setClock(clk)

	c.Put("q", exec.NewResult(nil), time.Millisecond)
	clk.Advance(24 * 365 * time.Hour)
	if _, ok := c.Get("q"); !ok {
		t.Fatal("entry without FreshFor expired")
	}
	if _, ok := c.GetStale("q"); !ok {
		t.Fatal("GetStale refused an immortal entry")
	}
}

func TestIntelligentFreshForExpiresGets(t *testing.T) {
	c := NewIntelligentCache(Options{MaxEntries: 8, Shards: 1,
		FreshFor: time.Minute, StaleGrace: time.Hour})
	clk := clock.Manual(time.Unix(2_000_000, 0))
	c.setClock(clk)

	q := staleTestQuery()
	c.Put(q, staleTestResult(), time.Millisecond)
	if _, ok := c.Get(q.Clone()); !ok {
		t.Fatal("fresh entry missed")
	}
	clk.Advance(2 * time.Minute)
	if _, ok := c.Get(q.Clone()); ok {
		t.Fatal("expired entry served by the fresh path")
	}
	// Subsumption must not resurrect expired entries either: a roll-up of
	// the stored query would normally be a derived hit.
	r := q.Clone()
	r.Filters = []query.Filter{query.InFilter("carrier", storage.StrValue("AA"))}
	if _, ok := c.Get(r); ok {
		t.Fatal("expired entry served through subsumption")
	}
}

func TestIntelligentBucketScanDropsDeadEntries(t *testing.T) {
	c := NewIntelligentCache(Options{MaxEntries: 8, Shards: 1,
		FreshFor: time.Minute, StaleGrace: time.Minute})
	clk := clock.Manual(time.Unix(2_000_000, 0))
	c.setClock(clk)

	q := staleTestQuery()
	c.Put(q, staleTestResult(), time.Millisecond)
	sh := c.shardFor(q)
	clk.Advance(3 * time.Minute) // past StaleUntil: dead weight

	// A same-bucket query whose exact key misses exercises the subsumption
	// scan; it must reclaim the dead entry's budget, not just skip it.
	r := q.Clone()
	r.Filters = []query.Filter{query.InFilter("carrier", storage.StrValue("AA"))}
	if _, ok := c.Get(r); ok {
		t.Fatal("dead entry served through subsumption")
	}
	if c.Len() != 0 {
		t.Fatalf("dead entry not dropped by the bucket scan: Len = %d", c.Len())
	}
	if sh.curBytes != 0 {
		t.Fatalf("byte accounting leaked %d bytes after sweep", sh.curBytes)
	}
	if len(sh.buckets) != 0 {
		t.Fatalf("dead entry still bucketed: %d buckets live", len(sh.buckets))
	}

	// The degraded-read scan sweeps the same way.
	c.Put(q, staleTestResult(), time.Millisecond)
	clk.Advance(3 * time.Minute)
	if _, ok := c.GetStale(r); ok {
		t.Fatal("GetStale served a dead entry")
	}
	if c.Len() != 0 || sh.curBytes != 0 {
		t.Fatalf("GetStale scan left dead weight: Len = %d, curBytes = %d", c.Len(), sh.curBytes)
	}
}

func TestIntelligentGetStaleExactAndDerived(t *testing.T) {
	c := NewIntelligentCache(Options{MaxEntries: 8, Shards: 1,
		FreshFor: time.Minute, StaleGrace: time.Hour})
	clk := clock.Manual(time.Unix(2_000_000, 0))
	c.setClock(clk)

	q := staleTestQuery()
	c.Put(q, staleTestResult(), time.Millisecond)
	clk.Advance(30 * time.Minute) // expired, inside grace

	if _, ok := c.GetStale(q.Clone()); !ok {
		t.Fatal("GetStale missed the exact stale entry")
	}
	// Derived stale answer: a filter of the stored query.
	r := q.Clone()
	r.Filters = []query.Filter{query.InFilter("carrier", storage.StrValue("AA"))}
	res, ok := c.GetStale(r)
	if !ok {
		t.Fatal("GetStale could not derive from the stale entry")
	}
	if res.N != 1 {
		t.Fatalf("derived stale result has %d rows, want 1", res.N)
	}
	if st := c.Stats(); st.StaleServed != 2 {
		t.Fatalf("StaleServed = %d, want 2", st.StaleServed)
	}
	// Past grace: dead for GetStale too.
	clk.Advance(90 * time.Minute) // 2 h in: past StaleUntil
	if _, ok := c.GetStale(q.Clone()); ok {
		t.Fatal("GetStale served past StaleUntil")
	}
}
