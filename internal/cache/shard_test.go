package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vizq/internal/query"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

func shardQuery(ds string, i int) *query.Query {
	return &query.Query{
		DataSource: ds,
		View:       query.View{Table: ds},
		Dims:       []query.Dim{{Col: "carrier"}},
		Measures:   []query.Measure{{Fn: query.Count, As: "n"}},
		Filters:    []query.Filter{query.InFilter("day", storage.IntValue(int64(i)))},
	}
}

func shardResult() *exec.Result {
	res := exec.NewResult([]plan.ColInfo{
		{Name: "carrier", Type: storage.TStr},
		{Name: "n", Type: storage.TInt},
	})
	res.AppendRow([]storage.Value{storage.StrValue("AA"), storage.IntValue(1)})
	return res
}

func TestShardCountNormalization(t *testing.T) {
	cases := []struct {
		opt  Options
		want int
	}{
		{Options{}, defaultShardCount},
		{Options{Shards: 4}, 4},
		{Options{Shards: 1}, 1},
		{Options{Shards: 64, MaxEntries: 10}, 10},                // >= 1 entry per shard
		{Options{MaxBytes: 1 << 20, MaxResultBytes: 1 << 18}, 4}, // >= 1 max result per shard
		{Options{Shards: -3}, defaultShardCount},
	}
	for _, tc := range cases {
		if got := shardCount(tc.opt); got != tc.want {
			t.Errorf("shardCount(%+v) = %d, want %d", tc.opt, got, tc.want)
		}
	}
	if got := NewLiteralCache(Options{Shards: 5}).Shards(); got != 5 {
		t.Errorf("LiteralCache.Shards() = %d, want 5", got)
	}
	if got := NewIntelligentCache(Options{Shards: 5}).Shards(); got != 5 {
		t.Errorf("IntelligentCache.Shards() = %d, want 5", got)
	}
}

// TestShardedStatsAggregation is the property test: cache-wide Len() must
// equal the sum over shards, and the hit/miss counts must add up to the
// number of Gets issued, no matter how keys spread across shards.
func TestShardedStatsAggregation(t *testing.T) {
	c := NewIntelligentCache(Options{Shards: 8})
	const sources = 24 // distinct GroupKeys, spread over 8 shards
	gets, puts := 0, 0
	for s := 0; s < sources; s++ {
		ds := fmt.Sprintf("ds%02d", s)
		for i := 0; i < 4; i++ {
			c.Put(shardQuery(ds, i), shardResult(), time.Millisecond)
			puts++
		}
		for i := 0; i < 6; i++ { // 4 hits + 2 misses per source
			c.Get(shardQuery(ds, i))
			gets++
		}
	}
	st := c.Stats()
	lenSum := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		lenSum += len(sh.byKey)
		sh.mu.Unlock()
	}
	if c.Len() != lenSum || c.Len() != puts {
		t.Errorf("Len() = %d, shard sum %d, want %d", c.Len(), lenSum, puts)
	}
	if got := st.ExactHits + st.DerivedHits + st.Misses; int(got) != gets {
		t.Errorf("hits+misses = %d, want %d gets", got, gets)
	}
	if st.ExactHits != sources*4 || st.Misses != sources*2 {
		t.Errorf("unexpected split: %+v", st)
	}
	// Keys must actually be spread: with 24 group keys and 8 shards the
	// chance of all landing in one shard is astronomically small.
	occupied := 0
	for _, sh := range c.shards {
		if len(sh.byKey) > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Errorf("all %d group keys hashed to %d shard(s)", sources, occupied)
	}
}

// TestLiteralShardedBudgets checks that cache-wide budgets hold across
// shards: total entries never exceed MaxEntries and eviction stats
// aggregate.
func TestLiteralShardedBudgets(t *testing.T) {
	c := NewLiteralCache(Options{MaxEntries: 32, Shards: 8})
	res := shardResult()
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("select %d", i), res, time.Millisecond)
	}
	if c.Len() > 32 {
		t.Errorf("Len() = %d exceeds MaxEntries 32", c.Len())
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions under entry pressure")
	}
	if int(st.Evictions)+c.Len() != 200 {
		t.Errorf("evictions %d + len %d != 200 puts", st.Evictions, c.Len())
	}
}

// TestShardedCachesConcurrent hammers both caches from many goroutines with
// overlapping keys; run under -race this is the lock-striping correctness
// gate. Invariants checked after the storm: budgets hold and per-shard
// stats sum to the observed operation count.
func TestShardedCachesConcurrent(t *testing.T) {
	lit := NewLiteralCache(Options{MaxEntries: 64, Shards: 8})
	intel := NewIntelligentCache(Options{MaxEntries: 64, Shards: 8})
	const workers = 8
	const opsPer = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := shardResult()
			for i := 0; i < opsPer; i++ {
				k := (w + i) % 96 // overlap across workers
				text := fmt.Sprintf("q%d", k)
				q := shardQuery(fmt.Sprintf("ds%d", k%12), k)
				switch i % 3 {
				case 0:
					lit.Put(text, res, time.Millisecond)
					intel.Put(q, res, time.Millisecond)
				default:
					lit.Get(text)
					intel.Get(q)
				}
			}
		}(w)
	}
	wg.Wait()

	if lit.Len() > 64 {
		t.Errorf("literal Len() = %d exceeds MaxEntries", lit.Len())
	}
	if intel.Len() > 64 {
		t.Errorf("intelligent Len() = %d exceeds MaxEntries", intel.Len())
	}
	wantGets := int64(workers * opsPer * 2 / 3)
	lst, ist := lit.Stats(), intel.Stats()
	if got := lst.ExactHits + lst.Misses; got != wantGets {
		t.Errorf("literal hits+misses = %d, want %d", got, wantGets)
	}
	if got := ist.ExactHits + ist.DerivedHits + ist.Misses; got != wantGets {
		t.Errorf("intelligent outcomes = %d, want %d", got, wantGets)
	}
}

// BenchmarkLiteralCacheParallel compares sharded vs single-mutex literal
// cache throughput under parallel mixed Get/Put load.
func BenchmarkLiteralCacheParallel(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := NewLiteralCache(Options{MaxEntries: 4096, Shards: shards})
			res := shardResult()
			for i := 0; i < 512; i++ {
				c.Put(fmt.Sprintf("q%d", i), res, time.Millisecond)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					i++
					if i%8 == 0 {
						c.Put(fmt.Sprintf("q%d", i%1024), res, time.Millisecond)
					} else {
						c.Get(fmt.Sprintf("q%d", i%1024))
					}
				}
			})
		})
	}
}
