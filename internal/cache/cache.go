// Package cache implements Tableau's two levels of query caching
// (Sect. 3.2): the literal cache, keyed on final query text, and the
// intelligent cache, a semantic view-matching component that answers a new
// query from a stored result when the stored query provably subsumes it,
// applying local post-processing (roll-up, filtering, projection). It also
// provides a distributed layer over a networked key-value store (Server)
// and a single-flight layer that coalesces concurrent identical remote
// executions.
//
// Both caches are sharded (see shard.go) so concurrent server workloads do
// not serialize behind one mutex, and use sampled eviction so eviction cost
// is independent of cache size.
package cache

import (
	"time"

	"vizq/internal/obs"
	"vizq/internal/query"
	"vizq/internal/tde/exec"
)

// tierCounters are one cache level's process-wide metrics: the hit-tier
// counters are how the per-stage latency story of Sect. 3.2 becomes visible
// at runtime. evictSampled counts how many entries eviction rounds examined,
// which bounds eviction cost and exposes sampling health.
type tierCounters struct {
	exact, derived, misses, evictions, evictSampled *obs.Counter
}

var (
	litCounters = tierCounters{
		exact:        obs.C("cache.literal.hits"),
		misses:       obs.C("cache.literal.misses"),
		evictions:    obs.C("cache.literal.evictions"),
		evictSampled: obs.C("cache.literal.evict_sampled"),
	}
	intCounters = tierCounters{
		exact:        obs.C("cache.intelligent.exact_hits"),
		derived:      obs.C("cache.intelligent.derived_hits"),
		misses:       obs.C("cache.intelligent.misses"),
		evictions:    obs.C("cache.intelligent.evictions"),
		evictSampled: obs.C("cache.intelligent.evict_sampled"),
	}
	// cStaleServed counts degraded reads: expired entries served inside
	// their StaleUntil grace window because the backend was unreachable.
	cStaleServed = obs.C("cache.stale_served")
)

// counts are the live form of one store's Stats, shared by its shards.
// Each rolls up into its level's metric; no Stats field reads evictSampled,
// so the shards add it to the level's metric alone.
type counts struct {
	exact, derived, misses, evictions, stale obs.Counter
	level                                    *tierCounters
}

func (m *counts) rollUp(level *tierCounters) {
	m.exact.RollUp(level.exact)
	m.derived.RollUp(level.derived)
	m.misses.RollUp(level.misses)
	m.evictions.RollUp(level.evictions)
	m.stale.RollUp(cStaleServed)
	m.level = level
}

// Entry is one cached query result with the bookkeeping eviction needs:
// "entries ... are purged based upon a combination of entry age, usage, and
// the expense of re-evaluating the query."
type Entry struct {
	Query    *query.Query // nil for literal entries
	Text     string       // literal cache key
	Result   *exec.Result
	Cost     time.Duration // time the query took to compute
	Created  time.Time
	LastUsed time.Time
	Uses     int64
	// FreshUntil ends the entry's fresh lifetime (zero = fresh forever).
	// Past it, normal Gets treat the entry as a miss.
	FreshUntil time.Time
	// StaleUntil ends the stale grace window (zero = no grace). Between
	// FreshUntil and StaleUntil the entry is served only by GetStale —
	// the graceful-degradation path taken when the backend is down.
	StaleUntil time.Time

	key   string // store key: Text, or Query.Key()
	group string // Query.GroupKey(), the subsumption bucket; "" for literal entries
}

// fresh reports whether the entry may satisfy a normal Get at now.
func (e *Entry) fresh(now time.Time) bool {
	return e.FreshUntil.IsZero() || !now.After(e.FreshUntil)
}

// usableStale reports whether the entry may satisfy a degraded GetStale
// at now: fresh entries qualify trivially, expired ones only inside the
// grace window.
func (e *Entry) usableStale(now time.Time) bool {
	return e.fresh(now) || !now.After(e.StaleUntil)
}

func (e *Entry) sizeBytes() int64 { return e.Result.SizeBytes() + 256 }

// score values an entry for retention: cheap-to-recompute, old, rarely-used
// entries go first.
func (e *Entry) score(now time.Time) float64 {
	age := now.Sub(e.LastUsed).Seconds() + 1
	return float64(e.Cost.Microseconds()+1) * float64(e.Uses+1) / age
}

// Stats counts cache outcomes.
type Stats struct {
	ExactHits   int64
	DerivedHits int64
	Misses      int64
	Evictions   int64
	// StaleServed counts degraded GetStale hits: expired entries served
	// inside their grace window during a backend outage.
	StaleServed int64
}

// Options bounds a cache.
type Options struct {
	MaxEntries int
	MaxBytes   int64
	// MaxResultBytes rejects oversized results at admission ("we cache all
	// the query results unless ... the results are excessively large").
	MaxResultBytes int64
	// BestMatch makes the intelligent cache score all subsuming candidates
	// and pick the one needing the least post-processing, instead of
	// accepting the first match. The paper ships first-match and names
	// best-match as the planned improvement (Sect. 3.2).
	//
	//vizlint:allow unused -- the planned policy, kept as a decision: the ablation benchmark and cache tests compare it with first-match
	BestMatch bool
	// Shards is the lock-stripe count (0 = default). The effective count is
	// clamped so each shard can hold at least one entry and one
	// maximum-size result; Shards=1 restores single-mutex behaviour (and
	// with it, exact cache-wide budget enforcement — sharded budgets are
	// enforced per shard).
	//
	//vizlint:allow unused -- kept as a decision: the Shards:1 tests need exact cache-wide budgets
	Shards int
	// FreshFor bounds an entry's fresh lifetime from Put (0 = fresh
	// forever, the historical behaviour). Past it, normal Gets miss.
	FreshFor time.Duration
	// StaleGrace extends an expired entry's life past FreshFor for
	// degraded reads only: GetStale may serve it while the backend is
	// down, normal Gets never will. Ignored when FreshFor is zero.
	StaleGrace time.Duration
}

// DefaultOptions sizes caches for a desktop session.
func DefaultOptions() Options {
	return Options{MaxEntries: 4096, MaxBytes: 256 << 20, MaxResultBytes: 32 << 20}
}

// store is what both cache levels share: the lock-striped shards and the
// operations that do not depend on how a level keys its entries.
type store struct {
	opt    Options
	shards []*shard
	m      counts
}

// build sets up an empty store in place (its shards point at its counters)
// whose counters roll up into level.
func (c *store) build(opt Options, level *tierCounters) {
	c.m.rollUp(level)
	n := shardCount(opt)
	sopt := perShardOptions(opt, n)
	c.opt, c.shards = opt, make([]*shard, n)
	for i := range c.shards {
		c.shards[i] = &shard{
			opt:     sopt,
			byKey:   make(map[string]*Entry),
			buckets: make(map[string][]*Entry),
			m:       &c.m,
		}
	}
}

// put admits e into shard sh unless its result is oversized.
func (c *store) put(sh *shard, e *Entry) {
	if c.opt.MaxResultBytes > 0 && e.Result.SizeBytes() > c.opt.MaxResultBytes {
		return
	}
	sh.put(e)
}

// Clear empties the cache (connection closed or refreshed).
func (c *store) Clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.byKey = make(map[string]*Entry)
		s.buckets = make(map[string][]*Entry)
		s.curBytes = 0
		s.mu.Unlock()
	}
}

// Len returns the number of entries.
func (c *store) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.byKey)
		s.mu.Unlock()
	}
	return n
}

// Shards reports the effective lock-stripe count.
func (c *store) Shards() int { return len(c.shards) }

// Stats reads the store's counters.
func (c *store) Stats() Stats {
	return Stats{
		ExactHits:   c.m.exact.Value(),
		DerivedHits: c.m.derived.Value(),
		Misses:      c.m.misses.Value(),
		Evictions:   c.m.evictions.Value(),
		StaleServed: c.m.stale.Value(),
	}
}

// LiteralCache maps low-level query text to results: it catches internal
// queries "that end up having the same textual representation but where a
// match could not be proven upfront". Shards are selected by text hash.
type LiteralCache struct{ store }

// NewLiteralCache creates a literal cache.
func NewLiteralCache(opt Options) *LiteralCache {
	c := &LiteralCache{}
	c.build(opt, &litCounters)
	return c
}

func (c *LiteralCache) shardFor(text string) *shard {
	return c.shards[shardIndex(text, len(c.shards))]
}

// Get looks up a query text.
func (c *LiteralCache) Get(text string) (*exec.Result, bool) {
	return c.shardFor(text).get(text, nil, false)
}

// GetStale looks up a query text for a degraded read: it will serve an
// expired entry as long as it is within its StaleUntil grace window.
// Callers use it only after the fresh path failed (breaker open, retries
// exhausted), so a hit is counted as stale-served, never as a normal hit.
func (c *LiteralCache) GetStale(text string) (*exec.Result, bool) {
	return c.shardFor(text).get(text, nil, true)
}

// Put stores a result under its text.
func (c *LiteralCache) Put(text string, res *exec.Result, cost time.Duration) {
	c.put(c.shardFor(text), &Entry{Text: text, key: text, Result: res, Cost: cost})
}

// IntelligentCache maps internal query structure to results and matches new
// queries by subsumption, post-processing stored results locally. Shards
// are selected by GroupKey hash, keeping each subsumption bucket (one data
// source + view) within a single shard.
type IntelligentCache struct{ store }

// NewIntelligentCache creates an intelligent cache.
func NewIntelligentCache(opt Options) *IntelligentCache {
	c := &IntelligentCache{}
	c.build(opt, &intCounters)
	return c
}

func (c *IntelligentCache) shardFor(q *query.Query) *shard {
	return c.shards[shardIndex(q.GroupKey(), len(c.shards))]
}

// Get answers q from the cache: an exact structural match first, otherwise
// the first stored candidate that provably subsumes q, with roll-up,
// residual filtering and projection applied locally ("while currently we
// accept the first match...").
func (c *IntelligentCache) Get(q *query.Query) (*exec.Result, bool) {
	return c.shardFor(q).get(q.Key(), q, false)
}

// GetStale answers q for a degraded read, accepting entries past their
// fresh lifetime but within their StaleUntil grace window — exact match
// first, then subsumption like Get. Used when the backend is unreachable.
func (c *IntelligentCache) GetStale(q *query.Query) (*exec.Result, bool) {
	return c.shardFor(q).get(q.Key(), q, true)
}

// Put stores a result for the (already executed) query.
func (c *IntelligentCache) Put(q *query.Query, res *exec.Result, cost time.Duration) {
	gk := q.GroupKey()
	sh := c.shards[shardIndex(gk, len(c.shards))]
	c.put(sh, &Entry{Query: q.Clone(), key: q.Key(), group: gk, Result: res, Cost: cost})
}
