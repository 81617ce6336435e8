package cache

import (
	"sync"
	"time"

	"vizq/internal/clock"
	"vizq/internal/query"
	"vizq/internal/tde/exec"
)

// The caches are lock-striped: N independent shards, each with its own
// mutex, entry maps and byte/entry budget. The literal cache shards by
// query-text hash; the intelligent cache shards by GroupKey hash so every
// subsumption bucket (all candidates for one data source + view) stays
// within a single shard and a Get never crosses shard boundaries.
//
// Eviction is Redis-style sampled eviction: instead of scanning the whole
// shard for the globally worst-scored entry (O(n) per eviction), each round
// samples up to evictSampleSize entries — Go's randomized map iteration
// order is the sampler — and evicts the worst of the sample, making
// eviction O(K) regardless of cache size.

// defaultShardCount is used when Options.Shards is zero.
const defaultShardCount = 16

// evictSampleSize is the per-round eviction sample (Redis uses 5; 8 biases
// slightly toward accuracy since our score spread is wide).
const evictSampleSize = 8

// shardIndex hashes a key onto one of n shards (FNV-1a, inlined to keep the
// hot path allocation-free).
func shardIndex(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// shardCount resolves the effective shard count for opt: the configured (or
// default) count, clamped so every shard can hold at least one entry and at
// least one maximum-size result.
func shardCount(opt Options) int {
	n := opt.Shards
	if n <= 0 {
		n = defaultShardCount
	}
	if opt.MaxEntries > 0 && n > opt.MaxEntries {
		n = opt.MaxEntries
	}
	if opt.MaxBytes > 0 && opt.MaxResultBytes > 0 {
		if m := int(opt.MaxBytes / opt.MaxResultBytes); m >= 1 && n > m {
			n = m
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// perShardOptions divides the cache-wide budgets across n shards (rounding
// up so n*perShard >= total).
func perShardOptions(opt Options, n int) Options {
	s := opt
	if s.MaxEntries > 0 {
		s.MaxEntries = (opt.MaxEntries + n - 1) / n
	}
	if s.MaxBytes > 0 {
		s.MaxBytes = (opt.MaxBytes + int64(n) - 1) / int64(n)
	}
	return s
}

// shard is one lock-striped stripe of either cache: an entry store keyed by
// Entry.key (query text for the literal cache, structural key for the
// intelligent cache). Expiry on contact, usage carry-over on refresh, byte
// accounting and sampled eviction live here once. The intelligent cache
// additionally files every entry in a subsumption bucket by GroupKey — all
// entries sharing a GroupKey live in the same shard, so matching stays
// shard-local; the literal cache is this store with no buckets.
type shard struct {
	mu       sync.Mutex
	opt      Options // per-shard budgets
	byKey    map[string]*Entry
	buckets  map[string][]*Entry // GroupKey -> candidates in insertion order
	curBytes int64
	clock    *clock.Clock // nil: the wall clock
	m        *counts      // the store's, shared by its shards
}

// get answers from the shard. q is nil for the literal cache (exact key
// only); for the intelligent cache an exact structural match is tried first,
// then the subsumption bucket. With stale set this is the degraded-read
// path: entries that are merely expired (within grace) also qualify, a hit
// counts as stale-served and a miss is not counted.
func (s *shard) get(key string, q *query.Query, stale bool) (*exec.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	usable := (*Entry).fresh
	if stale {
		usable = (*Entry).usableStale
	}
	e, res, exact := s.findLocked(key, q, usable, now)
	if e == nil {
		if !stale {
			s.m.misses.Inc()
		}
		return nil, false
	}
	// The hit is accounted only here, after Derive succeeded — a failed
	// derive falls through as a miss and must not bump Uses or a hit count.
	e.Uses++
	e.LastUsed = now
	switch {
	case stale:
		s.m.stale.Inc()
	case exact:
		s.m.exact.Inc()
	default:
		s.m.derived.Inc()
	}
	return res, true
}

// findLocked is the one lookup: the exact key, then a scan of q's
// subsumption bucket, both restricted to entries the usable predicate
// accepts at now. The scan takes the first candidate that derives q, or
// with Options.BestMatch the subsuming candidate with the fewest stored
// rows (the dominant local cost is the rows to filter and re-group).
// Entries past their stale grace window are dropped on contact: they can
// satisfy no read, and left in place they would consume the byte/entry
// budget until eviction pressure.
func (s *shard) findLocked(key string, q *query.Query, usable func(*Entry, time.Time) bool, now time.Time) (e *Entry, res *exec.Result, exact bool) {
	if e, ok := s.byKey[key]; ok {
		switch {
		case !e.usableStale(now):
			s.removeLocked(e)
		case !usable(e, now):
		case q == nil:
			return e, e.Result, true
		default:
			// An exact key match may still need projection/ordering when the
			// stored query was adjusted; Derive handles identity cheaply.
			if res, ok := Derive(e.Query, e.Result, q); ok {
				return e, res, true
			}
		}
	}
	if q == nil {
		return nil, nil, false
	}
	gk := q.GroupKey()
	var dead []*Entry
	for _, e := range s.buckets[gk] {
		if !e.usableStale(now) {
			dead = append(dead, e)
		}
	}
	for _, e := range dead {
		s.removeLocked(e)
	}
	var best *Entry
	for _, e := range s.buckets[gk] {
		if !usable(e, now) {
			continue
		}
		if !s.opt.BestMatch {
			if res, ok := Derive(e.Query, e.Result, q); ok {
				return e, res, false
			}
		} else if (best == nil || e.Result.N < best.Result.N) && Subsumes(e.Query, q) {
			best = e
		}
	}
	if best != nil {
		if res, ok := Derive(best.Query, best.Result, q); ok {
			return best, res, false
		}
	}
	return nil, nil, false
}

// put stores e (its key, group, Result and Cost set by the caller),
// stamping its lifetimes and replacing any entry under the same key.
func (s *shard) put(e *Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	e.Created, e.LastUsed = now, now
	if s.opt.FreshFor > 0 {
		e.FreshUntil = now.Add(s.opt.FreshFor)
		if s.opt.StaleGrace > 0 {
			e.StaleUntil = e.FreshUntil.Add(s.opt.StaleGrace)
		}
	}
	if old, ok := s.byKey[e.key]; ok {
		s.removeLocked(old)
		// Refreshing a key must not make a hot entry look cold: carry the
		// usage history across the replacement so eviction scoring still
		// sees the entry's real popularity and age. Freshness is NOT
		// carried: the new result restarts its own lifetime.
		e.Uses = old.Uses
		e.Created = old.Created
	}
	s.byKey[e.key] = e
	if e.Query != nil {
		s.buckets[e.group] = append(s.buckets[e.group], e)
	}
	s.curBytes += e.sizeBytes()
	s.evictLocked()
}

func (s *shard) removeLocked(e *Entry) {
	delete(s.byKey, e.key)
	if e.Query != nil {
		bucket := s.buckets[e.group]
		for i, b := range bucket {
			if b == e {
				bucket = append(bucket[:i], bucket[i+1:]...)
				break
			}
		}
		if len(bucket) == 0 {
			delete(s.buckets, e.group)
		} else {
			s.buckets[e.group] = bucket
		}
	}
	s.curBytes -= e.sizeBytes()
}

func (s *shard) evictLocked() {
	now := s.clock.Now()
	for (s.opt.MaxEntries > 0 && len(s.byKey) > s.opt.MaxEntries) ||
		(s.opt.MaxBytes > 0 && s.curBytes > s.opt.MaxBytes) {
		var worst *Entry
		sampled := 0
		for _, e := range s.byKey {
			if worst == nil || e.score(now) < worst.score(now) {
				worst = e
			}
			sampled++
			if sampled >= evictSampleSize {
				break
			}
		}
		if worst == nil {
			return
		}
		s.m.level.evictSampled.Add(int64(sampled))
		s.removeLocked(worst)
		s.m.evictions.Inc()
	}
}
