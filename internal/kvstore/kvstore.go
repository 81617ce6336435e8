// Package kvstore is a small networked key-value store with TTL and LRU
// eviction. It stands in for the REDIS/Cassandra layer Tableau Server uses
// to distribute its query caches across cluster nodes (Sect. 3.2: "a
// distributed layer ... allows sharing data across nodes in the cluster and
// keeping data warm regardless of which node handles particular requests").
// Beyond the cache tier, the store doubles as the cluster's coordination
// bus: internal/sched publishes per-source load digests under a shared key
// prefix and reads its peers' back with Scan/List.
package kvstore

import (
	"container/list"
	"sort"
	"strings"
	"sync"
	"time"
)

// Clock abstracts time for tests.
type Clock func() time.Time

// Store is the in-memory KV engine, safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	maxBytes int64
	curBytes int64
	clock    Clock

	hits   int64
	misses int64
}

type kvEntry struct {
	key     string
	val     []byte
	expires time.Time // zero = no TTL
}

// NewStore creates a store bounded to maxBytes (0 = unbounded).
func NewStore(maxBytes int64) *Store {
	return &Store{
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		maxBytes: maxBytes,
		clock:    time.Now,
	}
}

// SetClock replaces the time source (tests).
func (s *Store) SetClock(c Clock) { s.clock = c }

// Get returns the value for key, if present and unexpired.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		s.misses++
		return nil, false
	}
	e := el.Value.(*kvEntry)
	if !e.expires.IsZero() && s.clock().After(e.expires) {
		s.removeLocked(el)
		s.misses++
		return nil, false
	}
	s.lru.MoveToFront(el)
	s.hits++
	return e.val, true
}

// Set stores a value with an optional TTL (0 = no expiry).
func (s *Store) Set(key string, val []byte, ttl time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.removeLocked(el)
	}
	e := &kvEntry{key: key, val: val}
	if ttl > 0 {
		e.expires = s.clock().Add(ttl)
	}
	el := s.lru.PushFront(e)
	s.entries[key] = el
	s.curBytes += int64(len(key) + len(val))
	for s.maxBytes > 0 && s.curBytes > s.maxBytes && s.lru.Len() > 1 {
		s.removeLocked(s.lru.Back())
	}
}

// KV is one Scan result pair.
type KV struct {
	Key string
	Val []byte
}

// Scan returns every unexpired entry whose key starts with prefix, sorted
// by key. Unlike Get it neither promotes entries in the LRU order nor
// counts hits/misses — a coordination-bus reader sweeping digests must not
// perturb the cache tier's eviction behaviour. Expired entries found along
// the way are removed.
func (s *Store) Scan(prefix string) []KV {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock()
	var expired []*list.Element
	var out []KV
	for key, el := range s.entries {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		e := el.Value.(*kvEntry)
		if !e.expires.IsZero() && now.After(e.expires) {
			expired = append(expired, el)
			continue
		}
		out = append(out, KV{Key: key, Val: e.val})
	}
	for _, el := range expired {
		s.removeLocked(el)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Stats returns hit/miss counters.
func (s *Store) Stats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

func (s *Store) removeLocked(el *list.Element) {
	e := el.Value.(*kvEntry)
	s.lru.Remove(el)
	delete(s.entries, e.key)
	s.curBytes -= int64(len(e.key) + len(e.val))
}
