package kvstore

import "time"

// LocalBus adapts a Store to the coordination-bus shape internal/sched
// expects (Set + List). Single-process deployments and tests use it to
// coordinate schedulers without a network hop; across processes a Client
// has the same shape.
type LocalBus struct {
	store *Store
}

// NewLocalBus wraps store as an in-process coordination bus.
func NewLocalBus(store *Store) *LocalBus { return &LocalBus{store: store} }

// Set stores a digest with TTL.
func (b *LocalBus) Set(key string, val []byte, ttl time.Duration) error {
	b.store.Set(key, val, ttl)
	return nil
}

// List returns every unexpired entry under prefix.
func (b *LocalBus) List(prefix string) (map[string][]byte, error) {
	return scanMap(b.store, prefix), nil
}

// scanMap is store.Scan(prefix) keyed by entry key.
func scanMap(store *Store, prefix string) map[string][]byte {
	pairs := store.Scan(prefix)
	out := make(map[string][]byte, len(pairs))
	for _, p := range pairs {
		out[p.Key] = p.Val
	}
	return out
}
