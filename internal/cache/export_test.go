package cache

import "time"

// setClock pins the cache's clock (tests).
func (c *store) setClock(fn func() time.Time) {
	for _, s := range c.shards {
		s.clock = fn
	}
}

// RemoteStats reports shared-store outcomes for this node. errors counts
// transport and decode failures, kept apart from misses.
func (d *Distributed) RemoteStats() (hits, misses, errors int64) {
	return d.remoteHits.Value(), d.remoteMisses.Value(), d.remoteErrors.Value()
}

// Pending reports the number of in-flight keys (tests, introspection).
func (f *Flight) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}
