package cache

import "vizq/internal/clock"

// setClock runs every shard on clk (tests).
func (c *store) setClock(clk *clock.Clock) {
	for _, s := range c.shards {
		s.clock = clk
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
