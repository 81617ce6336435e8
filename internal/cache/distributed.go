package cache

import (
	"time"

	"vizq/internal/kvstore"
	"vizq/internal/obs"
	"vizq/internal/query"
	"vizq/internal/tde/exec"
)

// Distributed-tier metrics, shared process-wide. Errors count wire and
// decode failures separately from misses so an unhealthy shared store is
// distinguishable from a cold one.
var (
	cDistHits   = obs.C("cache.distributed.hits")
	cDistMisses = obs.C("cache.distributed.misses")
	cDistErrors = obs.C("cache.distributed.errors")
)

// Distributed layers a node-local intelligent cache over a shared networked
// key-value store. A lookup tries the local tier (with full subsumption
// matching), then the shared store by exact structural key; shared hits are
// pulled into the local tier so "recent entries are also stored in memory
// on the nodes processing particular queries" (Sect. 3.2).
type Distributed struct {
	Local  *IntelligentCache
	Remote *kvstore.Client
	// TTL bounds shared entries' lifetime.
	TTL time.Duration

	remoteHits, remoteMisses, remoteErrors obs.Counter
}

// NewDistributed wires a local cache to a kvstore client.
func NewDistributed(local *IntelligentCache, remote *kvstore.Client, ttl time.Duration) *Distributed {
	d := &Distributed{Local: local, Remote: remote, TTL: ttl}
	d.remoteHits.RollUp(cDistHits)
	d.remoteMisses.RollUp(cDistMisses)
	d.remoteErrors.RollUp(cDistErrors)
	return d
}

// Get answers q from the local tier or the shared store.
func (d *Distributed) Get(q *query.Query) (*exec.Result, bool) {
	if res, ok := d.Local.Get(q); ok {
		return res, true
	}
	if d.Remote == nil {
		return nil, false
	}
	data, ok, err := d.Remote.Get(q.Key())
	if err != nil {
		// A transport failure is not a cold cache: count it separately.
		d.remoteErrors.Inc()
		return nil, false
	}
	if !ok {
		d.remoteMisses.Inc()
		return nil, false
	}
	sq, sres, cost, err := DecodeEntry(data)
	if err != nil {
		d.remoteErrors.Inc()
		return nil, false
	}
	res, ok := Derive(sq, sres, q)
	if !ok {
		// The shared entry exists but cannot answer q: that is a miss, and
		// a result that failed to serve must not warm the local tier.
		d.remoteMisses.Inc()
		return nil, false
	}
	d.remoteHits.Inc()
	// Warm the local tier: future queries on this node can match by
	// subsumption, not only by exact key.
	d.Local.Put(sq, sres, cost)
	return res, true
}

// Put stores into both tiers.
func (d *Distributed) Put(q *query.Query, res *exec.Result, cost time.Duration) {
	d.Local.Put(q, res, cost)
	if d.Remote == nil {
		return
	}
	if data, err := EncodeEntry(q, res, cost); err == nil {
		_ = d.Remote.Set(q.Key(), data, d.TTL) // best-effort: cache, not storage
	}
}

// RemoteStats reports shared-store outcomes for this node. errors counts
// transport and decode failures, kept apart from misses.
func (d *Distributed) RemoteStats() (hits, misses, errors int64) {
	return d.remoteHits.Value(), d.remoteMisses.Value(), d.remoteErrors.Value()
}
