package connection

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"vizq/internal/remote"
	"vizq/internal/resilience"
	"vizq/internal/tde/exec"
)

// Balancer fronts a cluster of identical server nodes (the TDE's server
// deployment, Sect. 4.1.4: "deployed either as a shared-nothing architecture
// or shared-everything architecture ... a load balancer dispatches queries
// to different nodes in the TDE cluster"). Each node gets its own connection
// pool; queries are dispatched to the node with the lowest load score,
// breaking ties round-robin.
//
// The score is live connections plus an advisory shed-pressure term fed by
// the cluster coordination layer (SetPressure): a node whose scheduler
// advertises shed pressure in its digest costs extra, so dispatch steers
// toward calm nodes *before* queries queue behind a hot one. Pressure is
// advisory — with every node equally pressured (or none reporting), the
// balancer degrades to plain least-loaded round-robin.
//
// On top of the load score sits node health (health.go): ejected and
// draining nodes are excluded from PickIndex entirely, suspect and probing
// nodes pay a score penalty, and if no node is routable the balancer falls
// back to scoring all of them so the fleet never goes dark by its own
// bookkeeping.
type Balancer struct {
	pools []*Pool
	next  atomic.Uint64
	// pressure[i] holds math.Float64bits of node i's advisory shed
	// pressure (≥ 0), stored atomically so digest readers update it
	// without blocking dispatch.
	pressure []atomic.Uint64

	health *healthTracker

	closeOnce sync.Once
}

// NewBalancer builds a balancer over node addresses, one pool per node.
//
//vizlint:allow unused -- connection and resilience tests build balancers from addresses
func NewBalancer(addrs []string, cfg PoolConfig) (*Balancer, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("connection: balancer needs at least one node")
	}
	pools := make([]*Pool, 0, len(addrs))
	for _, a := range addrs {
		pools = append(pools, NewPool(a, cfg))
	}
	return NewBalancerFromPools(pools)
}

// NewBalancerFromPools builds a balancer over existing per-node pools
// (the cluster harness wires pools it also hands to each Data Server).
func NewBalancerFromPools(pools []*Pool) (*Balancer, error) {
	if len(pools) == 0 {
		return nil, fmt.Errorf("connection: balancer needs at least one node")
	}
	return &Balancer{
		pools:    pools,
		pressure: make([]atomic.Uint64, len(pools)),
		health:   newHealthTracker(len(pools), HealthConfig{}),
	}, nil
}

// SetPressure records node i's advisory shed pressure (typically the
// shed rate from its latest cluster digest, or queue depth normalized by
// its limit). Negative values clear it. Out-of-range indexes are ignored.
func (b *Balancer) SetPressure(i int, p float64) {
	if i < 0 || i >= len(b.pressure) {
		return
	}
	if p < 0 || math.IsNaN(p) {
		p = 0
	}
	b.pressure[i].Store(math.Float64bits(p))
}

// Pressure reads node i's advisory shed pressure.
func (b *Balancer) Pressure(i int) float64 {
	if i < 0 || i >= len(b.pressure) {
		return 0
	}
	return math.Float64frombits(b.pressure[i].Load())
}

// score is node i's dispatch cost: live connections plus pressure scaled
// by the pool's capacity, so a fully-pressured node (pressure 1.0) costs
// as much as one whose every connection slot is busy. Suspect and probing
// nodes pay an extra capacity-scaled penalty so traffic prefers nodes
// with a clean recent record.
func (b *Balancer) score(i int) float64 {
	p := b.pools[i]
	penalty := float64(p.Max())
	if penalty < 1 {
		penalty = 1
	}
	s := float64(p.Live()) + b.Pressure(i)*penalty
	switch b.State(i) {
	case NodeSuspect, NodeProbing:
		s += suspectPenalty * penalty
	}
	return s
}

// PickIndex chooses the node for the next dispatch: lowest score among
// routable (not ejected, not draining) nodes wins, ties resolved
// round-robin. If no node is routable the pick falls back to scoring all
// nodes — the never-all-ejected invariant (see health.go). The rotation
// counter is kept unsigned all the way to the modulo — converting it
// through int first turns negative once the counter passes MaxInt64 and
// indexes out of bounds.
func (b *Balancer) PickIndex() int {
	start := b.next.Add(1)
	if i := b.best(start, -1, true); i >= 0 {
		return i
	}
	// Never-all-ejected: every node is ejected or draining, so fall back
	// to plain scoring over all of them.
	return b.best(start, -1, false)
}

// PickIndexExcluding chooses a routable node other than skip, for the
// retry and failover paths. It returns -1 when no other node is routable
// — unlike PickIndex it does NOT fall back to unroutable nodes, because
// its callers already hold a (failing) node and a retry against another
// known-bad node only burns the user's deadline.
func (b *Balancer) PickIndexExcluding(skip int) int {
	if len(b.pools) == 1 {
		return -1
	}
	return b.best(b.next.Add(1), skip, true)
}

// best scans all nodes from start, returning the lowest-scored node that is
// not skip (and, with routableOnly, is routable), or -1 if none qualifies.
func (b *Balancer) best(start uint64, skip int, routableOnly bool) int {
	n := uint64(len(b.pools))
	best, bestIdx := 0.0, -1
	for i := uint64(0); i < n; i++ {
		idx := int((start + i) % n)
		if idx == skip || (routableOnly && !b.Routable(idx)) {
			continue
		}
		if s := b.score(idx); bestIdx < 0 || s < best {
			best, bestIdx = s, idx
		}
	}
	return bestIdx
}

// Report feeds one dispatch outcome on node i into health tracking and
// reports whether the node was blamed for it. A failure attributable to
// the caller (cancel, deadline — resilience.Caller) says nothing about the
// node and is not reported at all.
func (b *Balancer) Report(ctx context.Context, i int, err error) (blamed bool) {
	k := resilience.Classify(ctx, err)
	if k != resilience.Caller {
		b.ReportResult(i, err)
	}
	return k == resilience.Transport
}

// Query dispatches one query to a node, feeding the outcome into health
// tracking. When the node is blamed for a transport error it retries once
// on a different routable node — a single node crashing mid-dispatch should
// cost one internal retry, not a user-visible error. Failures
// attributable to the caller (cancel, deadline) neither count against
// the node nor trigger the retry.
func (b *Balancer) Query(ctx context.Context, tql string) (*exec.Result, error) {
	i := b.PickIndex()
	res, err := b.pools[i].Query(ctx, tql)
	if !b.Report(ctx, i, err) {
		return res, err
	}
	j := b.PickIndexExcluding(i)
	if j < 0 {
		return res, err
	}
	cHealthRetry.Inc()
	res, err = b.pools[j].Query(ctx, tql)
	b.Report(ctx, j, err)
	return res, err
}

// Nodes returns the per-node pools (for stats).
func (b *Balancer) Nodes() []*Pool { return b.pools }

// Close shuts every node pool. It is idempotent and safe to call
// concurrently with dispatch: PickIndex on a closed balancer still
// returns a valid index (the pool then reports ErrPoolClosed).
func (b *Balancer) Close() {
	b.closeOnce.Do(func() {
		var wg sync.WaitGroup
		for _, p := range b.pools {
			wg.Add(1)
			go func(p *Pool) {
				defer wg.Done()
				p.Close()
			}(p)
		}
		wg.Wait()
	})
}

// pingNode dials a fresh connection to addr and pings it, bounded by ctx.
// Used by health probes so they never consume a pool slot.
func pingNode(ctx context.Context, addr string) error {
	type dialRes struct {
		c   *remote.Conn
		err error
	}
	ch := make(chan dialRes, 1)
	go func() {
		c, err := remote.Dial(addr)
		ch <- dialRes{c, err}
	}()
	select {
	case <-ctx.Done():
		// Abandon the dial; if it lands, close the connection.
		go func() {
			if r := <-ch; r.c != nil {
				r.c.Close()
			}
		}()
		return ctx.Err()
	case r := <-ch:
		if r.err != nil {
			return r.err
		}
		defer r.c.Close()
		return r.c.Ping(ctx)
	}
}
