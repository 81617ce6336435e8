// Node health tracking for the balancer. The balancer's score (live
// connections + advisory shed pressure) assumes every node is reachable;
// a crashed or restarting node keeps its score low precisely because
// nothing can connect to it, so a load-only balancer steers *more*
// traffic at a dead node and every dispatched session burns a full dial
// timeout before erroring to the user. Health tracking closes that hole
// with a per-node state machine
//
//	healthy → suspect → ejected → probing → healthy
//
// driven passively by transport-classified error streaks reported from
// the dispatch path (ReportResult) and actively by cheap probes
// (MaybeProbe). Ejected nodes are excluded from PickIndex; recovery
// mirrors resilience.Breaker's half-open semantics — after a cooldown a
// single probe (one ping on a fresh connection, never a pooled slot) is
// admitted, and only its success re-admits the node.
// A node administratively marked draining (the digest bit peers publish
// before a rolling restart) is excluded the same way but never probed:
// it will come back when its operator says so, not when a ping succeeds.
//
// Invariant: the fleet never goes fully dark by its own bookkeeping.
// When every node is ejected or draining, PickIndex falls back to plain
// least-loaded scoring over all nodes — a wrong guess against a dead
// fleet costs one dial timeout, while refusing to dispatch at all turns
// a transient full outage into a permanent one.
package connection

import (
	"context"
	"sync"
	"time"

	"vizq/internal/clock"
	"vizq/internal/obs"
)

// Balancer health metrics, shared process-wide.
var (
	cHealthSuspect   = obs.C("balancer.health.suspect")
	cHealthEject     = obs.C("balancer.health.eject")
	cHealthProbe     = obs.C("balancer.health.probe")
	cHealthProbeFail = obs.C("balancer.health.probe_fail")
	cHealthReadmit   = obs.C("balancer.health.readmit")
	gHealthEjected   = obs.G("balancer.health.ejected")
)

// NodeState is one node's position in the health state machine.
type NodeState int

const (
	// NodeHealthy receives traffic normally.
	NodeHealthy NodeState = iota
	// NodeSuspect receives traffic at a score penalty: one more failure
	// streak step ejects it, one success clears it.
	NodeSuspect
	// NodeEjected receives no traffic until a probe succeeds.
	NodeEjected
	// NodeProbing has one half-open probe in flight; its outcome decides
	// between re-admission and renewed ejection.
	NodeProbing
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case NodeHealthy:
		return "healthy"
	case NodeSuspect:
		return "suspect"
	case NodeEjected:
		return "ejected"
	case NodeProbing:
		return "probing"
	}
	return "unknown"
}

const (
	// probeTimeout bounds one active probe's dial+ping round trip.
	probeTimeout = time.Second
	// suspectPenalty scales the score penalty of suspect and probing
	// nodes, in units of the pool's capacity: 1.0 would make a suspect
	// node cost as much as a fully busy one.
	suspectPenalty = 0.5
)

// HealthConfig tunes the balancer's node health tracking. Zero fields
// take the defaults noted on them.
type HealthConfig struct {
	// SuspectAfter is the consecutive transport-failure streak that marks
	// a node suspect (default 1).
	SuspectAfter int
	// EjectAfter is the streak that ejects a node (default 3).
	EjectAfter int
	// ProbeAfter is the cooldown an ejected node sits out before a probe
	// may be admitted (default 1s).
	ProbeAfter time.Duration
	// Clock times the probe cooldown (nil: the wall clock).
	Clock *clock.Clock
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.EjectAfter < c.SuspectAfter {
		c.EjectAfter = c.SuspectAfter
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = time.Second
	}
	return c
}

// nodeHealth is one node's tracked state.
type nodeHealth struct {
	state     NodeState
	streak    int       // consecutive transport failures
	ejectedAt time.Time // when the node last entered ejected
	probing   bool      // a half-open probe slot is claimed
	draining  bool      // administratively out of rotation (digest bit)
}

// healthTracker guards the per-node states. It is a separate lock from
// the pools so dispatch scoring and health reports never contend with
// pool internals.
type healthTracker struct {
	mu    sync.Mutex
	cfg   HealthConfig
	nodes []nodeHealth
}

func newHealthTracker(n int, cfg HealthConfig) *healthTracker {
	return &healthTracker{cfg: cfg.withDefaults(), nodes: make([]nodeHealth, n)}
}

// ConfigureHealth replaces the balancer's health tuning, resetting all
// nodes to healthy. Call before serving traffic.
func (b *Balancer) ConfigureHealth(cfg HealthConfig) {
	h := b.health
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cfg = cfg.withDefaults()
	for i := range h.nodes {
		h.nodes[i] = nodeHealth{draining: h.nodes[i].draining}
	}
	gHealthEjected.Set(0)
}

// State reports node i's health state.
func (b *Balancer) State(i int) NodeState {
	h := b.health
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= len(h.nodes) {
		return NodeHealthy
	}
	return h.nodes[i].state
}

// Routable reports whether dispatch may steer traffic to node i: not
// ejected and not draining. Probing and suspect nodes are routable (at a
// score penalty) — a probe must be able to reach the node, and a suspect
// is still serving.
func (b *Balancer) Routable(i int) bool {
	h := b.health
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.routableLocked(i)
}

func (h *healthTracker) routableLocked(i int) bool {
	if i < 0 || i >= len(h.nodes) {
		return false
	}
	n := &h.nodes[i]
	return !n.draining && n.state != NodeEjected
}

// SetDraining marks node i administratively out of rotation (true) or
// back in (false). Draining is orthogonal to the failure-driven states:
// it is set from the drain bit in peers' load digests, and clearing it
// restores whatever failure state the node was in.
func (b *Balancer) SetDraining(i int, on bool) {
	h := b.health
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= len(h.nodes) {
		return
	}
	h.nodes[i].draining = on
}

// NodeDraining reports node i's administrative drain bit.
//
//vizlint:allow unused -- connection and clustertest tests assert the drain bit
func (b *Balancer) NodeDraining(i int) bool {
	h := b.health
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= len(h.nodes) {
		return false
	}
	return h.nodes[i].draining
}

// ReportResult feeds one dispatch outcome into node i's health state.
// Transport-classified errors extend the failure streak (suspect at
// SuspectAfter, ejected at EjectAfter); anything else — success or a
// query-level error, which proves the node answered — resets it. Callers
// whose own context was canceled should not report the resulting error:
// it says nothing about the node. A failure while probing re-ejects the
// node and restarts its cooldown.
func (b *Balancer) ReportResult(i int, err error) {
	h := b.health
	failure := IsTransport(err)
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= len(h.nodes) {
		return
	}
	n := &h.nodes[i]
	if !failure {
		n.streak = 0
		switch n.state {
		case NodeSuspect:
			n.state = NodeHealthy
		case NodeProbing:
			// The half-open probe came back healthy: re-admit.
			n.state = NodeHealthy
			n.probing = false
			cHealthReadmit.Inc()
			h.updateEjectedGaugeLocked()
		}
		return
	}
	n.streak++
	switch n.state {
	case NodeHealthy, NodeSuspect:
		if n.streak >= h.cfg.EjectAfter {
			h.ejectLocked(n)
		} else if n.state == NodeHealthy && n.streak >= h.cfg.SuspectAfter {
			n.state = NodeSuspect
			cHealthSuspect.Inc()
		}
	case NodeProbing:
		// The probe failed: back to ejected, cooldown restarted.
		n.probing = false
		cHealthProbeFail.Inc()
		h.ejectLocked(n)
	case NodeEjected:
		// A straggling in-flight request failed after ejection; nothing
		// new to learn.
	}
}

// ejectLocked moves a node to ejected and restarts its probe cooldown.
func (h *healthTracker) ejectLocked(n *nodeHealth) {
	n.state = NodeEjected
	n.ejectedAt = h.cfg.Clock.Now()
	cHealthEject.Inc()
	h.updateEjectedGaugeLocked()
}

func (h *healthTracker) updateEjectedGaugeLocked() {
	var ejected int64
	for i := range h.nodes {
		if h.nodes[i].state == NodeEjected {
			ejected++
		}
	}
	gHealthEjected.Set(ejected)
}

// acquireProbeSlot claims node i's half-open probe slot if the node is
// ejected, past its cooldown, not draining, and no probe is in flight.
func (h *healthTracker) acquireProbeSlot(i int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= len(h.nodes) {
		return false
	}
	n := &h.nodes[i]
	if n.draining || n.state != NodeEjected || n.probing {
		return false
	}
	if h.cfg.Clock.Now().Sub(n.ejectedAt) < h.cfg.ProbeAfter {
		return false
	}
	n.state = NodeProbing
	n.probing = true
	h.updateEjectedGaugeLocked()
	return true
}

// MaybeProbe actively probes node i if it is ejected and due: one dial
// plus one ping on a fresh connection (never a pooled slot — probes must
// stay cheap and must not contend with admitted work). It returns true
// when a probe ran, false when the node was not due. The probe's outcome
// drives the state machine exactly like a dispatched request's would:
// success re-admits, failure re-ejects with a fresh cooldown.
func (b *Balancer) MaybeProbe(ctx context.Context, i int) bool {
	if !b.health.acquireProbeSlot(i) {
		return false
	}
	b.probe(ctx, i)
	return true
}

// probe runs the dial+ping round trip against node i and reports it.
func (b *Balancer) probe(ctx context.Context, i int) {
	_, sp := obs.StartSpan(ctx, obs.SpanHealthProbe)
	defer sp.Finish()
	cHealthProbe.Inc()
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	b.ReportResult(i, pingNode(pctx, b.pools[i].Addr()))
}
