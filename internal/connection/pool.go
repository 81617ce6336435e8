// Package connection manages pooled connections to remote data sources
// (Sect. 3.5): opening a connection and retrieving metadata is costly, so
// connections are pooled and kept around even when idle, until they break
// or the pool closes. Queries from different components are multiplexed
// across the pool's connections regardless of their remote session state.
package connection

import (
	"context"
	"errors"
	"sync"
	"time"

	"vizq/internal/obs"
	"vizq/internal/remote"
	"vizq/internal/resilience"
)

// Pool metrics, shared process-wide across pools.
var (
	mWaitNS   = obs.H("pool.acquire.wait.ns")  // queue wait only (capacity contention)
	mTotalNS  = obs.H("pool.acquire.total.ns") // full Acquire latency incl. dial time
	gLive     = obs.G("pool.live")
	cDials    = obs.C("pool.dials")
	cDialErrs = obs.C("pool.dial_errors")
	cReuses   = obs.C("pool.reuses")
	cEvicts   = obs.C("pool.evictions")
	cDiscards = obs.C("pool.discards")
)

// PoolConfig tunes a pool.
type PoolConfig struct {
	// Max bounds the number of live connections (the concurrency the data
	// source receives).
	Max int
}

// Stats counts pool activity. Successful dials split exactly into the live
// connections plus the retired ones: Dials == Live + Evictions + Discards.
type Stats struct {
	Dials      int64 // successful dials
	DialErrors int64 // failed dial attempts (no connection resulted)
	Reuses     int64
	Evictions  int64 // healthy connections retired when the pool closed
	Discards   int64 // broken connections dropped after a transport error
}

// Pool maintains connections to one data source.
type Pool struct {
	addr string
	cfg  PoolConfig

	mu   sync.Mutex
	idle []*remote.Conn
	live int
	// waiter is a broadcast generation channel: signal() closes it and
	// installs a fresh one, waking every blocked Acquire at once. A
	// buffered token channel is not enough — two releases racing two
	// blocked acquirers can drop the second token, leaving one waiter
	// asleep forever while an idle connection sits in the pool.
	waiter chan struct{}
	closed bool
	// The live form of Stats, each rolled up into its pool metric. The
	// counts in Dials == Live + Evictions + Discards move and are read
	// under mu.
	dials, dialErrors, reuses, evictions, discards obs.Counter

	// The last costWindow round trips, for Spread: fixed is each one's
	// round trip minus its statements' execution time, stmt the mean
	// execution time of its statements.
	fixed, stmt [costWindow]time.Duration
	samples     int
}

// NewPool creates a pool for the given server address.
func NewPool(addr string, cfg PoolConfig) *Pool {
	if cfg.Max <= 0 {
		cfg.Max = 1
	}
	p := &Pool{addr: addr, cfg: cfg, waiter: make(chan struct{})}
	p.dials.RollUp(cDials)
	p.dialErrors.RollUp(cDialErrs)
	p.reuses.RollUp(cReuses)
	p.evictions.RollUp(cEvicts)
	p.discards.RollUp(cDiscards)
	return p
}

// Addr returns the pooled server address.
func (p *Pool) Addr() string { return p.addr }

// Max returns the pool's live-connection bound (the concurrency the data
// source receives); the balancer scales pressure penalties by it.
func (p *Pool) Max() int { return p.cfg.Max }

// Stats snapshots counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Dials:      p.dials.Value(),
		DialErrors: p.dialErrors.Value(),
		Reuses:     p.reuses.Value(),
		Evictions:  p.evictions.Value(),
		Discards:   p.discards.Value(),
	}
}

// Acquire returns a connection, reusing an idle one, dialing a new one, or
// waiting for a release when the pool is at capacity.
func (p *Pool) Acquire(ctx context.Context) (*remote.Conn, error) {
	_, sp := obs.StartSpan(ctx, obs.SpanPoolAcquire)
	defer sp.Finish()
	start := time.Now()
	var dialDur time.Duration
	defer func() {
		// Wait time is what admission control estimates from: it must
		// measure capacity contention only, not how long a dial took.
		total := time.Since(start)
		mTotalNS.ObserveDuration(total)
		mWaitNS.ObserveDuration(total - dialDur)
	}()
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, errors.New("connection: pool closed")
		}
		if n := len(p.idle); n > 0 {
			c := p.idle[n-1]
			p.idle = p.idle[:n-1]
			p.reuses.Inc()
			p.mu.Unlock()
			return c, nil
		}
		if p.live < p.cfg.Max {
			p.live++
			p.mu.Unlock()
			dialStart := time.Now()
			c, err := remote.Dial(p.addr)
			dialDur += time.Since(dialStart)
			if err != nil {
				p.mu.Lock()
				p.live--
				p.dialErrors.Inc()
				p.mu.Unlock()
				p.signal()
				return nil, err
			}
			p.mu.Lock()
			p.dials.Inc()
			p.mu.Unlock()
			gLive.Add(1)
			return c, nil
		}
		// Capture the current generation channel under the lock: a release
		// racing this unlock closes this exact channel, so the wakeup
		// cannot be missed. After waking, loop and re-contend.
		ch := p.waiter
		p.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Release returns a connection to the pool. Broken connections (the remote
// client marks them closed on any transport error) are discarded; healthy
// ones released after the pool closed are evicted.
func (p *Pool) Release(c *remote.Conn) {
	p.mu.Lock()
	switch {
	case c.Closed():
		p.retireLocked(&p.discards)
	case p.closed:
		p.retireLocked(&p.evictions)
		c.Close()
	default:
		p.idle = append(p.idle, c)
	}
	p.mu.Unlock()
	p.signal()
}

// Discard drops a broken connection without pooling it.
func (p *Pool) Discard(c *remote.Conn) {
	p.mu.Lock()
	p.retireLocked(&p.discards)
	p.mu.Unlock()
	c.Close()
	p.signal()
}

// retireLocked takes one live connection out of the pool's books as either
// an eviction (healthy, retired at close) or a discard (broken) — the one
// place that keeps Dials == Live + Evictions + Discards.
func (p *Pool) retireLocked(c *obs.Counter) {
	p.live--
	c.Inc()
	gLive.Add(-1)
}

// signal broadcasts "capacity may be free" to every blocked Acquire by
// closing the current generation channel and installing a fresh one. All
// waiters wake and re-contend under the lock; losers capture the new
// generation and sleep again. Closing under the lock pairs with Acquire
// capturing p.waiter under the same lock — no wakeup can fall between.
func (p *Pool) signal() {
	p.mu.Lock()
	close(p.waiter)
	p.waiter = make(chan struct{})
	p.mu.Unlock()
}

// QueryMany runs stmts as one request on one pooled connection. The
// statements run one after another there, so however they are grouped the
// source never sees more than Max at once. A statement's own error leaves
// the connection in the pool; a transport error discards it, and the
// answers returned with it are the statements whose frames arrived.
func (p *Pool) QueryMany(ctx context.Context, stmts []string) ([]remote.Answer, error) {
	c, err := p.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	answers, err := c.QueryMany(ctx, stmts)
	if err != nil {
		p.Discard(c)
		return answers, err
	}
	p.Release(c)
	p.observe(time.Since(start), answers)
	return answers, nil
}

// costWindow is how many recent round trips Spread remembers.
const costWindow = 16

// observe records one round trip for Spread: what it cost beyond the
// server-reported execution of its statements, and what a statement took.
func (p *Pool) observe(rtt time.Duration, answers []remote.Answer) {
	if len(answers) == 0 {
		return
	}
	var run time.Duration
	for _, a := range answers {
		run += time.Duration(a.ExecNS)
	}
	p.mu.Lock()
	i := p.samples % costWindow
	p.fixed[i] = max(rtt-run, 0)
	p.stmt[i] = run / time.Duration(len(answers))
	p.samples++
	p.mu.Unlock()
}

// Spread says how many requests a wave of n statements should travel in.
// Statements sharing a request run one after another on one connection, so
// fewer requests save round trips and cost dynamic dispatch: it pays when a
// round trip's fixed cost — the windowed minimum of round trip minus
// execution time, the min-RTT filter of BBR — exceeds what a typical
// statement takes to execute. Then Spread returns min(n, Max): every
// connection the source allows gets one request. Otherwise, and before the
// pool has seen a round trip, it returns n: one statement per request.
func (p *Pool) Spread(n int) int {
	if n <= p.cfg.Max {
		return n
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k := min(p.samples, costWindow)
	if k == 0 {
		return n
	}
	fixed, stmt := p.fixed[0], time.Duration(0)
	for i := 0; i < k; i++ {
		fixed = min(fixed, p.fixed[i])
		stmt += p.stmt[i]
	}
	if fixed > stmt/time.Duration(k) {
		return p.cfg.Max
	}
	return n
}

// IsTransport reports whether err means the connection itself is suspect —
// the peer hung up, the socket misbehaved, or the request was abandoned
// mid-flight leaving a response frame potentially still on the wire — as
// opposed to a query-level error, where the server answered with a
// well-formed error response. It is resilience.Classify read without a
// caller context: the same rule resilience.Do retries by.
func IsTransport(err error) bool {
	return resilience.Classify(context.Background(), err).ConnSuspect()
}

// Close shuts the pool and all idle connections.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.live -= len(idle)
	p.evictions.Add(int64(len(idle)))
	p.mu.Unlock()
	gLive.Add(-int64(len(idle)))
	for _, c := range idle {
		c.Close()
	}
	// Wake blocked acquirers so they observe the closed pool immediately
	// instead of waiting out their contexts.
	p.signal()
}

// Live reports the number of open connections (idle + in use).
func (p *Pool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}
