package fixture

import (
	"context"
	"errors"
)

var errFixture = errors.New("fixture")

type rconn struct{}

func (c *rconn) ping() {}

type rpool struct{}

func (p *rpool) Acquire(ctx context.Context) (*rconn, error) { return nil, nil }
func (p *rpool) Release(c *rconn)                            {}
func (p *rpool) Discard(c *rconn)                            {}

// LeakOnEarlyReturn releases the connection on the happy path only; the
// bail-out leaks it. The Acquire error return itself is exempt — the
// connection was never produced there. (1 finding)
func LeakOnEarlyReturn(ctx context.Context, p *rpool, fail bool) error {
	c, err := p.Acquire(ctx) // want: release (connection leaked on the early return)
	if err != nil {
		return err
	}
	if fail {
		return errFixture
	}
	p.Release(c)
	return nil
}

// LeakOnFallThrough uses the connection but never returns it to the pool.
// (1 finding)
func LeakOnFallThrough(ctx context.Context, p *rpool) {
	c, _ := p.Acquire(ctx) // want: release (connection never returned)
	c.ping()
}

type fcall struct{ done chan struct{} }

func (c *fcall) Wait(ctx context.Context) error { return nil }

type flightFixture struct{}

func (f *flightFixture) Join(key string) (*fcall, bool)         { return &fcall{}, true }
func (f *flightFixture) Finish(key string, c *fcall, err error) {}

// LeaderForgetsFinish leads a single-flight call and returns without
// finishing it on the error path: every follower for that key waits on a
// call that never finishes. The follower branch is exempt — it leads
// nothing. (1 finding)
func (f *flightFixture) LeaderForgetsFinish(ctx context.Context, key string, fail bool) error {
	c, leader := f.Join(key) // want: release (leader never finishes the call)
	if !leader {
		return c.Wait(ctx)
	}
	if fail {
		return errFixture
	}
	f.Finish(key, c, nil)
	return nil
}

type probeBreaker struct{}

func (b *probeBreaker) allow() (ok, probe bool) { return true, true }
func (b *probeBreaker) releaseProbe()           {}
func (b *probeBreaker) RecordSuccess()          {}

// ProbeLeakOnEarlyReturn admits a half-open probe and bails without
// settling it: the breaker wedges in half-open. The !allowed return is
// exempt — no slot was admitted on that branch. (1 finding)
func (b *probeBreaker) ProbeLeakOnEarlyReturn(fail bool) error {
	allowed, probe := b.allow() // want: release (probe slot leaked on the early return)
	if !allowed {
		return errFixture
	}
	if fail {
		return errFixture
	}
	if probe {
		b.releaseProbe()
	}
	return nil
}

// DiscardedProbe drops the probe flag outright, so no caller can ever
// release the slot. (1 finding)
func (b *probeBreaker) DiscardedProbe() bool {
	ok, _ := b.allow() // want: release (probe result discarded)
	return ok
}

type qwaiter struct{ ready chan struct{} }

type qsched struct{}

func (s *qsched) enqueueLocked(class int, user, sess string) *qwaiter   { return &qwaiter{} }
func (s *qsched) removeLocked(class int, user, sess string, w *qwaiter) {}

// EnqueueForgetsRemove queues a waiter and bails on the shed path without
// dropping it from the ring: the dead entry eats a WRR turn forever and
// the next grant aimed at it vanishes. (1 finding)
func (s *qsched) EnqueueForgetsRemove(class int, user, sess string, shed bool) error {
	w := s.enqueueLocked(class, user, sess) // want: release (waiter left enqueued)
	if shed {
		return errFixture
	}
	s.removeLocked(class, user, sess, w)
	return nil
}
