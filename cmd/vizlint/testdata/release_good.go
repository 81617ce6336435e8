package fixture

import (
	"context"
	"errors"
)

var errGoodFixture = errors.New("fixture")

type gconn struct{}

func (c *gconn) ping() {}

type gpool struct{}

func (p *gpool) Acquire(ctx context.Context) (*gconn, error) { return nil, nil }
func (p *gpool) Release(c *gconn)                            {}
func (p *gpool) Discard(c *gconn)                            {}

// ReleasedOnEveryPath pairs Acquire with Release or Discard on every
// path that holds a connection.
func ReleasedOnEveryPath(ctx context.Context, p *gpool, broken bool) error {
	c, err := p.Acquire(ctx)
	if err != nil {
		return err
	}
	if broken {
		p.Discard(c)
		return errGoodFixture
	}
	p.Release(c)
	return nil
}

// HandedToCallback escapes the connection into fn, which owns it from
// then on.
func HandedToCallback(ctx context.Context, p *gpool, fn func(*gconn)) error {
	c, err := p.Acquire(ctx)
	if err != nil {
		return err
	}
	fn(c)
	return nil
}

type gcall struct{ done chan struct{} }

func (c *gcall) Wait(ctx context.Context) error { return nil }

type gflight struct{}

func (f *gflight) Join(key string) (*gcall, bool)         { return &gcall{}, true }
func (f *gflight) Finish(key string, c *gcall, err error) {}

// LeaderFinishesOnEveryPath mirrors the single-flight protocol: a follower
// waits, a leader finishes the call whether its work failed or not.
func (f *gflight) LeaderFinishesOnEveryPath(ctx context.Context, key string, work func() error) error {
	c, leader := f.Join(key)
	if !leader {
		return c.Wait(ctx)
	}
	if err := work(); err != nil {
		f.Finish(key, c, err)
		return err
	}
	f.Finish(key, c, nil)
	return nil
}

type gbreaker struct{}

func (b *gbreaker) allow() (ok, probe bool) { return true, false }
func (b *gbreaker) releaseProbe()           {}
func (b *gbreaker) RecordFailure()          {}

// ProbeSettled releases the probe slot on every outcome: RecordFailure on
// error, releaseProbe when no outcome is recorded, and the !allowed and
// !probe branches never held a slot.
func (b *gbreaker) ProbeSettled(attempt func() error) error {
	allowed, probe := b.allow()
	if !allowed {
		return errGoodFixture
	}
	if err := attempt(); err != nil {
		b.RecordFailure()
		return err
	}
	if probe {
		b.releaseProbe()
	}
	return nil
}

type gwaiter struct{ ready chan struct{} }

type gsched struct{}

func (s *gsched) enqueueLocked(class int, user, sess string) *gwaiter   { return &gwaiter{} }
func (s *gsched) removeLocked(class int, user, sess string, w *gwaiter) {}

// WaitOrRemove mirrors the Admit protocol: the grant path hands the
// waiter off by waiting on its ready channel, and the cancel path takes
// it back out of the ring.
func (s *gsched) WaitOrRemove(ctx context.Context, class int, user, sess string) error {
	w := s.enqueueLocked(class, user, sess)
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.removeLocked(class, user, sess, w)
		return ctx.Err()
	}
}
