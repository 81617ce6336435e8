// Package clock is where the stack reads time and waits on it: cache
// expiry, kvstore TTLs, breaker and probe cooldowns, and retry backoff.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock is a time source. A nil *Clock is the wall clock, so a zero-valued
// field needs no default; Manual makes one that moves only when told to.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// Manual starts a clock at t that moves only by Advance or Sleep.
func Manual(t time.Time) *Clock { return &Clock{now: t} }

// Now returns the current time.
func (c *Clock) Now() time.Time {
	if c == nil {
		return time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves a manual clock forward by d and returns the new time.
func (c *Clock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// Sleep waits d or until ctx is done, then returning ctx's error. A manual
// clock does not wait: it moves by d at once, unless ctx is already done.
func (c *Clock) Sleep(ctx context.Context, d time.Duration) error {
	if c != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.Advance(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
