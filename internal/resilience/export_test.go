package resilience

import "time"

// setClock pins the breaker's clock (tests).
func (b *Breaker) setClock(fn func() time.Time) {
	b.mu.Lock()
	b.now = fn
	b.mu.Unlock()
}

// Allow reports whether a request may proceed. Open circuits reject until
// the cooldown elapses, then transition to half-open and admit up to
// maxProbes concurrent probes.
func (b *Breaker) Allow() bool {
	// The caller must call RecordSuccess or RecordFailure for every
	// admitted request; either outcome releases the probe slot.
	ok, _ := b.allow()
	return ok
}
