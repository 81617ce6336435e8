package resilience

import (
	"sync"
	"time"

	"vizq/internal/obs"
)

// Breaker transition metrics, shared process-wide.
var (
	cBreakerOpened   = obs.C("resilience.breaker.opened")
	cBreakerHalfOpen = obs.C("resilience.breaker.half_open")
	cBreakerClosed   = obs.C("resilience.breaker.closed")
	cBreakerFastFail = obs.C("resilience.breaker.fast_fails")
)

// State is a circuit breaker state.
type State int

const (
	// Closed passes every request through (normal operation).
	Closed State = iota
	// Open fails requests fast without touching the backend.
	Open
	// HalfOpen lets one probe at a time through to test recovery.
	HalfOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerStats snapshots a breaker's activity.
type BreakerStats struct {
	State     State
	Opened    int64 // closed/half-open -> open transitions
	FastFails int64 // requests rejected without reaching the backend
}

// Breaker is a per-data-source circuit breaker: a rolling outcome window
// trips it open when the transport failure rate crosses a threshold, open
// fails fast for a cooldown, and half-open admits one probe at a time,
// whose outcome closes or re-opens the circuit. The point (Dean &
// Barroso's tail-at-scale argument, applied to the Data Server's 40+
// flaky backends) is that during an outage, failing in microseconds beats
// queueing every request on a dead pool until its deadline.
type Breaker struct {
	mu sync.Mutex

	window   []bool // ring of attempt outcomes, true = failure
	idx      int
	count    int
	failures int

	state    State
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	minSamples int
	ratio      float64
	openFor    time.Duration

	// The live form of BreakerStats, each rolled up into its breaker
	// metric.
	opened, fastFails obs.Counter

	now func() time.Time
}

// newBreaker builds a breaker from a validated Config.
func newBreaker(cfg Config) *Breaker {
	b := &Breaker{
		window:     make([]bool, cfg.BreakerWindow),
		minSamples: cfg.BreakerMinSamples,
		ratio:      cfg.BreakerFailureRatio,
		openFor:    cfg.BreakerOpenFor,
		now:        time.Now,
	}
	b.opened.RollUp(cBreakerOpened)
	b.fastFails.RollUp(cBreakerFastFail)
	return b
}

// allow additionally reports whether the admission consumed a half-open
// probe slot. Only RecordSuccess/RecordFailure exit the half-open state,
// so a caller whose attempt ends with no outcome to record (e.g. its own
// context expired) must return the slot via releaseProbe — otherwise the
// slot leaks and the breaker wedges in half-open, fast-failing forever.
func (b *Breaker) allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true, false
	case Open:
		if b.now().Sub(b.openedAt) < b.openFor {
			b.fastFails.Inc()
			return false, false
		}
		b.state = HalfOpen
		b.probing = true
		cBreakerHalfOpen.Inc()
		return true, true
	default: // HalfOpen
		if !b.probing {
			b.probing = true
			return true, true
		}
		b.fastFails.Inc()
		return false, false
	}
}

// releaseProbe returns a half-open probe slot admitted by allow when the
// attempt produced no outcome. A Record* from another caller may have
// already moved the state on (clearing the slot), in which case there is
// nothing to return.
func (b *Breaker) releaseProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// RecordSuccess reports a request that reached the backend and got an
// answer (including query-level errors: the backend is alive).
func (b *Breaker) RecordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.push(false)
	case HalfOpen:
		// One healthy probe closes the circuit and resets the window.
		b.toClosedLocked()
	}
}

// RecordFailure reports a transport-classified failure. In the closed
// state it may trip the circuit; in half-open it re-opens immediately.
func (b *Breaker) RecordFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.push(true)
		if b.count >= b.minSamples && float64(b.failures)/float64(b.count) >= b.ratio {
			b.toOpenLocked()
		}
	case HalfOpen:
		b.toOpenLocked()
	}
}

// State returns the current state (transitioning open->half-open only
// happens on admission, so a cooled-down open circuit still reports Open).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats snapshots counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{State: b.state, Opened: b.opened.Value(), FastFails: b.fastFails.Value()}
}

func (b *Breaker) push(failure bool) {
	if b.count == len(b.window) {
		if b.window[b.idx] {
			b.failures--
		}
	} else {
		b.count++
	}
	b.window[b.idx] = failure
	if failure {
		b.failures++
	}
	b.idx = (b.idx + 1) % len(b.window)
}

func (b *Breaker) toOpenLocked() {
	b.state = Open
	b.openedAt = b.now()
	b.probing = false
	b.opened.Inc()
}

func (b *Breaker) toClosedLocked() {
	b.state = Closed
	b.probing = false
	b.idx, b.count, b.failures = 0, 0, 0
	for i := range b.window {
		b.window[i] = false
	}
	cBreakerClosed.Inc()
}
