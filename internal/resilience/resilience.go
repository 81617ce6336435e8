// Package resilience absorbs transient backend faults in the query path:
// retry with capped exponential backoff and decorrelated jitter for
// transport-classified errors, a per-data-source circuit breaker that
// fails fast during outages instead of queueing on a dead pool, and the
// policy hook the pipeline uses to serve stale cache entries when the
// backend is unreachable (graceful degradation). The paper's Data Server
// fronts 40+ customer-operated backends (Sect. 5); tail-at-scale practice
// says the service layer — not the user — must absorb their flakiness.
//
// Retries honor the caller's context deadline as a hard budget: a retry
// whose backoff would overrun the deadline is not attempted, and each
// attempt can be bounded by its own AttemptTimeout so one stalled round
// trip cannot consume the whole budget.
package resilience

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vizq/internal/obs"
)

// Retry metrics, shared process-wide.
var (
	cRetryAttempts = obs.C("resilience.retry.attempts")
	cRetryGiveups  = obs.C("resilience.retry.giveups")
)

// ErrOpen is returned (wrapped) when the circuit breaker rejects a
// request without attempting it.
var ErrOpen = errors.New("resilience: circuit open")

// Config tunes retry, breaker and degradation policy. The zero value of
// any field falls back to the default noted on it.
type Config struct {
	// MaxAttempts bounds total tries per request, including the first
	// (default 3).
	MaxAttempts int
	// BaseBackoff is the first retry's nominal delay (default 10ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (default 1s).
	MaxBackoff time.Duration
	// AttemptTimeout bounds each individual attempt (0 = only the
	// caller's deadline applies). Without it, one stalled attempt eats
	// the whole retry budget — set it well below the caller's deadline.
	AttemptTimeout time.Duration
	// Seed fixes the jitter sequence for reproducible tests (0 = a unique
	// per-instance random seed, so identically-configured sources retrying
	// against one struggling backend do not back off in lockstep).
	Seed int64

	// BreakerWindow is the rolling outcome window size (default 32).
	BreakerWindow int
	// BreakerMinSamples is the minimum window fill before the failure
	// ratio is evaluated (default 8).
	BreakerMinSamples int
	// BreakerFailureRatio opens the circuit when failures/window reaches
	// it (default 0.5).
	BreakerFailureRatio float64
	// BreakerOpenFor is the open-state cooldown before probing
	// (default 2s).
	BreakerOpenFor time.Duration

	// ServeStale lets the pipeline answer from an expired cache entry
	// (within its StaleUntil grace window) when the breaker is open or
	// retries are exhausted.
	ServeStale bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 32
	}
	if c.BreakerMinSamples <= 0 {
		c.BreakerMinSamples = 8
	}
	if c.BreakerFailureRatio <= 0 {
		c.BreakerFailureRatio = 0.5
	}
	if c.BreakerOpenFor <= 0 {
		c.BreakerOpenFor = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = entropySeed()
	}
	return c
}

// seedSalt differentiates fallback seeds minted within one clock tick.
var seedSalt atomic.Int64

// entropySeed mints a per-instance jitter seed. A deterministic default
// (shared by every instance with the same config) would make concurrent
// sources retry in lockstep, defeating decorrelated jitter exactly when
// it matters — during a shared backend's outage.
func entropySeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		return int64(binary.LittleEndian.Uint64(b[:])) | 1
	}
	return (time.Now().UnixNano() ^ seedSalt.Add(0x9e3779b9)) | 1
}

// Resilience wires a retry policy and one circuit breaker for one data
// source. Safe for concurrent use.
type Resilience struct {
	cfg Config
	br  *Breaker

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a Resilience from cfg.
func New(cfg Config) *Resilience {
	cfg = cfg.withDefaults()
	return &Resilience{
		cfg: cfg,
		br:  newBreaker(cfg),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Breaker exposes the data source's circuit breaker (introspection,
// tests, loadsim reporting).
func (r *Resilience) Breaker() *Breaker { return r.br }

// ServeStale reports whether degraded reads from stale cache entries are
// allowed.
func (r *Resilience) ServeStale() bool { return r != nil && r.cfg.ServeStale }

// nextBackoff computes a decorrelated-jitter delay: uniform in
// [base, 3*prev), capped. prev carries across attempts of one request.
func (r *Resilience) nextBackoff(prev time.Duration) time.Duration {
	base := r.cfg.BaseBackoff
	hi := 3 * prev
	if hi <= base {
		hi = base + 1
	}
	r.mu.Lock()
	d := base + time.Duration(r.rng.Int63n(int64(hi-base)))
	r.mu.Unlock()
	if d > r.cfg.MaxBackoff {
		d = r.cfg.MaxBackoff
	}
	return d
}

// Do runs fn under the breaker and retry policy. fn is handed a context
// that may carry a per-attempt deadline. Transport-classified errors are
// retried with backoff while attempts and the caller's deadline budget
// last; other errors (and caller-context expiry) return immediately. A
// breaker rejection returns an error wrapping ErrOpen without calling fn.
func Do[T any](ctx context.Context, r *Resilience, fn func(context.Context) (T, error)) (T, error) {
	var zero T
	if r == nil {
		return fn(ctx)
	}
	backoff := r.cfg.BaseBackoff
	for attempt := 1; ; attempt++ {
		allowed, probe := r.br.allow()
		if !allowed {
			// The span makes fast-fails visible in per-stage traces: its
			// near-zero duration is the point, vs. a timeout-length wait.
			_, sp := obs.StartSpan(ctx, obs.SpanBreaker)
			sp.Finish()
			return zero, fmt.Errorf("resilience: data source unavailable (breaker): %w", ErrOpen)
		}

		v, err := attemptOne(ctx, r, attempt, fn)
		if err == nil {
			r.br.RecordSuccess()
			return v, nil
		}
		if ctx.Err() != nil {
			// The caller's own budget expired; the backend was not
			// necessarily at fault, so no outcome is recorded — but an
			// admitted half-open probe slot must be returned, or the breaker
			// wedges in half-open with no probe left to close or re-open it.
			if probe {
				r.br.releaseProbe()
			}
			return zero, err
		}
		if !Classify(ctx, err).ConnSuspect() {
			// The backend answered with a well-formed error: it is alive.
			r.br.RecordSuccess()
			return zero, err
		}
		r.br.RecordFailure()
		if attempt >= r.cfg.MaxAttempts {
			cRetryGiveups.Inc()
			return zero, fmt.Errorf("resilience: %d attempts failed: %w", attempt, err)
		}
		backoff = r.nextBackoff(backoff)
		if deadline, ok := ctx.Deadline(); ok && time.Now().Add(backoff).After(deadline) {
			// The backoff would overrun the caller's deadline: give up now
			// rather than sleeping into a guaranteed context error.
			cRetryGiveups.Inc()
			return zero, fmt.Errorf("resilience: retry budget exhausted after %d attempts: %w", attempt, err)
		}
		cRetryAttempts.Inc()
		if err := r.br.clock.Sleep(ctx, backoff); err != nil {
			return zero, err
		}
	}
}

// attemptOne runs one try of fn under the per-attempt timeout, spanning
// retries (attempt >= 2) so traces show where backoff time went.
func attemptOne[T any](ctx context.Context, r *Resilience, n int, fn func(context.Context) (T, error)) (T, error) {
	if n > 1 {
		var sp *obs.Span
		ctx, sp = obs.StartSpan(ctx, obs.SpanRetry)
		defer sp.Finish()
	}
	actx := ctx
	if r.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.cfg.AttemptTimeout)
		defer cancel()
	}
	return fn(actx)
}
