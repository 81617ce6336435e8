package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"vizq/internal/clock"
)

// errTransport is shaped like a dropped connection, so Classify calls it
// Transport and Do retries it.
var errTransport = fmt.Errorf("transport: peer reset: %w", io.ErrUnexpectedEOF)
var errQuery = errors.New("remote: no such column")

// manualClock runs r's breaker cooldown and retry backoff on one manual
// clock: a backoff moves it at once instead of waiting.
func manualClock(r *Resilience) *clock.Clock {
	r.br.clock = clock.Manual(time.Unix(3_000_000, 0))
	return r.br.clock
}

func TestDoRetriesTransportErrorsThenSucceeds(t *testing.T) {
	r := New(Config{MaxAttempts: 3, Seed: 7})
	clk := manualClock(r)
	start := clk.Now()
	calls := 0
	got, err := Do(context.Background(), r, func(ctx context.Context) (int, error) {
		calls++
		if calls < 3 {
			return 0, errTransport
		}
		return 42, nil
	})
	if err != nil || got != 42 {
		t.Fatalf("Do = (%d, %v), want (42, nil)", got, err)
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3", calls)
	}
	// Two backoffs, each at least BaseBackoff, ran on the manual clock.
	if moved := clk.Now().Sub(start); moved < 2*r.cfg.BaseBackoff {
		t.Fatalf("clock moved %v across two backoffs, want >= %v", moved, 2*r.cfg.BaseBackoff)
	}
	if r.Breaker().State() != Closed {
		t.Fatal("two transient failures below the window tripped the breaker")
	}
}

func TestDoGivesUpAfterMaxAttempts(t *testing.T) {
	r := New(Config{MaxAttempts: 3, Seed: 7, BreakerMinSamples: 100})
	manualClock(r)
	calls := 0
	_, err := Do(context.Background(), r, func(ctx context.Context) (int, error) {
		calls++
		return 0, errTransport
	})
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3", calls)
	}
	if !errors.Is(err, errTransport) {
		t.Fatalf("give-up error %v does not wrap the cause", err)
	}
}

func TestDoDoesNotRetryQueryErrors(t *testing.T) {
	r := New(Config{MaxAttempts: 5, Seed: 7})
	manualClock(r)
	calls := 0
	_, err := Do(context.Background(), r, func(ctx context.Context) (int, error) {
		calls++
		return 0, errQuery
	})
	if calls != 1 {
		t.Fatalf("query-level error retried: fn ran %d times", calls)
	}
	if !errors.Is(err, errQuery) {
		t.Fatalf("err = %v, want the query error", err)
	}
	// Query errors mean the backend is alive: breaker records success.
	if st := r.Breaker().Stats(); st.State != Closed || st.Opened != 0 {
		t.Fatalf("breaker disturbed by a query error: %+v", st)
	}
}

func TestDoHonorsDeadlineBudget(t *testing.T) {
	// Backoffs are at least 50ms; with only 5ms of budget left the retry
	// must be abandoned before sleeping, not attempted into a dead ctx.
	r := New(Config{MaxAttempts: 10, BaseBackoff: 50 * time.Millisecond, Seed: 7, BreakerMinSamples: 100})
	clk := manualClock(r)
	before := clk.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	calls := 0
	start := time.Now()
	_, err := Do(ctx, r, func(ctx context.Context) (int, error) {
		calls++
		return 0, errTransport
	})
	if err == nil {
		t.Fatal("Do succeeded with a failing fn")
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times with no budget for a retry, want 1", calls)
	}
	if moved := clk.Now().Sub(before); moved != 0 {
		t.Fatalf("slept %v despite the deadline budget", moved)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("gave up after %v, should return well before the nominal backoff", elapsed)
	}
}

func TestDoStopsWhenCallerContextDies(t *testing.T) {
	r := New(Config{MaxAttempts: 5, Seed: 7, BreakerMinSamples: 100})
	manualClock(r)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := Do(ctx, r, func(ctx context.Context) (int, error) {
		calls++
		cancel()
		return 0, errTransport
	})
	if calls != 1 {
		t.Fatalf("fn ran %d times after the caller cancelled, want 1", calls)
	}
	if err == nil {
		t.Fatal("Do returned nil after caller cancellation")
	}
}

func TestDoAttemptTimeoutBoundsEachTry(t *testing.T) {
	// Each attempt gets its own 20ms deadline carved from a roomy caller
	// budget; a stalling fn must be cut off per attempt, so all three
	// attempts run (the caller ctx survives).
	r := New(Config{MaxAttempts: 3, AttemptTimeout: 20 * time.Millisecond,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		Seed: 7, BreakerMinSamples: 100})
	calls := 0
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := Do(ctx, r, func(actx context.Context) (int, error) {
		calls++
		<-actx.Done() // stall until the per-attempt deadline fires
		return 0, fmt.Errorf("stalled: %w", errTransport)
	})
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3 (per-attempt timeout must not kill the caller ctx)", calls)
	}
	if err == nil || ctx.Err() != nil {
		t.Fatalf("err = %v, caller ctx err = %v", err, ctx.Err())
	}
}

func TestDoFastFailsWhenBreakerOpen(t *testing.T) {
	r := New(Config{MaxAttempts: 1, BreakerWindow: 4, BreakerMinSamples: 2,
		BreakerFailureRatio: 0.5, BreakerOpenFor: time.Hour, Seed: 7})
	manualClock(r)
	for i := 0; i < 2; i++ {
		if _, err := Do(context.Background(), r, func(ctx context.Context) (int, error) {
			return 0, errTransport
		}); err == nil {
			t.Fatal("failing fn reported success")
		}
	}
	if r.Breaker().State() != Open {
		t.Fatalf("breaker state = %v, want open", r.Breaker().State())
	}
	calls := 0
	start := time.Now()
	_, err := Do(context.Background(), r, func(ctx context.Context) (int, error) {
		calls++
		return 7, nil
	})
	if calls != 0 {
		t.Fatal("open breaker let the request through")
	}
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("fast-fail took %v", elapsed)
	}
}

func TestHalfOpenProbeSlotReleasedOnCallerExpiry(t *testing.T) {
	r := New(Config{MaxAttempts: 1, BreakerWindow: 4, BreakerMinSamples: 2,
		BreakerFailureRatio: 0.5, BreakerOpenFor: time.Hour, Seed: 7})
	clk := manualClock(r)
	for i := 0; i < 2; i++ {
		if _, err := Do(context.Background(), r, func(ctx context.Context) (int, error) {
			return 0, errTransport
		}); err == nil {
			t.Fatal("failing fn reported success")
		}
	}
	if r.Breaker().State() != Open {
		t.Fatalf("breaker state = %v, want open", r.Breaker().State())
	}
	// The cooldown elapses and the next request is admitted as the one
	// half-open probe — but its caller gives up mid-attempt, so Do has no
	// outcome to record on the breaker.
	clk.Advance(2 * time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	if _, err := Do(ctx, r, func(context.Context) (int, error) {
		calls++
		cancel()
		return 0, errTransport
	}); err == nil || calls != 1 {
		t.Fatalf("abandoned probe: calls = %d, err = %v", calls, err)
	}
	if st := r.Breaker().State(); st != HalfOpen {
		t.Fatalf("state after abandoned probe = %v, want half-open", st)
	}
	// The probe slot must have been returned: the next request probes the
	// healed backend and closes the circuit, instead of the breaker staying
	// wedged in half-open fast-failing everything forever.
	got, err := Do(context.Background(), r, func(context.Context) (int, error) {
		return 9, nil
	})
	if err != nil || got != 9 {
		t.Fatalf("breaker wedged in half-open: Do = (%d, %v)", got, err)
	}
	if st := r.Breaker().State(); st != Closed {
		t.Fatalf("state after healthy probe = %v, want closed", st)
	}
}

func TestDefaultSeedIsPerInstance(t *testing.T) {
	// Without an explicit Seed, identically-configured instances must not
	// share a jitter sequence: lockstep backoff across sources defeats
	// decorrelated jitter exactly when a shared backend is struggling.
	// (Entropy seeds make a collision astronomically unlikely.)
	a := New(Config{})
	b := New(Config{})
	if a.cfg.Seed == b.cfg.Seed {
		t.Fatalf("default seeds collide: %d", a.cfg.Seed)
	}
	prevA, prevB := a.cfg.BaseBackoff, b.cfg.BaseBackoff
	same := true
	for i := 0; i < 8; i++ {
		prevA, prevB = a.nextBackoff(prevA), b.nextBackoff(prevB)
		if prevA != prevB {
			same = false
		}
	}
	if same {
		t.Fatal("two default-seeded instances produced identical backoff sequences")
	}
}

func TestNilResilienceIsPassthrough(t *testing.T) {
	calls := 0
	got, err := Do(context.Background(), nil, func(ctx context.Context) (string, error) {
		calls++
		return "ok", nil
	})
	if err != nil || got != "ok" || calls != 1 {
		t.Fatalf("nil passthrough = (%q, %v) after %d calls", got, err, calls)
	}
	var r *Resilience
	if r.ServeStale() {
		t.Fatal("nil Resilience reports ServeStale")
	}
}

func TestBackoffDecorrelatedJitterIsCappedAndSeeded(t *testing.T) {
	mk := func() []time.Duration {
		r := New(Config{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Seed: 99})
		var out []time.Duration
		prev := r.cfg.BaseBackoff
		for i := 0; i < 32; i++ {
			prev = r.nextBackoff(prev)
			out = append(out, prev)
		}
		return out
	}
	a, b := mk(), mk()
	grew := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff %d not reproducible: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 10*time.Millisecond || a[i] > 80*time.Millisecond {
			t.Fatalf("backoff %d = %v outside [base, cap]", i, a[i])
		}
		if a[i] > 30*time.Millisecond {
			grew = true
		}
	}
	if !grew {
		t.Fatal("backoff never grew beyond 3x base: jitter looks degenerate")
	}
}
