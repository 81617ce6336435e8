package resilience

import (
	"testing"
	"time"

	"vizq/internal/clock"
)

// testBreaker builds a breaker on a manually advanced clock.
func testBreaker(cfg Config) (*Breaker, *clock.Clock) {
	b := newBreaker(cfg.withDefaults())
	b.clock = clock.Manual(time.Unix(1_000_000, 0))
	return b, b.clock
}

func TestBreakerOpensAtFailureRatio(t *testing.T) {
	b, _ := testBreaker(Config{BreakerWindow: 8, BreakerMinSamples: 4, BreakerFailureRatio: 0.5})
	// Three failures among three samples: below min samples, stays closed.
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.RecordFailure()
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v before min samples, want closed", got)
	}
	// A fourth sample reaches min samples with ratio 1.0: trips open.
	b.RecordFailure()
	if got := b.State(); got != Open {
		t.Fatalf("state = %v after 4/4 failures, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request inside the cooldown")
	}
	if st := b.Stats(); st.Opened != 1 || st.FastFails != 1 {
		t.Fatalf("stats = %+v, want Opened=1 FastFails=1", st)
	}
}

func TestBreakerStaysClosedBelowRatio(t *testing.T) {
	b, _ := testBreaker(Config{BreakerWindow: 8, BreakerMinSamples: 4, BreakerFailureRatio: 0.5})
	// Alternate success/failure: ratio pinned at 0.5 - epsilon as the
	// window slides (3 failures / 7 samples and so on).
	for i := 0; i < 20; i++ {
		b.RecordSuccess()
		b.RecordSuccess()
		b.RecordFailure()
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v at 1/3 failure rate, want closed", got)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	b, _ := testBreaker(Config{BreakerWindow: 4, BreakerMinSamples: 4, BreakerFailureRatio: 0.5})
	// Two early failures scroll out of the 4-wide window under later
	// successes; the old outcomes must stop counting.
	b.RecordFailure()
	b.RecordFailure()
	for i := 0; i < 4; i++ {
		b.RecordSuccess()
	}
	b.RecordFailure() // window is now S S S F: 25% < 50%
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v after old failures scrolled out, want closed", got)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	b, clk := testBreaker(Config{
		BreakerWindow: 4, BreakerMinSamples: 2, BreakerFailureRatio: 0.5,
		BreakerOpenFor: time.Second,
	})
	b.RecordFailure()
	b.RecordFailure()
	if b.State() != Open {
		t.Fatal("breaker did not open")
	}
	if b.Allow() {
		t.Fatal("allowed during cooldown")
	}
	// Cooldown elapses: exactly one probe is admitted.
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker rejected the probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	// The probe succeeds: circuit closes with a clean window.
	b.RecordSuccess()
	if b.State() != Closed {
		t.Fatalf("state = %v after healthy probe, want closed", b.State())
	}
	// One new failure must not trip the fresh window.
	b.RecordFailure()
	if b.State() != Closed {
		t.Fatal("stale window survived recovery: one failure re-tripped the circuit")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, clk := testBreaker(Config{
		BreakerWindow: 4, BreakerMinSamples: 2, BreakerFailureRatio: 0.5,
		BreakerOpenFor: time.Second,
	})
	b.RecordFailure()
	b.RecordFailure()
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe rejected")
	}
	b.RecordFailure()
	if b.State() != Open {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
	// The cooldown restarts from the failed probe.
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a request without a fresh cooldown")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("second probe window never opened")
	}
}
