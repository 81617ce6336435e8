package resilience_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"vizq/internal/connection"
	"vizq/internal/resilience"
	"vizq/internal/sched"
)

type timeoutErr struct{}

func (timeoutErr) Error() string { return "i/o timeout" }
func (timeoutErr) Timeout() bool { return true }

// TestFailureClassification pins Classify and, for every error shape, what
// each layer that reads it does: the pool (discard the conn?), balancer
// health (node blamed / reported healthy / not reported) and the breaker
// under Do (failure / success / no outcome). What the pipeline's stale
// fallback does with each kind is in core: TestStaleFallbackByKind and,
// end to end, TestStaleFallbackMatrix.
func TestFailureClassification(t *testing.T) {
	const (
		healthy = "healthy"
		blamed  = "blamed"
		skipped = "not reported"
		failure = "failure"
		success = "success"
		none    = "no outcome"
	)
	cases := []struct {
		name    string
		err     error
		ctxDone bool

		kind    resilience.Kind
		discard bool
		health  string
		breaker string
	}{
		{"no error", nil, false, resilience.NoError, false, healthy, success},
		{"EOF", io.EOF, false, resilience.Transport, true, blamed, failure},
		{"wrapped unexpected EOF", fmt.Errorf("read frame: %w", io.ErrUnexpectedEOF), false, resilience.Transport, true, blamed, failure},
		{"net.ErrClosed", net.ErrClosed, false, resilience.Transport, true, blamed, failure},
		{"net.OpError", &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}, false, resilience.Transport, true, blamed, failure},
		{"retries exhausted on EOF", fmt.Errorf("resilience: 3 attempts failed: %w", io.EOF), false, resilience.Transport, true, blamed, failure},
		{"Timeout() error", timeoutErr{}, false, resilience.Transport, true, blamed, failure},
		// The conn deadline comes from the caller's context and can land
		// microseconds before the context timer: still the caller's doing.
		{"conn deadline, ctx still live", &net.OpError{Op: "read", Net: "tcp", Err: os.ErrDeadlineExceeded}, false, resilience.Caller, true, skipped, failure},
		{"attempt timeout, ctx still live", context.DeadlineExceeded, false, resilience.Caller, true, skipped, failure},
		{"EOF after the caller cancelled", io.EOF, true, resilience.Caller, true, skipped, none},
		{"cancelled ctx", context.Canceled, true, resilience.Caller, true, skipped, none},
		{"query error", errors.New("remote: no such column"), false, resilience.QueryError, false, healthy, success},
		{"shed", &sched.ShedError{Reason: "deadline"}, false, resilience.Refused, false, healthy, success},
		{"breaker open", fmt.Errorf("resilience: data source unavailable (breaker): %w", resilience.ErrOpen), false, resilience.Refused, false, healthy, success},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.ctxDone {
				cancel()
			}
			if got := resilience.Classify(ctx, c.err); got != c.kind {
				t.Errorf("Classify = %v, want %v", got, c.kind)
			}

			if got := connection.IsTransport(c.err); got != c.discard {
				t.Errorf("pool discards conn = %v, want %v", got, c.discard)
			}

			// Health: one earlier failure makes the node suspect; the outcome
			// under test then ejects it (blamed), clears it (reported
			// healthy) or leaves it suspect (not reported).
			b, err := connection.NewBalancer([]string{"127.0.0.1:1"}, connection.PoolConfig{Max: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			b.ConfigureHealth(connection.HealthConfig{SuspectAfter: 1, EjectAfter: 2})
			b.ReportResult(0, io.EOF)
			gotBlamed := b.Report(ctx, 0, c.err)
			health := map[connection.NodeState]string{
				connection.NodeHealthy: healthy, connection.NodeSuspect: skipped, connection.NodeEjected: blamed,
			}[b.State(0)]
			if health != c.health || gotBlamed != (c.health == blamed) {
				t.Errorf("health = %q (blamed=%v), want %q", health, gotBlamed, c.health)
			}

			// Breaker: window of 2 that opens only on two failures. After one
			// seeded failure, a recorded failure opens it; otherwise one more
			// failure opens it iff the call recorded nothing in between.
			r := resilience.New(resilience.Config{MaxAttempts: 1, BreakerWindow: 2, BreakerMinSamples: 2,
				BreakerFailureRatio: 1, BreakerOpenFor: time.Hour})
			br := r.Breaker()
			br.RecordFailure()
			_, _ = resilience.Do(ctx, r, func(context.Context) (int, error) { return 0, c.err })
			breaker := failure
			if br.State() != resilience.Open {
				br.RecordFailure()
				breaker = success
				if br.State() == resilience.Open {
					breaker = none
				}
			}
			if breaker != c.breaker {
				t.Errorf("breaker recorded %q, want %q", breaker, c.breaker)
			}
		})
	}
}
