package connection

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"vizq/internal/clock"
	"vizq/internal/remote"
)

func newHealthBalancer(t *testing.T, addrs []string, cfg HealthConfig) (*Balancer, *clock.Clock) {
	t.Helper()
	b, err := NewBalancer(addrs, PoolConfig{Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	cfg.Clock = clock.Manual(time.Unix(1000, 0))
	b.ConfigureHealth(cfg)
	return b, cfg.Clock
}

// TestHealthStreakThresholds walks the passive state machine: transport
// failures mark a node suspect at SuspectAfter and eject it at
// EjectAfter; any success (or non-transport error) resets the streak.
func TestHealthStreakThresholds(t *testing.T) {
	b, _ := newHealthBalancer(t, []string{"n0", "n1"}, HealthConfig{SuspectAfter: 2, EjectAfter: 4})
	terr := io.EOF // transport-classified

	if got := b.State(0); got != NodeHealthy {
		t.Fatalf("initial state = %v", got)
	}
	b.ReportResult(0, terr)
	if got := b.State(0); got != NodeHealthy {
		t.Fatalf("after 1 failure state = %v, want healthy (SuspectAfter=2)", got)
	}
	b.ReportResult(0, terr)
	if got := b.State(0); got != NodeSuspect {
		t.Fatalf("after 2 failures state = %v, want suspect", got)
	}
	// A query-level (non-transport) error proves the node answered: reset.
	b.ReportResult(0, errors.New("syntax error"))
	if got := b.State(0); got != NodeHealthy {
		t.Fatalf("non-transport error did not reset: state = %v", got)
	}

	// Now run the streak all the way to ejection.
	for i := 0; i < 4; i++ {
		if !b.Routable(0) && i < 3 {
			t.Fatalf("node unroutable after only %d failures", i)
		}
		b.ReportResult(0, terr)
	}
	if got := b.State(0); got != NodeEjected {
		t.Fatalf("after %d failures state = %v, want ejected", 4, got)
	}
	if b.Routable(0) {
		t.Fatal("ejected node still routable")
	}
	// A stray success from an in-flight request does not re-admit an
	// ejected node — only a probe does (half-open semantics).
	b.ReportResult(0, nil)
	if got := b.State(0); got != NodeEjected {
		t.Fatalf("stray success re-admitted ejected node: state = %v", got)
	}
}

// TestHealthPickExcludesEjected: an ejected node receives no picks while
// any routable node remains, and PickIndexExcluding never returns the
// excluded node.
func TestHealthPickExcludesEjected(t *testing.T) {
	b, _ := newHealthBalancer(t, []string{"n0", "n1", "n2"}, HealthConfig{EjectAfter: 1})
	b.ReportResult(1, io.EOF) // eject node 1
	if got := b.State(1); got != NodeEjected {
		t.Fatalf("state = %v, want ejected", got)
	}
	for i := 0; i < 30; i++ {
		if idx := b.PickIndex(); idx == 1 {
			t.Fatalf("pick %d chose ejected node", i)
		}
		if idx := b.PickIndexExcluding(0); idx != 2 {
			t.Fatalf("PickIndexExcluding(0) = %d, want 2", idx)
		}
	}
}

// TestHealthNeverAllEjected is the invariant property test: with every
// node ejected (or draining), PickIndex still returns a valid index
// instead of refusing to dispatch — a wrong guess costs one timeout, a
// refusal turns a transient outage permanent.
func TestHealthNeverAllEjected(t *testing.T) {
	b, _ := newHealthBalancer(t, []string{"n0", "n1", "n2"}, HealthConfig{EjectAfter: 1})
	for i := 0; i < 3; i++ {
		b.ReportResult(i, io.EOF)
	}
	for i := 0; i < 3; i++ {
		if got := b.State(i); got != NodeEjected {
			t.Fatalf("node %d state = %v, want ejected", i, got)
		}
	}
	seen := make(map[int]bool)
	for i := 0; i < 30; i++ {
		idx := b.PickIndex()
		if idx < 0 || idx >= 3 {
			t.Fatalf("all-ejected pick returned invalid index %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) != 3 {
		t.Fatalf("all-ejected fallback did not rotate: saw %v", seen)
	}
	// PickIndexExcluding has no fallback by design: -1 when nothing else
	// is routable.
	if idx := b.PickIndexExcluding(0); idx != -1 {
		t.Fatalf("PickIndexExcluding over all-ejected fleet = %d, want -1", idx)
	}

	// Draining likewise never blanks the fleet.
	b2, _ := newHealthBalancer(t, []string{"m0", "m1"}, HealthConfig{})
	b2.SetDraining(0, true)
	b2.SetDraining(1, true)
	for i := 0; i < 10; i++ {
		if idx := b2.PickIndex(); idx < 0 || idx >= 2 {
			t.Fatalf("all-draining pick returned invalid index %d", idx)
		}
	}
}

// TestHealthProbeRecovery exercises the half-open loop against real
// servers: eject a node, advance past the cooldown, probe while the
// server is down (stays ejected, fresh cooldown), then probe again after
// it comes back (re-admitted).
func TestHealthProbeRecovery(t *testing.T) {
	cluster := startCluster(t, 2, remote.Config{})
	addrs := []string{cluster[0].Addr(), cluster[1].Addr()}
	b, clk := newHealthBalancer(t, addrs, HealthConfig{EjectAfter: 1, ProbeAfter: time.Second})

	// A probe against a healthy node is a no-op.
	if b.MaybeProbe(context.Background(), 0) {
		t.Fatal("probe ran against a healthy node")
	}

	b.ReportResult(0, io.EOF)
	if got := b.State(0); got != NodeEjected {
		t.Fatalf("state = %v, want ejected", got)
	}
	// Cooldown not yet elapsed: no probe admitted.
	if b.MaybeProbe(context.Background(), 0) {
		t.Fatal("probe admitted before cooldown")
	}

	// Down server: probe runs, fails, node stays ejected with a fresh
	// cooldown.
	cluster[0].Close()
	clk.Advance(2 * time.Second)
	if !b.MaybeProbe(context.Background(), 0) {
		t.Fatal("probe not admitted after cooldown")
	}
	if got := b.State(0); got != NodeEjected {
		t.Fatalf("failed probe left state %v, want ejected", got)
	}
	if b.MaybeProbe(context.Background(), 0) {
		t.Fatal("probe admitted immediately after a failed probe (cooldown not restarted)")
	}

	// Server back up at the same spot: swap the pool address to the
	// replacement listener, advance past the cooldown, probe succeeds.
	repl := startCluster(t, 1, remote.Config{})[0]
	b.pools[0] = NewPool(repl.Addr(), PoolConfig{Max: 2})
	clk.Advance(2 * time.Second)
	if !b.MaybeProbe(context.Background(), 0) {
		t.Fatal("recovery probe not admitted")
	}
	if got := b.State(0); got != NodeHealthy {
		t.Fatalf("successful probe left state %v, want healthy", got)
	}
	if !b.Routable(0) {
		t.Fatal("re-admitted node not routable")
	}
}

// TestHealthDrainingNotProbed: a draining node is out of rotation but
// must not be probed back in — it returns when its operator says so.
func TestHealthDrainingNotProbed(t *testing.T) {
	b, clk := newHealthBalancer(t, []string{"n0", "n1"}, HealthConfig{EjectAfter: 1})
	b.ReportResult(0, io.EOF)
	b.SetDraining(0, true)
	clk.Advance(time.Minute)
	if b.MaybeProbe(context.Background(), 0) {
		t.Fatal("probe ran against a draining node")
	}
	if !b.NodeDraining(0) {
		t.Fatal("draining bit lost")
	}
	b.SetDraining(0, false)
	if !b.MaybeProbe(context.Background(), 0) {
		t.Fatal("probe not admitted after drain cleared")
	}
}

// TestBalancerEjectsDeadNode: with one dead node in the rotation, every
// dispatch that fails is the dead node's transport error, blamed on it
// until it is ejected, and from then on every dispatch lands on a live
// node. Hiding such an error from the user is the failover session's
// retry (clustertest's TestSessionFailover).
func TestBalancerEjectsDeadNode(t *testing.T) {
	cluster := startCluster(t, 2, remote.Config{})
	dead := startCluster(t, 1, remote.Config{})[0]
	deadAddr := dead.Addr()
	dead.Close() // connection refused from here on

	b, err := NewBalancer([]string{deadAddr, cluster[0].Addr(), cluster[1].Addr()}, PoolConfig{Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	failed := int64(0)
	for i := 0; i < 20; i++ {
		if _, err := dispatch(context.Background(), b, countQ); err != nil {
			failed++
		}
	}
	if got := cluster[0].Stats().Queries + cluster[1].Stats().Queries; got != 20-failed {
		t.Fatalf("live nodes served %d of %d successful queries", got, 20-failed)
	}
	if got := b.State(0); got != NodeEjected {
		t.Fatalf("dead node state = %v, want ejected", got)
	}
	for i := 0; i < 10; i++ {
		if _, err := dispatch(context.Background(), b, countQ); err != nil {
			t.Fatalf("query %d after ejection: %v", i, err)
		}
	}
}

// TestBalancerQueryCallerCancelNotBlamed: a dispatch that fails because
// the caller's own context was canceled must not count against the node
// — context errors classify as transport, but they say nothing about
// node health.
func TestBalancerQueryCallerCancelNotBlamed(t *testing.T) {
	cluster := startCluster(t, 1, remote.Config{Latency: 20 * time.Millisecond})
	b, err := NewBalancer([]string{cluster[0].Addr()}, PoolConfig{Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.ConfigureHealth(HealthConfig{SuspectAfter: 1, EjectAfter: 1})

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := dispatch(ctx, b, countQ); err == nil {
		t.Fatal("expected a deadline error")
	}
	if got := b.State(0); got != NodeHealthy {
		t.Fatalf("caller cancellation poisoned node health: state = %v", got)
	}
}

// TestBalancerCloseIdempotentRace is the satellite race test: concurrent
// Close calls racing dispatch and pressure updates must neither panic
// nor deadlock, and picking from a closed balancer still yields a valid
// index.
func TestBalancerCloseIdempotentRace(t *testing.T) {
	cluster := startCluster(t, 3, remote.Config{})
	addrs := make([]string, len(cluster))
	for i, s := range cluster {
		addrs[i] = s.Addr()
	}
	b, err := NewBalancer(addrs, PoolConfig{Max: 2})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if idx := b.PickIndex(); idx < 0 || idx >= 3 {
					t.Errorf("pick returned invalid index %d", idx)
					return
				}
				b.SetPressure(i%3, float64(i%5))
				// Queries racing Close may fail with ErrPoolClosed or a
				// transport error — either is fine, panics are not.
				_, _ = dispatch(context.Background(), b, countQ)
			}
		}()
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Close()
		}()
	}
	wg.Wait()
	b.Close() // and once more after everything settled
}

// TestHealthConfigDefaults pins the zero-value tuning so accidental
// default changes surface here.
func TestHealthConfigDefaults(t *testing.T) {
	cfg := HealthConfig{}.withDefaults()
	want := fmt.Sprintf("suspect=%d eject=%d probeAfter=%s penalty=%.1f", 1, 3, time.Second, 0.5)
	got := fmt.Sprintf("suspect=%d eject=%d probeAfter=%s penalty=%.1f",
		cfg.SuspectAfter, cfg.EjectAfter, cfg.ProbeAfter, suspectPenalty)
	if got != want {
		t.Fatalf("defaults = %q, want %q", got, want)
	}
	// EjectAfter never undercuts SuspectAfter.
	cfg = HealthConfig{SuspectAfter: 5, EjectAfter: 2}.withDefaults()
	if cfg.EjectAfter < cfg.SuspectAfter {
		t.Fatalf("EjectAfter %d < SuspectAfter %d", cfg.EjectAfter, cfg.SuspectAfter)
	}
	for _, s := range []NodeState{NodeHealthy, NodeSuspect, NodeEjected, NodeProbing, NodeState(99)} {
		if s.String() == "" {
			t.Fatalf("state %d has empty name", int(s))
		}
	}
}
