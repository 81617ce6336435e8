package clustertest

import (
	"context"
	"errors"
	"testing"
	"time"

	"vizq/internal/connection"
	"vizq/internal/dataserver"
	"vizq/internal/sched"
	"vizq/internal/tde/storage"
)

// TestLifecycleKillRestartSmoke is the fast kill/restart smoke
// scripts/check.sh runs: kill a node, watch dispatch blame it into
// ejection, restart it, probe it back in. Everything runs on the fake
// clock, so it is deterministic and sub-second.
func TestLifecycleKillRestartSmoke(t *testing.T) {
	cl := newCluster(t, Config{Nodes: 3})
	ctx := context.Background()

	// Warm every node's view of the fleet.
	cl.Tick()
	cl.Tick()

	// A healthy fleet serves sticky queries on node 0.
	if err := cl.QueryOn(ctx, 0, "smoke", DistinctQuery(0)); err != nil {
		t.Fatalf("pre-kill query: %v", err)
	}

	cl.KillNode(0)
	// Two blameworthy failures eject (harness default EjectAfter=2).
	for i := 1; cl.Balancer.State(0) != connection.NodeEjected; i++ {
		if err := cl.QueryOn(ctx, 0, "smoke", DistinctQuery(i)); err == nil {
			t.Fatal("query on killed node succeeded")
		}
		if i > 8 {
			t.Fatalf("node not ejected after %d failed queries (state %v)", i, cl.Balancer.State(0))
		}
	}

	// While ejected, dispatch steers around it.
	for i := 0; i < 12; i++ {
		idx, err := cl.Dispatch(ctx, "smoke", DistinctQuery(100+i))
		if err != nil {
			t.Fatalf("dispatch during outage: %v", err)
		}
		if idx == 0 {
			t.Fatal("dispatch picked the ejected node")
		}
	}

	// Probes are cooldown-gated on the fake clock: not due yet right
	// after ejection (the failures happened within the current instant).
	if cl.ProbeNode(0) {
		t.Fatal("probe admitted before cooldown")
	}

	// Restart, advance past the cooldown, probe back in.
	cl.RestartNode(0)
	cl.Tick() // one interval == the harness ProbeAfter default
	if !cl.ProbeNode(0) {
		t.Fatal("probe not admitted after cooldown")
	}
	if got := cl.Balancer.State(0); got != connection.NodeHealthy {
		t.Fatalf("post-probe state = %v, want healthy", got)
	}
	if err := cl.QueryOn(ctx, 0, "smoke", DistinctQuery(999)); err != nil {
		t.Fatalf("post-restart query: %v", err)
	}
}

// TestSessionFailover: a failover session survives its node's death —
// one transparent move, no user-visible error — while a pinned session
// on the same node keeps failing.
func TestSessionFailover(t *testing.T) {
	cl := newCluster(t, Config{Nodes: 3})
	ctx := context.Background()
	cl.Tick()
	cl.Tick()

	mobile, err := cl.NewSession("mobile", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()
	pinned, err := cl.NewSession("pinned", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()

	if err := mobile.Query(ctx, DistinctQuery(0)); err != nil {
		t.Fatalf("pre-kill query: %v", err)
	}

	cl.KillNode(1)
	if err := mobile.Query(ctx, DistinctQuery(1)); err != nil {
		t.Fatalf("failover session saw user-visible error: %v", err)
	}
	if mobile.Moves() == 0 || mobile.Node() == 1 {
		t.Fatalf("session did not move (moves=%d node=%d)", mobile.Moves(), mobile.Node())
	}
	if err := pinned.Query(ctx, DistinctQuery(2)); err == nil {
		t.Fatal("pinned session survived its node's death")
	}

	// Subsequent queries stay on the new node without further moves.
	before := mobile.Moves()
	if err := mobile.Query(ctx, DistinctQuery(3)); err != nil {
		t.Fatal(err)
	}
	if mobile.Moves() != before {
		t.Fatal("healthy session kept moving")
	}
}

// TestSessionFailoverTempTables: a session holding temp tables does not
// silently lose them on failover — the move surfaces ErrSessionMoved
// listing the lost aliases, and Rematerialize + retry recovers.
func TestSessionFailoverTempTables(t *testing.T) {
	cl := newCluster(t, Config{Nodes: 3})
	ctx := context.Background()
	cl.Tick()
	cl.Tick()

	s, err := cl.NewSession("analyst", 2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	temps := []tempSpec{{alias: "sel", col: "origin", vals: []storage.Value{storage.StrValue("LAX")}}}
	for _, spec := range temps {
		if err := s.CreateTempTable(spec.alias, spec.col, spec.vals); err != nil {
			t.Fatal(err)
		}
	}

	cl.KillNode(2)
	qerr := s.Query(ctx, DistinctQuery(0))
	if !errors.Is(qerr, dataserver.ErrSessionMoved) {
		t.Fatalf("query after node death = %v, want ErrSessionMoved", qerr)
	}
	var sm *dataserver.SessionMovedError
	if !errors.As(qerr, &sm) || len(sm.LostTemps) != 1 || sm.LostTemps[0] != "sel" {
		t.Fatalf("moved error = %+v, want lost [sel]", sm)
	}
	// The contract: the session HAS moved; the caller re-materializes and
	// retries.
	if err := s.Rematerialize(temps); err != nil {
		t.Fatal(err)
	}
	if err := s.Query(ctx, DistinctQuery(0)); err != nil {
		t.Fatalf("retry after re-materialize: %v", err)
	}
}

// TestDrainSteersPeers: a draining node's digest bit reaches the
// balancer on the next Tick, new dispatch avoids it with zero errors,
// failover sessions leave it proactively, and undrain brings it back.
func TestDrainSteersPeers(t *testing.T) {
	cl := newCluster(t, Config{Nodes: 3})
	ctx := context.Background()
	cl.Tick()
	cl.Tick()

	s, err := cl.NewSession("roamer", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Query(ctx, DistinctQuery(0)); err != nil {
		t.Fatal(err)
	}

	if err := cl.DrainNode(ctx, 0); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cl.Tick() // draining bit rides this digest
	if !cl.Balancer.NodeDraining(0) {
		t.Fatal("draining bit did not reach the balancer")
	}
	for i := 0; i < 12; i++ {
		idx, derr := cl.Dispatch(ctx, "walkin", DistinctQuery(10+i))
		if derr != nil {
			t.Fatalf("dispatch during drain: %v", derr)
		}
		if idx == 0 {
			t.Fatal("dispatch steered to the draining node")
		}
	}
	// The failover session leaves the draining node before dispatching.
	if err := s.Query(ctx, DistinctQuery(1)); err != nil {
		t.Fatalf("session query during drain: %v", err)
	}
	if s.Node() == 0 {
		t.Fatal("failover session stayed on the draining node")
	}

	cl.UndrainNode(0)
	cl.Tick()
	if cl.Balancer.NodeDraining(0) {
		t.Fatal("draining bit survived undrain + tick")
	}
	seen0 := false
	for i := 0; i < 12 && !seen0; i++ {
		idx, derr := cl.Dispatch(ctx, "walkin", DistinctQuery(50+i))
		if derr != nil {
			t.Fatal(derr)
		}
		seen0 = idx == 0
	}
	if !seen0 {
		t.Fatal("undrained node never rejoined dispatch")
	}
}

// TestDrainShedsQueuedWork: queued admissions on the drained node shed
// with reason "draining" instead of waiting out the deadline.
func TestDrainShedsQueuedWork(t *testing.T) {
	cl := newCluster(t, Config{Nodes: 2, Scheduler: tightSched()})
	ctx := context.Background()
	cl.Tick()
	cl.Tick()

	// Hold node 0's only slot, then queue a waiter behind it.
	tk, err := cl.Scheduler(0).Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		_, aerr := cl.Scheduler(0).Admit(sched.WithSession(context.Background(), "q"))
		queued <- aerr
	}()
	waitFor(t, func() bool { return cl.Scheduler(0).Stats().Queued == 1 })

	// Drain with a deadline: the queued waiter sheds immediately; the
	// held slot makes the drain itself time out — in-flight work is
	// bounded by the deadline, not abandoned.
	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if derr := cl.DrainNode(dctx, 0); !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("drain with held slot = %v, want deadline exceeded", derr)
	}
	select {
	case aerr := <-queued:
		var se *sched.ShedError
		if !errors.As(aerr, &se) || se.Reason != "draining" {
			t.Fatalf("queued waiter got %v, want draining shed", aerr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued waiter not flushed by drain")
	}
	tk.Done()
	if st := cl.Scheduler(0).Stats(); st.ShedDraining == 0 || !st.Draining {
		t.Fatalf("stats = %+v, want ShedDraining>0 Draining", st)
	}
}
