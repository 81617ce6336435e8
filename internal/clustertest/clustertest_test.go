package clustertest

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vizq/internal/sched"
)

// tightSched is a scheduler config that makes overload easy to script:
// one slot and a two-deep source queue.
func tightSched() sched.Config {
	return sched.Config{
		Limit: 1, MinLimit: 1, MaxLimit: 1,
		MaxQueue: 2, MaxUserQueue: 2, MaxSessionQueue: 4,
	}
}

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond) //vizlint:allow sleep -- test poll loop with deadline
	}
	t.Fatal("condition not reached in time")
}

// pressurize saturates node i's scheduler as user "hot": the single slot
// is held, the queue fills with two waiters, and `sheds` further
// arrivals are rejected — so the node's next digest advertises both a
// shed rate and a full queue. The returned release func drains it all.
func pressurize(t *testing.T, cl *Cluster, i, sheds int) func() {
	t.Helper()
	s := cl.Scheduler(i)
	hold, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	qctx, cancel := context.WithCancel(
		sched.WithUser(sched.WithSession(context.Background(), "s"), "hot"))
	var wg sync.WaitGroup
	for j := 0; j < 2; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := s.Admit(qctx)
			if err == nil {
				tk.Done()
			}
		}()
	}
	waitFor(t, func() bool { return s.Stats().Queued == 2 })
	for j := 0; j < sheds; j++ {
		if _, err := s.Admit(qctx); !errors.Is(err, sched.ErrShed) {
			t.Fatalf("arrival %d should shed, got %v", j, err)
		}
	}
	return func() {
		cancel()
		hold.Done()
		wg.Wait()
	}
}

func TestDigestPropagationAcrossNodes(t *testing.T) {
	cl := newCluster(t, Config{Nodes: 3, Scheduler: tightSched(), PoolMax: 1})
	cl.Tick()
	cl.Tick()
	for i := 0; i < 3; i++ {
		if st := cl.Scheduler(i).Stats(); st.ClusterPeers != 2 {
			t.Fatalf("node %d sees %d peers, want 2 (stats=%+v)", i, st.ClusterPeers, st)
		}
		d, ok := cl.Nodes[i].DS.Coordinator().LastDigest(cl.Source())
		if !ok || d.Source != cl.Source() || d.Node != cl.Nodes[i].Name {
			t.Fatalf("node %d self digest = %+v ok=%v", i, d, ok)
		}
		if peers := cl.Nodes[i].DS.Coordinator().Peers(cl.Source()); len(peers) != 2 {
			t.Fatalf("node %d coordinator peers = %+v", i, peers)
		}
	}
}

// TestMajoritySheddingClampsCalmNode is the tentpole scenario: a source
// shedding on 2 of 3 nodes must shed consistently on the third, even
// though that node's own queues still have room.
func TestMajoritySheddingClampsCalmNode(t *testing.T) {
	cl := newCluster(t, Config{Nodes: 3, Scheduler: tightSched(), PoolMax: 1})
	release0 := pressurize(t, cl, 0, 2)
	defer release0()
	release1 := pressurize(t, cl, 1, 2)
	defer release1()

	// One tick: nodes 0 and 1 publish pressured digests before node 2
	// steps, so node 2 observes a fleet majority immediately.
	cl.Tick()
	s2 := cl.Scheduler(2)
	if st := s2.Stats(); !st.ClusterShedActive {
		t.Fatalf("calm node did not arm the cluster clamp: %+v", st)
	}

	// Node 2: occupy its slot, then drive the hot user. Under the clamp
	// (ClusterUserQueue=1) the first query queues, the second sheds with
	// the cluster reason — locally MaxUserQueue=2 would have allowed it.
	hold2, err := s2.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hctx, cancel := context.WithCancel(
		sched.WithUser(sched.WithSession(context.Background(), "s"), "hot"))
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk, err := s2.Admit(hctx)
		if err == nil {
			tk.Done()
		}
	}()
	waitFor(t, func() bool { return s2.Stats().Queued == 1 })
	_, err = s2.Admit(hctx)
	var se *sched.ShedError
	if !errors.As(err, &se) || se.Reason != "cluster-pressure" {
		t.Fatalf("want cluster-pressure shed on the calm node, got %v", err)
	}
	if !errors.Is(err, sched.ErrShed) {
		t.Fatal("cluster shed must wrap ErrShed (stale-on-shed contract)")
	}
	if st := s2.Stats(); st.ShedClusterPressure != 1 {
		t.Fatalf("ShedClusterPressure = %d, want 1", st.ShedClusterPressure)
	}

	// A victim user still queues on the calm node: the clamp is per-user.
	vctx, vcancel := context.WithCancel(
		sched.WithUser(sched.WithSession(context.Background(), "v"), "victim"))
	vdone := make(chan error, 1)
	go func() {
		tk, err := s2.Admit(vctx)
		if err == nil {
			tk.Done()
		}
		vdone <- err
	}()
	waitFor(t, func() bool { return s2.Stats().Queued == 2 })
	vcancel()
	if err := <-vdone; !errors.Is(err, context.Canceled) {
		t.Fatalf("victim should queue under the clamp, got %v", err)
	}

	// Pressure drains on nodes 0/1 → their next digests are calm → the
	// clamp on node 2 disarms.
	release0()
	release1()
	cl.Tick() // rates still reflect the shed interval on 0/1? no: deltas reset each step
	cl.Tick() // calm interval published; node 2 re-evaluates
	if st := s2.Stats(); st.ClusterShedActive {
		t.Fatalf("clamp should disarm once the fleet calms: %+v", st)
	}
	hold2.Done()
	wg.Wait()
}

// TestPartitionFallsBackToLocalAndHeals: a node cut off from the kvstore
// must drop to local-only admission within one tick; its peers keep
// coordinating and age the missing node's digest out after StaleAfter;
// healing restores the full mesh.
func TestPartitionFallsBackToLocalAndHeals(t *testing.T) {
	cl := newCluster(t, Config{Nodes: 3, Scheduler: tightSched(), PoolMax: 1})
	cl.Tick()
	cl.Tick()
	for i := 0; i < 3; i++ {
		if st := cl.Scheduler(i).Stats(); st.ClusterPeers != 2 {
			t.Fatalf("node %d peers = %d before partition", i, st.ClusterPeers)
		}
	}

	cl.Partition(2)
	cl.Tick()
	if st := cl.Scheduler(2).Stats(); st.ClusterPeers != 0 || st.ClusterShedActive {
		t.Fatalf("partitioned node must fall back to local-only: %+v", st)
	}
	// Node 2's last digest is still fresh for StaleAfter (3 intervals);
	// after 4 silent ticks the survivors must have aged it out.
	for i := 0; i < 4; i++ {
		cl.Tick()
	}
	if st := cl.Scheduler(0).Stats(); st.ClusterPeers != 1 {
		t.Fatalf("survivor should see exactly the other survivor: %+v", st)
	}

	cl.Heal(2)
	cl.Tick()
	cl.Tick()
	for i := 0; i < 3; i++ {
		if st := cl.Scheduler(i).Stats(); st.ClusterPeers != 2 {
			t.Fatalf("node %d peers = %d after heal, want 2", i, st.ClusterPeers)
		}
	}
}

// TestPressureSteersDispatch: once a node's digest advertises pressure,
// the balancer must route new work to the calm nodes only, and resume
// including the node after it calms down.
func TestPressureSteersDispatch(t *testing.T) {
	cl := newCluster(t, Config{Nodes: 3, Scheduler: tightSched(), PoolMax: 1})
	release := pressurize(t, cl, 0, 2)
	cl.Tick()
	if p := cl.Balancer.Pressure(0); p <= 0 {
		t.Fatalf("pressured node advertises %v", p)
	}
	counts := make([]int, 3)
	for i := 0; i < 12; i++ {
		counts[cl.Balancer.PickIndex()]++
	}
	if counts[0] != 0 {
		t.Fatalf("pressured node still picked: %v", counts)
	}
	// Rotation need not split the calm pair exactly evenly (the slot
	// after the pressured node inherits its turns), but both must serve.
	if counts[1] == 0 || counts[2] == 0 || counts[1]+counts[2] != 12 {
		t.Fatalf("calm nodes should absorb all dispatch: %v", counts)
	}

	release()
	cl.Tick() // calm digest published
	counts = make([]int, 3)
	for i := 0; i < 12; i++ {
		counts[cl.Balancer.PickIndex()]++
	}
	if counts[0] != 4 || counts[1] != 4 || counts[2] != 4 {
		t.Fatalf("healed node should rejoin the rotation evenly: %v", counts)
	}
}

// TestSeededWorkloadUnderChaos drives a seeded open-ish workload through
// the balancer while a node↔kvstore partition opens and heals mid-run.
// Every outcome must be a success, a shed, or a deadline expiry — never
// a transport error surfacing to the client — and the harness must stay
// race-clean and deterministic in structure under -race -count=2.
func TestSeededWorkloadUnderChaos(t *testing.T) {
	cl := newCluster(t, Config{
		Nodes:          3,
		Scheduler:      sched.Config{Limit: 2},
		PoolMax:        2,
		BackendLatency: 2 * time.Millisecond,
	})
	rng := rand.New(rand.NewSource(42))
	users := []string{"u1", "u2", "u3", "u4"}

	var mu sync.Mutex
	var ok, shed, deadline int
	served := make([]int, 3)

	const rounds, perRound = 6, 8
	qid := 0
	for r := 0; r < rounds; r++ {
		switch r {
		case 2:
			cl.Partition(1)
		case 4:
			cl.Heal(1)
		}
		var wg sync.WaitGroup
		for j := 0; j < perRound; j++ {
			user := users[rng.Intn(len(users))]
			q := DistinctQuery(qid)
			qid++
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				idx, err := cl.Dispatch(ctx, user, q)
				mu.Lock()
				defer mu.Unlock()
				served[idx]++
				switch {
				case err == nil:
					ok++
				case errors.Is(err, sched.ErrShed):
					shed++
				case errors.Is(err, context.DeadlineExceeded):
					deadline++
				default:
					t.Errorf("unexpected dispatch error: %v", err)
				}
			}()
		}
		wg.Wait()
		cl.Tick()
	}

	if ok+shed+deadline != rounds*perRound {
		t.Fatalf("outcomes don't conserve: ok=%d shed=%d deadline=%d", ok, shed, deadline)
	}
	if ok == 0 {
		t.Fatal("no query succeeded")
	}
	total := 0
	for _, s := range served {
		total += s
	}
	if total != rounds*perRound {
		t.Fatalf("dispatch counts don't conserve: %v", served)
	}
	// The partition was node↔kvstore only: queries kept flowing to every
	// node the whole time.
	for i, s := range served {
		if s == 0 {
			t.Fatalf("node %d served nothing: %v", i, served)
		}
	}
}
