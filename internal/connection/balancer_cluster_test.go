package connection

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vizq/internal/remote"
	"vizq/internal/tde/engine"
	"vizq/internal/workload"
)

// TestBalancerPickWrapRegression seeds the rotation counter just below
// the uint64 wrap point. The pre-fix pick converted the counter through
// int before the modulo, so past MaxInt64 the start index went negative
// and b.pools[start%len] panicked with an out-of-range index.
func TestBalancerPickWrapRegression(t *testing.T) {
	b, err := NewBalancer([]string{"n0", "n1", "n2"}, PoolConfig{Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.next.Store(math.MaxUint64 - 4)
	// Crossing the wrap: MaxUint64-3 ... MaxUint64, 0, 1, 2, ...
	for i := 0; i < 10; i++ {
		idx := b.PickIndex()
		if idx < 0 || idx >= 3 {
			t.Fatalf("pick %d returned out-of-range index %d", i, idx)
		}
	}
}

// TestBalancerTiesRotateRoundRobin: with every node idle the scores all
// tie, and the rotation counter must spread consecutive picks across
// nodes instead of hammering one.
func TestBalancerTiesRotateRoundRobin(t *testing.T) {
	b, err := NewBalancer([]string{"n0", "n1", "n2"}, PoolConfig{Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	counts := make(map[int]int)
	prev := -1
	for i := 0; i < 9; i++ {
		idx := b.PickIndex()
		counts[idx]++
		if idx == prev {
			t.Fatalf("tied pick %d repeated node %d back to back", i, idx)
		}
		prev = idx
	}
	for n := 0; n < 3; n++ {
		if counts[n] != 3 {
			t.Fatalf("node %d picked %d times in 9 tied picks, want 3 (counts=%v)", n, counts[n], counts)
		}
	}
}

// TestBalancerPressureSteersDispatch: a node advertising full shed
// pressure must receive no traffic while calm nodes have headroom, and
// must rejoin the rotation once the pressure clears.
func TestBalancerPressureSteersDispatch(t *testing.T) {
	cluster := startCluster(t, 3, remote.Config{})
	addrs := make([]string, len(cluster))
	for i, s := range cluster {
		addrs[i] = s.Addr()
	}
	b, err := NewBalancer(addrs, PoolConfig{Max: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	b.SetPressure(0, 1.0)
	if got := b.Pressure(0); got != 1.0 {
		t.Fatalf("pressure readback = %v", got)
	}
	for i := 0; i < 12; i++ {
		if _, err := dispatch(context.Background(), b, countQ); err != nil {
			t.Fatal(err)
		}
	}
	if q := cluster[0].Stats().Queries; q != 0 {
		t.Fatalf("pressured node received %d queries, want 0", q)
	}
	if q1, q2 := cluster[1].Stats().Queries, cluster[2].Stats().Queries; q1 == 0 || q2 == 0 {
		t.Fatalf("calm nodes starved: %d/%d", q1, q2)
	}

	// Clearing pressure (negative resets to 0) readmits the node.
	b.SetPressure(0, -1)
	for i := 0; i < 12; i++ {
		if _, err := dispatch(context.Background(), b, countQ); err != nil {
			t.Fatal(err)
		}
	}
	if q := cluster[0].Stats().Queries; q == 0 {
		t.Fatal("node stayed excluded after pressure cleared")
	}

	// Out-of-range and NaN updates must be ignored / sanitized.
	b.SetPressure(-1, 1)
	b.SetPressure(99, 1)
	b.SetPressure(1, math.NaN())
	if got := b.Pressure(1); got != 0 {
		t.Fatalf("NaN pressure stored as %v", got)
	}
	if got := b.Pressure(99); got != 0 {
		t.Fatalf("out-of-range pressure = %v", got)
	}
}

// TestBalancerStressSkewedLatency is the property test: concurrent
// dispatch across nodes with skewed service latencies plus concurrent
// pressure updates must never panic, never error, keep every pool's
// live-connection count within its bound, and still give every node a
// share of the work. The rotation counter starts just below the uint64
// wrap so the whole run crosses it.
func TestBalancerStressSkewedLatency(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 2000, Days: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	latencies := []time.Duration{0, 2 * time.Millisecond, 8 * time.Millisecond}
	servers := make([]*remote.Server, len(latencies))
	addrs := make([]string, len(latencies))
	for i, lat := range latencies {
		srv := remote.NewServer(engine.New(db), remote.Config{Latency: lat})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	const maxPer = 3
	b, err := NewBalancer(addrs, PoolConfig{Max: maxPer})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.next.Store(math.MaxUint64 - 40)

	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				if rng.Intn(4) == 0 {
					// Interleave advisory updates with dispatch.
					b.SetPressure(rng.Intn(3), rng.Float64())
				}
				if _, err := dispatch(context.Background(), b, countQ); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()

	var total int64
	for i, srv := range servers {
		q := srv.Stats().Queries
		total += q
		if q == 0 {
			t.Errorf("node %d served no queries despite capacity", i)
		}
		if live := b.Nodes()[i].Live(); live > maxPer {
			t.Errorf("node %d live connections %d exceed bound %d", i, live, maxPer)
		}
	}
	if total != workers*perWorker {
		t.Errorf("cluster served %d of %d queries", total, workers*perWorker)
	}
}
