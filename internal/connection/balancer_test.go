package connection

import (
	"context"
	"sync"
	"testing"
	"time"

	"vizq/internal/remote"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/workload"
)

// startCluster builds a shared-everything TDE cluster: every node serves the
// same database (Sect. 4.1.4).
func startCluster(t testing.TB, nodes int, cfg remote.Config) []*remote.Server {
	t.Helper()
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 6000, Days: 60, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*remote.Server, nodes)
	for i := range out {
		srv := remote.NewServer(engine.New(db), cfg)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		out[i] = srv
	}
	return out
}

// dispatch routes one statement through b the way clustertest's
// Cluster.Dispatch does: pick a node, run the statement on its pool, and
// report the outcome to health tracking.
func dispatch(ctx context.Context, b *Balancer, tql string) (*exec.Result, error) {
	i := b.PickIndex()
	answers, err := b.pools[i].QueryMany(ctx, []string{tql})
	var res *exec.Result
	if err == nil {
		res, err = answers[0].Result, answers[0].Err
	}
	b.Report(ctx, i, err)
	return res, err
}

func TestBalancerDistributesLoad(t *testing.T) {
	cluster := startCluster(t, 3, remote.Config{Latency: 5 * time.Millisecond})
	addrs := make([]string, len(cluster))
	for i, s := range cluster {
		addrs[i] = s.Addr()
	}
	b, err := NewBalancer(addrs, PoolConfig{Max: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := dispatch(context.Background(), b, countQ); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	var total int64
	for _, s := range cluster {
		q := s.Stats().Queries
		total += q
		if q == 0 {
			t.Error("a node received no queries")
		}
	}
	if total != 24 {
		t.Errorf("cluster handled %d queries", total)
	}
}

func TestBalancerResultsIdenticalAcrossNodes(t *testing.T) {
	cluster := startCluster(t, 2, remote.Config{})
	b, err := NewBalancer([]string{cluster[0].Addr(), cluster[1].Addr()}, PoolConfig{Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Shared-everything: any node returns the same answer.
	var first int64
	for i := 0; i < 6; i++ {
		res, err := dispatch(context.Background(), b,
			`(aggregate (table flights) (groupby) (aggs (n count *)))`)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Value(0, 0).I
		} else if res.Value(0, 0).I != first {
			t.Fatalf("nodes disagree: %d vs %d", res.Value(0, 0).I, first)
		}
	}
	if first != 6000 {
		t.Errorf("count = %d", first)
	}
}

func TestBalancerValidation(t *testing.T) {
	if _, err := NewBalancer(nil, PoolConfig{Max: 1}); err == nil {
		t.Error("empty node list should fail")
	}
}
