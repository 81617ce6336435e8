package connection

import (
	"context"
	"sync"
	"testing"
	"time"

	"vizq/internal/chaos"
	"vizq/internal/remote"
	"vizq/internal/tde/engine"
	"vizq/internal/workload"
)

// TestPoolStressWithTransportErrors hammers one pool from many goroutines
// through a proxy that kills half the connections mid-flight. Whatever mix
// of successes, transport errors and dial errors results, the pool must
// neither leak connections nor lose count: Live() stays within Max, every
// broken connection is discarded rather than pooled, and the stats identity
// Dials == Live + Evictions + Discards holds at every quiescent point.
// Run under -race this also shakes out torn counter updates.
func TestPoolStressWithTransportErrors(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 2000, Days: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(engine.New(db), remote.Config{Latency: 5 * time.Millisecond})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	proxy, err := chaos.New(srv.Addr(), chaos.RandomKill(42, 0.5, time.Millisecond, 21*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	p := NewPool(proxy.Addr(), PoolConfig{Max: 4})
	defer p.Close()

	const workers = 8
	const queriesPerWorker = 15
	var wg sync.WaitGroup
	var okCount, errCount int64
	var cnt sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesPerWorker; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				_, err := p.QueryMany(ctx,
					[]string{`(aggregate (table flights) (groupby carrier) (aggs (n count *)))`})
				cancel()
				cnt.Lock()
				if err != nil {
					errCount++
				} else {
					okCount++
				}
				cnt.Unlock()
			}
		}()
	}
	wg.Wait()

	if okCount == 0 {
		t.Fatal("no query ever succeeded: proxy or backend misconfigured")
	}
	if errCount == 0 {
		t.Fatal("no query ever failed: the chaos proxy injected no faults")
	}

	st := p.Stats()
	if st.Discards == 0 {
		t.Fatal("transport errors occurred but no connection was discarded")
	}
	if live := p.Live(); live > 4 {
		t.Fatalf("pool leaked connections: Live() = %d > Max 4", live)
	}
	if got, want := st.Dials, int64(p.Live())+st.Evictions+st.Discards; got != want {
		t.Fatalf("stats identity broken after stress: Dials=%d, Live+Evictions+Discards=%d (live=%d ev=%d disc=%d)",
			got, want, p.Live(), st.Evictions, st.Discards)
	}

	// Closing the pool retires the idle connections as evictions; the
	// identity must survive shutdown too.
	p.Close()
	if live := p.Live(); live != 0 {
		t.Fatalf("Live() = %d after Close, want 0", live)
	}
	st = p.Stats()
	if got, want := st.Dials, st.Evictions+st.Discards; got != want {
		t.Fatalf("stats identity broken after Close: Dials=%d, Evictions+Discards=%d", got, want)
	}
}
