package connection

import (
	"context"
	"sync"
	"testing"
	"time"

	"vizq/internal/remote"
	"vizq/internal/tde/engine"
	"vizq/internal/workload"
)

func startServer(t testing.TB, cfg remote.Config) *remote.Server {
	t.Helper()
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 4000, Days: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(engine.New(db), cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

const countQ = `(aggregate (table flights) (groupby carrier) (aggs (n count *)))`

func TestPoolReuse(t *testing.T) {
	srv := startServer(t, remote.Config{})
	p := NewPool(srv.Addr(), PoolConfig{Max: 2})
	defer p.Close()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := p.Query(ctx, countQ); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Dials != 1 {
		t.Errorf("dials = %d, want 1 (serial use reuses one connection)", st.Dials)
	}
	if st.Reuses != 4 {
		t.Errorf("reuses = %d", st.Reuses)
	}
}

func TestPoolCapBlocksAndReleases(t *testing.T) {
	srv := startServer(t, remote.Config{Latency: 10 * time.Millisecond})
	p := NewPool(srv.Addr(), PoolConfig{Max: 2})
	defer p.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Query(ctx, countQ); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p.Live() > 2 {
		t.Errorf("live = %d, want <= 2", p.Live())
	}
	if p.Stats().Dials > 2 {
		t.Errorf("dials = %d, want <= 2", p.Stats().Dials)
	}
}

func TestPoolAcquireTimeout(t *testing.T) {
	srv := startServer(t, remote.Config{})
	p := NewPool(srv.Addr(), PoolConfig{Max: 1})
	defer p.Close()
	c, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(ctx); err == nil {
		t.Error("acquire should time out when the pool is exhausted")
	}
	p.Release(c)
	// Now acquiring works again.
	c2, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p.Release(c2)
}

func TestPoolTempStateReuse(t *testing.T) {
	// Temporary structures survive in pooled sessions and are reusable by
	// later queries multiplexed onto the same connection (Sect. 3.5).
	srv := startServer(t, remote.Config{})
	p := NewPool(srv.Addr(), PoolConfig{Max: 1})
	defer p.Close()
	ctx := context.Background()
	c, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := c.Query(ctx, `(topn (distinct (project (table flights) (carrier carrier))) 2 (asc carrier))`)
	if err != nil {
		t.Fatal(err)
	}
	name, err := c.CreateTempTable(ctx, "keep", vals)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(c)
	// The next acquire gets the same session; the temp table is still there.
	res, err := p.Query(ctx, `(aggregate (table `+name+`) (groupby) (aggs (n count *)))`)
	if err != nil {
		t.Fatalf("temp table lost across pool reuse: %v", err)
	}
	if res.Value(0, 0).I != 2 {
		t.Errorf("rows = %d", res.Value(0, 0).I)
	}
}

func TestPoolClose(t *testing.T) {
	srv := startServer(t, remote.Config{})
	p := NewPool(srv.Addr(), PoolConfig{Max: 1})
	if _, err := p.Query(context.Background(), countQ); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Acquire(context.Background()); err == nil {
		t.Error("acquire after close should fail")
	}
}
