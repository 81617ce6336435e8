package connection

import (
	"context"
	"testing"
	"time"

	"vizq/internal/remote"
)

func TestPoolDiscardBrokenConnection(t *testing.T) {
	srv := startServer(t, remote.Config{})
	p := NewPool(srv.Addr(), PoolConfig{Max: 1})
	defer p.Close()
	ctx := context.Background()
	c, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p.Discard(c)
	if p.Live() != 0 {
		t.Errorf("live = %d after discard", p.Live())
	}
	// Capacity is released: the next acquire dials a fresh connection.
	c2, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	p.Release(c2)
	if p.Stats().Dials != 2 {
		t.Errorf("dials = %d", p.Stats().Dials)
	}
}

func TestPoolQueryTimeout(t *testing.T) {
	srv := startServer(t, remote.Config{Latency: 200 * time.Millisecond})
	p := NewPool(srv.Addr(), PoolConfig{Max: 1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Query(ctx, countQ); err == nil {
		t.Fatal("query should time out")
	}
	// The timed-out connection is not reusable mid-response; the pool must
	// have discarded it so the next query works.
	res, err := p.Query(context.Background(), countQ)
	if err != nil {
		t.Fatalf("pool poisoned after timeout: %v", err)
	}
	if res.N == 0 {
		t.Error("empty result")
	}
}

func TestPoolAddr(t *testing.T) {
	srv := startServer(t, remote.Config{})
	p := NewPool(srv.Addr(), PoolConfig{Max: 1})
	defer p.Close()
	if p.Addr() != srv.Addr() {
		t.Error("addr mismatch")
	}
}
