package connection

import (
	"context"
	"testing"

	"vizq/internal/remote"
	"vizq/internal/tde/storage"
)

// TestSchemaIsReadOncePerPool pins that a table's schema costs one round
// trip per pool, not one per user of it: once read, it is served after the
// data source has gone away.
func TestSchemaIsReadOncePerPool(t *testing.T) {
	srv := startServer(t, remote.Config{})
	p := NewPool(srv.Addr(), PoolConfig{Max: 1})
	defer p.Close()
	ctx := context.Background()
	c, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Discard(c)
	coll := func() storage.Collation {
		t.Helper()
		schema, err := p.Schema(ctx, c, "flights")
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range schema {
			if col.Name == "origin" {
				return col.Coll
			}
		}
		t.Fatal("flights has no origin column")
		return 0
	}
	if got := coll(); got != storage.CollCI {
		t.Fatalf("origin collation = %v, want case-insensitive", got)
	}
	srv.Close()
	if got := coll(); got != storage.CollCI {
		t.Fatalf("cached origin collation = %v, want case-insensitive", got)
	}
	if _, err := p.Schema(ctx, c, "carriers"); err == nil {
		t.Fatal("a table never read was served without the data source")
	}
}
