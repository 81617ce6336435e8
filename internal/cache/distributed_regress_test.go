package cache

import (
	"testing"
	"time"

	"vizq/internal/chaos"
	"vizq/internal/kvstore"
	"vizq/internal/query"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

func distQuery(ds string, dim string) *query.Query {
	return &query.Query{
		DataSource: ds,
		View:       query.View{Table: ds},
		Dims:       []query.Dim{{Col: dim}},
		Measures:   []query.Measure{{Fn: query.Count, As: "n"}},
	}
}

func distResult(dim string) *exec.Result {
	res := exec.NewResult([]plan.ColInfo{
		{Name: dim, Type: storage.TStr},
		{Name: "n", Type: storage.TInt},
	})
	res.AppendRow([]storage.Value{storage.StrValue("x"), storage.IntValue(1)})
	return res
}

// TestDistributedTransportErrorIsNotMiss is the regression for error
// accounting: a dead shared store must surface as errors, not inflate the
// miss rate (a miss means "the cluster has not computed this"; an error
// means "the store is unhealthy").
func TestDistributedTransportErrorIsNotMiss(t *testing.T) {
	srv, err := kvstore.Serve("127.0.0.1:0", kvstore.NewStore(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	cl := kvstore.NewClient(srv.Addr(), 0)
	if err := cl.Set("warm", []byte("up"), 0); err != nil {
		t.Fatal(err)
	}
	srv.Close() // kill the store out from under the client

	d := NewDistributed(NewIntelligentCache(DefaultOptions()), cl, time.Minute)
	if _, ok := d.Get(distQuery("flights", "carrier")); ok {
		t.Fatal("Get against a dead store must not hit")
	}
	hits, misses, errs := d.RemoteStats()
	if errs != 1 {
		t.Errorf("errors = %d, want 1", errs)
	}
	if hits != 0 || misses != 0 {
		t.Errorf("transport failure misattributed: hits=%d misses=%d", hits, misses)
	}
}

// TestDistributedFailedDeriveIsMiss is the regression for remote hit
// accounting: a shared entry that exists under q's exact key but cannot be
// derived into q's answer must count as a miss and must NOT be pulled into
// the local tier (pre-fix it counted a hit and warmed local with a result
// that served nothing).
func TestDistributedFailedDeriveIsMiss(t *testing.T) {
	store := kvstore.NewStore(1 << 20)
	srv, err := kvstore.Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := kvstore.NewClient(srv.Addr(), 0)
	defer cl.Close()

	// Plant an unrelated entry under q's key — the shared tier is exact-key
	// addressed, so a key collision (or a stale writer) makes the stored
	// query underivable for q.
	q := distQuery("flights", "carrier")
	other := distQuery("flights", "market")
	data, err := EncodeEntry(other, distResult("market"), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(q.Key(), data, time.Minute); err != nil {
		t.Fatal(err)
	}

	d := NewDistributed(NewIntelligentCache(DefaultOptions()), cl, time.Minute)
	if _, ok := d.Get(q); ok {
		t.Fatal("underivable shared entry must miss")
	}
	hits, misses, errs := d.RemoteStats()
	if hits != 0 {
		t.Errorf("failed derive counted as remote hit (hits=%d)", hits)
	}
	if misses != 1 || errs != 0 {
		t.Errorf("misses=%d errs=%d, want 1/0", misses, errs)
	}
	if n := d.Local.Len(); n != 0 {
		t.Errorf("failed derive warmed the local tier (%d entries)", n)
	}
}

// TestDistributedDecodeErrorCounted: garbage bytes in the shared store are
// an error, not a miss.
func TestDistributedDecodeErrorCounted(t *testing.T) {
	store := kvstore.NewStore(1 << 20)
	srv, err := kvstore.Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := kvstore.NewClient(srv.Addr(), 0)
	defer cl.Close()

	q := distQuery("flights", "carrier")
	if err := cl.Set(q.Key(), []byte("not an entry"), time.Minute); err != nil {
		t.Fatal(err)
	}
	d := NewDistributed(NewIntelligentCache(DefaultOptions()), cl, time.Minute)
	if _, ok := d.Get(q); ok {
		t.Fatal("garbage entry must not hit")
	}
	if _, misses, errs := d.RemoteStats(); errs != 1 || misses != 0 {
		t.Errorf("misses=%d errs=%d, want 0/1", misses, errs)
	}
}

// TestDistributedRecoversAfterDroppedLink: a shared-store link that dies
// under the tier costs at most one errored Get. The next one redials and
// hits, and counts no error, so the tier recovers instead of wedging on
// the dead connection.
func TestDistributedRecoversAfterDroppedLink(t *testing.T) {
	store := kvstore.NewStore(1 << 20)
	srv, err := kvstore.Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := chaos.New(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	cl := kvstore.NewClient(proxy.Addr(), 0)
	defer cl.Close()

	// Distinct keys, so every Get below reaches the shared store instead of
	// the local tier a previous hit warmed.
	var qs []*query.Query
	for _, dim := range []string{"carrier", "market", "origin"} {
		q := distQuery("flights", dim)
		data, err := EncodeEntry(q, distResult(dim), time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		store.Set(q.Key(), data, time.Minute)
		qs = append(qs, q)
	}
	d := NewDistributed(NewIntelligentCache(DefaultOptions()), cl, time.Minute)
	if _, ok := d.Get(qs[0]); !ok {
		t.Fatal("healthy Get missed")
	}

	proxy.KillActive() // the live relay dies; new connections are accepted
	d.Get(qs[1])       // may fail: it is the call that finds the link dead
	_, _, errsBefore := d.RemoteStats()
	if errsBefore > 1 {
		t.Fatalf("errors = %d after one Get on a dropped link, want <= 1", errsBefore)
	}
	if _, ok := d.Get(qs[2]); !ok {
		t.Fatal("Get after the dropped link missed: the client did not redial")
	}
	if _, _, errs := d.RemoteStats(); errs != errsBefore {
		t.Errorf("errors went %d -> %d on the Get after the dropped link", errsBefore, errs)
	}
}
