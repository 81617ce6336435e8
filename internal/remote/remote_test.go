package remote

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"vizq/internal/tde/engine"
	"vizq/internal/workload"
)

func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 5000, Days: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(engine.New(db), cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestQueryRoundTrip(t *testing.T) {
	srv := startServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), `(aggregate (table flights) (groupby carrier) (aggs (n count *)))`)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < res.N; i++ {
		total += res.Value(i, 1).I
	}
	if total != 5000 {
		t.Errorf("total = %d", total)
	}
	if srv.Stats().Queries != 1 {
		t.Errorf("queries = %d", srv.Stats().Queries)
	}
}

func TestQueryErrorPropagates(t *testing.T) {
	srv := startServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query(context.Background(), `(table nosuch)`)
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v", err)
	}
	// Connection remains usable after a query error.
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSessionTempTables(t *testing.T) {
	srv := startServer(t, Config{})
	ctx := context.Background()
	c1, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Build a small value table locally and upload it.
	vals, err := c1.Query(ctx, `(topn (distinct (project (table flights) (carrier carrier))) 3 (asc carrier))`)
	if err != nil {
		t.Fatal(err)
	}
	name, err := c1.CreateTempTable(ctx, "filter1", vals)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c1.Query(ctx, `
		(aggregate (join (table flights) (table `+name+`) (on (= flights.carrier carrier)))
			(groupby) (aggs (n count *)))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(0, 0).I == 0 {
		t.Error("temp join returned nothing")
	}

	// Another session cannot see it, before or after the owner closes.
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		_, err = c2.Query(ctx, `(aggregate (table `+name+`) (groupby) (aggs (n count *)))`)
		if err != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err == nil {
		t.Error("another session's temp table should not resolve")
	}
	if srv.Stats().TempCreates != 1 {
		t.Errorf("temp creates = %d", srv.Stats().TempCreates)
	}
}

// The pipeline names every externalized filter "filter0", so a session
// re-creates the same alias once per click. Each re-create must replace the
// earlier table, not pile up beside it until the session closes, and none
// may land in the server's shared database.
func TestTempTableRecreateDropsEarlierTable(t *testing.T) {
	srv := startServer(t, Config{})
	ctx := context.Background()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vals, err := c.Query(ctx, `(topn (distinct (project (table flights) (carrier carrier))) 3 (asc carrier))`)
	if err != nil {
		t.Fatal(err)
	}
	shared := func() int { return len(srv.eng.Database().Tables(engine.TempSchema)) }
	var name string
	for i := 0; i < 1000; i++ {
		if name, err = c.CreateTempTable(ctx, "filter0", vals); err != nil {
			t.Fatal(err)
		}
		if got := shared(); got != 0 {
			t.Fatalf("after re-create %d: %d TEMP tables in the shared database, want 0", i, got)
		}
	}
	// The session holds one table, and the latest is the live one.
	listed, err := c.Query(ctx, `(select (table SYS.tables) (= schema "TEMP"))`)
	if err != nil {
		t.Fatal(err)
	}
	if listed.N != 1 {
		t.Fatalf("session lists %d temp tables after 1000 re-creates, want 1", listed.N)
	}
	if _, err := c.Query(ctx, `(aggregate (table `+name+`) (groupby) (aggs (n count *)))`); err != nil {
		t.Fatalf("latest temp table unusable: %v", err)
	}
}

// TestTempTablesBelongToTheirConnection: connection B cannot read, list or
// drop connection A's temp table, by A's alias or by the name A got back.
func TestTempTablesBelongToTheirConnection(t *testing.T) {
	srv := startServer(t, Config{})
	ctx := context.Background()
	dial := func() *Conn {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a, b := dial(), dial()
	vals, err := a.Query(ctx, `(topn (distinct (project (table flights) (carrier carrier))) 3 (asc carrier))`)
	if err != nil {
		t.Fatal(err)
	}
	name, err := a.CreateTempTable(ctx, "mine", vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Query(ctx, `(table `+name+`)`); err == nil {
		t.Errorf("B read A's temp table %s", name)
	}
	listed, err := b.Query(ctx, `(select (table SYS.tables) (= schema "TEMP"))`)
	if err != nil {
		t.Fatal(err)
	}
	if listed.N != 0 {
		t.Errorf("B's SYS.tables lists A's temp table")
	}
	for _, ref := range []string{"mine", name} {
		if err := b.DropTempTable(ctx, ref); err == nil {
			t.Errorf("B dropped A's temp table as %q", ref)
		}
	}
	if _, err := a.Query(ctx, `(table `+name+`)`); err != nil {
		t.Fatalf("A lost its temp table: %v", err)
	}
}

func TestConcurrencyThrottle(t *testing.T) {
	srv := startServer(t, Config{MaxConcurrent: 2, Latency: 5 * time.Millisecond})
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if _, err := c.Query(context.Background(),
				`(aggregate (table flights) (groupby market) (aggs (n count *)))`); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := srv.Stats()
	if st.Queries != n {
		t.Errorf("queries = %d", st.Queries)
	}
	if st.MaxInFlight > 2 {
		t.Errorf("throttle violated: max in flight = %d", st.MaxInFlight)
	}
}

func TestSingleConnectionIsSerial(t *testing.T) {
	srv := startServer(t, Config{Latency: 20 * time.Millisecond})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Query(context.Background(),
				`(aggregate (table flights) (groupby) (aggs (n count *)))`); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if el := time.Since(start); el < 60*time.Millisecond {
		t.Errorf("single connection must serialize: took %v", el)
	}
}
