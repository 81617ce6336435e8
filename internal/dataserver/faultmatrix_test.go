package dataserver

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"vizq/internal/cache"
	"vizq/internal/chaos"
	"vizq/internal/connection"
	"vizq/internal/core"
	"vizq/internal/query"
	"vizq/internal/resilience"
	"vizq/internal/tde/storage"
)

// The fault matrix runs every Data Server backend operation against every
// chaos fault kind and asserts three things at each cell: the operation
// fails, the failure is transport-classified (so the pool poisons the
// connection and the resilience layer would retry it), and the pool's
// stats identity Dials == Live + Evictions + Discards still holds at
// quiescence. Faults are scheduled deterministically (per accept index),
// so the matrix is reproducible under -race -count=2.

// publishThroughProxy publishes the flights source behind a chaos proxy
// and returns the server, a client connection, and the backend pool.
func publishThroughProxy(t *testing.T, sched chaos.Schedule, cfg Config) (*Server, *ClientConn, *connection.Pool, *chaos.Proxy) {
	t.Helper()
	backend := startBackend(t)
	proxy, err := chaos.New(backend.Addr(), sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	s := NewServer(cfg)
	if err := s.Publish(&PublishedSource{
		Name:                      "flights",
		Backend:                   proxy.Addr(),
		View:                      query.View{Table: "flights"},
		BackendSupportsTempTables: true,
		MaxPoolConnections:        2,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Unpublish("flights") })
	conn, _, err := s.Connect("flights", "matrix")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(conn.Close)
	return s, conn, s.pools["flights"], proxy
}

func checkPoolInvariant(t *testing.T, p *connection.Pool) {
	t.Helper()
	st := p.Stats()
	if got, want := st.Dials, int64(p.Live())+st.Evictions+st.Discards; got != want {
		t.Errorf("pool stats identity broken: Dials=%d, Live+Evictions+Discards=%d (live=%d ev=%d disc=%d)",
			got, want, p.Live(), st.Evictions, st.Discards)
	}
}

func matrixQuery() *query.Query {
	return &query.Query{
		View:     query.View{Table: "flights"},
		Dims:     []query.Dim{{Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
	}
}

// bigInQuery carries an IN list larger than MaxInlineFilterValues, forcing
// the pipeline down the temp-table externalization path (OpTempCreate on
// the backend connection).
func bigInQuery() *query.Query {
	q := matrixQuery()
	q.Filters = []query.Filter{query.InFilter("origin",
		storage.StrValue("LAX"), storage.StrValue("SFO"), storage.StrValue("SEA"),
		storage.StrValue("ATL"), storage.StrValue("ORD"), storage.StrValue("DFW"))}
	return q
}

// matrixOps are the backend operations under test. Each runs one operation
// through the published source and returns its error.
var matrixOps = []struct {
	name string
	run  func(ctx context.Context, c *ClientConn) error
}{
	{"query", func(ctx context.Context, c *ClientConn) error {
		_, err := c.Query(ctx, matrixQuery())
		return err
	}},
	{"temp-create", func(ctx context.Context, c *ClientConn) error {
		_, err := c.Query(ctx, bigInQuery())
		return err
	}},
}

// matrixFaults are the scheduled fault kinds. Trickle paces one byte per
// 20ms, so any response overruns the 300ms op deadline; Stall blocks until
// the same deadline.
var matrixFaults = []chaos.Fault{
	{Kind: chaos.Refuse},
	{Kind: chaos.Stall},
	{Kind: chaos.CutMid, Bytes: 4},
	{Kind: chaos.Trickle, Delay: 20 * time.Millisecond},
}

// matrixConfig externalizes IN lists above 3 values so temp-create has a
// backend op to fail. No resilience: the matrix measures raw
// classification, not recovery.
func matrixConfig() Config {
	return Config{PipelineOptions: core.Options{MaxInlineFilterValues: 3}}
}

func TestFaultMatrixClassification(t *testing.T) {
	for _, fault := range matrixFaults {
		for _, op := range matrixOps {
			t.Run(fault.Kind.String()+"/"+op.name, func(t *testing.T) {
				_, conn, pool, _ := publishThroughProxy(t, chaos.Repeat(fault), matrixConfig())
				ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
				defer cancel()
				err := op.run(ctx, conn)
				if err == nil {
					t.Fatalf("%s against a %s backend succeeded", op.name, fault.Kind)
				}
				if !connection.IsTransport(err) {
					t.Fatalf("%s/%s error not transport-classified: %v", fault.Kind, op.name, err)
				}
				checkPoolInvariant(t, pool)
			})
		}
	}
}

// TestFaultMatrixQueryErrorIsNotTransport is the matrix's negative control:
// through a healthy proxy, a malformed query fails with a query-level error
// that must NOT be transport-classified (and must not poison the conn).
func TestFaultMatrixQueryErrorIsNotTransport(t *testing.T) {
	_, conn, pool, _ := publishThroughProxy(t, chaos.Healthy(), matrixConfig())
	q := matrixQuery()
	q.Dims = []query.Dim{{Col: "no_such_column"}}
	_, err := conn.Query(context.Background(), q)
	if err == nil {
		t.Fatal("query on a missing column succeeded")
	}
	if connection.IsTransport(err) {
		t.Fatalf("query-level error misclassified as transport: %v", err)
	}
	st := pool.Stats()
	if st.Discards != 0 {
		t.Errorf("query-level error poisoned a connection: %+v", st)
	}
	checkPoolInvariant(t, pool)
}

// TestFaultMatrixTempDropOnDeadConn exercises the remaining backend op at
// the pool level: a temp table is created on a healthy connection, the
// outage cuts every active relay, and the drop on the now-dead connection
// must come back transport-classified.
func TestFaultMatrixTempDropOnDeadConn(t *testing.T) {
	_, _, pool, proxy := publishThroughProxy(t, chaos.Healthy(), matrixConfig())
	ctx := context.Background()
	conn, err := pool.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vals := valuesResult("origin", []storage.Value{storage.StrValue("LAX"), storage.StrValue("SFO")})
	if _, err := conn.CreateTempTable(ctx, "doomed", vals); err != nil {
		t.Fatalf("healthy temp-create failed: %v", err)
	}
	proxy.KillActive()
	dctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer cancel()
	err = conn.DropTempTable(dctx, "doomed")
	if err == nil {
		t.Fatal("temp-drop on a cut connection succeeded")
	}
	if !connection.IsTransport(err) {
		t.Fatalf("temp-drop error not transport-classified: %v", err)
	}
	pool.Release(conn) // broken conn: Release must discard it
	if st := pool.Stats(); st.Discards != 1 {
		t.Errorf("dead connection not discarded on release: %+v", st)
	}
	checkPoolInvariant(t, pool)
}

// TestFaultMatrixRetryHealsAfterScriptedFailures: with a Seq schedule that
// refuses the first two connections and heals, a resilient pipeline's
// retries land the third attempt and the caller never sees the outage.
func TestFaultMatrixRetryHealsAfterScriptedFailures(t *testing.T) {
	cfg := matrixConfig()
	cfg.Resilience = &resilience.Config{
		MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		Seed: 11, BreakerMinSamples: 100,
	}
	_, conn, pool, proxy := publishThroughProxy(t,
		chaos.Seq(chaos.Fault{Kind: chaos.Refuse}, chaos.Fault{Kind: chaos.Refuse}), cfg)
	res, err := conn.Query(context.Background(), matrixQuery())
	if err != nil {
		t.Fatalf("retries did not absorb two scripted failures: %v", err)
	}
	if res.N == 0 || res.Stale {
		t.Fatalf("healed query returned N=%d stale=%v", res.N, res.Stale)
	}
	if got := proxy.Accepted(); got != 3 {
		t.Errorf("proxy accepted %d connections, want 3 (2 refused + 1 healed)", got)
	}
	checkPoolInvariant(t, pool)
}

// TestFaultMatrixBreakerLifecycle drives the breaker through its full
// closed -> open -> half-open -> closed cycle against a scripted outage.
func TestFaultMatrixBreakerLifecycle(t *testing.T) {
	// Caches are disabled so every query reaches the backend: the breaker,
	// not the cache, must be what absorbs the outage here.
	cfg := Config{PipelineOptions: core.Options{
		DisableIntelligentCache: true, DisableLiteralCache: true,
	}}
	cfg.Resilience = &resilience.Config{
		MaxAttempts: 1, Seed: 11,
		BreakerWindow: 4, BreakerMinSamples: 2, BreakerFailureRatio: 0.5,
		BreakerOpenFor: 50 * time.Millisecond,
	}
	s, conn, pool, proxy := publishThroughProxy(t, chaos.Healthy(), cfg)
	br := s.procs[strings.ToLower("flights")].Resilience().Breaker()
	ctx := context.Background()

	// Healthy baseline: closed.
	if _, err := conn.Query(ctx, matrixQuery()); err != nil {
		t.Fatal(err)
	}
	if br.State() != resilience.Closed {
		t.Fatalf("state = %v before the outage, want closed", br.State())
	}

	// Outage: two fast failures trip the breaker. Cache-missing queries are
	// forced by varying the filter so each one reaches the backend.
	proxy.SetMode(chaos.Fault{Kind: chaos.Refuse})
	proxy.KillActive()
	for i := 0; i < 2; i++ {
		q := matrixQuery()
		q.Filters = []query.Filter{query.InFilter("carrier", storage.StrValue(strings.Repeat("X", i+1)))}
		if _, err := conn.Query(ctx, q); err == nil {
			t.Fatalf("query %d during outage succeeded", i)
		}
	}
	if br.State() != resilience.Open {
		t.Fatalf("state = %v after two failures, want open", br.State())
	}

	// Inside the cooldown the breaker fast-fails without touching the
	// backend.
	before := proxy.Accepted()
	q := matrixQuery()
	q.Filters = []query.Filter{query.InFilter("carrier", storage.StrValue("YY"))}
	_, err := conn.Query(ctx, q)
	if !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("open-breaker error = %v, want ErrOpen", err)
	}
	if got := proxy.Accepted(); got != before {
		t.Errorf("fast-fail dialed the backend: %d -> %d accepts", before, got)
	}

	// Heal, wait out the cooldown: the half-open probe closes the circuit.
	proxy.Heal()
	time.Sleep(80 * time.Millisecond)
	q = matrixQuery()
	q.Filters = []query.Filter{query.InFilter("carrier", storage.StrValue("ZZ"))}
	if _, err := conn.Query(ctx, q); err != nil {
		t.Fatalf("post-heal probe failed: %v", err)
	}
	if br.State() != resilience.Closed {
		t.Fatalf("state = %v after healthy probe, want closed", br.State())
	}
	if st := br.Stats(); st.Opened != 1 || st.FastFails == 0 {
		t.Errorf("breaker stats = %+v, want Opened=1 and FastFails>0", st)
	}
	checkPoolInvariant(t, pool)
}

// TestFaultMatrixStaleServedDuringOutage: with ServeStale, a warmed query
// whose cache entry has expired is still answered — tagged stale — while
// the backend is down, and served fresh again after recovery.
func TestFaultMatrixStaleServedDuringOutage(t *testing.T) {
	cfg := matrixConfig()
	co := cache.DefaultOptions()
	co.FreshFor = 30 * time.Millisecond
	co.StaleGrace = time.Hour
	cfg.CacheOptions = co
	cfg.Resilience = &resilience.Config{
		MaxAttempts: 1, Seed: 11,
		BreakerWindow: 4, BreakerMinSamples: 2, BreakerFailureRatio: 0.5,
		BreakerOpenFor: time.Hour, ServeStale: true,
	}
	_, conn, pool, proxy := publishThroughProxy(t, chaos.Healthy(), cfg)
	ctx := context.Background()

	// Warm the cache, then let the entry expire.
	warm, err := conn.Query(ctx, matrixQuery())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	proxy.SetMode(chaos.Fault{Kind: chaos.Refuse})
	proxy.KillActive()
	res, err := conn.Query(ctx, matrixQuery())
	if err != nil {
		t.Fatalf("degraded read failed during outage: %v", err)
	}
	if !res.Stale {
		t.Fatal("outage answer not tagged stale")
	}
	if res.N != warm.N {
		t.Errorf("stale answer has %d rows, warm had %d", res.N, warm.N)
	}

	proxy.Heal()
	// The breaker is still open (cooldown = 1h): answers stay stale but
	// keep flowing — graceful degradation, not an error storm.
	res2, err := conn.Query(ctx, matrixQuery())
	if err != nil || !res2.Stale {
		t.Fatalf("breaker-open degraded read = (stale=%v, %v)", res2 != nil && res2.Stale, err)
	}
	checkPoolInvariant(t, pool)
}
