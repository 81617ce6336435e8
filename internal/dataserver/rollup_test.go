package dataserver

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"vizq/internal/cache"
	"vizq/internal/core"
	"vizq/internal/obs"
	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/resilience"
	"vizq/internal/sched"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// rollupNode is one Data Server of the roll-up test and the instances whose
// Stats it reads.
type rollupNode struct {
	srv     *Server
	backend *remote.Server
	proc    *core.Processor
	intel   *cache.IntelligentCache
	lit     *cache.LiteralCache
	key     string
}

// newRollupNode publishes the flights source on a fresh Data Server in
// front of its own backend, with caches small enough to evict, temp-table
// externalization above three IN values, a scheduler and a breaker.
func newRollupNode(t *testing.T, backendCfg remote.Config, poolMax int) *rollupNode {
	t.Helper()
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 6000, Days: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	backend := remote.NewServer(engine.New(db), backendCfg)
	if err := backend.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backend.Close() })
	cfg := Config{
		PipelineOptions: core.Options{MaxInlineFilterValues: 3},
		Resilience:      &resilience.Config{Seed: 1},
		Scheduler:       &sched.Config{},
	}
	s := NewServer(cfg)
	if err := s.Publish(&PublishedSource{
		Name: "FAA Flights", Backend: backend.Addr(), View: query.View{Table: "flights"},
		BackendSupportsTempTables: true, MaxPoolConnections: poolMax,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Unpublish("FAA Flights") })
	// Swap in a processor built the way Publish builds one, over caches the
	// test holds, so the cache Stats can be read.
	n := &rollupNode{srv: s, backend: backend, key: "faa flights"}
	copt := cache.Options{MaxEntries: 8, Shards: 1}
	n.intel, n.lit = cache.NewIntelligentCache(copt), cache.NewLiteralCache(copt)
	popt := cfg.PipelineOptions
	popt.Resilience, popt.Scheduler = cfg.Resilience, s.scheds[n.key]
	n.proc = core.NewProcessor(s.pools[n.key], n.intel, n.lit, popt)
	s.procs[n.key] = n.proc
	return n
}

// rollupWorkload is one client's fixed script: repeated and derivable
// queries, an externalized IN list, client temp tables answered locally
// and sent as filters, and a fusable batch straight to the processor.
func rollupWorkload(ctx context.Context, n *rollupNode, user string) error {
	c, _, err := n.srv.Connect("FAA Flights", user)
	if err != nil {
		return err
	}
	defer c.Close()
	count := func(dims ...string) *query.Query {
		q := &query.Query{View: query.View{Table: "flights"}, Measures: []query.Measure{{Fn: query.Count, As: "n"}}}
		for _, d := range dims {
			q.Dims = append(q.Dims, query.Dim{Col: d})
		}
		return q
	}
	bigIn := count("carrier")
	bigIn.Filters = []query.Filter{query.InFilter("origin",
		storage.StrValue("LAX"), storage.StrValue("SFO"), storage.StrValue("SEA"),
		storage.StrValue("ATL"), storage.StrValue("ORD"), storage.StrValue("DFW"))}
	viaTemp := count("origin")
	viaTemp.Filters = []query.Filter{query.TempFilter("carrier", "mine")}
	carriers := []storage.Value{storage.StrValue("WN"), storage.StrValue("AA"), storage.StrValue("DL"), storage.StrValue("UA")}
	if err := c.CreateTempTable("mine", "carrier", carriers); err != nil {
		return err
	}
	for _, q := range []*query.Query{
		bigIn, bigIn.Clone(), count("carrier", "origin"), count("carrier"), count("origin"),
		count("carrier"), count("dest"), count("market"), count("hour"), count("date"),
		{View: query.View{Table: "mine"}, Dims: []query.Dim{{Col: "carrier"}}},
		viaTemp, count("carrier", "dest"), count("carrier", "origin"),
	} {
		if _, err := c.Query(ctx, q.Clone()); err != nil {
			return fmt.Errorf("%s: %w", q.ToTQL(), err)
		}
	}
	batch := []*query.Query{count("market", "date"), count("market"), count("origin", "hour")}
	sum := count("market", "date")
	sum.Measures = []query.Measure{{Fn: query.Sum, Col: "distance", As: "d"}}
	batch = append(batch, sum)
	for _, q := range batch {
		q.DataSource = "FAA Flights"
	}
	_, err = n.proc.ExecuteBatch(sched.WithUser(ctx, user), batch)
	return err
}

// TestStatsRollUpIntoObs runs one fixed workload through two Data Servers
// at once and checks that every Stats field with a process-wide name sums,
// over the instances, to the change of that name in obs.Default: each count
// is kept once, in the instance, and rolls up.
func TestStatsRollUpIntoObs(t *testing.T) {
	throttled := newRollupNode(t, remote.Config{MaxConcurrent: 1}, 3)
	open := newRollupNode(t, remote.Config{}, 2)
	nodes := []*rollupNode{throttled, open}
	before := obs.Default.Snapshot().Counters

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 2*3)
	for _, n := range nodes {
		for u := 0; u < 3; u++ {
			wg.Add(1)
			go func(n *rollupNode, user string) {
				defer wg.Done()
				if err := rollupWorkload(ctx, n, user); err != nil {
					errs <- err
				}
			}(n, fmt.Sprintf("user%d", u))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot().Counters

	fields := map[string]func(n *rollupNode) int64{
		"ds.queries":                   func(n *rollupNode) int64 { return n.srv.Stats().Queries },
		"ds.local_answers":             func(n *rollupNode) int64 { return n.srv.Stats().LocalAnswers },
		"core.remote_queries":          func(n *rollupNode) int64 { return n.proc.Stats().RemoteQueries },
		"core.cache_hits":              func(n *rollupNode) int64 { return n.proc.Stats().CacheHits },
		"core.literal_hits":            func(n *rollupNode) int64 { return n.proc.Stats().LiteralHits },
		"core.fused_away":              func(n *rollupNode) int64 { return n.proc.Stats().FusedAway },
		"core.local_answers":           func(n *rollupNode) int64 { return n.proc.Stats().LocalAnswers },
		"core.temp_tables":             func(n *rollupNode) int64 { return n.proc.Stats().TempTables },
		"cache.singleflight.leader":    func(n *rollupNode) int64 { return n.proc.Stats().FlightLeader },
		"cache.singleflight.shared":    func(n *rollupNode) int64 { return n.proc.Stats().FlightShared },
		"cache.intelligent.exact_hits": func(n *rollupNode) int64 { return n.intel.Stats().ExactHits },
		"cache.intelligent.derived_hits": func(n *rollupNode) int64 {
			return n.intel.Stats().DerivedHits
		},
		"cache.intelligent.misses":    func(n *rollupNode) int64 { return n.intel.Stats().Misses },
		"cache.intelligent.evictions": func(n *rollupNode) int64 { return n.intel.Stats().Evictions },
		"cache.literal.hits":          func(n *rollupNode) int64 { return n.lit.Stats().ExactHits },
		"cache.literal.misses":        func(n *rollupNode) int64 { return n.lit.Stats().Misses },
		"cache.literal.evictions":     func(n *rollupNode) int64 { return n.lit.Stats().Evictions },
		"cache.stale_served": func(n *rollupNode) int64 {
			return n.intel.Stats().StaleServed + n.lit.Stats().StaleServed
		},
		"pool.dials":       func(n *rollupNode) int64 { return n.srv.pools[n.key].Stats().Dials },
		"pool.dial_errors": func(n *rollupNode) int64 { return n.srv.pools[n.key].Stats().DialErrors },
		"pool.reuses":      func(n *rollupNode) int64 { return n.srv.pools[n.key].Stats().Reuses },
		"pool.evictions":   func(n *rollupNode) int64 { return n.srv.pools[n.key].Stats().Evictions },
		"pool.discards":    func(n *rollupNode) int64 { return n.srv.pools[n.key].Stats().Discards },
		"sched.admitted": func(n *rollupNode) int64 {
			return n.srv.Scheduler("FAA Flights").Stats().Admitted
		},
		"sched.admitted.direct": func(n *rollupNode) int64 {
			return n.srv.Scheduler("FAA Flights").Stats().AdmittedDirect
		},
		"sched.shed":            func(n *rollupNode) int64 { return n.srv.Scheduler("FAA Flights").Stats().Shed },
		"sched.shed.queue_full": func(n *rollupNode) int64 { return n.srv.Scheduler("FAA Flights").Stats().ShedQueueFull },
		"sched.shed.draining":   func(n *rollupNode) int64 { return n.srv.Scheduler("FAA Flights").Stats().ShedDraining },
		"sched.cluster.shed": func(n *rollupNode) int64 {
			return n.srv.Scheduler("FAA Flights").Stats().ShedClusterPressure
		},
		"sched.canceled": func(n *rollupNode) int64 { return n.srv.Scheduler("FAA Flights").Stats().Canceled },
		"resilience.breaker.opened": func(n *rollupNode) int64 {
			return n.proc.Resilience().Breaker().Stats().Opened
		},
		"resilience.breaker.fast_fails": func(n *rollupNode) int64 {
			return n.proc.Resilience().Breaker().Stats().FastFails
		},
	}
	for name, field := range fields {
		var sum int64
		for _, n := range nodes {
			sum += field(n)
		}
		if delta := after[name] - before[name]; sum != delta {
			t.Errorf("%s: instances sum to %d, obs.Default moved by %d", name, sum, delta)
		}
	}
	// The workload reaches every stage whose count the paper argues from.
	for _, name := range []string{"ds.queries", "ds.local_answers", "core.remote_queries", "core.cache_hits",
		"core.fused_away", "core.temp_tables", "cache.intelligent.derived_hits", "cache.intelligent.evictions",
		"pool.dials", "pool.reuses", "sched.admitted"} {
		if after[name] == before[name] {
			t.Errorf("%s never moved: the workload misses that stage", name)
		}
	}

	// MaxInFlight is the backend's in-flight high-water mark: a throttle of
	// one holds it at exactly one, a pool of two bounds it by two.
	if got := throttled.backend.Stats().MaxInFlight; got != 1 {
		t.Errorf("throttled backend MaxInFlight = %d, want 1", got)
	}
	if got := open.backend.Stats().MaxInFlight; got < 1 || got > 2 {
		t.Errorf("pool-of-2 backend MaxInFlight = %d, want 1..2", got)
	}
}
