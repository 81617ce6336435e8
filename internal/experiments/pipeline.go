package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vizq/internal/cache"
	"vizq/internal/connection"
	"vizq/internal/core"
	"vizq/internal/kvstore"
	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

func newPipeline(addr string, poolSize int, opt core.Options) (*core.Processor, *connection.Pool) {
	pool := connection.NewPool(addr, connection.PoolConfig{Max: poolSize})
	return core.NewProcessor(pool, nil, nil, opt), pool
}

// fig3Batch builds a batch shaped like the paper's Fig. 3 cache-hit
// opportunity graph: a few broad source queries and several queries
// derivable from them.
func fig3Batch() []*query.Query {
	flights := query.View{Table: "flights"}
	count := []query.Measure{{Fn: query.Count, As: "n"}}
	return []*query.Query{
		// q1: broad carrier x origin aggregate (a source node).
		{View: flights, Dims: []query.Dim{{Col: "carrier"}, {Col: "origin"}},
			Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Sum, Col: "distance", As: "dist"}}},
		// q2: derivable roll-up of q1.
		{View: flights, Dims: []query.Dim{{Col: "carrier"}}, Measures: count},
		// q3: derivable filter of q1.
		{View: flights, Dims: []query.Dim{{Col: "origin"}}, Measures: count,
			Filters: []query.Filter{query.InFilter("carrier", storage.StrValue("WN"), storage.StrValue("AA"))}},
		// q4: derivable roll-up of q1 to origin.
		{View: flights, Dims: []query.Dim{{Col: "origin"}}, Measures: count},
		// q5: independent source: dest breakdown.
		{View: flights, Dims: []query.Dim{{Col: "dest"}},
			Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Avg, Col: "delay", As: "avgdelay"}}},
		// q6: derivable from q5 (projection restriction).
		{View: flights, Dims: []query.Dim{{Col: "dest"}}, Measures: count},
		// q7: independent source: daily counts.
		{View: flights, Dims: []query.Dim{{Col: "date"}}, Measures: count},
		// q8: derivable filter of q7.
		{View: flights, Dims: []query.Dim{{Col: "date"}}, Measures: count,
			Filters: []query.Filter{query.RangeFilter("date", storage.DateValue(2015, 3, 1), storage.DateValue(2015, 6, 30))}},
	}
}

// E1BatchProcessing measures two-phase batch processing (Sect. 3.3): serial
// submission vs concurrent submission with the cache-graph partition.
func E1BatchProcessing(s Scale) (*Table, error) {
	srv, err := startRemote(s.RemoteRows, remote.Config{Latency: s.Latency})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	t := &Table{
		ID:     "E1",
		Title:  "query batch processing (Fig. 3 batch, 8 queries)",
		Claim:  "partitioning the batch by cache-hit opportunities and submitting remote queries concurrently reduces dashboard latency vs one-by-one execution",
		Header: []string{"strategy", "remote queries", "batch ms", "vs serial"},
	}
	type variant struct {
		name string
		opt  core.Options
		pool int
	}
	variants := []variant{
		{"serial, no cache partition", core.Options{DisableBatchConcurrency: true, DisableIntelligentCache: true, DisableLiteralCache: true, DisableFusion: true}, 1},
		{"concurrent, no cache partition", core.Options{DisableIntelligentCache: true, DisableLiteralCache: true, DisableFusion: true}, 8},
		{"concurrent + cache partition", core.Options{DisableFusion: true}, 8},
		{"concurrent + partition + fusion", core.DefaultOptions(), 8},
	}
	var serialTime time.Duration
	for i, v := range variants {
		before := srv.Stats().Queries
		elapsed, err := median(s.Repeat, func() error {
			// Fresh caches per repetition: rebuild the processor.
			proc, pool := newPipeline(srv.Addr(), v.pool, v.opt)
			defer pool.Close()
			_, err := proc.ExecuteBatch(context.Background(), fig3Batch())
			return err
		})
		if err != nil {
			return nil, err
		}
		sent := (srv.Stats().Queries - before) / int64(maxI(1, s.Repeat)+1) // +1: the warmup run
		if i == 0 {
			serialTime = elapsed
		}
		t.Rows = append(t.Rows, []string{v.name, fmt.Sprint(sent), ms(elapsed), speedup(serialTime, elapsed)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("remote latency %v, backend rows %d", s.Latency, s.RemoteRows))
	stages, err := traceOnce(func(ctx context.Context) error {
		proc, pool := newPipeline(srv.Addr(), 8, core.DefaultOptions())
		defer pool.Close()
		_, err := proc.ExecuteBatch(ctx, fig3Batch())
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Stages = stages
	return t, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// E2QueryFusion measures Sect. 3.4: fusing projection-variant queries.
func E2QueryFusion(s Scale) (*Table, error) {
	srv, err := startRemote(s.RemoteRows, remote.Config{Latency: s.Latency})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	t := &Table{
		ID:     "E2",
		Title:  "query fusion (k projection variants over one relation)",
		Claim:  "replacing k same-relation queries with one query over the union of projections cuts both query count and total time",
		Header: []string{"k", "strategy", "remote queries", "batch ms", "vs unfused"},
	}
	measures := []query.Measure{
		{Fn: query.Count, As: "n"},
		{Fn: query.Sum, Col: "distance", As: "dist"},
		{Fn: query.Min, Col: "delay", As: "mind"},
		{Fn: query.Max, Col: "delay", As: "maxd"},
		{Fn: query.Sum, Col: "hour", As: "hsum"},
		{Fn: query.Min, Col: "distance", As: "mindist"},
		{Fn: query.Max, Col: "distance", As: "maxdist"},
		{Fn: query.Count, Col: "delay", As: "nd"},
	}
	for _, k := range []int{2, 4, 8} {
		batch := make([]*query.Query, k)
		for i := 0; i < k; i++ {
			batch[i] = &query.Query{
				View:     query.View{Table: "flights"},
				Dims:     []query.Dim{{Col: "market"}},
				Measures: []query.Measure{measures[i%len(measures)]},
			}
		}
		var unfusedTime time.Duration
		for _, fused := range []bool{false, true} {
			opt := core.Options{DisableIntelligentCache: true, DisableLiteralCache: true, DisableFusion: !fused}
			before := srv.Stats().Queries
			elapsed, err := median(s.Repeat, func() error {
				proc, pool := newPipeline(srv.Addr(), 8, opt)
				defer pool.Close()
				_, err := proc.ExecuteBatch(context.Background(), batch)
				return err
			})
			if err != nil {
				return nil, err
			}
			sent := (srv.Stats().Queries - before) / int64(maxI(1, s.Repeat)+1) // +1: the warmup run
			name := "unfused"
			if fused {
				name = "fused"
			} else {
				unfusedTime = elapsed
			}
			t.Rows = append(t.Rows, []string{fmt.Sprint(k), name, fmt.Sprint(sent), ms(elapsed), speedup(unfusedTime, elapsed)})
		}
	}
	return t, nil
}

// E3ConcurrentConnections measures Sect. 3.5: multiple pooled connections
// against backends with different execution models.
func E3ConcurrentConnections(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "concurrent query execution over multiple connections",
		Claim:  "using multiple connections to handle concurrent workloads boosts performance across backend architectures, when idle resources exist; backend throttles bound the gain",
		Header: []string{"backend", "pool size", "batch ms", "vs 1 conn"},
	}
	io := s.ScanIODelay
	backends := []struct {
		name string
		cfg  remote.Config
	}{
		{"thread-per-query", remote.Config{Latency: s.Latency, QueryDOP: 1, ScanBatchDelay: io}},
		{"parallel plans (DOP 4)", remote.Config{Latency: s.Latency, QueryDOP: 4, ScanBatchDelay: io}},
		{"throttled (max 2 concurrent)", remote.Config{Latency: s.Latency, QueryDOP: 1, MaxConcurrent: 2, ScanBatchDelay: io}},
	}
	batch := make([]*query.Query, 8)
	dims := []string{"carrier", "origin", "dest", "market", "hour", "date", "cancelled", "distance"}
	for i := range batch {
		batch[i] = &query.Query{
			View:     query.View{Table: "flights"},
			Dims:     []query.Dim{{Col: dims[i]}},
			Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Avg, Col: "delay", As: "a"}},
		}
	}
	for _, b := range backends {
		srv, err := startRemote(s.RemoteRows, b.cfg)
		if err != nil {
			return nil, err
		}
		var base time.Duration
		for _, poolSize := range []int{1, 2, 4, 8} {
			opt := core.Options{DisableIntelligentCache: true, DisableLiteralCache: true, DisableFusion: true}
			elapsed, err := median(s.Repeat, func() error {
				proc, pool := newPipeline(srv.Addr(), poolSize, opt)
				defer pool.Close()
				_, err := proc.ExecuteBatch(context.Background(), batch)
				return err
			})
			if err != nil {
				srv.Close()
				return nil, err
			}
			if poolSize == 1 {
				base = elapsed
			}
			t.Rows = append(t.Rows, []string{b.name, fmt.Sprint(poolSize), ms(elapsed), speedup(base, elapsed)})
		}
		if t.Stages == "" {
			// One traced pass on the first backend at full pool width shows
			// where batch time goes (pool wait vs remote round-trips).
			stages, err := traceOnce(func(ctx context.Context) error {
				proc, pool := newPipeline(srv.Addr(), 8,
					core.Options{DisableIntelligentCache: true, DisableLiteralCache: true, DisableFusion: true})
				defer pool.Close()
				_, err := proc.ExecuteBatch(ctx, batch)
				return err
			})
			if err != nil {
				srv.Close()
				return nil, err
			}
			t.Stages = stages
		}
		srv.Close()
	}
	return t, nil
}

// E4QueryCaching measures Sect. 3.2: cache levels across a multi-user
// dashboard interaction sequence on two server nodes.
func E4QueryCaching(s Scale) (*Table, error) {
	srv, err := startRemote(s.RemoteRows, remote.Config{Latency: s.Latency})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	store := kvstore.NewStore(256 << 20)
	kvSrv, err := kvstore.Serve("127.0.0.1:0", store)
	if err != nil {
		return nil, err
	}
	defer kvSrv.Close()

	t := &Table{
		ID:     "E4",
		Title:  "query caching across users and interactions (2 nodes x 3 users)",
		Claim:  "the intelligent cache answers identical and subsumed requests locally; the distributed layer keeps results warm regardless of which node serves a request",
		Header: []string{"cache mode", "backend queries", "total ms", "vs none"},
	}

	// The interaction sequence of one user: initial load (broad queries),
	// then filter interactions answerable by subsumption.
	userQueries := func() []*query.Query {
		flights := query.View{Table: "flights"}
		broad := &query.Query{View: flights,
			Dims:     []query.Dim{{Col: "carrier"}, {Col: "origin"}},
			Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Sum, Col: "distance", As: "dist"}}}
		var seq []*query.Query
		seq = append(seq, broad)
		for _, c := range workload.CarrierCodes(4) {
			q := broad.Clone()
			q.Dims = []query.Dim{{Col: "origin"}}
			q.Filters = []query.Filter{query.InFilter("carrier", storage.StrValue(c))}
			seq = append(seq, q)
		}
		seq = append(seq, &query.Query{View: flights, Dims: []query.Dim{{Col: "carrier"}},
			Measures: []query.Measure{{Fn: query.Count, As: "n"}}})
		return seq
	}

	type mode struct {
		name        string
		mk          func(node int) *core.Processor
		perUserNode bool
	}
	mkPool := func(size int) *connection.Pool {
		return connection.NewPool(srv.Addr(), connection.PoolConfig{Max: size})
	}
	modes := []mode{
		{"no caching", func(int) *core.Processor {
			return core.NewProcessor(mkPool(4), nil, nil,
				core.Options{DisableIntelligentCache: true, DisableLiteralCache: true})
		}, false},
		{"literal only", func(int) *core.Processor {
			return core.NewProcessor(mkPool(4), nil, nil, core.Options{DisableIntelligentCache: true})
		}, false},
		{"intelligent (per node)", func(int) *core.Processor {
			return core.NewProcessor(mkPool(4), nil, nil, core.Options{})
		}, false},
		{"intelligent + distributed", func(int) *core.Processor {
			cl := kvstore.NewClient(kvSrv.Addr(), 0)
			dist := cache.NewDistributed(cache.NewIntelligentCache(cache.DefaultOptions()), cl, time.Minute)
			return core.NewProcessor(mkPool(4), dist, nil, core.Options{})
		}, false},
	}

	var base time.Duration
	for mi, m := range modes {
		before := srv.Stats().Queries
		start := time.Now()
		// Two nodes; three users round-robin across them. Per-node caches
		// are fresh each mode.
		nodes := []*core.Processor{m.mk(0), m.mk(1)}
		for user := 0; user < 3; user++ {
			proc := nodes[user%2]
			for _, q := range userQueries() {
				if _, err := proc.Execute(context.Background(), q); err != nil {
					return nil, err
				}
			}
		}
		elapsed := time.Since(start)
		sent := srv.Stats().Queries - before
		if mi == 0 {
			base = elapsed
		}
		t.Rows = append(t.Rows, []string{m.name, fmt.Sprint(sent), ms(elapsed), speedup(base, elapsed)})
	}
	// Correlated-miss phase (thundering herd): many sessions render the
	// same fresh dashboard at once, so identical queries miss the cache
	// concurrently. Without coalescing every session pays a remote
	// round-trip; single-flight collapses the duplicates to ~1 remote
	// execution per distinct query.
	const herdUsers = 8
	distinct := fig3Batch()[:4]
	for _, sf := range []bool{false, true} {
		name := fmt.Sprintf("correlated miss x%d, no single-flight", herdUsers)
		opt := core.Options{DisableIntelligentCache: true, DisableLiteralCache: true, DisableSingleFlight: true}
		if sf {
			name = fmt.Sprintf("correlated miss x%d, single-flight", herdUsers)
			opt.DisableSingleFlight = false
		}
		proc, pool := newPipeline(srv.Addr(), herdUsers*len(distinct), opt)
		before := srv.Stats().Queries
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, herdUsers*len(distinct))
		release := make(chan struct{})
		for u := 0; u < herdUsers; u++ {
			for qi, q := range distinct {
				wg.Add(1)
				go func(slot int, q *query.Query) {
					defer wg.Done()
					<-release // all sessions fire at once
					_, err := proc.Execute(context.Background(), q)
					errs[slot] = err
				}(u*len(distinct)+qi, q)
			}
		}
		close(release)
		wg.Wait()
		pool.Close()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		sent := srv.Stats().Queries - before
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(sent), ms(time.Since(start)), "-"})
	}

	t.Notes = append(t.Notes,
		"each user issues 1 broad query + 4 filter drills + 1 roll-up; drills and roll-ups are subsumed by the broad query",
		fmt.Sprintf("correlated-miss phase: %d sessions issue the same %d distinct queries concurrently (caches off to isolate coalescing); single-flight should cut backend queries from %d toward %d",
			herdUsers, len(distinct), herdUsers*len(distinct), len(distinct)))
	stages, err := traceOnce(func(ctx context.Context) error {
		// One user's full sequence on a fresh intelligent-cache node: the
		// breakdown shows one remote round-trip and cache-probe answers for
		// the subsumed drills.
		proc := core.NewProcessor(mkPool(4), nil, nil, core.Options{})
		for _, q := range userQueries() {
			if _, err := proc.Execute(ctx, q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Stages = stages
	return t, nil
}
