package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"vizq/internal/cache"
	"vizq/internal/core"
	"vizq/internal/extract"
	"vizq/internal/query"
	"vizq/internal/sched"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
	"vizq/internal/vizql"
)

const (
	// replayMaxQueries bounds the distinct queries replayed into each layer.
	replayMaxQueries = 300
	// replayMaxPairs bounds the (stored, requested) pairs given to Derive.
	replayMaxPairs = 200
	// replayCalls is how many times the constant-cost calls (admission on an
	// idle scheduler, acquire on a warm pool) are repeated.
	replayCalls = 20_000
	// replayCacheCalls is the number of Get and Put calls timed, unless
	// replayBudget runs out first.
	replayCacheCalls = 2_000
	// replayBudget bounds the time spent on any one replay loop whose cost
	// depends on the recorded results' sizes.
	replayBudget = 1500 * time.Millisecond
)

// replayResult is what layer replay measured: the traced pass's recorded
// inputs fed straight into each layer's public functions, one call at a
// time on one goroutine, so no layer waits on another.
type replayResult struct {
	Queries int

	PlanUS, ExecMS, MallocsPerQuery, AllocKBPerQuery float64
	WireUS, WireNSPerCell, RowsPerQuery              float64
	TempCreateMS                                     float64
	GetHitUS, GetMissUS, PutUS, DeriveUS             float64
	AdmitUS, AcquireUS                               float64
	DSOverheadUS                                     float64
	ParseRowsPerS                                    float64
}

// usPer is the mean cost of n calls that took d in all, in microseconds.
func usPer(d time.Duration, n int) float64 {
	return ratio(float64(d)/float64(time.Microsecond), float64(n))
}

// replay runs every layer's replay over the recording. tr receives one
// driver-side span per replayed call (per loop, for the constant-cost calls).
func replay(ctx context.Context, e *env, rec *recording, tr *tracePass) (*replayResult, error) {
	items := rec.items
	if len(items) > replayMaxQueries {
		items = items[:replayMaxQueries]
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("replay: the traced pass recorded no query")
	}
	out := &replayResult{Queries: len(items)}
	span := func(name string, start time.Time, d time.Duration) {
		tr.mu.Lock()
		tr.add(benchSpan{Name: name, Start: tr.rel(start), End: tr.rel(start.Add(d))})
		tr.mu.Unlock()
	}

	// What the pipeline sends for a lone query: AVG fetched as SUM and COUNT.
	sent := make([]*query.Query, len(items))
	texts := make([]string, len(items))
	for i, it := range items {
		sent[i] = cache.AdjustForReuse(it.q)
		texts[i] = sent[i].ToTQL()
	}

	// tde: compile, then execute, each text. Spans are booked after the
	// MemStats window so the window holds the engine's allocations only.
	type call struct {
		start    time.Time
		plan, ex time.Duration
	}
	calls := make([]call, len(items))
	results := make([]*exec.Result, len(items))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, text := range texts {
		calls[i].start = time.Now()
		node, err := e.eng.Plan(text)
		if err != nil {
			return nil, fmt.Errorf("replay: plan: %w", err)
		}
		calls[i].plan = time.Since(calls[i].start)
		t0 := time.Now()
		if results[i], err = e.eng.Execute(ctx, node); err != nil {
			return nil, fmt.Errorf("replay: execute: %w", err)
		}
		calls[i].ex = time.Since(t0)
	}
	runtime.ReadMemStats(&after)
	var planSum, execSum time.Duration
	for _, c := range calls {
		planSum += c.plan
		execSum += c.ex
		span("replay.tde.plan", c.start, c.plan)
		span("replay.tde.execute", c.start.Add(c.plan), c.ex)
	}
	n := len(items)
	out.PlanUS = usPer(planSum, n)
	out.ExecMS = usPer(execSum, n) / 1000
	out.MallocsPerQuery = float64(after.Mallocs-before.Mallocs) / float64(n)
	out.AllocKBPerQuery = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)

	// remote: the same text over a pooled connection, minus the engine run
	// directly and minus the configured simulated latency, is the wire.
	conn, err := e.pool.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer e.pool.Release(conn)
	var wire time.Duration
	var cells, rows int
	for _, text := range texts {
		t0 := time.Now()
		if _, err := e.eng.Query(ctx, text); err != nil {
			return nil, fmt.Errorf("replay: engine query: %w", err)
		}
		direct := time.Since(t0)
		t0 = time.Now()
		res, err := conn.Query(ctx, text)
		if err != nil {
			return nil, fmt.Errorf("replay: remote query: %w", err)
		}
		over := time.Since(t0)
		span("replay.remote.query", t0, over)
		wire += over - direct - e.spec.Latency
		rows += res.N
		cells += res.N * len(res.Cols)
	}
	out.WireUS = usPer(wire, n)
	out.WireNSPerCell = ratio(float64(wire), float64(cells))
	out.RowsPerQuery = float64(rows) / float64(n)

	// remote, upload direction: the recorded oversized IN lists as session
	// temp tables, the way the pipeline externalizes them.
	var creates int
	var createSum time.Duration
	for _, it := range items {
		for _, f := range it.q.Filters {
			if f.Kind != query.FilterIn || len(f.In) <= core.DefaultOptions().MaxInlineFilterValues || creates >= 16 {
				continue
			}
			vals := exec.NewResult([]plan.ColInfo{{Name: "val", Type: f.In[0].Type, Coll: storage.CollBinary}})
			for _, v := range f.In {
				vals.AppendRow([]storage.Value{v})
			}
			alias := fmt.Sprintf("replay%d", creates)
			t0 := time.Now()
			if _, err := conn.CreateTempTable(ctx, alias, vals); err != nil {
				return nil, fmt.Errorf("replay: temp create: %w", err)
			}
			d := time.Since(t0) - e.spec.Latency
			span("replay.remote.tempcreate", t0, d)
			createSum += d
			creates++
			if err := conn.DropTempTable(ctx, alias); err != nil {
				return nil, fmt.Errorf("replay: temp drop: %w", err)
			}
		}
	}
	out.TempCreateMS = usPer(createSum, creates) / 1000

	// cache: Put every recorded result into fresh caches, Get each back (a
	// hit), then Get a variant nothing stored can answer (a miss that scans
	// the whole bucket).
	intel := cache.NewIntelligentCache(cache.DefaultOptions())
	lit := cache.NewLiteralCache(cache.DefaultOptions())
	misses := make([]*query.Query, len(items))
	for i, it := range items {
		misses[i] = it.q.Clone()
		misses[i].Filters = append(misses[i].Filters, query.InFilter("cancelled", storage.BoolValue(true)))
	}
	rounds := 1 + replayCacheCalls/(2*n)
	var put, hit, miss time.Duration
	t0 := time.Now()
	done := 0
	for ; done < rounds && (done == 0 || time.Since(t0) < replayBudget); done++ {
		s := time.Now()
		for i, it := range items {
			intel.Put(it.q, it.res, time.Millisecond)
			lit.Put(texts[i], it.res, time.Millisecond)
		}
		put += time.Since(s)
		s = time.Now()
		for i, it := range items {
			if _, ok := intel.Get(it.q); !ok {
				return nil, fmt.Errorf("replay: intelligent cache lost %s", it.q.Key())
			}
			if _, ok := lit.Get(texts[i]); !ok {
				return nil, fmt.Errorf("replay: literal cache lost a text")
			}
		}
		hit += time.Since(s)
		s = time.Now()
		for i := range items {
			if _, ok := intel.Get(misses[i]); ok {
				return nil, fmt.Errorf("replay: intelligent cache answered a query it cannot hold")
			}
			if _, ok := lit.Get(texts[i] + " "); ok {
				return nil, fmt.Errorf("replay: literal cache answered a text it does not hold")
			}
		}
		miss += time.Since(s)
	}
	span("replay.cache.put_get", t0, time.Since(t0))
	out.PutUS = usPer(put, 2*n*done)
	out.GetHitUS = usPer(hit, 2*n*done)
	out.GetMissUS = usPer(miss, 2*n*done)

	// cache.Derive: the AVG re-derivation of each adjusted query, then every
	// recorded pair in which one query's result can answer another.
	type pair struct {
		stored *query.Query
		res    *exec.Result
		want   *query.Query
	}
	var pairs []pair
	for i, it := range items {
		if sent[i] != it.q && len(pairs) < replayMaxPairs {
			pairs = append(pairs, pair{sent[i], results[i], it.q})
		}
	}
	for i := 0; i < n && len(pairs) < replayMaxPairs; i++ {
		for j := 0; j < n && len(pairs) < replayMaxPairs; j++ {
			if i != j && cache.Subsumes(items[i].q, items[j].q) {
				pairs = append(pairs, pair{items[i].q, items[i].res, items[j].q})
			}
		}
	}
	var derive time.Duration
	derived := 0
	for _, p := range pairs {
		if derived > 0 && derive > replayBudget {
			break
		}
		derived++
		t0 := time.Now()
		if _, ok := cache.Derive(p.stored, p.res, p.want); !ok {
			return nil, fmt.Errorf("replay: derive refused a pair Subsumes accepted")
		}
		d := time.Since(t0)
		span("replay.cache.derive", t0, d)
		derive += d
	}
	out.DeriveUS = usPer(derive, derived)

	// sched: Admit and Done on an idle scheduler.
	sd := sched.New(sched.Config{Limit: poolSize})
	t0 = time.Now()
	for i := 0; i < replayCalls; i++ {
		tk, err := sd.Admit(ctx)
		if err != nil {
			return nil, fmt.Errorf("replay: admit: %w", err)
		}
		tk.Done()
	}
	span("replay.sched.admit_done", t0, time.Since(t0))
	out.AdmitUS = usPer(time.Since(t0), replayCalls)

	// connection: Acquire and Release on the warm pool (its other connection;
	// this function still holds one).
	t0 = time.Now()
	for i := 0; i < replayCalls; i++ {
		c, err := e.pool.Acquire(ctx)
		if err != nil {
			return nil, fmt.Errorf("replay: acquire: %w", err)
		}
		e.pool.Release(c)
	}
	span("replay.connection.acquire_release", t0, time.Since(t0))
	out.AcquireUS = usPer(time.Since(t0), replayCalls)

	if e.ds != nil {
		if out.DSOverheadUS, err = replayDataServer(ctx, e); err != nil {
			return nil, err
		}
	}

	t0 = time.Now()
	tt, err := extract.ParseFile(e.csvPath, extract.ParseOptions{})
	if err != nil {
		return nil, fmt.Errorf("replay: parse: %w", err)
	}
	span("replay.extract.parse", t0, time.Since(t0))
	out.ParseRowsPerS = float64(len(tt.Rows)) / time.Since(t0).Seconds()
	return out, nil
}

// replayDataServer times ClientConn.Query on cache-warm queries against
// Processor.Execute of the same queries as the Data Server rewrites them:
// what the proxy adds on top of the pipeline it shares with direct clients.
func replayDataServer(ctx context.Context, e *env) (float64, error) {
	conn, _, err := e.ds.Connect(dataSource, userName(0))
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	proc := core.NewProcessor(e.pool, nil, nil, core.DefaultOptions())
	var client, direct []*query.Query
	for _, z := range vizql.FAADashboard(dataSource).Zones {
		if z.Kind == vizql.ZoneQuickFilter {
			continue
		}
		rq := z.Spec.Clone()
		rq.Filters = append(append([]query.Filter(nil), e.userFilters[0]...), rq.Filters...)
		client, direct = append(client, z.Spec), append(direct, rq)
	}
	const rounds = 200
	var viaDS, viaProc time.Duration
	for r := 0; r <= rounds; r++ {
		t0 := time.Now()
		for _, q := range client {
			if _, err := conn.Query(ctx, q); err != nil {
				return 0, fmt.Errorf("replay: data server query: %w", err)
			}
		}
		t1 := time.Now()
		for _, q := range direct {
			if _, err := proc.Execute(ctx, q); err != nil {
				return 0, fmt.Errorf("replay: processor execute: %w", err)
			}
		}
		if r > 0 { // round 0 fills both caches
			viaDS += t1.Sub(t0)
			viaProc += time.Since(t1)
		}
	}
	return usPer(viaDS-viaProc, rounds*len(client)), nil
}
