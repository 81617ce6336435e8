// Package core is the paper's primary contribution: the query processing
// pipeline for dashboards (Sect. 3). It prepares query batches — building
// the cache-hit opportunity graph, partitioning queries into remote and
// local sets, fusing projection-variant queries — submits remote queries
// concurrently over pooled connections, externalizes large filter
// enumerations into session temporary tables, and answers local queries
// from the two-level query cache.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"vizq/internal/cache"
	"vizq/internal/connection"
	"vizq/internal/obs"
	"vizq/internal/query"
	"vizq/internal/resilience"
	"vizq/internal/sched"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// Pipeline metrics, shared process-wide.
var (
	mBatchSize   = obs.H("core.batch.size")
	cRemoteSent  = obs.C("core.remote_queries")
	cCacheHits   = obs.C("core.cache_hits")
	cLiteralHits = obs.C("core.literal_hits")
	cFusedAway   = obs.C("core.fused_away")
	cLocal       = obs.C("core.local_answers")
	cTempTables  = obs.C("core.temp_tables")
)

// QueryCache is the intelligent-cache surface the processor needs; both
// *cache.IntelligentCache and *cache.Distributed satisfy it.
type QueryCache interface {
	Get(*query.Query) (*exec.Result, bool)
	Put(*query.Query, *exec.Result, time.Duration)
}

// StaleQueryCache is the optional degraded-read surface of a QueryCache:
// caches that can serve expired entries within a grace window implement it
// (the stale-on-error path takes it when the backend is unreachable).
type StaleQueryCache interface {
	GetStale(*query.Query) (*exec.Result, bool)
}

// Options tunes the pipeline; the Disable flags drive ablation benchmarks.
type Options struct {
	// DisableIntelligentCache turns semantic caching off.
	DisableIntelligentCache bool
	// DisableLiteralCache turns text caching off.
	DisableLiteralCache bool
	// DisableFusion turns query fusion (Sect. 3.4) off.
	DisableFusion bool
	// DisableBatchConcurrency executes batches serially (the baseline of
	// Sect. 3.3).
	DisableBatchConcurrency bool
	// DisableReuseAdjustment stops rewriting AVG into SUM/COUNT partials.
	//
	//vizlint:allow unused -- kept as a decision: the ablation benchmark measures the rewrite against it
	DisableReuseAdjustment bool
	// DisableSingleFlight turns off coalescing of concurrent identical
	// remote executions (the correlated-miss stampede defense).
	DisableSingleFlight bool
	// MaxInlineFilterValues externalizes larger IN lists into temporary
	// tables on the data source (Sect. 3.1/5.3). 0 disables.
	MaxInlineFilterValues int
	// Resilience, when non-nil, wraps backend access in retry/backoff and a
	// per-data-source circuit breaker, and (if Resilience.ServeStale) lets
	// the pipeline fall back to expired cache entries during outages.
	Resilience *resilience.Config
	// Scheduler, when non-nil, admission-controls every remote execution:
	// queries queue under their context's user and session (hierarchical
	// fair queuing — see sched.WithUser/WithSession), and
	// may be shed with sched.ErrShed under overload. Cache hits bypass it
	// — they consume no backend capacity. A shed never reaches the circuit
	// breaker (it is refused before the resilience layer runs), but it
	// qualifies for the stale-on-error degraded read like an outage does.
	Scheduler *sched.Scheduler
}

// DefaultOptions enable everything.
func DefaultOptions() Options {
	return Options{MaxInlineFilterValues: 250}
}

// Stats counts pipeline activity.
type Stats struct {
	RemoteQueries int64
	CacheHits     int64
	LiteralHits   int64
	FusedAway     int64
	LocalAnswers  int64
	TempTables    int64
	// FlightLeader counts remote executions that led a single-flight;
	// FlightShared counts executions avoided by joining one in flight.
	FlightLeader int64
	FlightShared int64
	// StaleServed counts degraded answers from expired cache entries while
	// the backend was unreachable.
	StaleServed int64
}

// Processor executes internal queries against one data source through the
// caching and batching pipeline.
type Processor struct {
	pool        *connection.Pool
	intelligent QueryCache
	literal     *cache.LiteralCache
	flight      *cache.Flight
	rs          *resilience.Resilience
	opt         Options

	// The live form of Stats, each rolled up into its pipeline metric
	// where one exists; FlightLeader and FlightShared are the flight's own
	// counts.
	remoteQueries, cacheHits, literalHits, fusedAway, localAnswers,
	tempTables, staleServed obs.Counter
}

// NewProcessor wires a pipeline. intelligent and literal may be nil (both
// caches then default to fresh instances; use Options to disable).
func NewProcessor(pool *connection.Pool, intelligent QueryCache, literal *cache.LiteralCache, opt Options) *Processor {
	if intelligent == nil {
		intelligent = cache.NewIntelligentCache(cache.DefaultOptions())
	}
	if literal == nil {
		literal = cache.NewLiteralCache(cache.DefaultOptions())
	}
	p := &Processor{pool: pool, intelligent: intelligent, literal: literal, flight: cache.NewFlight(), opt: opt}
	p.remoteQueries.RollUp(cRemoteSent)
	p.cacheHits.RollUp(cCacheHits)
	p.literalHits.RollUp(cLiteralHits)
	p.fusedAway.RollUp(cFusedAway)
	p.localAnswers.RollUp(cLocal)
	p.tempTables.RollUp(cTempTables)
	if opt.Resilience != nil {
		p.rs = resilience.New(*opt.Resilience)
	}
	return p
}

// Resilience exposes the pipeline's retry/breaker policy, or nil when none
// is configured (introspection: breaker state, loadsim reporting).
func (p *Processor) Resilience() *resilience.Resilience { return p.rs }

// ClearCaches purges both cache levels — done when a data source connection
// is closed or refreshed ("entries are also purged when a connection to a
// data source is closed or refreshed", Sect. 3.2).
func (p *Processor) ClearCaches() {
	p.literal.Clear()
	if c, ok := p.intelligent.(interface{ Clear() }); ok {
		c.Clear()
	}
}

// Stats snapshots counters.
func (p *Processor) Stats() Stats {
	leader, shared := p.flight.Counts()
	return Stats{
		RemoteQueries: p.remoteQueries.Value(),
		CacheHits:     p.cacheHits.Value(),
		LiteralHits:   p.literalHits.Value(),
		FusedAway:     p.fusedAway.Value(),
		LocalAnswers:  p.localAnswers.Value(),
		TempTables:    p.tempTables.Value(),
		FlightLeader:  leader,
		FlightShared:  shared,
		StaleServed:   p.staleServed.Value(),
	}
}

// Execute runs one query through the full pipeline: intelligent cache,
// reuse adjustment, literal cache, remote execution, cache population.
func (p *Processor) Execute(ctx context.Context, q *query.Query) (*exec.Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, obs.SpanQuery)
	defer sp.Finish()
	_, ps := obs.StartSpan(ctx, obs.SpanCacheProbe)
	res, ok := p.probeIntelligent(q, &p.cacheHits)
	ps.Finish()
	if ok {
		return res, nil
	}
	// A wave of one.
	sent := p.adjust(q)
	var got *exec.Result
	var err error
	p.executeRemote(ctx, []*query.Query{sent}, func(_ int, r *exec.Result, e error) { got, err = r, e })
	if err != nil {
		return nil, err
	}
	return deriveBack(sent, got, q)
}

// probeIntelligent asks the intelligent cache for q and counts a hit in the
// given pipeline counter (cache hit or, inside a batch, local answer).
func (p *Processor) probeIntelligent(q *query.Query, hits *obs.Counter) (*exec.Result, bool) {
	if p.opt.DisableIntelligentCache {
		return nil, false
	}
	res, ok := p.intelligent.Get(q)
	if ok {
		hits.Inc()
	}
	return res, ok
}

// adjust returns the query actually sent for q: q itself, or its
// reuse-adjusted form (Sect. 3.2) whose result deriveBack turns back into
// q's answer.
func (p *Processor) adjust(q *query.Query) *query.Query {
	if p.opt.DisableReuseAdjustment {
		return q
	}
	return cache.AdjustForReuse(q)
}

// deriveBack computes want's answer from the result of the query that was
// sent in its place (an adjusted or fused form of it).
func deriveBack(sent *query.Query, res *exec.Result, want *query.Query) (*exec.Result, error) {
	if sent == want {
		return res, nil
	}
	derived, ok := cache.Derive(sent, res, want)
	if !ok {
		return nil, errors.New("core: sent query does not cover the requested one")
	}
	// Deriving builds a new result: the degraded-read tag must survive it.
	derived.Stale = res.Stale
	return derived, nil
}

// stmt is one query of a remote wave on its way to the data source.
type stmt struct {
	i    int          // position in the wave
	q    *query.Query // the query as sent
	text string
	temp bool        // externalizes filters (Sect. 3.1): travels alone
	call *cache.Call // the single-flight call this statement leads or follows
	res  *exec.Result
	err  error
}

// executeRemote answers a wave of queries as sent to the data source — the
// remote queries of one batch, or the one query of an Execute — and calls
// done(i, res, err) for wave[i] as soon as its answer is known. Each query
// probes the literal cache, then joins single-flight on its text: a query
// already in flight is waited for, not sent. The queries this wave leads go
// out in pool.Spread(n) requests, each one fetchRemote. Should a query's
// answer fail like an outage, a degraded read from an expired cache entry
// stands in. A query that externalizes filters skips the literal cache and
// coalescing and travels in a request of its own: what goes over the wire
// is not its text but a rewrite naming session-private temp tables.
func (p *Processor) executeRemote(ctx context.Context, wave []*query.Query, done func(i int, res *exec.Result, err error)) {
	stmts := make([]stmt, len(wave))
	var hits, lead, temps, follow []*stmt
	for i, q := range wave {
		s := &stmts[i]
		s.i, s.q, s.text = i, q, q.ToTQL()
		for _, f := range q.Filters {
			s.temp = s.temp || p.externalized(f)
		}
		if !s.temp && !p.opt.DisableLiteralCache {
			_, ps := obs.StartSpan(ctx, obs.SpanCacheProbe)
			res, ok := p.literal.Get(s.text)
			ps.Finish()
			if ok {
				p.literalHits.Inc()
				s.res = res
				hits = append(hits, s)
				continue
			}
		}
		switch {
		case s.temp:
			temps = append(temps, s)
		case p.opt.DisableSingleFlight:
			lead = append(lead, s)
		default:
			// Coalesce on the query text (the same structural key the literal
			// cache uses): concurrent misses for one query — many sessions
			// rendering the same fresh dashboard — execute remotely once, and
			// the followers share the leader's result. Only leaders are sent,
			// so followers consume no admission slot and only leaders
			// populate the caches.
			call, leader := p.flight.Join(s.text)
			s.call = call
			if !leader {
				follow = append(follow, s)
				continue
			}
			lead = append(lead, s)
		}
	}

	reqs := make([][]*stmt, 0, len(temps)+len(lead))
	for i := range temps {
		reqs = append(reqs, temps[i:i+1])
	}
	if n := len(lead); n > 0 {
		k := p.pool.Spread(n)
		for r := 0; r < k; r++ {
			reqs = append(reqs, lead[r*n/k:(r+1)*n/k])
		}
	}
	answer := func(s *stmt) {
		// Degraded read: every follower takes this path on its own copy of
		// the leader's error, so all of them share the stale answer.
		if s.err != nil {
			if stale, ok := p.staleFallback(ctx, s.q, s.text, s.err); ok {
				s.res, s.err = stale, nil
			}
		}
		done(s.i, s.res, s.err)
	}

	// Every request and every followed flight proceeds on its own, and the
	// literal hits are answered while they do. A wave of one starts no
	// goroutine.
	var wg sync.WaitGroup
	inline := len(hits) == 0 && len(reqs)+len(follow) == 1
	run := func(f func()) {
		if inline {
			f()
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	for _, req := range reqs {
		run(func() {
			p.fetchRemote(ctx, req)
			for _, s := range req {
				if s.call != nil {
					p.flight.Finish(s.text, s.call, s.res, s.err)
				}
			}
			for _, s := range req {
				answer(s)
			}
		})
	}
	for _, s := range follow {
		run(func() {
			s.res, s.err = s.call.Wait(ctx)
			answer(s)
		})
	}
	for _, s := range hits {
		done(s.i, s.res, nil)
	}
	wg.Wait()
}

// staleFallback tries to answer q from an expired cache entry within its
// grace window after the fresh path failed. Everything but a query-level
// error qualifies: a transport failure or a breaker fast-fail is an outage,
// and a load shed counts like one (the backend was never asked, and a
// slightly old dashboard beats an error during an overload burst). A
// query-level error — the backend answered, the query is wrong — is never
// masked by old data.
func (p *Processor) staleFallback(ctx context.Context, q *query.Query, text string, err error) (*exec.Result, bool) {
	if !p.rs.ServeStale() || resilience.Classify(ctx, err) == resilience.QueryError {
		return nil, false
	}
	var res *exec.Result
	ok := false
	if !p.opt.DisableLiteralCache {
		res, ok = p.literal.GetStale(text)
	}
	if !ok && !p.opt.DisableIntelligentCache {
		if sc, isStale := p.intelligent.(StaleQueryCache); isStale {
			res, ok = sc.GetStale(q)
		}
	}
	if !ok {
		return nil, false
	}
	p.staleServed.Inc()
	// Tag a copy with its own header: the cached entry itself must stay
	// untagged so a later fresh hit is not mislabeled, and its column list
	// must not change with the copy's.
	tagged := *res
	tagged.Cols = slices.Clone(res.Cols)
	tagged.Stale = true
	return &tagged, true
}

// fetchRemote is the one place queries reach the data source. req is one
// request: a query that externalizes filters, or one or more plain queries
// that run one after another on one pooled connection. The request is
// admitted by the scheduler when one is configured and retried under the
// resilience policy when one is configured; a retry resends only the
// queries whose answers never arrived (an externalized query re-runs its
// whole externalization, since temp tables created by a failed attempt died
// with its poisoned connection). Every answered query is counted and cached
// at the request's measured cost.
func (p *Processor) fetchRemote(ctx context.Context, req []*stmt) {
	tk, err := p.opt.Scheduler.Admit(ctx)
	if err != nil {
		for _, s := range req {
			s.err = err
		}
		return
	}
	defer tk.Done()
	start := time.Now()
	pending := req
	_, err = resilience.Do(ctx, p.rs, func(ctx context.Context) (struct{}, error) {
		var err error
		pending, err = p.send(ctx, pending)
		return struct{}{}, err
	})
	for _, s := range pending {
		s.err = err
	}
	cost := time.Since(start)
	for _, s := range req {
		if s.err != nil {
			continue
		}
		p.remoteQueries.Inc()
		if !s.temp && !p.opt.DisableLiteralCache {
			p.literal.Put(s.text, s.res, cost)
		}
		// An externalized query is cached under its ORIGINAL structure: the
		// temp table is an execution detail, the semantics are its filters.
		if !p.opt.DisableIntelligentCache {
			p.intelligent.Put(s.q, s.res, cost)
		}
	}
}

// send makes one attempt at a request's pending queries. It returns the
// ones whose answers did not arrive, with the error that stopped them.
func (p *Processor) send(ctx context.Context, pending []*stmt) ([]*stmt, error) {
	if s := pending[0]; s.temp {
		res, err := p.executeWithTempTables(ctx, s.q)
		if err != nil {
			return pending, err
		}
		s.res = res
		return nil, nil
	}
	texts := make([]string, len(pending))
	for i, s := range pending {
		texts[i] = s.text
	}
	answers, err := p.pool.QueryMany(ctx, texts)
	for i, a := range answers {
		pending[i].res, pending[i].err = a.Result, a.Err
	}
	return pending[len(answers):], err
}

// externalized reports whether f's enumeration is too large to send inline
// (Sect. 3.1/5.3).
func (p *Processor) externalized(f query.Filter) bool {
	n := p.opt.MaxInlineFilterValues
	return n > 0 && f.Kind == query.FilterIn && len(f.In) > n
}

// executeWithTempTables externalizes q's oversized IN filters as temporary
// tables in the remote session and rewrites each one, in place, to an IN
// whose value set is that table ("externalization of large enumerations
// with temporary secondary structures", Sect. 3.1). The backend binds the
// set from the table into the same IN an inline list becomes, so
// duplicates, nulls and spellings are decided exactly as inline. The query
// must run on the connection holding the temp tables, so the pipeline pins
// one for the duration.
func (p *Processor) executeWithTempTables(ctx context.Context, q *query.Query) (*exec.Result, error) {
	ctx, sp := obs.StartSpan(ctx, obs.SpanTempTable)
	defer sp.Finish()
	conn, err := p.pool.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer p.pool.Release(conn)

	rewritten := *q
	rewritten.Filters = slices.Clone(q.Filters)
	n := 0 // aliases filter0, filter1, ... replace the last query's tables
	for i, f := range q.Filters {
		if !p.externalized(f) {
			continue
		}
		vals := exec.NewResult([]plan.ColInfo{{Name: "val", Type: f.In[0].Type}})
		for _, v := range f.In {
			vals.AppendRow([]storage.Value{v})
		}
		name, err := conn.CreateTempTable(ctx, fmt.Sprintf("filter%d", n), vals)
		if err != nil {
			return nil, err
		}
		n++
		p.tempTables.Inc()
		rewritten.Filters[i] = query.TempFilter(f.Col, name)
	}
	return conn.Query(ctx, rewritten.ToTQL())
}
