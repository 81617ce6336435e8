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
	"sync/atomic"
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
	// queries queue under their context's class, user and session
	// (hierarchical fair queuing — see sched.WithUser/WithSession), and
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

	// n is the live form of Stats.
	n struct {
		remoteQueries, cacheHits, literalHits, fusedAway, localAnswers,
		tempTables, flightLeader, flightShared, staleServed atomic.Int64
	}
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
	if opt.Resilience != nil {
		p.rs = resilience.New(*opt.Resilience, connection.IsTransport)
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
	return Stats{
		RemoteQueries: p.n.remoteQueries.Load(),
		CacheHits:     p.n.cacheHits.Load(),
		LiteralHits:   p.n.literalHits.Load(),
		FusedAway:     p.n.fusedAway.Load(),
		LocalAnswers:  p.n.localAnswers.Load(),
		TempTables:    p.n.tempTables.Load(),
		FlightLeader:  p.n.flightLeader.Load(),
		FlightShared:  p.n.flightShared.Load(),
		StaleServed:   p.n.staleServed.Load(),
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
	res, ok := p.probeIntelligent(q, &p.n.cacheHits, cCacheHits)
	ps.Finish()
	if ok {
		sp.Annotate("answer", "cache")
		return res, nil
	}
	sent := p.adjust(q)
	res, err := p.executeRemote(ctx, sent)
	if err != nil {
		return nil, err
	}
	if res.Stale {
		sp.Annotate("answer", "stale")
	}
	return deriveBack(sent, res, q)
}

// probeIntelligent asks the intelligent cache for q and counts a hit in the
// given pipeline counter (cache hit or, inside a batch, local answer).
func (p *Processor) probeIntelligent(q *query.Query, stat *atomic.Int64, c *obs.Counter) (*exec.Result, bool) {
	if p.opt.DisableIntelligentCache {
		return nil, false
	}
	res, ok := p.intelligent.Get(q)
	if ok {
		count(stat, c)
	}
	return res, ok
}

// count bumps one pipeline counter: the per-processor Stats field and its
// process-wide obs twin.
func count(stat *atomic.Int64, c *obs.Counter) {
	stat.Add(1)
	c.Inc()
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

// executeRemote answers the query as sent to the data source: literal
// cache, then one fetch — shared with concurrent identical misses via
// single-flight — and, should the fetch fail like an outage, a degraded
// read from an expired cache entry. A query that externalizes filters
// (Sect. 3.1) skips the literal cache and coalescing: what goes over the
// wire is not its text but a rewrite naming session-private temp tables.
func (p *Processor) executeRemote(ctx context.Context, q *query.Query) (*exec.Result, error) {
	temp := false
	for _, f := range q.Filters {
		temp = temp || p.externalized(f)
	}
	text := q.ToTQL()
	if !temp && !p.opt.DisableLiteralCache {
		_, ps := obs.StartSpan(ctx, obs.SpanCacheProbe)
		res, ok := p.literal.Get(text)
		ps.Finish()
		if ok {
			count(&p.n.literalHits, cLiteralHits)
			return res, nil
		}
	}
	var res *exec.Result
	var err error
	if temp || p.opt.DisableSingleFlight {
		res, err = p.fetchRemote(ctx, q, text, temp)
	} else {
		// Coalesce on the query text (the same structural key the literal
		// cache uses): concurrent misses for one query — many sessions
		// rendering the same fresh dashboard — execute remotely once, and
		// the waiters share the leader's result. Only the leader runs
		// fetchRemote, so waiters consume no admission slot and only the
		// leader populates the caches.
		var shared bool
		res, shared, err = p.flight.Do(ctx, text, func() (*exec.Result, error) {
			return p.fetchRemote(ctx, q, text, false)
		})
		if shared {
			p.n.flightShared.Add(1)
		} else {
			p.n.flightLeader.Add(1)
		}
	}
	if err != nil {
		// Degraded read: every coalesced waiter takes this path on its own
		// copy of the leader's error, so all of them share the stale answer.
		if stale, ok := p.staleFallback(ctx, q, text, err); ok {
			return stale, nil
		}
	}
	return res, err
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
	p.n.staleServed.Add(1)
	// Tag a shallow copy: the cached entry itself must stay untagged so a
	// later fresh hit is not mislabeled.
	tagged := *res
	tagged.Stale = true
	return &tagged, true
}

// Metadata retrieves a table's schema from the data source under the same
// resilience policy as queries (metadata retrieval is part of the
// connection-setup cost the pool exists to amortize, Sect. 3.5).
func (p *Processor) Metadata(ctx context.Context, table string) (*exec.Result, error) {
	return resilience.Do(ctx, p.rs, func(ctx context.Context) (*exec.Result, error) {
		return p.pool.Metadata(ctx, table)
	})
}

// fetchRemote is the one place a query reaches the data source: admitted by
// the scheduler when one is configured, retried under the resilience policy
// when one is configured, counted, and cached at the whole fetch's measured
// cost. temp says q externalizes filters; each retry re-runs the whole
// externalization, since temp tables created by a failed attempt died with
// its poisoned connection anyway.
func (p *Processor) fetchRemote(ctx context.Context, q *query.Query, text string, temp bool) (*exec.Result, error) {
	tk, err := p.opt.Scheduler.Admit(ctx)
	if err != nil {
		return nil, err
	}
	defer tk.Done()
	start := time.Now()
	res, err := resilience.Do(ctx, p.rs, func(ctx context.Context) (*exec.Result, error) {
		if temp {
			return p.executeWithTempTables(ctx, q)
		}
		return p.pool.Query(ctx, text)
	})
	if err != nil {
		return nil, err
	}
	cost := time.Since(start)
	count(&p.n.remoteQueries, cRemoteSent)
	if !temp && !p.opt.DisableLiteralCache {
		p.literal.Put(text, res, cost)
	}
	// An externalized query is cached under its ORIGINAL structure: the
	// temp-table join is an execution detail, the semantics are q's filters.
	if !p.opt.DisableIntelligentCache {
		p.intelligent.Put(q, res, cost)
	}
	return res, nil
}

// externalized reports whether f's enumeration is too large to send inline
// (Sect. 3.1/5.3).
func (p *Processor) externalized(f query.Filter) bool {
	n := p.opt.MaxInlineFilterValues
	return n > 0 && f.Kind == query.FilterIn && len(f.In) > n
}

// executeWithTempTables externalizes q's oversized IN filters as temporary
// tables in the remote session and rewrites the query to join against them
// ("externalization of large enumerations with temporary secondary
// structures", Sect. 3.1). The query must run on the connection holding the
// temp tables, so the pipeline pins one for the duration.
func (p *Processor) executeWithTempTables(ctx context.Context, q *query.Query) (*exec.Result, error) {
	ctx, sp := obs.StartSpan(ctx, obs.SpanTempTable)
	defer sp.Finish()
	conn, err := p.pool.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer p.pool.Release(conn)

	rewritten := q.Clone()
	var keep []query.Filter
	joinIdx := 0
	for _, f := range q.Filters {
		if !p.externalized(f) {
			keep = append(keep, f)
			continue
		}
		// Deduplicate: the n:1 join must not multiply fact rows.
		vals := exec.NewResult([]plan.ColInfo{{Name: "val", Type: f.In[0].Type, Coll: storage.CollBinary}})
		seen := make(map[string]bool, len(f.In))
		for _, v := range f.In {
			k := v.String()
			if v.Null || seen[k] {
				continue
			}
			seen[k] = true
			vals.AppendRow([]storage.Value{v})
		}
		alias := fmt.Sprintf("filter%d", joinIdx)
		joinIdx++
		name, err := conn.CreateTempTable(ctx, alias, vals)
		if err != nil {
			return nil, err
		}
		count(&p.n.tempTables, cTempTables)
		rewritten.View.Joins = append(rewritten.View.Joins, query.JoinSpec{
			Table: name, LeftCol: f.Col, RightCol: "val",
		})
	}
	rewritten.Filters = keep
	return conn.Query(ctx, rewritten.ToTQL())
}
