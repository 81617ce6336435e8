// Package dataserver implements the Tableau Data Server (Sect. 5): a proxy
// between clients and underlying databases that hosts published data
// sources — shared calculations, shared extracts, row-level user filters —
// and manages temporary table state both in memory and on the database.
// Queries go through the same optimization pipeline as direct connections
// (the Tableau 9.0 unification), so published sources get identical
// caching, fusion and batching behaviour.
package dataserver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"vizq/internal/cache"
	"vizq/internal/connection"
	"vizq/internal/core"
	"vizq/internal/obs"
	"vizq/internal/query"
	"vizq/internal/resilience"
	"vizq/internal/sched"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// Data Server metrics, shared process-wide.
var (
	cDSQueries = obs.C("ds.queries")
	cDSLocal   = obs.C("ds.local_answers")
)

// PublishedSource is a data source published to the server: a view of the
// underlying database, shared calculations, and per-user row filters
// ("an individual salesperson may only be able to see customers in their
// region").
type PublishedSource struct {
	Name    string
	Backend string // address of the underlying database server
	View    query.View
	// Calculations maps shared calculation names to TQL expressions; a
	// calculation "can be defined once and used everywhere".
	Calculations map[string]string
	// UserFilters lists mandatory filters per user name.
	UserFilters map[string][]query.Filter
	// BackendSupportsTempTables is what connecting clients see as
	// Metadata.SupportsTempTables (the capability probe of Sect. 5.3).
	BackendSupportsTempTables bool
	// MaxPoolConnections bounds the proxy's pool to the database.
	MaxPoolConnections int
}

// Config tunes the server.
type Config struct {
	// PipelineOptions configure the shared query pipeline.
	PipelineOptions core.Options
	// CacheOptions sizes each published source's query caches (shard
	// count, entry/byte budgets, fresh/stale lifetimes). The zero value
	// uses cache.DefaultOptions().
	CacheOptions cache.Options
	// Resilience, when set, wraps every published source's backend access
	// in retry/backoff, a per-source circuit breaker, and (if ServeStale)
	// degraded reads from expired cache entries during outages.
	Resilience *resilience.Config
	// Scheduler, when set, places an admission controller in front of
	// every published source: client queries are fair-queued
	// hierarchically — per authenticated user, then per client connection
	// within the user — and overload is shed with sched.ErrShed instead of
	// queuing into slow timeouts. Each source's in-flight limit defaults
	// to its pool size. Extract pulls and refreshes dial the live database
	// on their own connection, outside admission.
	Scheduler *sched.Config
	// Cluster, when set (and Node and Bus are filled in), coordinates
	// admission across Data Server nodes: every published source's
	// scheduler publishes load digests through the bus and blends peer
	// pressure into local decisions. The coordinator is created at
	// NewServer and publishes only when its owner calls
	// Coordinator().Step, once per Interval on the owner's clock (the
	// cluster harness does). Ignored without Scheduler-equipped sources:
	// there is nothing to coordinate.
	Cluster *sched.ClusterConfig
}

// cacheOptions resolves the configured cache sizing.
func (c Config) cacheOptions() cache.Options {
	if c.CacheOptions == (cache.Options{}) {
		return cache.DefaultOptions()
	}
	return c.CacheOptions
}

// Stats counts server activity.
type Stats struct {
	Queries          int64
	LocalAnswers     int64 // evaluated without touching the database
	SharedTempReuses int64
}

// Server hosts published data sources.
type Server struct {
	cfg   Config
	coord *sched.Coordinator

	mu       sync.Mutex
	draining bool // refusing new sessions (see Drain)
	sources  map[string]*PublishedSource
	procs    map[string]*core.Processor
	pools    map[string]*connection.Pool
	scheds   map[string]*sched.Scheduler
	temps    map[string]*tempDef // content hash -> shared definition
	extracts map[string]*extractState
	connSeq  int

	// The live form of Stats; Queries and LocalAnswers roll up into their
	// Data Server metrics.
	queries, localAnswers, sharedTempReuses obs.Counter
}

// tempDef is one in-memory temporary table definition, shared across client
// connections and reference-counted (Sect. 5.4: "temporary table
// definitions are shared across client connections ... removed when all
// references to them are removed").
type tempDef struct {
	hash string
	rows *exec.Result
	col  string // single value column name
	refs int
}

// NewServer creates an empty Data Server.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		sources: make(map[string]*PublishedSource),
		procs:   make(map[string]*core.Processor),
		pools:   make(map[string]*connection.Pool),
		scheds:  make(map[string]*sched.Scheduler),
		temps:   make(map[string]*tempDef),
	}
	s.queries.RollUp(cDSQueries)
	s.localAnswers.RollUp(cDSLocal)
	if cfg.Cluster != nil {
		// An incomplete cluster config (no node id or bus) degrades to
		// uncoordinated per-node admission rather than failing the server:
		// coordination is advisory by design.
		if coord, err := sched.NewCoordinator(*cfg.Cluster); err == nil {
			s.coord = coord
		}
	}
	return s
}

// Coordinator returns the server's cluster admission coordinator, or nil
// when cluster coordination is not configured. Callers own its cadence:
// nothing publishes until the owner calls Step, once per Interval.
func (s *Server) Coordinator() *sched.Coordinator { return s.coord }

// Publish registers a data source.
func (s *Server) Publish(src *PublishedSource) error {
	if src.Name == "" || src.Backend == "" || src.View.Table == "" {
		return fmt.Errorf("dataserver: incomplete published source")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(src.Name)
	if _, ok := s.sources[key]; ok {
		return fmt.Errorf("dataserver: source %q already published", src.Name)
	}
	// Normalize lookup keys.
	if len(src.Calculations) > 0 {
		calcs := make(map[string]string, len(src.Calculations))
		for k, v := range src.Calculations {
			calcs[strings.ToLower(k)] = v
		}
		src.Calculations = calcs
	}
	if len(src.UserFilters) > 0 {
		uf := make(map[string][]query.Filter, len(src.UserFilters))
		for k, v := range src.UserFilters {
			uf[strings.ToLower(k)] = v
		}
		src.UserFilters = uf
	}
	max := src.MaxPoolConnections
	if max <= 0 {
		max = 4
	}
	pool := connection.NewPool(src.Backend, connection.PoolConfig{Max: max})
	popt := s.cfg.PipelineOptions
	if s.cfg.Resilience != nil {
		popt.Resilience = s.cfg.Resilience
	}
	// Admission control: one scheduler per source, its in-flight limit
	// anchored to the pool size unless the config pins one.
	if s.cfg.Scheduler != nil {
		sc := *s.cfg.Scheduler
		if sc.Limit <= 0 {
			sc.Limit = max
		}
		sd := sched.New(sc)
		s.scheds[key] = sd
		popt.Scheduler = sd
		if s.coord != nil {
			s.coord.Register(key, sd)
		}
	}
	s.sources[key] = src
	s.pools[key] = pool
	s.procs[key] = core.NewProcessor(pool, cache.NewIntelligentCache(s.cfg.cacheOptions()),
		cache.NewLiteralCache(s.cfg.cacheOptions()), popt)
	return nil
}

// Scheduler returns the named source's admission controller, or nil when
// the source is unknown or admission control is not configured.
func (s *Server) Scheduler(name string) *sched.Scheduler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scheds[strings.ToLower(name)]
}

// Unpublish removes a source, closing its pool and any extract server.
func (s *Server) Unpublish(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	if p, ok := s.pools[key]; ok {
		p.Close()
	}
	if st, ok := s.extracts[key]; ok {
		st.localSrv.Close()
		delete(s.extracts, key)
	}
	delete(s.sources, key)
	delete(s.pools, key)
	delete(s.procs, key)
	if _, ok := s.scheds[key]; ok && s.coord != nil {
		s.coord.Unregister(key)
	}
	delete(s.scheds, key)
}

// Stats snapshots counters.
func (s *Server) Stats() Stats {
	return Stats{
		Queries:          s.queries.Value(),
		LocalAnswers:     s.localAnswers.Value(),
		SharedTempReuses: s.sharedTempReuses.Value(),
	}
}

// Metadata describes a published source to a connecting client.
type Metadata struct {
	Source             string
	Table              string
	Calculations       []string
	SupportsTempTables bool
}

// ClientConn is one client's connection to a published data source. State
// (temp table references) is reclaimed by Close, mirroring connection
// expiry (Sect. 5.4).
type ClientConn struct {
	srv    *Server
	source *PublishedSource
	proc   *core.Processor
	user   string
	id     string // fair-queuing session identity

	mu    sync.Mutex
	temps map[string]*tempDef // client alias -> shared definition
	open  bool
}

// Connect opens a client connection; the returned metadata populates the
// client's data window.
func (s *Server) Connect(sourceName, user string) (*ClientConn, *Metadata, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, nil, fmt.Errorf("dataserver: connect refused: %w", ErrDraining)
	}
	key := strings.ToLower(sourceName)
	src, ok := s.sources[key]
	if !ok {
		return nil, nil, fmt.Errorf("dataserver: no published source %q", sourceName)
	}
	md := &Metadata{
		Source:             src.Name,
		Table:              src.View.Table,
		SupportsTempTables: src.BackendSupportsTempTables,
	}
	for name := range src.Calculations {
		md.Calculations = append(md.Calculations, name)
	}
	s.connSeq++
	return &ClientConn{
		srv:    s,
		source: src,
		proc:   s.procs[key],
		user:   user,
		id:     fmt.Sprintf("%s#%d", user, s.connSeq),
		temps:  make(map[string]*tempDef),
		open:   true,
	}, md, nil
}

// Close releases the connection's temp table references.
func (c *ClientConn) Close() {
	c.mu.Lock()
	temps := c.temps
	c.temps = map[string]*tempDef{}
	c.open = false
	c.mu.Unlock()
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	for _, def := range temps {
		def.refs--
		if def.refs <= 0 {
			delete(c.srv.temps, def.hash)
		}
	}
}

// CreateTempTable registers a single-column value list as an in-memory
// temporary table under the client-chosen alias. Identical contents share
// one definition across connections.
func (c *ClientConn) CreateTempTable(alias, col string, vals []storage.Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.open {
		return fmt.Errorf("dataserver: connection closed")
	}
	if _, ok := c.temps[alias]; ok {
		return fmt.Errorf("dataserver: temp table %q exists", alias)
	}
	if len(vals) == 0 {
		return fmt.Errorf("dataserver: empty temp table")
	}
	res := valuesResult(col, vals)
	h := contentHash(col, vals)

	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	def, ok := c.srv.temps[h]
	if ok {
		c.srv.sharedTempReuses.Inc()
	} else {
		def = &tempDef{hash: h, rows: res, col: col}
		c.srv.temps[h] = def
	}
	def.refs++
	c.temps[alias] = def
	return nil
}

// Query executes a client query against the published source: shared
// calculations are expanded, user filters enforced, temp-table filters
// resolved, and the result produced through the unified pipeline.
func (c *ClientConn) Query(ctx context.Context, q *query.Query) (*exec.Result, error) {
	c.mu.Lock()
	if !c.open {
		c.mu.Unlock()
		return nil, fmt.Errorf("dataserver: connection closed")
	}
	c.mu.Unlock()
	c.srv.queries.Inc()
	// Client queries are fair-queued per user and, within the user, per
	// client connection — so a user's share of the source is the same
	// whether they hold one connection or ten.
	ctx = sched.WithUser(ctx, c.user)
	ctx = sched.WithSession(ctx, c.id)
	ctx, sp := obs.StartSpan(ctx, obs.SpanDSQuery)
	defer sp.Finish()

	rq := q.Clone()
	rq.DataSource = c.source.Name

	// A query whose view IS a client temp table answers from memory before
	// the published view is substituted.
	c.mu.Lock()
	_, isTemp := c.temps[rq.View.Table]
	c.mu.Unlock()
	if isTemp {
		res, _, err := c.tryLocalTempQuery(rq)
		if err == nil {
			c.srv.localAnswers.Inc()
		}
		return res, err
	}
	rq.View = c.source.View

	// Expand shared calculations: a dim whose Col names a published
	// calculation becomes a calculated dimension.
	for i, d := range rq.Dims {
		if d.Col == "" {
			continue
		}
		if expr, ok := c.source.Calculations[strings.ToLower(d.Col)]; ok {
			rq.Dims[i] = query.Dim{Expr: expr, As: d.Name()}
		}
	}

	// Row-level security: user filters apply before anything else and
	// cannot be removed by the client.
	if uf, ok := c.source.UserFilters[strings.ToLower(c.user)]; ok {
		rq.Filters = append(append([]query.Filter(nil), uf...), rq.Filters...)
	}

	// Resolve temp-table filters for the backend.
	if err := c.resolveTempFilters(rq); err != nil {
		return nil, err
	}
	return c.proc.Execute(ctx, rq)
}

// tryLocalTempQuery answers a query whose view is a client temp table from
// the in-memory definition, no database involved.
func (c *ClientConn) tryLocalTempQuery(q *query.Query) (*exec.Result, bool, error) {
	c.mu.Lock()
	def, ok := c.temps[q.View.Table]
	c.mu.Unlock()
	if !ok || len(q.View.Joins) > 0 {
		return nil, false, nil
	}
	// Evaluate by deriving from a synthetic stored query over the temp rows.
	stored := &query.Query{
		DataSource: q.DataSource,
		View:       q.View,
		Dims:       []query.Dim{{Col: def.col}},
		Measures:   []query.Measure{{Fn: query.Count, As: "$n"}},
	}
	res, ok2 := cache.Derive(stored, def.rows, q)
	if !ok2 {
		return nil, true, fmt.Errorf("dataserver: temp table query not answerable locally")
	}
	return res, true, nil
}

// resolveTempFilters turns FilterTemp conjuncts, which name this
// connection's in-memory temp tables, into inline IN lists. The pipeline
// re-externalizes a list longer than its MaxInlineFilterValues into a
// session temp table on the database (Sect. 5.3).
func (c *ClientConn) resolveTempFilters(q *query.Query) error {
	var keep []query.Filter
	for _, f := range q.Filters {
		if f.Kind != query.FilterTemp {
			keep = append(keep, f)
			continue
		}
		c.mu.Lock()
		def, ok := c.temps[f.Temp]
		c.mu.Unlock()
		if !ok {
			return fmt.Errorf("dataserver: unknown temp table %q", f.Temp)
		}
		vals := make([]storage.Value, def.rows.N)
		for i := 0; i < def.rows.N; i++ {
			vals[i] = def.rows.Value(i, 0)
		}
		keep = append(keep, query.InFilter(f.Col, vals...))
	}
	q.Filters = keep
	return nil
}

func valuesResult(col string, vals []storage.Value) *exec.Result {
	res := exec.NewResult([]plan.ColInfo{
		{Name: col, Type: vals[0].Type},
		{Name: "$n", Type: storage.TInt},
	})
	seen := map[string]bool{}
	var key []byte
	for _, v := range vals {
		if v.Null {
			continue
		}
		key = valueKey(key[:0], v)
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		res.AppendRow([]storage.Value{v, storage.IntValue(1)})
	}
	return res
}

// valueKey appends v's type and canonical key. The key is length-prefixed
// and tags nulls, so two different value lists never encode the same
// bytes.
func valueKey(buf []byte, v storage.Value) []byte {
	return storage.AppendKey(append(buf, byte(v.Type)), v, storage.CollBinary)
}

// contentHash identifies a temp table's contents: its column name and
// every value's key, in order.
func contentHash(col string, vals []storage.Value) string {
	buf := storage.AppendKey(nil, storage.StrValue(strings.ToLower(col)), storage.CollBinary)
	for _, v := range vals {
		buf = valueKey(buf, v)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
