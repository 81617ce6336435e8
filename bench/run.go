package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"strings"
	"sync"
	"time"

	"vizq/internal/cache"
	"vizq/internal/core"
	"vizq/internal/dataserver"
	"vizq/internal/obs"
	"vizq/internal/query"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/storage"
	"vizq/internal/vizql"
)

// verifyMode says when a client checks its renders against the reference.
type verifyMode int

const (
	// verifyInline checks each render right after it, outside the timing.
	verifyInline verifyMode = iota
	// verifyDeferred keeps the results and checks them when the pass ends,
	// so the pass itself allocates nothing on the verifier's behalf.
	verifyDeferred
	// verifyOff is for warm-up passes, whose renders are thrown away.
	verifyOff
)

// zoneCheck is one rendered zone to verify: the query as the backend has to
// answer it, and what the stack returned for it.
type zoneCheck struct {
	zone string
	q    *query.Query
	res  *exec.Result
}

// dashSession is one user's open dashboard, over whichever front end the
// workload uses.
type dashSession interface {
	render(ctx context.Context) (*vizql.RenderReport, error)
	selectValues(zone string, vals []storage.Value) error
	result(zone string) *exec.Result
	// checks lists the zones redrawn since the previous call.
	checks() []zoneCheck
}

// drawn remembers what was last verified per zone, so that a zone the last
// render did not touch is not verified again.
type drawn struct {
	last map[string]zoneCheck
}

func (d *drawn) changed(zone string, q *query.Query, res *exec.Result) bool {
	if d.last == nil {
		d.last = map[string]zoneCheck{}
	}
	if prev, ok := d.last[zone]; ok && prev.res == res && prev.q.Key() == q.Key() {
		return false
	}
	d.last[zone] = zoneCheck{zone: zone, q: q, res: res}
	return true
}

// vizqlSession renders through vizql.Session over a core.Processor.
type vizqlSession struct {
	dash *vizql.Dashboard
	s    *vizql.Session
	drawn
}

func (v *vizqlSession) render(ctx context.Context) (*vizql.RenderReport, error) {
	return v.s.Render(ctx)
}
func (v *vizqlSession) selectValues(zone string, vals []storage.Value) error {
	return v.s.Select(zone, vals...)
}
func (v *vizqlSession) result(zone string) *exec.Result { return v.s.Result(zone) }
func (v *vizqlSession) checks() []zoneCheck {
	var out []zoneCheck
	for _, z := range v.dash.Zones {
		q, res := v.s.ZoneQuery(z), v.s.Result(z.Name)
		if v.changed(z.Name, q, res) {
			out = append(out, zoneCheck{zone: z.Name, q: q, res: res})
		}
	}
	return out
}

// dsSession renders through a Data Server client connection: the dashboard
// state lives in a processor-less vizql.Session, and a render issues the
// dirty zones' queries one by one through ClientConn.Query, completing when
// the last returns and no selection was invalidated.
type dsSession struct {
	dash       *vizql.Dashboard
	state      *vizql.Session
	conn       *dataserver.ClientConn
	userFilter []query.Filter
	dirty      map[string]bool
	results    map[string]*exec.Result
	drawn
}

func (d *dsSession) render(ctx context.Context) (*vizql.RenderReport, error) {
	rep := &vizql.RenderReport{}
	start := time.Now()
	for iter := 0; iter < 8; iter++ {
		n := 0
		for _, z := range d.dash.Zones {
			if !d.dirty[z.Name] {
				continue
			}
			res, err := d.conn.Query(ctx, d.state.ZoneQuery(z))
			if err != nil {
				return nil, fmt.Errorf("zone %s: %w", z.Name, err)
			}
			d.results[z.Name] = res
			d.dirty[z.Name] = false
			n++
		}
		if n == 0 {
			break
		}
		rep.Iterations++
		rep.BatchSizes = append(rep.BatchSizes, n)
		rep.ZonesDrawn += n
		// As vizql.Session.Render does: a selected value that vanished from
		// its source zone's new result is dropped, and the zones it filtered
		// are drawn again without it.
		for _, a := range d.dash.Actions {
			src := d.dash.Zone(a.Source)
			sel := d.state.Selection(a.Source)
			res := d.results[src.Name]
			if src.Kind == vizql.ZoneQuickFilter || len(sel) == 0 || res == nil || res.ColumnIndex(a.Col) < 0 {
				continue
			}
			col := res.ColumnIndex(a.Col)
			var kept []storage.Value
			for _, v := range sel {
				for r := 0; r < res.N; r++ {
					if storage.Equal(res.Value(r, col), v, res.Schema[col].Coll) {
						kept = append(kept, v)
						break
					}
				}
			}
			if len(kept) != len(sel) {
				if err := d.selectValues(a.Source, kept); err != nil {
					return nil, err
				}
			}
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

func (d *dsSession) selectValues(zone string, vals []storage.Value) error {
	if err := d.state.Select(zone, vals...); err != nil {
		return err
	}
	for _, a := range d.dash.Actions {
		if strings.EqualFold(a.Source, zone) {
			for _, t := range a.Targets {
				d.dirty[d.dash.Zone(t).Name] = true
			}
		}
	}
	return nil
}

func (d *dsSession) result(zone string) *exec.Result { return d.results[d.dash.Zone(zone).Name] }

func (d *dsSession) checks() []zoneCheck {
	var out []zoneCheck
	for _, z := range d.dash.Zones {
		// The reference runs what the Data Server must send: the tenant's
		// row-level filter ahead of the zone's own.
		q := d.state.ZoneQuery(z).Clone()
		q.Filters = append(append([]query.Filter(nil), d.userFilter...), q.Filters...)
		if res := d.results[z.Name]; d.changed(z.Name, q, res) {
			out = append(out, zoneCheck{zone: z.Name, q: q, res: res})
		}
	}
	return out
}

// client is one closed-loop user: it waits for each render before the next
// click, with no think time.
type client struct {
	env     *env
	planner *planner
	ver     *verifier
	verify  verifyMode
	conns   []*dataserver.ClientConn // one per tenant (Data Server only)

	// The caches of the client's latest session, where the client owns them.
	intel *cache.IntelligentCache
	lit   *cache.LiteralCache

	// tr and rec are set for the traced pass only.
	tr  *tracePass
	rec *recording

	loads, interacts []float64 // ms
	busy             time.Duration
	attempted        int
	failed           int
	firstErr         error
	pending          [][]zoneCheck // one entry per render
	ops              hash.Hash

	iterations, batches, batchQueries, overBudget int
}

func newClient(e *env, seed int64, id int, ver *verifier) *client {
	return &client{env: e, planner: newPlanner(e.spec, seed, id), ver: ver, ops: sha256.New()}
}

// connect opens the client's Data Server connections, one per tenant.
func (c *client) connect() error {
	if c.env.ds == nil || c.conns != nil {
		return nil
	}
	for u := 0; u < c.env.spec.Users; u++ {
		conn, _, err := c.env.ds.Connect(dataSource, userName(u))
		if err != nil {
			return err
		}
		c.conns = append(c.conns, conn)
	}
	return nil
}

func (c *client) close() {
	for _, conn := range c.conns {
		conn.Close()
	}
	c.conns = nil
}

func (c *client) opsHash() string { return hex.EncodeToString(c.ops.Sum(nil)) }

// open starts a session on the plan's dashboard. On the desktop shape that
// means a fresh processor: cold caches for every session.
func (c *client) open(pl sessionPlan) (dashSession, error) {
	d := c.env.spec.Dashboards[pl.Dash]
	switch c.env.spec.Shape {
	case shapeDataServer:
		state, err := vizql.NewSession(d, nil)
		if err != nil {
			return nil, err
		}
		s := &dsSession{dash: d, state: state, conn: c.conns[pl.User], userFilter: c.env.userFilters[pl.User],
			dirty: map[string]bool{}, results: map[string]*exec.Result{}}
		for _, z := range d.Zones {
			s.dirty[z.Name] = true
		}
		return s, nil
	case shapeShared:
		s, err := vizql.NewSession(d, c.env.proc)
		return &vizqlSession{dash: d, s: s}, err
	default:
		c.intel, c.lit = cache.NewIntelligentCache(cache.DefaultOptions()), cache.NewLiteralCache(cache.DefaultOptions())
		proc := core.NewProcessor(c.env.pool, c.intel, c.lit, processorOptions(nil))
		s, err := vizql.NewSession(d, proc)
		return &vizqlSession{dash: d, s: s}, err
	}
}

// runSession is the unit of work: one initial load, then four clicks, each
// followed by the render it causes.
func (c *client) runSession(ctx context.Context, pl sessionPlan) {
	d := c.env.spec.Dashboards[pl.Dash]
	var s dashSession
	ok := c.timed(ctx, "load", &c.loads, func(ctx context.Context) (*vizql.RenderReport, error) {
		var err error
		if s, err = c.open(pl); err != nil {
			return nil, err
		}
		return s.render(ctx)
	})
	if !ok {
		return
	}
	c.afterRender(ctx, s)

	top, all := map[string][]storage.Value{}, map[string][]storage.Value{}
	for _, src := range actionSources(d) {
		top[src.zone] = candidates(s.result(src.zone), src.col, c.env.spec.TopK)
		if c.env.spec.Multi[src.zone] > 0 {
			all[src.zone] = candidates(s.result(src.zone), src.col, 0)
		}
	}
	for _, st := range pl.Steps {
		vals := st.resolve(top[st.Source], all[st.Source])
		fmt.Fprintf(c.ops, "%s|%d|%s|", d.Name, pl.User, st.Source)
		for _, v := range vals {
			fmt.Fprintf(c.ops, "%s,", v)
		}
		ok := c.timed(ctx, "interact", &c.interacts, func(ctx context.Context) (*vizql.RenderReport, error) {
			if err := s.selectValues(st.Source, vals); err != nil {
				return nil, err
			}
			return s.render(ctx)
		})
		if !ok {
			return
		}
		c.afterRender(ctx, s)
	}
}

// timed runs one render and books its latency. A render that errors is a
// failed operation and ends the session.
func (c *client) timed(ctx context.Context, kind string, into *[]float64, fn func(context.Context) (*vizql.RenderReport, error)) bool {
	c.attempted++
	var tracer *obs.Tracer
	if c.tr != nil {
		tracer = obs.New()
		ctx = obs.WithTracer(ctx, tracer)
	}
	start := time.Now()
	rep, err := fn(ctx)
	end := time.Now()
	elapsed := end.Sub(start)
	c.busy += elapsed
	if c.tr != nil {
		c.tr.addRender(kind, start, end, tracer)
	}
	if err != nil {
		c.fail(err)
		c.overBudget++ // a failed render misses any budget
		return false
	}
	ms := float64(elapsed) / float64(time.Millisecond)
	*into = append(*into, ms)
	c.iterations += rep.Iterations
	c.batches += len(rep.BatchSizes)
	for _, b := range rep.BatchSizes {
		c.batchQueries += b
	}
	if ms > c.env.spec.BudgetMS {
		c.overBudget++
	}
	return true
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *client) afterRender(ctx context.Context, s dashSession) {
	if c.verify == verifyOff {
		return
	}
	checks := s.checks()
	if c.rec != nil {
		c.rec.add(checks)
	}
	if c.verify == verifyDeferred {
		c.pending = append(c.pending, checks)
		return
	}
	c.verifyAll(ctx, checks)
}

// verifyAll books at most one failure per call: one render, one operation.
func (c *client) verifyAll(ctx context.Context, checks []zoneCheck) {
	for _, ch := range checks {
		if err := c.ver.check(ctx, ch.q, ch.res); err != nil {
			c.fail(fmt.Errorf("zone %s: result mismatch: %w", ch.zone, err))
			return
		}
	}
}

// passResult is what a pass over a workload measured.
type passResult struct {
	Loads, Interacts []float64
	RendersPerS      float64
	Renders          int
	Attempted        int
	Failed           int
	FirstErr         error
	OpsHash          string
	BackendQueries   int64

	Iterations, Batches, BatchQueries, OverBudget int
	Mallocs, AllocBytes                           uint64
	// ResidentEntries counts the results held, when the pass ends, by the
	// caches the driver can see: the shared processor's, or those of each
	// client's last session.
	ResidentEntries int
}

// passConfig says how long a pass runs and how it verifies.
type passConfig struct {
	clients int
	// Exactly one of seconds and sessions is set: a timed pass starts no new
	// session once it has run that long by the wall clock, verification
	// included, so a run takes the same time on every workload; a counted
	// pass runs that many sessions per client.
	seconds  float64
	sessions int
	verify   verifyMode
	// clientBase offsets the client ids, and with them the planner streams,
	// so a counted pass does not depend on how far the timed pass got.
	clientBase int
	// seed replaces the run's seed for this pass's session streams (0 = the
	// run's seed).
	seed int64
	tr   *tracePass
	rec  *recording
}

// runPass drives the workload's clients, each on its own goroutine and its
// own session stream, and merges what they measured.
func runPass(ctx context.Context, e *env, ver *verifier, cfg passConfig) (*passResult, error) {
	clients := make([]*client, cfg.clients)
	for i := range clients {
		seed := cfg.seed
		if seed == 0 {
			seed = e.seed
		}
		c := newClient(e, seed, cfg.clientBase+i, ver)
		c.verify, c.tr, c.rec = cfg.verify, cfg.tr, cfg.rec
		if err := c.connect(); err != nil {
			return nil, err
		}
		defer c.close()
		clients[i] = c
	}
	limit := time.Duration(cfg.seconds * float64(time.Second))
	backendBefore := e.srv.Stats().Queries
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	passStart := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for n := 0; ctx.Err() == nil; n++ {
				if cfg.sessions > 0 && n >= cfg.sessions {
					return
				}
				if cfg.sessions == 0 && time.Since(passStart) >= limit {
					return
				}
				c.runSession(ctx, c.planner.next())
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)

	res := &passResult{
		BackendQueries: e.srv.Stats().Queries - backendBefore,
		Mallocs:        after.Mallocs - before.Mallocs,
		AllocBytes:     after.TotalAlloc - before.TotalAlloc,
	}
	var hashes []string
	for _, c := range clients {
		for _, checks := range c.pending {
			c.verifyAll(ctx, checks)
		}
		res.Loads = append(res.Loads, c.loads...)
		res.Interacts = append(res.Interacts, c.interacts...)
		if n := len(c.loads) + len(c.interacts); n > 0 {
			res.RendersPerS += float64(n) / c.busy.Seconds()
		}
		res.Attempted += c.attempted
		res.Failed += c.failed
		if res.FirstErr == nil {
			res.FirstErr = c.firstErr
		}
		res.Iterations += c.iterations
		res.Batches += c.batches
		res.BatchQueries += c.batchQueries
		res.OverBudget += c.overBudget
		hashes = append(hashes, c.opsHash())
		if c.intel != nil {
			res.ResidentEntries += c.intel.Len() + c.lit.Len()
		}
	}
	if e.intel != nil {
		res.ResidentEntries = e.intel.Len() + e.lit.Len()
	}
	res.Renders = len(res.Loads) + len(res.Interacts)
	res.OpsHash = strings.Join(hashes, "+")
	return res, ctx.Err()
}
