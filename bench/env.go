package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"vizq/internal/cache"
	"vizq/internal/connection"
	"vizq/internal/core"
	"vizq/internal/dataserver"
	"vizq/internal/extract"
	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/resilience"
	"vizq/internal/sched"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/storage"
	"vizq/internal/vizql"
	"vizq/internal/workload"
)

// poolSize is the connection bound of every pool: this box has two cores,
// and a load generator wider than the machine measures its own queueing.
const poolSize = 2

// warmClientBase and allocClientBase keep the warm-up and allocation passes
// on session streams of their own.
const (
	warmClientBase  = 1000
	allocClientBase = 2000
)

// dataSeed generates the flights table and the text file. The data is a
// fixture of the workload, like its dashboards: result sizes, group counts
// and join fan-out stay put, and the run's seed drives only what a user
// does, the clients' session streams.
const dataSeed = 1

// csvRows is the size of the bench-written text file that goes through
// extract.CreateExtract during set-up.
const csvRows = 50_000

// shape is how a workload reaches the backend.
type shape int

const (
	// shapeCold is the desktop: every session gets a fresh core.Processor
	// (cold literal and intelligent caches) over one shared pool.
	shapeCold shape = iota
	// shapeShared is the server: all sessions share one warmed processor.
	shapeShared
	// shapeDataServer goes through a dataserver.Server's client connections.
	shapeDataServer
)

// workloadSpec fixes everything about a workload but the seed.
type workloadSpec struct {
	Name       string
	Rows       int // flights fact rows
	Clients    int // closed-loop client goroutines, zero think time
	Latency    time.Duration
	Shape      shape
	Dashboards []*vizql.Dashboard
	// TopK bounds the selection domain: a click picks, by Zipf(1.1) rank,
	// one of the top-K rows of the source zone's initial result.
	TopK int
	// Multi names source zones whose click is a multi-select of at least
	// that many values.
	Multi map[string]int
	// BudgetMS is the render budget behind vizql.over_budget_share.
	BudgetMS float64
	// LoadTail is the percentile reported as load_p95_ms where the run's
	// loads cannot place p95 itself (0 = p95).
	LoadTail float64
	// AllocSessions and TracedSessions are the fixed operation counts of the
	// allocation pass and of the traced pass, so their counts repeat.
	AllocSessions  int
	TracedSessions int
	// CSVRows is the size of the text file set-up runs through the extract path.
	CSVRows int
	// Users, Cache and WarmSessions configure the Data Server workload.
	Users        int
	Cache        cache.Options
	WarmSessions int
}

func workloadSpecs() []*workloadSpec {
	specs := []*workloadSpec{
		{
			Name: "cold_scan", Rows: 100_000, Clients: 1, Shape: shapeCold,
			Dashboards: []*vizql.Dashboard{vizql.FAADashboard(dataSource), vizql.FlightsDashboard(dataSource)},
			TopK:       20, BudgetMS: 60, AllocSessions: 16, TracedSessions: 30,
		},
		{
			Name: "wide_result", Rows: 20_000, Clients: 1, Shape: shapeCold,
			Dashboards: []*vizql.Dashboard{detailDashboard()},
			TopK:       12, Multi: map[string]int{"Markets": 300},
			BudgetMS: 100, AllocSessions: 8, TracedSessions: 8,
		},
		{
			Name: "warm_shared", Rows: 20_000, Clients: 2, Shape: shapeShared,
			Dashboards: []*vizql.Dashboard{vizql.FAADashboard(dataSource), fig3Dashboard()},
			TopK:       2, BudgetMS: 1, AllocSessions: 600, TracedSessions: 300,
		},
		{
			Name: "tenant_churn", Rows: 20_000, Clients: 2, Shape: shapeDataServer,
			Dashboards: []*vizql.Dashboard{vizql.FAADashboard(dataSource)},
			TopK:       8, BudgetMS: 15, AllocSessions: 60, TracedSessions: 80,
			Users: 8, Cache: cache.Options{MaxEntries: 1024, MaxBytes: 64 << 20, MaxResultBytes: 8 << 20},
			WarmSessions: 100,
			// With two clients on one source shard, one load in fifteen or
			// twenty waits behind the other client's click, and the load times
			// double between p93 and p97. The 800 loads of a run put p95
			// anywhere on that slope: resampling one run's loads alone moves
			// it by 15-25 %, and p90, below the slope, by 7-9 %.
			LoadTail: 90,
		},
		{
			Name: "wan_batch", Rows: 5_000, Clients: 1, Latency: 10 * time.Millisecond, Shape: shapeCold,
			Dashboards: []*vizql.Dashboard{fig3Dashboard(), vizql.FAADashboard(dataSource)},
			TopK:       6, BudgetMS: 45, AllocSessions: 12, TracedSessions: 12,
		},
	}
	for _, s := range specs {
		s.CSVRows = csvRows
	}
	return specs
}

func findSpec(name string) *workloadSpec {
	for _, s := range workloadSpecs() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// setupTimes is where set-up time went; the parts sum to setup_s.
type setupTimes struct {
	Build, Save, Open, Extract, Start, Warm time.Duration
	ExtractRows                             int
}

func (t setupTimes) parts() map[string]time.Duration {
	return map[string]time.Duration{"build": t.Build, "save": t.Save, "open": t.Open,
		"extract": t.Extract, "start": t.Start, "warm": t.Warm}
}

func (t setupTimes) total() time.Duration {
	var sum time.Duration
	for _, d := range t.parts() {
		sum += d
	}
	return sum
}

// env is one built workload: data, backend, pool and whatever sits in front.
type env struct {
	spec  *workloadSpec
	seed  int64
	eng   *engine.Engine
	srv   *remote.Server
	pool  *connection.Pool
	times setupTimes

	// shapeShared
	proc  *core.Processor
	intel *cache.IntelligentCache
	lit   *cache.LiteralCache

	// shapeDataServer
	ds          *dataserver.Server
	userFilters [][]query.Filter

	csvPath string
}

func (e *env) close() {
	if e.ds != nil {
		e.ds.Unpublish(dataSource)
	}
	if e.pool != nil {
		e.pool.Close()
	}
	if e.srv != nil {
		_ = e.srv.Close() // listener teardown at exit: nothing to do about a failure
	}
}

// processorOptions are the pipeline options of every bench processor.
func processorOptions(sd *sched.Scheduler) core.Options {
	opt := core.DefaultOptions()
	opt.Scheduler = sd
	return opt
}

// setup builds a workload from scratch under tmp: generate the data, save
// and reopen it as a single-file database, run a text file through the
// extract path, start the backend and dial the pool, then warm whatever the
// workload keeps warm. Everything here is setup_s.
func setup(ctx context.Context, spec *workloadSpec, seed int64, tmp string) (*env, error) {
	e := &env{spec: spec, seed: seed}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	t0 := time.Now()
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: spec.Rows, Days: 365, Seed: dataSeed})
	if err != nil {
		return nil, err
	}
	e.times.Build = time.Since(t0)

	path := filepath.Join(tmp, "flights.tde")
	t0 = time.Now()
	if err := storage.SaveDatabase(db, path); err != nil {
		return nil, err
	}
	e.times.Save = time.Since(t0)
	t0 = time.Now()
	if e.eng, err = engine.Open(path); err != nil {
		return nil, err
	}
	e.times.Open = time.Since(t0)

	// Writing the text file is input generation, not the system's work.
	e.csvPath = filepath.Join(tmp, "flights.csv")
	if err := writeFlightsCSV(e.csvPath, spec.CSVRows, dataSeed); err != nil {
		return nil, err
	}
	t0 = time.Now()
	xdb, err := extract.CreateExtract(e.csvPath, "csvflights", extract.ParseOptions{})
	if err != nil {
		return nil, err
	}
	e.times.Extract = time.Since(t0)
	tbl, err := xdb.Table("Extract", "csvflights")
	if err != nil {
		return nil, err
	}
	e.times.ExtractRows = int(tbl.Rows)

	t0 = time.Now()
	e.srv = remote.NewServer(e.eng, remote.Config{Latency: spec.Latency, QueryDOP: 1})
	if err := e.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	e.pool = connection.NewPool(e.srv.Addr(), connection.PoolConfig{Max: poolSize})
	if err := dialAll(ctx, e.pool); err != nil {
		return nil, err
	}
	switch spec.Shape {
	case shapeShared:
		e.intel, e.lit = cache.NewIntelligentCache(cache.DefaultOptions()), cache.NewLiteralCache(cache.DefaultOptions())
		e.proc = core.NewProcessor(e.pool, e.intel, e.lit, processorOptions(sched.New(sched.Config{Limit: poolSize})))
	case shapeDataServer:
		if err := e.startDataServer(); err != nil {
			return nil, err
		}
	}
	e.times.Start = time.Since(t0)

	t0 = time.Now()
	if err := e.warm(ctx); err != nil {
		return nil, err
	}
	e.times.Warm = time.Since(t0)
	ok = true
	return e, nil
}

// dialAll opens every connection the pool may hold, so the timed phase
// never pays a dial.
func dialAll(ctx context.Context, pool *connection.Pool) error {
	conns := make([]*remote.Conn, 0, pool.Max())
	defer func() {
		for _, c := range conns {
			pool.Release(c)
		}
	}()
	for i := 0; i < pool.Max(); i++ {
		c, err := pool.Acquire(ctx)
		if err != nil {
			return err
		}
		conns = append(conns, c)
	}
	return nil
}

// startDataServer publishes the flights table behind a Data Server with
// admission control, retry/breaker policy (no faults are injected) and
// caches sized well below the tenants' working set.
func (e *env) startDataServer() error {
	spec := e.spec
	e.ds = dataserver.NewServer(dataserver.Config{
		PipelineOptions: core.DefaultOptions(),
		CacheOptions:    spec.Cache,
		Resilience:      &resilience.Config{Seed: 1},
		Scheduler:       &sched.Config{},
	})
	filters := make(map[string][]query.Filter, spec.Users)
	for u := 0; u < spec.Users; u++ {
		// Row-level security: each tenant sees its own band of route
		// lengths, a column no dashboard action filters on.
		f := query.RangeFilter("distance", storage.IntValue(int64(150+u*120)), storage.IntValue(int64(2950-u*90)))
		e.userFilters = append(e.userFilters, []query.Filter{f})
		filters[userName(u)] = []query.Filter{f}
	}
	return e.ds.Publish(&dataserver.PublishedSource{
		Name:                      dataSource,
		Backend:                   e.srv.Addr(),
		View:                      query.View{Table: "flights"},
		UserFilters:               filters,
		BackendSupportsTempTables: true,
		MaxPoolConnections:        poolSize,
	})
}

func userName(u int) string { return fmt.Sprintf("tenant%d", u) }

// primeDictionaries runs one IN-filtered query per string column the
// dashboards filter on, one at a time. storage.Dictionary builds its lookup
// index on first use without synchronization, so the first two concurrent
// IN filters on a freshly opened database race on it (a fatal "concurrent
// map read and map write" about once in five cold_scan runs). The benchmark
// may not change the program, so it takes the first use out of the race.
func (e *env) primeDictionaries(ctx context.Context) error {
	count := []query.Measure{{Fn: query.Count, As: "n"}}
	views := []query.View{{Table: "flights"}, vizql.FlightsDashboard(dataSource).Zone("Airline Name").Spec.View}
	for _, view := range views {
		for _, col := range []string{"origin", "dest", "market", "carrier"} {
			q := &query.Query{View: view, Measures: count, Filters: []query.Filter{query.InFilter(col, storage.StrValue("-"))}}
			if _, err := e.eng.Query(ctx, q.ToTQL()); err != nil {
				return fmt.Errorf("prime %s: %w", col, err)
			}
		}
	}
	return nil
}

// warm brings the workload to the state its timed phase starts from.
func (e *env) warm(ctx context.Context) error {
	if err := e.primeDictionaries(ctx); err != nil {
		return err
	}
	switch e.spec.Shape {
	case shapeShared:
		return e.warmShared(ctx)
	case shapeDataServer:
		// Fill the caches to their budget so eviction is continuous from
		// the first timed render on.
		res, err := runPass(ctx, e, nil, passConfig{clients: 1, sessions: e.spec.WarmSessions, verify: verifyOff, clientBase: warmClientBase, seed: fixedSeed})
		if err != nil {
			return err
		}
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d warm-up renders failed: %w", e.spec.Name, res.Failed, res.Attempted, res.FirstErr)
		}
	}
	return nil
}

// warmShared visits the whole selection domain: every tuple of (nothing or
// one of the top-K values) per source zone, rendered once per dashboard.
// Any state the timed phase reaches — before or after a selection is
// invalidated — is one of these tuples, so it sends no backend query.
func (e *env) warmShared(ctx context.Context) error {
	for _, d := range e.spec.Dashboards {
		first, err := vizql.NewSession(d, e.proc)
		if err != nil {
			return err
		}
		if _, err := first.Render(ctx); err != nil {
			return err
		}
		sources := actionSources(d)
		cands := make([][]storage.Value, len(sources))
		for i, src := range sources {
			cands[i] = candidates(first.Result(src.zone), src.col, e.spec.TopK)
		}
		tuple := make([]int, len(sources)) // 0 = no selection, k = k-th candidate
		for {
			s, err := vizql.NewSession(d, e.proc)
			if err != nil {
				return err
			}
			for i, src := range sources {
				if tuple[i] > 0 && tuple[i] <= len(cands[i]) {
					if err := s.Select(src.zone, cands[i][tuple[i]-1]); err != nil {
						return err
					}
				}
			}
			if _, err := s.Render(ctx); err != nil {
				return err
			}
			i := 0
			for ; i < len(tuple); i++ {
				tuple[i]++
				if tuple[i] <= e.spec.TopK {
					break
				}
				tuple[i] = 0
			}
			if i == len(tuple) {
				break
			}
		}
	}
	return nil
}

// writeFlightsCSV writes a headed, comma-separated flights file.
func writeFlightsCSV(path string, rows int, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	rng := rand.New(rand.NewSource(seed))
	carriers := workload.CarrierCodes(0)
	airports := workload.AirportCodesList(0)
	fmt.Fprintln(w, "date,carrier,origin,dest,delay,distance")
	day0 := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < rows; i++ {
		day := day0.AddDate(0, 0, i*365/rows)
		fmt.Fprintf(w, "%s,%s,%s,%s,%.2f,%d\n", day.Format("2006-01-02"),
			carriers[rng.Intn(len(carriers))], airports[rng.Intn(len(airports))], airports[rng.Intn(len(airports))],
			rng.NormFloat64()*12+4, 150+rng.Intn(2800))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
