package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vizq/internal/cache"
	"vizq/internal/chaos"
	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/resilience"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// waveQueries are five remote queries nothing in a batch fuses or derives
// from another: one shape, five filters on a column it does not group by.
// Their answers are frames of nearly one size.
func waveQueries() []*query.Query {
	out := make([]*query.Query, 5)
	for i := range out {
		out[i] = carrierCounts()
		out[i].Filters = []query.Filter{query.GtFilter("distance", storage.IntValue(int64(100+i)))}
	}
	return out
}

type waveAnswer struct {
	res   *exec.Result
	err   error
	calls int
}

// runWave sends wave through executeRemote and collects every answer.
func runWave(p *Processor, wave []*query.Query) []waveAnswer {
	out := make([]waveAnswer, len(wave))
	var mu sync.Mutex
	p.executeRemote(context.Background(), wave, func(i int, res *exec.Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		out[i].res, out[i].err = res, err
		out[i].calls++
	})
	return out
}

// learnSource makes one round trip on p's pool, so Pool.Spread has seen
// the source.
func learnSource(t *testing.T, p *Processor) {
	t.Helper()
	if _, err := p.pool.QueryMany(context.Background(), []string{carrierCounts().ToTQL()}); err != nil {
		t.Fatal(err)
	}
}

// dropIdle discards every pooled connection, so the next requests dial.
func dropIdle(t *testing.T, p *Processor) {
	t.Helper()
	for p.pool.Live() > 0 {
		c, err := p.pool.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		p.pool.Discard(c)
	}
}

func requestsAndQueries(srv *remote.Server) (int64, int64) {
	st := srv.Stats()
	return st.Requests, st.Queries
}

// startSmallBackend is startBackend over 1000 rows: statements cheap enough
// that a round trip's latency dominates them even under the race detector.
func startSmallBackend(t *testing.T, cfg remote.Config) *remote.Server {
	t.Helper()
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 1000, Days: 30, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(engine.New(db), cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestWaveSpreadFollowsTheSource: a wave of five over a pool of two goes
// one statement per request to a source whose statements cost more than
// its round trip, and in two requests — one round trip's latency — to a
// source whose round trip costs more. DisableBatchConcurrency still sends
// one query per request.
func TestWaveSpreadFollowsTheSource(t *testing.T) {
	const latency = 20 * time.Millisecond
	cases := []struct {
		name     string
		cfg      remote.Config
		opt      Options
		requests int64
	}{
		{"exec-bound", remote.Config{ScanBatchDelay: 2 * time.Millisecond}, DefaultOptions(), 5},
		{"latency-bound", remote.Config{Latency: latency}, DefaultOptions(), 2},
		{"latency-bound, serial baseline", remote.Config{Latency: latency}, Options{DisableBatchConcurrency: true}, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv := startSmallBackend(t, c.cfg)
			p := newProcessor(t, srv, c.opt, 2)
			learnSource(t, p)
			reqs, stmts := requestsAndQueries(srv)
			start := time.Now()
			if _, err := p.ExecuteBatch(context.Background(), waveQueries()); err != nil {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			r, q := requestsAndQueries(srv)
			if q-stmts != 5 || p.Stats().RemoteQueries != 5 {
				t.Fatalf("backend ran %d statements, pipeline counted %d; want 5 and 5", q-stmts, p.Stats().RemoteQueries)
			}
			if r-reqs != c.requests {
				t.Fatalf("wave of 5 over a pool of 2 went in %d requests, want %d", r-reqs, c.requests)
			}
			if c.requests == 2 && elapsed >= 2*latency {
				t.Fatalf("two requests over two connections took %v, want under %v", elapsed, 2*latency)
			}
		})
	}
}

// TestWaveQueryErrorFailsOnlyItsStatement: in a request carrying several
// statements, one statement's query-level error is that statement's answer
// alone — the others are answered, and the connection goes back to the
// pool.
func TestWaveQueryErrorFailsOnlyItsStatement(t *testing.T) {
	srv := startBackend(t, remote.Config{Latency: 20 * time.Millisecond})
	p := newProcessor(t, srv, DefaultOptions(), 2)
	learnSource(t, p)
	wave := waveQueries()
	wave[2].Dims = []query.Dim{{Col: "nosuch"}}
	reqs, _ := requestsAndQueries(srv)

	got := runWave(p, wave)
	for i, a := range got {
		if a.calls != 1 {
			t.Fatalf("statement %d answered %d times", i, a.calls)
		}
		if i == 2 {
			if k := resilience.Classify(context.Background(), a.err); k != resilience.QueryError {
				t.Fatalf("bad statement: err = %v (kind %v), want a query error", a.err, k)
			}
			continue
		}
		if a.err != nil || a.res.N == 0 {
			t.Fatalf("statement %d failed with its neighbour: (%v, %v)", i, a.res, a.err)
		}
	}
	if r, _ := requestsAndQueries(srv); r-reqs != 2 {
		t.Fatalf("wave went in %d requests, want 2 (the error must be inside a shared request)", r-reqs)
	}
	if st := p.pool.Stats(); st.Discards != 0 || p.pool.Live() != 2 {
		t.Fatalf("a statement's error cost a connection: discards=%d live=%d", st.Discards, p.pool.Live())
	}
	if st := p.Stats(); st.RemoteQueries != 4 {
		t.Fatalf("remote queries = %d, want the 4 answered ones", st.RemoteQueries)
	}
}

// frameSizes returns the smallest and largest response frame of the wave's
// statements, and their answers, read straight from the server.
func frameSizes(t *testing.T, srv *remote.Server, wave []*query.Query) (lo, hi int, want []*exec.Result) {
	t.Helper()
	c, err := remote.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, q := range wave {
		res, err := c.Query(context.Background(), q.ToTQL())
		if err != nil {
			t.Fatal(err)
		}
		body := remote.AppendResponse(nil, &remote.Response{Result: res, ExecNS: int64(time.Millisecond)})
		n := 4 + len(body) // length prefix + body
		if lo == 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
		want = append(want, res)
	}
	if hi-lo > lo/4 {
		t.Fatalf("frames of %d..%d bytes: too uneven to cut after the first", lo, hi)
	}
	return lo, hi, want
}

// cutAfterFirstFrame is a chaos schedule: from connection from on, the
// next two connections are cut partway into their second response frame,
// and every later one gets then.
func cutAfterFirstFrame(from *atomic.Int64, lo, hi int, then chaos.Fault) chaos.Schedule {
	return chaos.ScheduleFunc(func(conn int) chaos.Fault {
		switch c := int(from.Load()); {
		case conn < c:
			return chaos.Fault{Kind: chaos.None}
		case conn < c+2:
			return chaos.Fault{Kind: chaos.CutMid, Bytes: hi + lo/2}
		}
		return then
	})
}

// TestWaveCutMidResendsOnlyUndelivered: both requests of a wave are cut
// after their first frame. The retry resends only the statements whose
// frames never arrived, and every statement is answered once, correctly.
func TestWaveCutMidResendsOnlyUndelivered(t *testing.T) {
	srv := startBackend(t, remote.Config{Latency: 20 * time.Millisecond})
	wave := waveQueries()
	lo, hi, want := frameSizes(t, srv, wave)
	var from atomic.Int64
	from.Store(1 << 30)
	opt := Options{DisableIntelligentCache: true, DisableLiteralCache: true}
	opt.Resilience = &resilience.Config{MaxAttempts: 3, BaseBackoff: time.Millisecond,
		MaxBackoff: 2 * time.Millisecond, Seed: 1, BreakerMinSamples: 100}
	p, proxy := newChaosProcessor(t, srv, cutAfterFirstFrame(&from, lo, hi, chaos.Fault{Kind: chaos.None}),
		opt, cache.DefaultOptions(), 2)
	learnSource(t, p)
	dropIdle(t, p)
	from.Store(int64(proxy.Accepted()))
	reqs, stmts := requestsAndQueries(srv)

	got := runWave(p, wave)
	for i, a := range got {
		if a.calls != 1 || a.err != nil {
			t.Fatalf("statement %d: %d answers, err %v", i, a.calls, a.err)
		}
		sameResult(t, a.res, want[i])
	}
	// Requests of 2 and 3 statements, each cut after its first frame: 1 + 2
	// statements resent, in one retry per request.
	r, q := requestsAndQueries(srv)
	if r-reqs != 4 || q-stmts != 5+3 {
		t.Fatalf("backend received %d requests carrying %d statements, want 4 carrying 8", r-reqs, q-stmts)
	}
	if st := p.Stats(); st.RemoteQueries != 5 {
		t.Fatalf("remote queries = %d, want each statement counted once", st.RemoteQueries)
	}
}

// TestWaveRetriesExhaustedServeStale: when a cut request's retry fails too,
// the statements whose frames arrived keep their fresh answers and only the
// undelivered ones are served from expired cache entries.
func TestWaveRetriesExhaustedServeStale(t *testing.T) {
	srv := startBackend(t, remote.Config{Latency: 20 * time.Millisecond})
	wave := waveQueries()
	lo, hi, want := frameSizes(t, srv, wave)
	var from atomic.Int64
	from.Store(1 << 30)
	opt := DefaultOptions()
	opt.Resilience = &resilience.Config{MaxAttempts: 2, BaseBackoff: time.Millisecond,
		MaxBackoff: 2 * time.Millisecond, Seed: 1, BreakerMinSamples: 100, ServeStale: true}
	// Entries expire the instant they are stored and stay in grace.
	copt := cache.DefaultOptions()
	copt.FreshFor = time.Nanosecond
	copt.StaleGrace = time.Hour
	p, proxy := newChaosProcessor(t, srv, cutAfterFirstFrame(&from, lo, hi, chaos.Fault{Kind: chaos.Refuse}),
		opt, copt, 2)
	for i, a := range runWave(p, wave) { // fills the caches; the pool learns the source
		if a.err != nil {
			t.Fatalf("warm statement %d: %v", i, a.err)
		}
	}
	dropIdle(t, p)
	from.Store(int64(proxy.Accepted()))
	before := p.Stats()

	got := runWave(p, wave)
	// Requests [0 1] and [2 3 4]: the first frame of each arrived.
	for i, a := range got {
		if a.calls != 1 || a.err != nil {
			t.Fatalf("statement %d: %d answers, err %v", i, a.calls, a.err)
		}
		sameResult(t, a.res, want[i])
		if wantStale := i != 0 && i != 2; a.res.Stale != wantStale {
			t.Errorf("statement %d: stale = %v, want %v", i, a.res.Stale, wantStale)
		}
	}
	st := p.Stats()
	if st.StaleServed-before.StaleServed != 3 || st.RemoteQueries-before.RemoteQueries != 2 {
		t.Fatalf("stale served %d, fresh %d; want 3 and 2",
			st.StaleServed-before.StaleServed, st.RemoteQueries-before.RemoteQueries)
	}
}
