package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"vizq/internal/cache"
	"vizq/internal/connection"
	"vizq/internal/core"
	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/sched"
	"vizq/internal/tde/storage"
)

// E11AdmissionControl measures what an overload burst costs interactive
// users with and without the admission-control layer. The paper's Data
// Server multiplexes many dashboards over a small connection pool
// (Sect. 3.5); when arrivals exceed capacity, an ungoverned pipeline lets
// every request pile onto the pool queue, so each client waits its full
// timeout to learn it lost. The scheduler instead bounds the queue and
// sheds doomed work in microseconds: completed queries keep a bounded
// p99, and rejected ones hear "no" immediately instead of after the
// timeout.
func E11AdmissionControl(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "overload burst at 4x saturation: scheduler off vs on",
		Claim: "admission control bounds interactive p99 under overload and converts slow timeouts into fast, typed sheds",
		Header: []string{"mode", "offered", "completed", "shed", "slow timeouts",
			"p50 ms", "p99 ms", "max shed ms", "backend queries"},
	}
	off, err := runOverloadArm(s, false)
	if err != nil {
		return nil, err
	}
	on, err := runOverloadArm(s, true)
	if err != nil {
		return nil, err
	}
	for _, arm := range []*overloadArm{off, on} {
		t.Rows = append(t.Rows, []string{arm.mode, fmt.Sprint(arm.offered),
			fmt.Sprint(arm.completed), fmt.Sprint(arm.shed), fmt.Sprint(arm.slowTimeouts),
			ms(arm.p50), ms(arm.p99), arm.maxShed, fmt.Sprint(arm.backend)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("open-loop arrivals: %d queries at 4x pool capacity across 8 sessions; client timeout = 24x the measured uncontended service time",
			off.offered),
		"slow timeout = the client burned its whole budget before learning it lost; shed = typed ErrShed in microseconds",
		"scheduler: Limit=pool Max=2, MaxQueue=4 — bounded queue bounds the worst admitted wait")
	return t, nil
}

type overloadArm struct {
	mode         string
	offered      int
	completed    int
	shed         int
	slowTimeouts int
	p50, p99     time.Duration
	maxShed      string
	backend      int64
}

// runOverloadArm fires an open-loop burst at 4x the pool's service rate.
func runOverloadArm(s Scale, scheduled bool) (*overloadArm, error) {
	srv, err := startRemote(s.RemoteRows, remote.Config{Latency: s.Latency})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	pool := connection.NewPool(srv.Addr(), connection.PoolConfig{Max: 2})
	defer pool.Close()

	// Every query must reach the backend: no caches, no coalescing — the
	// experiment isolates the admission layer.
	opt := core.DefaultOptions()
	opt.DisableIntelligentCache = true
	opt.DisableLiteralCache = true
	opt.DisableSingleFlight = true
	arm := &overloadArm{mode: "scheduler OFF", maxShed: "-"}
	var sc *sched.Scheduler
	if scheduled {
		arm.mode = "scheduler ON"
		// Limit equal to the pool size: a higher one would let admitted
		// queries stack up in the pool queue and re-inflate exactly the
		// unbounded wait this experiment measures.
		sc = sched.New(sched.Config{Limit: 2, MaxQueue: 4, MaxSessionQueue: 2})
		opt.Scheduler = sc
	}
	p := core.NewProcessor(pool, cache.NewIntelligentCache(cache.DefaultOptions()),
		cache.NewLiteralCache(cache.DefaultOptions()), opt)

	burstQuery := func(i int) *query.Query {
		// Distinct per arrival so nothing short-circuits the pipeline.
		return &query.Query{
			DataSource: "flights",
			View:       query.View{Table: "flights"},
			Dims:       []query.Dim{{Col: "carrier"}},
			Measures:   []query.Measure{{Fn: query.Count, As: "n"}},
			Filters:    []query.Filter{query.GtFilter("distance", storage.IntValue(int64(100+i)))},
		}
	}

	// Warm phase: sequential queries seed the scheduler's service-time
	// estimator and measure what one uncontended query actually costs on
	// this host. The burst's pacing and client budget derive from that
	// measurement, not from s.Latency alone: at large scales the scan is
	// CPU-bound and the wire latency stops describing saturation.
	var svc time.Duration
	for i := 0; i < 4; i++ {
		start := time.Now()
		if _, err := p.Execute(context.Background(), burstQuery(-i)); err != nil {
			return nil, fmt.Errorf("%s: warm query: %w", arm.mode, err)
		}
		if d := time.Since(start); i > 0 { // skip the first: one-time costs
			svc += d / 3
		}
	}
	if svc < s.Latency {
		svc = s.Latency
	}
	backendBefore := srv.Stats().Queries

	// Open-loop burst: capacity is 2 conns / svc each, so 8 arrivals per
	// svc is 4x saturation. Arrivals do not wait for completions —
	// exactly the regime where closed-loop load generators flatter an
	// ungoverned system.
	const sessions = 8
	offered := 96
	interval := svc / 8
	timeout := 24 * svc
	arm.offered = offered

	var mu sync.Mutex
	var okLat, shedLat []time.Duration
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			ctx = sched.WithSession(ctx, fmt.Sprintf("user-%d", i%sessions))
			start := time.Now()
			_, err := p.Execute(ctx, burstQuery(i))
			d := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				okLat = append(okLat, d)
			case errors.Is(err, sched.ErrShed):
				shedLat = append(shedLat, d)
			default:
				arm.slowTimeouts++
			}
		}(i)
		time.Sleep(interval) //vizlint:allow sleep -- open-loop arrival pacing is the workload under test
	}
	wg.Wait()

	arm.completed = len(okLat)
	arm.shed = len(shedLat)
	arm.backend = srv.Stats().Queries - backendBefore
	if len(okLat) > 0 {
		sort.Slice(okLat, func(i, j int) bool { return okLat[i] < okLat[j] })
		arm.p50 = okLat[len(okLat)/2]
		arm.p99 = okLat[len(okLat)*99/100]
	}
	if len(shedLat) > 0 {
		max := shedLat[0]
		for _, d := range shedLat[1:] {
			if d > max {
				max = d
			}
		}
		arm.maxShed = ms(max)
	}
	return arm, nil
}
