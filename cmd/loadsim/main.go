// loadsim simulates Tableau-Server-style multi-user dashboard traffic
// (Sect. 3.2: shared dashboards make caching effective across users; Tableau
// Public traffic "is saturated by initial load requests"). It replays N user
// sessions against the Fig. 2 dashboard through the full pipeline and
// reports latency percentiles, backend load and cache effectiveness, with
// and without caching.
//
// Usage:
//
//	loadsim [-users 20] [-sessions 0] [-interactions 3] [-latency 5ms]
//	        [-rows 100000] [-trace] [-metrics text|json]
//	        [-outage start:dur] [-resilient] [-timeout 2s]
//	        [-arrival 0] [-think 0] [-sched] [-cluster 0]
//	        [-restart node:at:dur[,...]] [-drainfirst]
//
// With -outage, the backend is reached through a chaos proxy that goes
// dark (black-holed connections, active relays cut) at `start` into each
// mode's run and heals after `dur`; renders that fail during the window
// are counted instead of aborting the simulation. Add -resilient to run
// the pipeline with retry, circuit breaking and stale-on-error enabled
// and compare the two error counts.
//
// By default users run closed-loop: each session starts after the previous
// one finishes, so offered load can never exceed capacity. With -arrival N
// sessions start open-loop at N sessions/second regardless of how the
// system is keeping up — the regime where overload actually happens —
// pausing -think between interactions. Add -sched to put the admission
// controller in front of the pool and report its counters.
//
// With -cluster N (N >= 2) the simulation switches to fleet mode: N
// in-process Data Server nodes coordinate admission through a shared
// kvstore bus (the clustertest harness), a hot user's sticky sessions
// saturate node 0, and the remaining users dispatch through the
// pressure-aware balancer. The run reports per-node admission counters
// and advisory pressure, and -metrics dumps include the sched.cluster.*
// series the coordinator publishes.
//
// With -cluster, -restart node:at:dur scripts a rolling restart: the
// named node goes down before round `at` and comes back `dur` rounds
// later (comma-separate specs to restart several nodes). Each user then
// also keeps a sticky dashboard session open across rounds, so the
// restart's blast radius is visible: the balancer blames the dead node's
// transport errors into ejection, routes new dispatch around it, and
// re-admits it only after a successful health probe. Add -drainfirst to
// take nodes down gracefully instead — the node drains first (new
// sessions refused, queued work shed with reason "draining", the
// draining bit published to peers over the digest bus), holds one round
// for stragglers, then goes down; sticky sessions get transparent
// failover, so the same restart completes without user-visible session
// errors.
//
// -users is the number of distinct simulated users; -sessions is the
// total number of dashboard sessions, distributed round-robin across the
// users (0 = one session per user). With -sched, the admission
// controller fair-queues hierarchically: across users first, then across
// each user's sessions — so `-users 3 -sessions 12` gives one greedy
// user no more than a third of the source no matter how many of the 12
// sessions are theirs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vizq/internal/cache"
	"vizq/internal/chaos"
	"vizq/internal/clustertest"
	"vizq/internal/connection"
	"vizq/internal/core"
	"vizq/internal/obs"
	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/resilience"
	"vizq/internal/sched"
	"vizq/internal/tde/engine"
	"vizq/internal/vizql"
	"vizq/internal/workload"
)

func main() {
	users := flag.Int("users", 20, "number of distinct simulated users")
	sessionsFlag := flag.Int("sessions", 0, "total dashboard sessions, spread round-robin across users (0 = one per user)")
	interactions := flag.Int("interactions", 3, "interactions per user after the initial load")
	latency := flag.Duration("latency", 5*time.Millisecond, "remote request latency")
	rows := flag.Int("rows", 100_000, "backend fact rows")
	seed := flag.Int64("seed", 1, "interaction randomness seed")
	trace := flag.Bool("trace", false, "run one traced user after each mode and print its per-stage breakdown")
	metrics := flag.String("metrics", "", "dump process metrics after the run: text or json")
	outageSpec := flag.String("outage", "", "backend outage window as start:dur (e.g. 2s:1s), relative to each mode's run")
	resilient := flag.Bool("resilient", false, "enable the resilience layer: retry, circuit breaker, stale-on-error")
	timeout := flag.Duration("timeout", 2*time.Second, "per-render client timeout (applied when -outage or -arrival is set)")
	arrival := flag.Float64("arrival", 0, "open-loop session arrival rate in sessions/sec (0 = closed-loop)")
	think := flag.Duration("think", 0, "user think time between interactions")
	schedOn := flag.Bool("sched", false, "enable admission control (fair queues, bounded queues, load shedding)")
	clusterN := flag.Int("cluster", 0, "run N in-process Data Server nodes with cross-node admission coordination (fleet mode; most single-process flags don't apply)")
	restartFlag := flag.String("restart", "", "fleet mode: rolling-restart spec node:at:dur[,node:at:dur...] — node goes down before round at, back dur rounds later")
	drainFirst := flag.Bool("drainfirst", false, "fleet mode: drain each -restart node (shedding queued work as \"draining\") before taking it down, and give user sessions transparent failover")
	flag.Parse()
	if *metrics != "" && *metrics != "text" && *metrics != "json" {
		log.Fatalf("loadsim: -metrics must be text or json, got %q", *metrics)
	}
	if *users <= 0 {
		log.Fatalf("loadsim: -users must be positive, got %d", *users)
	}
	sessions := *sessionsFlag
	if sessions <= 0 {
		sessions = *users
	}
	restarts, err := parseRestarts(*restartFlag)
	if err != nil {
		log.Fatalf("loadsim: %v", err)
	}
	if (len(restarts) > 0 || *drainFirst) && *clusterN <= 1 {
		log.Fatal("loadsim: -restart and -drainfirst require -cluster N (N >= 2)")
	}
	if *clusterN > 1 {
		for _, rs := range restarts {
			if rs.node >= *clusterN {
				log.Fatalf("loadsim: -restart names node %d but the fleet has %d nodes", rs.node, *clusterN)
			}
		}
		if err := runCluster(*clusterN, *users, 2+*interactions, *rows, *latency, *seed, restarts, *drainFirst); err != nil {
			log.Fatal(err)
		}
		if err := dumpMetrics(*metrics); err != nil {
			log.Fatal(err)
		}
		return
	}
	var outageStart, outageDur time.Duration
	if *outageSpec != "" {
		parts := strings.SplitN(*outageSpec, ":", 2)
		if len(parts) != 2 {
			log.Fatalf("loadsim: -outage must be start:dur (e.g. 2s:1s), got %q", *outageSpec)
		}
		var err error
		if outageStart, err = time.ParseDuration(parts[0]); err != nil {
			log.Fatalf("loadsim: bad -outage start: %v", err)
		}
		if outageDur, err = time.ParseDuration(parts[1]); err != nil {
			log.Fatalf("loadsim: bad -outage duration: %v", err)
		}
	}

	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: *rows, Days: 365, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	srv := remote.NewServer(engine.New(db), remote.Config{Latency: *latency, QueryDOP: 2})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// With -outage the pools dial through a chaos proxy so the backend can
	// be scripted dark and healed mid-run.
	backendAddr := srv.Addr()
	var proxy *chaos.Proxy
	if *outageSpec != "" {
		var err error
		if proxy, err = chaos.New(srv.Addr(), chaos.Healthy()); err != nil {
			log.Fatal(err)
		}
		defer proxy.Close()
		backendAddr = proxy.Addr()
	}

	for _, cached := range []bool{false, true} {
		mode := "caching OFF"
		opt := core.Options{DisableIntelligentCache: true, DisableLiteralCache: true}
		if cached {
			mode = "caching ON "
			opt = core.DefaultOptions()
		}
		var sc *sched.Scheduler
		if *schedOn {
			sc = sched.New(sched.Config{Limit: 8})
			opt.Scheduler = sc
		}
		if *resilient {
			opt.Resilience = &resilience.Config{
				MaxAttempts:       3,
				BaseBackoff:       10 * time.Millisecond,
				MaxBackoff:        100 * time.Millisecond,
				AttemptTimeout:    *timeout / 4,
				Seed:              *seed,
				BreakerMinSamples: 4,
				BreakerOpenFor:    500 * time.Millisecond,
				ServeStale:        true,
			}
		}
		pool := connection.NewPool(backendAddr, connection.PoolConfig{Max: 8})
		intel := cache.NewIntelligentCache(cache.DefaultOptions())
		lit := cache.NewLiteralCache(cache.DefaultOptions())
		proc := core.NewProcessor(pool, intel, lit, opt)
		backendBefore := srv.Stats().Queries

		// Schedule this mode's outage window relative to its own start.
		var outageTimers []*time.Timer
		if proxy != nil {
			outageTimers = append(outageTimers,
				time.AfterFunc(outageStart, func() {
					proxy.SetMode(chaos.Fault{Kind: chaos.Stall})
					proxy.KillActive()
				}),
				time.AfterFunc(outageStart+outageDur, proxy.Heal))
		}
		renderCtx := func(sess int) (context.Context, context.CancelFunc) {
			ctx := context.Background()
			if sc != nil {
				// Sessions are distributed round-robin across the simulated
				// users, and the scheduler fair-queues users first, sessions
				// within a user second.
				ctx = sched.WithUser(ctx, fmt.Sprintf("user-%d", sess%*users))
				ctx = sched.WithSession(ctx, fmt.Sprintf("sess-%d", sess))
			}
			if proxy == nil && *arrival == 0 {
				return ctx, func() {}
			}
			// Under an outage or open-loop overload, renders must be able to
			// lose: an unbounded wait would wedge the whole simulation.
			return context.WithTimeout(ctx, *timeout)
		}
		var mu sync.Mutex
		var renderErrors, shedCount int
		var loadTimes, interactTimes []time.Duration

		// runUser plays one session: initial load, then interactions. All
		// outcome recording is mutex-guarded so open-loop mode can run many
		// users concurrently.
		runUser := func(u int, rng *rand.Rand) {
			sess, err := vizql.NewSession(vizql.FlightsDashboard("flights"), proc)
			if err != nil {
				log.Fatal(err)
			}
			record := func(err error, d time.Duration, times *[]time.Duration) bool {
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					*times = append(*times, d)
					return true
				case errors.Is(err, sched.ErrShed):
					shedCount++
				default:
					// During an outage window a failed render is an expected,
					// countable outcome, not a reason to abort the simulation.
					renderErrors++
				}
				return false
			}
			t0 := time.Now()
			ctx, cancel := renderCtx(u)
			_, err = sess.Render(ctx)
			cancel()
			if !record(err, time.Since(t0), &loadTimes) {
				return
			}
			for i := 0; i < *interactions; i++ {
				if *think > 0 {
					time.Sleep(*think) //vizlint:allow sleep -- user think time is part of the simulated workload
				}
				markets := sess.Result("Market")
				if markets == nil || markets.N == 0 {
					break
				}
				// Users mostly click popular values (top rows), echoing each
				// other's interactions — that is what makes shared caches pay.
				pick := rng.Intn(5)
				if pick >= markets.N {
					pick = markets.N - 1
				}
				if err := sess.Select("Market", markets.Value(pick, 0)); err != nil {
					log.Fatal(err)
				}
				t0 = time.Now()
				ctx, cancel := renderCtx(u)
				_, err := sess.Render(ctx)
				cancel()
				record(err, time.Since(t0), &interactTimes)
			}
		}

		start := time.Now()
		if *arrival > 0 {
			// Open loop: sessions start on the arrival clock whether or not
			// the system is keeping up — offered load is the independent
			// variable, exactly what admission control exists to survive.
			interval := time.Duration(float64(time.Second) / *arrival)
			var wg sync.WaitGroup
			for u := 0; u < sessions; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					runUser(u, rand.New(rand.NewSource(*seed+int64(u))))
				}(u)
				time.Sleep(interval) //vizlint:allow sleep -- open-loop arrival pacing is the workload under test
			}
			wg.Wait()
		} else {
			rng := rand.New(rand.NewSource(*seed))
			for u := 0; u < sessions; u++ {
				runUser(u, rng)
			}
		}
		for _, tm := range outageTimers {
			tm.Stop()
		}
		if proxy != nil {
			proxy.Heal() // in case the run finished inside the outage window
		}
		wall := time.Since(start)
		backend := srv.Stats().Queries - backendBefore
		st := proc.Stats()
		fmt.Printf("%s  users=%d sessions=%d interactions=%d", mode, *users, sessions, *interactions)
		if *arrival > 0 {
			fmt.Printf(" arrival=%.1f/s think=%v", *arrival, *think)
		}
		fmt.Println()
		fmt.Printf("  initial load  p50=%v p95=%v\n", pct(loadTimes, 50), pct(loadTimes, 95))
		fmt.Printf("  interaction   p50=%v p95=%v\n", pct(interactTimes, 50), pct(interactTimes, 95))
		fmt.Printf("  wall=%v backendQueries=%d cacheHits=%d localAnswers=%d fused=%d\n",
			wall.Round(time.Millisecond), backend, st.CacheHits, st.LocalAnswers, st.FusedAway)
		ist, lst := intel.Stats(), lit.Stats()
		fmt.Printf("  cache shards  intelligent=%d literal=%d  evictions=%d/%d\n",
			intel.Shards(), lit.Shards(), ist.Evictions, lst.Evictions)
		fmt.Printf("  singleflight  leader=%d shared=%d\n", st.FlightLeader, st.FlightShared)
		if proxy != nil || *resilient || *arrival > 0 {
			line := fmt.Sprintf("  resilience    renderErrors=%d staleServed=%d", renderErrors, st.StaleServed)
			if rs := proc.Resilience(); rs != nil {
				bst := rs.Breaker().Stats()
				line += fmt.Sprintf(" breakerOpened=%d fastFails=%d", bst.Opened, bst.FastFails)
			}
			fmt.Println(line)
		}
		if sc != nil {
			sst := sc.Stats()
			fmt.Printf("  scheduler     admitted=%d (%d direct) shed=%d (%d deadline, %d queue-full of which %d user-quota) limit=%d shedRenders=%d\n",
				sst.Admitted, sst.AdmittedDirect,
				sst.Shed, sst.ShedDeadline, sst.ShedQueueFull, sst.ShedUserQueueFull, sst.Limit, shedCount)
		}
		fmt.Println()
		if *trace {
			if err := traceUser(proc, *interactions); err != nil {
				log.Fatal(err)
			}
		}
		pool.Close()
	}

	if err := dumpMetrics(*metrics); err != nil {
		log.Fatal(err)
	}
}

func dumpMetrics(kind string) error {
	switch kind {
	case "text":
		return obs.Default.WriteText(os.Stdout)
	case "json":
		return obs.Default.WriteJSON(os.Stdout)
	}
	return nil
}

// restartSpec schedules one node's restart in fleet mode: the node goes
// down before round `at` (after its drain round, with -drainfirst) and
// comes back before round `at+dur`.
type restartSpec struct {
	node, at, dur int
}

// parseRestarts parses -restart's node:at:dur[,node:at:dur...] syntax.
func parseRestarts(spec string) ([]restartSpec, error) {
	if spec == "" {
		return nil, nil
	}
	var out []restartSpec
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("-restart must be node:at:dur (e.g. 0:1:2), got %q", part)
		}
		var rs restartSpec
		for i, dst := range []*int{&rs.node, &rs.at, &rs.dur} {
			n, err := strconv.Atoi(fields[i])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("-restart %q: %q is not a non-negative integer", part, fields[i])
			}
			*dst = n
		}
		if rs.dur == 0 {
			return nil, fmt.Errorf("-restart %q: dur must be at least 1 round", part)
		}
		out = append(out, rs)
	}
	return out, nil
}

// runCluster drives fleet mode: `nodes` in-process Data Servers publish
// load digests through a shared kvstore and blend peer pressure into
// admission, while the balancer steers dispatch around hot nodes. Each
// round a hot user bursts sticky queries at node 0 (enough to overflow
// its queues) and every simulated user dispatches through the balancer;
// between rounds the harness ticks the fake digest clock so coordination
// state — and the sched.cluster.* metrics — advance deterministically.
//
// With restarts, each user also holds a sticky dashboard session across
// rounds and the scripted nodes go down and come back (see -restart);
// after every round each node is offered one half-open health probe, so
// a killed node is ejected by blame and re-admitted only once a probe
// succeeds against its restarted backend.
func runCluster(nodes, users, rounds, rows int, latency time.Duration, seed int64, restarts []restartSpec, drainFirst bool) error {
	if rows > 20_000 {
		rows = 20_000 // fleet mode measures admission, not scan throughput
	}
	cl, err := clustertest.New(clustertest.Config{
		Nodes:          nodes,
		Rows:           rows,
		Seed:           seed,
		PoolMax:        2,
		Scheduler:      sched.Config{MaxQueue: 16, MaxUserQueue: 4},
		BackendLatency: latency,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	var mu sync.Mutex
	var qseq int64
	var ok, shed, failed, hotOK, hotShed int
	record := func(err error, hot bool) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil && hot:
			hotOK++
		case err == nil:
			ok++
		case errors.Is(err, sched.ErrShed) && hot:
			hotShed++
		case errors.Is(err, sched.ErrShed):
			shed++
		default:
			failed++
		}
	}
	next := func() *query.Query {
		mu.Lock()
		qseq++
		q := qseq
		mu.Unlock()
		return clustertest.DistinctQuery(int(q))
	}

	// With -restart, every user keeps one sticky dashboard session open
	// across rounds (round-robin over nodes); -drainfirst gives them
	// transparent failover.
	var sessions []*clustertest.Session
	if len(restarts) > 0 {
		for u := 0; u < users; u++ {
			s, err := cl.NewSession(fmt.Sprintf("sess-user-%d", u), u%nodes, drainFirst)
			if err != nil {
				return err
			}
			defer s.Close()
			sessions = append(sessions, s)
		}
	}
	var sessOK, sessErr int

	for r := 0; r < rounds; r++ {
		for _, rs := range restarts {
			downAt := rs.at
			if drainFirst {
				// Graceful shutdown: drain one round ahead of the kill, so
				// stragglers that raced the digest shed fast with reason
				// "draining" instead of queueing into a dying node.
				downAt = rs.at + 1
				if r == rs.at {
					dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					if err := cl.DrainNode(dctx, rs.node); err != nil {
						fmt.Printf("  drain node-%d: %v\n", rs.node, err)
					}
					cancel()
					cl.Tick() // the draining bit reaches every balancer pre-round
				}
			}
			if r == downAt && r < rs.at+rs.dur {
				cl.KillNode(rs.node)
			}
			if r == rs.at+rs.dur {
				cl.RestartNode(rs.node)
			}
		}

		var wg sync.WaitGroup
		// The hot user bursts 8 sticky queries at node 0: two run, four
		// queue at its user cap, the rest shed — so node 0's digest
		// advertises pressure every round.
		for h := 0; h < 8; h++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				record(cl.QueryOn(ctx, 0, "hot", next()), true)
			}()
		}
		for u := 0; u < users; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				_, err := cl.Dispatch(ctx, fmt.Sprintf("user-%d", u), next())
				record(err, false)
			}(u)
		}
		// Sticky sessions render once per round, riding out any restart.
		for _, s := range sessions {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if err := s.Query(ctx, next()); err != nil {
				sessErr++
			} else {
				sessOK++
			}
			cancel()
		}
		wg.Wait()
		cl.Tick()
		if len(restarts) > 0 {
			// Offer each node a half-open probe: a no-op unless the node is
			// ejected and past its cooldown, so only restarted backends get
			// re-admitted.
			for i := 0; i < nodes; i++ {
				cl.ProbeNode(i)
			}
		}
	}
	// Bring back anything scripted to outlive the run.
	for _, rs := range restarts {
		cl.RestartNode(rs.node)
	}

	fmt.Printf("cluster mode  nodes=%d users=%d rounds=%d latency=%v\n", nodes, users, rounds, latency)
	fmt.Printf("  balanced traffic ok=%d shed=%d errors=%d   hot user (node-0) ok=%d shed=%d\n",
		ok, shed, failed, hotOK, hotShed)
	for i := 0; i < nodes; i++ {
		st := cl.Scheduler(i).Stats()
		fmt.Printf("  node-%d  admitted=%d (%d direct) shed=%d (%d cluster) limit=%d peers=%d pressure=%.2f state=%s\n",
			i, st.Admitted, st.AdmittedDirect,
			st.Shed, st.ShedClusterPressure, st.Limit, st.ClusterPeers, cl.Balancer.Pressure(i),
			cl.Balancer.State(i))
	}
	if len(restarts) > 0 {
		moves := 0
		for _, s := range sessions {
			moves += s.Moves()
		}
		var drainSheds int64
		for i := 0; i < nodes; i++ {
			drainSheds += cl.Scheduler(i).Stats().ShedDraining
		}
		fmt.Printf("  sessions  ok=%d errors=%d moves=%d (drainfirst=%v)\n", sessOK, sessErr, moves, drainFirst)
		fmt.Printf("  lifecycle ejects=%d probes=%d (failed=%d) readmits=%d drainSheds=%d\n",
			obs.C("balancer.health.eject").Value(), obs.C("balancer.health.probe").Value(),
			obs.C("balancer.health.probe_fail").Value(), obs.C("balancer.health.readmit").Value(),
			drainSheds)
	}
	fmt.Println()
	return nil
}

// traceUser replays one user session under a tracer (outside the timed run)
// and prints the aggregated per-stage latency breakdown.
func traceUser(proc *core.Processor, interactions int) error {
	tr := obs.New()
	ctx := obs.WithTracer(context.Background(), tr)
	sess, err := vizql.NewSession(vizql.FlightsDashboard("flights"), proc)
	if err != nil {
		return err
	}
	// A render error (e.g. a breaker still cooling down after an -outage
	// run) is part of what the trace should show, not a fatal condition.
	if _, err := sess.Render(ctx); err != nil {
		fmt.Printf("  traced user: initial load failed: %v\n", err)
	}
	for i := 0; i < interactions; i++ {
		markets := sess.Result("Market")
		if markets == nil || markets.N == 0 {
			break
		}
		if err := sess.Select("Market", markets.Value(i%markets.N, 0)); err != nil {
			return err
		}
		if _, err := sess.Render(ctx); err != nil {
			fmt.Printf("  traced user: interaction %d failed: %v\n", i, err)
		}
	}
	fmt.Printf("  stage breakdown (1 traced user, untimed):\n%s\n", obs.FormatStages(tr.Stages()))
	return nil
}

func pct(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := len(s) * p / 100
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i].Round(100 * time.Microsecond)
}
