package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vizq/internal/clustertest"
	"vizq/internal/kvstore"
	"vizq/internal/sched"
)

// E13ClusterCoordination measures what cross-node admission coordination
// buys a multi-node Data Server fleet over per-node-only admission
// (Sect. 5: many server processes share the same sources, but each
// process admits in isolation). Three scenarios, each run per-node-only
// and coordinated:
//
//   - steering: one node is saturated by a hot user whose sessions are
//     sticky to it. Per-node-only, the balancer round-robins victims
//     into the swamped node and a third of their renders queue behind
//     the hot backlog; coordinated, the node's published digest routes
//     victims to calm capacity and their p99 drops. A minority of
//     pressured nodes must NOT trigger fleet-wide shedding.
//   - majority: the hot user saturates 2 of 3 nodes and keeps a
//     foothold on the third that fits under its local queue bounds.
//     Per-node-only, the calm node never sheds the hot user —
//     inconsistent fleet behaviour; coordinated, the majority clamp
//     sheds the hot user's overflow on all 3 nodes.
//   - convergence: nodes start with divergent AIMD limits {1,4,2} for
//     the same source. Per-node-only they stay divergent (spread 3);
//     coordinated, each ObservePeers nudges one step toward the fleet
//     mean and the spread closes to <=1.
func E13ClusterCoordination(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "per-node-only vs coordinated admission across a 3-node fleet",
		Claim: "digest coordination steers victims away from hot nodes (better p99), sheds a majority-hot source consistently on every node, and converges divergent limits",
		Header: []string{"scenario", "hot sheds on", "cluster sheds",
			"victim renders", "victim p50 ms", "victim p99 ms", "limit spread"},
	}

	for _, coordinate := range []bool{false, true} {
		renders, p50, p99, clusterSheds, err := e13Steering(s, coordinate)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{e13Mode("steer", coordinate), "-",
			fmt.Sprint(clusterSheds), fmt.Sprint(renders), ms(p50), ms(p99), "-"})
	}
	for _, coordinate := range []bool{false, true} {
		nodesShedding, clusterSheds, err := e13Majority(s, coordinate)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{e13Mode("majority", coordinate),
			fmt.Sprintf("%d/3", nodesShedding), fmt.Sprint(clusterSheds), "-", "-", "-", "-"})
	}
	for _, coordinate := range []bool{false, true} {
		spread, err := e13Convergence(coordinate)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{e13Mode("converge", coordinate),
			"-", "-", "-", "-", "-", fmt.Sprint(spread)})
	}
	t.Notes = append(t.Notes,
		"steer: 8 sticky hot sessions saturate node 0; 3 victims dispatch through the balancer each round; p50/p99 are per-block percentiles, median of 3 blocks",
		"steer coordinated shows cluster sheds = 0: one pressured node is a minority, so coordination steers but never clamps (advisory, not consensus)",
		"majority: hot saturates nodes 0-1 and keeps 3 closed-loop sessions on node 2, exactly at node 2's local queue bounds — only the majority clamp makes node 2 shed it",
		"converge: limits start {1,4,2} with the local governor frozen; each coordinated ObservePeers moves a node one step toward the fleet mean",
		"all scenarios run on the deterministic clustertest harness: fake digest clock, per-node kvstore links, seeded workloads")
	return t, nil
}

func e13Mode(scenario string, coordinate bool) string {
	if coordinate {
		return scenario + ": coordinated"
	}
	return scenario + ": per-node only"
}

// e13seq makes every query in the experiment distinct so caching and
// single-flight never short-circuit admission, across all arms.
var e13seq atomic.Int64

func e13Query() int { return int(e13seq.Add(1)) }

// e13Latency pins service time to a wire-latency floor so queue-position
// arithmetic, not scan CPU, decides the measured percentiles.
func e13Latency(s Scale) time.Duration {
	if s.Latency < 5*time.Millisecond {
		return 5 * time.Millisecond
	}
	return s.Latency
}

// e13HotLoad starts closed-loop hot-user workers pinned to node idx
// (sticky sessions) and returns a stop func plus the per-node shed
// counter. Workers back off briefly after a shed so a clamped node is
// probed continuously without spinning.
func e13HotLoad(cl *clustertest.Cluster, idx, workers int, lat time.Duration, sheds *atomic.Int64) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				qctx, qcancel := context.WithTimeout(ctx, 2*time.Second)
				err := cl.QueryOn(qctx, idx, "hot", clustertest.DistinctQuery(e13Query()))
				qcancel()
				if errors.Is(err, sched.ErrShed) {
					sheds.Add(1)
					time.Sleep(lat / 4) //vizlint:allow sleep -- shed backoff keeps the closed loop from spinning
				}
			}
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// e13WaitFor polls cond with a deadline; experiments fail loudly rather
// than hang when a workload never reaches steady state.
func e13WaitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(200 * time.Microsecond) //vizlint:allow sleep -- polling for workload steady state
	}
	return fmt.Errorf("e13: %s not reached in time", what)
}

// e13Steering: node 0 saturated by sticky hot sessions, victims
// dispatched through the balancer. Returns the victims' completed render
// count, p50/p99 (median across 3 measurement blocks), and the fleet's
// cluster-pressure shed total (which must stay 0: one hot node is a
// minority).
func e13Steering(s Scale, coordinate bool) (renders int, p50, p99 time.Duration, clusterSheds int64, err error) {
	lat := e13Latency(s)
	cl, err := clustertest.New(clustertest.Config{
		Nodes:   3,
		Rows:    2000,
		PoolMax: 2,
		Scheduler: sched.Config{
			MaxQueue: 16, MaxUserQueue: 4, AdjustEvery: 1 << 30,
		},
		BackendLatency: lat,
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer cl.Close()

	var hotSheds atomic.Int64
	stopHot := e13HotLoad(cl, 0, 8, lat, &hotSheds)
	defer stopHot()
	// Steady state: node 0's two slots busy and the hot user's queue at
	// its cap, so the node's digest will advertise pressure.
	if err := e13WaitFor("hot backlog on node 0", func() bool {
		return cl.Scheduler(0).Stats().Queued >= 4
	}); err != nil {
		return 0, 0, 0, 0, err
	}
	if coordinate {
		cl.Tick() // publish pressured digest
		cl.Tick() // every node (and the balancer) sees it
	}

	const victims = 3
	blocks := 3
	roundsPerBlock := 2 + 2*s.Repeat
	blockLat := make([][]time.Duration, blocks)
	var mu sync.Mutex
	for b := 0; b < blocks; b++ {
		for r := 0; r < roundsPerBlock; r++ {
			var wg sync.WaitGroup
			for v := 0; v < victims; v++ {
				wg.Add(1)
				go func(v int) {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					defer cancel()
					q := clustertest.DistinctQuery(e13Query())
					t0 := time.Now()
					_, qerr := cl.Dispatch(ctx, fmt.Sprintf("victim-%d", v), q)
					d := time.Since(t0)
					if qerr != nil {
						return // sheds/timeouts just shrink the sample
					}
					mu.Lock()
					blockLat[b] = append(blockLat[b], d)
					mu.Unlock()
				}(v)
			}
			wg.Wait()
			if coordinate {
				cl.Tick() // keep digests (and steering pressure) fresh
			}
		}
	}
	stopHot()

	var p50s, p99s []time.Duration
	for b, lats := range blockLat {
		if len(lats) == 0 {
			return 0, 0, 0, 0, fmt.Errorf("e13 steer (coordinate=%v): block %d completed no renders", coordinate, b)
		}
		renders += len(lats)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p50s = append(p50s, lats[len(lats)/2])
		p99s = append(p99s, lats[len(lats)*99/100])
	}
	sort.Slice(p50s, func(i, j int) bool { return p50s[i] < p50s[j] })
	sort.Slice(p99s, func(i, j int) bool { return p99s[i] < p99s[j] })
	for i := 0; i < 3; i++ {
		clusterSheds += cl.Scheduler(i).Stats().ShedClusterPressure
	}
	return renders, p50s[len(p50s)/2], p99s[len(p99s)/2], clusterSheds, nil
}

// e13Majority: the hot user saturates nodes 0-1 (4 sticky sessions
// each) and keeps 3 closed-loop sessions on node 2 — exactly at node 2's
// local bounds (1 slot + 2-deep user queue), so per-node admission never
// sheds them. Returns how many of the 3 nodes shed the hot user at all,
// and the cluster-pressure shed count on the calm node.
func e13Majority(s Scale, coordinate bool) (nodesShedding int, clusterSheds int64, err error) {
	lat := e13Latency(s)
	cl, err := clustertest.New(clustertest.Config{
		Nodes:   3,
		Rows:    2000,
		PoolMax: 1,
		Scheduler: sched.Config{
			Limit: 1, MinLimit: 1, MaxLimit: 1,
			MaxQueue: 4, MaxUserQueue: 2, MaxSessionQueue: 4,
			AdjustEvery: 1 << 30,
		},
		BackendLatency: lat,
	})
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()

	sheds := make([]atomic.Int64, 3)
	for i, workers := range []int{4, 4, 3} {
		stop := e13HotLoad(cl, i, workers, lat, &sheds[i])
		defer stop()
	}
	if err := e13WaitFor("hot overload on nodes 0-1", func() bool {
		return sheds[0].Load() > 0 && sheds[1].Load() > 0
	}); err != nil {
		return 0, 0, err
	}

	if coordinate {
		cl.Tick() // nodes 0-1 publish pressured digests; node 2 arms the clamp
		if err := e13WaitFor("cluster clamp shedding on node 2", func() bool {
			return cl.Scheduler(2).Stats().ShedClusterPressure > 0
		}); err != nil {
			return 0, 0, err
		}
	}
	// Hold the regime for a few publish intervals either way, so both
	// arms observe the same wall-clock window.
	for i := 0; i < 4; i++ {
		time.Sleep(lat) //vizlint:allow sleep -- holding the overload regime for a fixed observation window
		if coordinate {
			cl.Tick()
		}
	}

	for i := range sheds {
		if sheds[i].Load() > 0 {
			nodesShedding++
		}
	}
	return nodesShedding, cl.Scheduler(2).Stats().ShedClusterPressure, nil
}

// e13Convergence: three schedulers for the same source start with limits
// {1,4,2} and frozen local governors. Coordinated, they publish through
// one in-process bus and each ObservePeers nudges one step toward the
// fleet mean; per-node-only, nothing moves. Returns max-min limit after
// four publish rounds. This phase is fully deterministic: no queries, no
// goroutines, a hand-advanced clock.
func e13Convergence(coordinate bool) (spread int, err error) {
	limits := []int{1, 4, 2}
	scheds := make([]*sched.Scheduler, len(limits))
	for i, lim := range limits {
		scheds[i] = sched.New(sched.Config{
			Limit: lim, MinLimit: 1, MaxLimit: 8, AdjustEvery: 1 << 30,
		})
	}
	if coordinate {
		bus := kvstore.NewLocalBus(kvstore.NewStore(0))
		now := time.Unix(1_723_000_000, 0)
		coords := make([]*sched.Coordinator, len(scheds))
		for i, sc := range scheds {
			c, err := sched.NewCoordinator(sched.ClusterConfig{
				Node: fmt.Sprintf("node-%d", i),
				Bus:  bus,
			})
			if err != nil {
				return 0, err
			}
			c.Register("flights", sc)
			coords[i] = c
		}
		for round := 0; round < 4; round++ {
			now = now.Add(coords[0].Interval())
			for _, c := range coords {
				c.Step(now)
			}
		}
	}
	lo, hi := scheds[0].Stats().Limit, scheds[0].Stats().Limit
	for _, sc := range scheds[1:] {
		l := sc.Stats().Limit
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	return hi - lo, nil
}
