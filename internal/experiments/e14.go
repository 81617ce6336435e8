package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"vizq/internal/clustertest"
	"vizq/internal/sched"
)

// E14RollingRestart measures what the node-lifecycle machinery — graceful
// drain, digest-propagated draining bits, session failover, and
// probe-based re-admission — buys a fleet that has to restart its nodes
// (Sect. 4.1.4: many server processes front the same sources; taking one
// down must not take user sessions with it). Two scenario families:
//
//   - restart: a 3-node fleet restarts every node in turn while six
//     sticky dashboard sessions keep rendering. Abrupt (kill, no drain,
//     pinned sessions) surfaces every outage render as a user-visible
//     error; graceful (drain → digest tick → failover sessions move →
//     restart → undrain) completes the same rolling restart with zero.
//     Clients that dispatch at a draining node before seeing the digest
//     are shed fast with reason "draining" instead of queueing into a
//     dying process.
//   - lifecycle: an unclean kill is blamed into ejection by transport
//     errors, the fleet routes around the corpse, and after a restart
//     only a successful half-open probe — never a stray success — puts
//     the node back in rotation.
func E14RollingRestart(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "rolling restart of a 3-node fleet: abrupt vs drain+failover",
		Claim: "drain + digest propagation + session failover make a rolling restart invisible to users, and a killed node is ejected then re-admitted only via health probes",
		Header: []string{"scenario", "user errors", "renders",
			"session moves", "draining sheds", "node state"},
	}

	for _, graceful := range []bool{false, true} {
		errs, renders, moves, sheds, err := e14Rolling(s, graceful)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{e14Mode(graceful),
			fmt.Sprint(errs), fmt.Sprint(renders), fmt.Sprint(moves),
			fmt.Sprint(sheds), "-"})
	}
	ejected, readmitted, err := e14Lifecycle()
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"lifecycle: unclean kill", "-", "-", "-", "-", ejected},
		[]string{"lifecycle: probe after restart", "-", "-", "-", "-", readmitted})

	t.Notes = append(t.Notes,
		"restart: each node in turn goes down for a block of renders; 6 sticky sessions (2 per node) keep rendering throughout",
		"abrupt pins sessions to their node (the pre-lifecycle world): every render against the dead node is a user-visible error",
		"graceful drains first (new sessions refused, queued work shed as \"draining\", in-flight waited out), ticks the digest so peers stop steering, and failover sessions move off before dispatch",
		"draining sheds count stragglers that raced the digest: they learn \"no\" immediately instead of queueing into a dying node, and stale-on-shed still applies to them",
		"lifecycle: ejection needs repeated blamed transport errors, re-admission needs a successful half-open probe after the cooldown — both on the harness's fake clock",
		"all scenarios run on the deterministic clustertest harness: seeded workload, fake digest/probe clock, chaos-proxy kills")
	return t, nil
}

func e14Mode(graceful bool) string {
	if graceful {
		return "restart: drain+failover"
	}
	return "restart: abrupt"
}

// e14seq makes every render distinct so caching and single-flight never
// mask an outage, across both arms.
var e14seq atomic.Int64

func e14Query() int { return int(e14seq.Add(1)) }

// e14Rolling restarts each of 3 nodes in turn under a closed loop of six
// sticky sessions and reports user-visible errors, completed renders,
// session failovers, and draining sheds. graceful selects drain + digest
// propagation + failover sessions; abrupt kills with sessions pinned.
func e14Rolling(s Scale, graceful bool) (errs, renders, moves int, sheds int64, err error) {
	cl, err := clustertest.New(clustertest.Config{
		Nodes:     3,
		Rows:      2000,
		PoolMax:   2,
		Scheduler: sched.Config{MaxQueue: 16, MaxUserQueue: 4},
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer cl.Close()
	cl.Tick()
	cl.Tick()

	// Six sticky dashboard sessions, two per node. Only the graceful arm
	// gets failover; the abrupt arm models the pre-lifecycle world.
	const perNode = 2
	var sessions []*clustertest.Session
	for n := 0; n < 3; n++ {
		for k := 0; k < perNode; k++ {
			sess, serr := cl.NewSession(fmt.Sprintf("user-%d-%d", n, k), n, graceful)
			if serr != nil {
				return 0, 0, 0, 0, serr
			}
			defer sess.Close()
			sessions = append(sessions, sess)
		}
	}
	// A "straggler" client connection per node, established up front: a
	// dispatcher that races the draining digest and lands on the node
	// anyway.
	for n := 0; n < 3; n++ {
		if qerr := cl.QueryOn(context.Background(), n, "straggler", clustertest.DistinctQuery(e14Query())); qerr != nil {
			return 0, 0, 0, 0, fmt.Errorf("e14: straggler warmup on node %d: %w", n, qerr)
		}
	}

	rounds := 2 + s.Repeat
	renderBlock := func() {
		for r := 0; r < rounds; r++ {
			for _, sess := range sessions {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				qerr := sess.Query(ctx, clustertest.DistinctQuery(e14Query()))
				cancel()
				if qerr != nil {
					errs++
				} else {
					renders++
				}
			}
		}
	}

	for down := 0; down < 3; down++ {
		if graceful {
			if derr := cl.DrainNode(context.Background(), down); derr != nil {
				return 0, 0, 0, 0, fmt.Errorf("e14: drain node %d: %w", down, derr)
			}
			cl.Tick() // the draining bit rides this digest to every balancer
			// The straggler hasn't seen the digest: it must be shed fast with
			// reason "draining", not queued into the dying node.
			qerr := cl.QueryOn(context.Background(), down, "straggler", clustertest.DistinctQuery(e14Query()))
			var se *sched.ShedError
			if !errors.As(qerr, &se) || se.Reason != "draining" {
				return 0, 0, 0, 0, fmt.Errorf("e14: straggler on draining node %d wanted a draining shed, got: %w", down, qerr)
			}
			renderBlock() // failover sessions move off the drained node pre-dispatch
			cl.KillNode(down)
			cl.RestartNode(down)
			cl.UndrainNode(down)
			cl.Tick() // cleared bit propagates; node rejoins rotation
		} else {
			cl.KillNode(down)
			renderBlock() // pinned sessions on the dead node fail every render
			cl.RestartNode(down)
			// The dead node was blamed into ejection; re-admit it for the next
			// block the only way the fleet allows — a successful probe after
			// the cooldown.
			cl.Tick()
			cl.ProbeNode(down)
		}
	}

	for _, sess := range sessions {
		moves += sess.Moves()
	}
	for i := 0; i < 3; i++ {
		sheds += cl.Scheduler(i).Stats().ShedDraining
	}
	return errs, renders, moves, sheds, nil
}

// e14Lifecycle kills a node uncleanly, drives it into ejection with
// blamed transport errors, and re-admits it with a half-open probe after
// restart. Returns the observed post-kill and post-probe states. Fully
// deterministic: immediate chaos-proxy resets and a hand-advanced probe
// clock.
func e14Lifecycle() (ejected, readmitted string, err error) {
	cl, err := clustertest.New(clustertest.Config{Nodes: 3, Rows: 2000})
	if err != nil {
		return "", "", err
	}
	defer cl.Close()
	cl.Tick()
	cl.Tick()
	if qerr := cl.QueryOn(context.Background(), 0, "probe-user", clustertest.DistinctQuery(e14Query())); qerr != nil {
		return "", "", fmt.Errorf("e14: pre-kill query: %w", qerr)
	}

	cl.KillNode(0)
	for i := 0; cl.Balancer.State(0).String() != "ejected"; i++ {
		if i > 8 {
			return "", "", fmt.Errorf("e14: node 0 not ejected after %d failed queries (state %v)", i, cl.Balancer.State(0))
		}
		if qerr := cl.QueryOn(context.Background(), 0, "probe-user", clustertest.DistinctQuery(e14Query())); qerr == nil {
			return "", "", errors.New("e14: query on killed node succeeded")
		}
	}
	ejected = cl.Balancer.State(0).String()

	// Restart alone must not re-admit: rotation waits for a probe.
	cl.RestartNode(0)
	if cl.Balancer.State(0).String() != "ejected" {
		return "", "", errors.New("e14: restart re-admitted the node without a probe")
	}
	cl.Tick() // one publish interval == the harness probe cooldown
	if !cl.ProbeNode(0) {
		return "", "", errors.New("e14: probe not admitted after cooldown")
	}
	return ejected, cl.Balancer.State(0).String(), nil
}
