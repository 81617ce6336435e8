// Package clustertest is a deterministic in-process multi-node harness
// for cluster admission coordination: N Data Servers — each with its own
// backend TDE server (shared-everything over one database, Sect. 4.1.4),
// its own scheduler, and its own coordination-bus link — behind one
// pressure-aware balancer, all coordinating through a single networked
// kvstore. Determinism comes from three levers:
//
//   - a manual clock.Clock drives digest publishing, kvstore TTLs and
//     probe cooldowns: coordinators step only when the harness Ticks;
//   - each node reaches the kvstore through its own chaos proxy, so
//     node↔bus partitions are scripted per node and heal on command;
//   - workloads derive from seeded generators, with per-query distinct
//     filters to defeat caching when admission is the thing under test.
//
// Experiments (E13) and tests share this harness; it has no testing.T
// dependency.
package clustertest

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vizq/internal/chaos"
	"vizq/internal/clock"
	"vizq/internal/connection"
	"vizq/internal/core"
	"vizq/internal/dataserver"
	"vizq/internal/kvstore"
	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/sched"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// source names the published source on every node.
const source = "flights"

// busTimeout bounds each coordination-bus round trip in real time so
// partitioned links fail fast.
const busTimeout = 500 * time.Millisecond

// Config sizes a harness cluster. Zero fields take the defaults noted.
type Config struct {
	// Nodes is the Data Server count (default 3).
	Nodes int
	// Rows sizes the shared flights database (default 4000).
	Rows int
	// Seed feeds the database builder (default 11).
	Seed int64
	// PoolMax bounds each node's backend pool (default 2).
	PoolMax int
	// Scheduler is each node's admission config; a zero Limit anchors to
	// PoolMax as in production.
	Scheduler sched.Config
	// Interval is the digest publish period in fake time (default 250ms).
	Interval time.Duration
	// BackendLatency is added to every backend query (default 0).
	BackendLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Rows <= 0 {
		c.Rows = 4000
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.PoolMax <= 0 {
		c.PoolMax = 2
	}
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	return c
}

// Node is one Data Server plus its backend and bus plumbing.
type Node struct {
	Name    string
	DS      *dataserver.Server
	Backend *remote.Server
	// BackendProxy sits between the node and its backend TDE server; the
	// node's Data Server pool AND the balancer's pool for this node both
	// dial through it, so faulting it is "the node crashed" from every
	// observer's point of view — while the listener itself stays bound,
	// keeping kill/restart deterministic (no port-rebinding races).
	BackendProxy *chaos.Proxy
	// KVProxy sits between this node's bus client and the kvstore;
	// partitioning this node means faulting this proxy.
	KVProxy *chaos.Proxy
	Bus     *kvstore.Client

	mu    sync.Mutex
	conns map[string]*dataserver.ClientConn
}

// conn returns (creating on first use) this node's client connection for
// user against the published source.
func (n *Node) conn(user string) (*dataserver.ClientConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.conns[user]; ok {
		return c, nil
	}
	c, _, err := n.DS.Connect(source, user)
	if err != nil {
		return nil, err
	}
	n.conns[user] = c
	return c, nil
}

func (n *Node) closeConns() {
	n.mu.Lock()
	conns := n.conns
	n.conns = make(map[string]*dataserver.ClientConn)
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Cluster is the running harness.
type Cluster struct {
	Nodes    []*Node
	Clock    *clock.Clock // manual: moves only on Tick or Advance
	Balancer *connection.Balancer
	Store    *kvstore.Store

	cfg   Config
	kvSrv *kvstore.Server
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: cfg.Rows, Days: 60, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	clk := clock.Manual(time.Unix(1_723_000_000, 0))
	store := kvstore.NewStore(0)
	store.SetClock(clk)
	kvSrv, err := kvstore.Serve("127.0.0.1:0", store)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Clock: clk, Store: store, cfg: cfg, kvSrv: kvSrv}
	pools := make([]*connection.Pool, 0, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("node-%d", i)
		backend := remote.NewServer(engine.New(db), remote.Config{Latency: cfg.BackendLatency})
		if err := backend.Start("127.0.0.1:0"); err != nil {
			cl.Close()
			return nil, err
		}
		bproxy, err := chaos.New(backend.Addr(), nil)
		if err != nil {
			backend.Close()
			cl.Close()
			return nil, err
		}
		proxy, err := chaos.New(kvSrv.Addr(), nil)
		if err != nil {
			backend.Close()
			bproxy.Close()
			cl.Close()
			return nil, err
		}
		bus := kvstore.NewClient(proxy.Addr(), busTimeout)
		schedCfg := cfg.Scheduler
		ds := dataserver.NewServer(dataserver.Config{
			PipelineOptions: core.DefaultOptions(),
			Scheduler:       &schedCfg,
			Cluster: &sched.ClusterConfig{
				Node:     name,
				Bus:      bus,
				Interval: cfg.Interval,
			},
		})
		if err := ds.Publish(&dataserver.PublishedSource{
			Name:               source,
			Backend:            bproxy.Addr(),
			View:               query.View{Table: "flights"},
			MaxPoolConnections: cfg.PoolMax,
		}); err != nil {
			backend.Close()
			bproxy.Close()
			proxy.Close()
			cl.Close()
			return nil, err
		}
		cl.Nodes = append(cl.Nodes, &Node{
			Name:         name,
			DS:           ds,
			Backend:      backend,
			BackendProxy: bproxy,
			KVProxy:      proxy,
			Bus:          bus,
			conns:        make(map[string]*dataserver.ClientConn),
		})
		pools = append(pools, connection.NewPool(bproxy.Addr(), connection.PoolConfig{Max: cfg.PoolMax}))
	}
	b, err := connection.NewBalancerFromPools(pools)
	if err != nil {
		cl.Close()
		return nil, err
	}
	// The balancer's health tracking runs on the harness clock, so probe
	// cooldowns advance only on Tick/Advance.
	b.ConfigureHealth(connection.HealthConfig{
		SuspectAfter: 1, EjectAfter: 2, ProbeAfter: cfg.Interval, Clock: clk,
	})
	cl.Balancer = b
	return cl, nil
}

// Source returns the published source name.
func (cl *Cluster) Source() string { return source }

// Interval returns the digest publish period.
func (cl *Cluster) Interval() time.Duration { return cl.cfg.Interval }

// Scheduler returns node i's admission controller.
func (cl *Cluster) Scheduler(i int) *sched.Scheduler {
	return cl.Nodes[i].DS.Scheduler(source)
}

// Tick advances the manual clock one publish interval, steps every node's
// coordinator in node order (deterministic), and refreshes the
// balancer's advisory pressure from the freshly published digests. Two
// Ticks from a cold start give every node a view of every peer.
func (cl *Cluster) Tick() {
	now := cl.Clock.Advance(cl.cfg.Interval)
	for _, n := range cl.Nodes {
		n.DS.Coordinator().Step(now)
	}
	cl.SyncPressure()
}

// SyncPressure pushes each node's latest self-digest into the balancer:
// pressure is the node's shed rate or its queue depth normalized by its
// limit, whichever is worse, and the digest's draining bit takes the
// node out of rotation administratively. A node that has never published
// (or whose coordinator is gone) keeps its previous advisory values.
func (cl *Cluster) SyncPressure() {
	for i, n := range cl.Nodes {
		d, ok := n.DS.Coordinator().LastDigest(source)
		if !ok {
			continue
		}
		p := d.ShedRate
		if d.Limit > 0 {
			if q := float64(d.QueueDepth) / float64(d.Limit); q > p {
				p = q
			}
		}
		cl.Balancer.SetPressure(i, p)
		cl.Balancer.SetDraining(i, d.Draining)
	}
}

// Partition cuts node i off from the kvstore: in-flight bus connections
// die and new ones are refused until Heal.
func (cl *Cluster) Partition(i int) {
	cl.Nodes[i].KVProxy.SetMode(chaos.Fault{Kind: chaos.Refuse})
	cl.Nodes[i].KVProxy.KillActive()
}

// Heal reconnects node i to the kvstore.
func (cl *Cluster) Heal(i int) { cl.Nodes[i].KVProxy.Heal() }

// KillNode crashes node i uncleanly: its backend proxy refuses new
// connections and cuts active ones, so every in-flight and future query
// on the node — dispatched or sticky — fails with an immediate transport
// error until RestartNode. The Data Server process itself stays up
// (sessions and schedulers keep their state), mirroring a backend/node
// outage rather than a clean shutdown.
func (cl *Cluster) KillNode(i int) {
	cl.Nodes[i].BackendProxy.SetMode(chaos.Fault{Kind: chaos.Refuse})
	cl.Nodes[i].BackendProxy.KillActive()
}

// RestartNode brings a killed node back: the backend proxy heals and any
// leftover drain state clears. Re-admission to the balancer's rotation
// still requires a successful health probe (ProbeNode or the background
// prober) — restart makes the node reachable, not trusted.
func (cl *Cluster) RestartNode(i int) {
	cl.Nodes[i].BackendProxy.Heal()
	cl.Nodes[i].DS.Undrain()
}

// DrainNode gracefully drains node i inside ctx's deadline: new sessions
// refused, queued admissions shed with reason "draining", in-flight work
// waited out. The draining bit reaches peers' balancers on the next Tick.
func (cl *Cluster) DrainNode(ctx context.Context, i int) error {
	return cl.Nodes[i].DS.Drain(ctx)
}

// UndrainNode puts a drained node back in rotation (the cleared bit
// rides the next Tick).
func (cl *Cluster) UndrainNode(i int) { cl.Nodes[i].DS.Undrain() }

// ProbeNode offers node i one half-open health probe (no-op unless the
// node is ejected and past its cooldown on the manual clock). Returns
// whether a probe ran.
func (cl *Cluster) ProbeNode(i int) bool {
	return cl.Balancer.MaybeProbe(context.Background(), i)
}

// Dispatch routes one query through the balancer: the least-loaded
// non-pressured node is picked and the query runs on that node's client
// connection for user. Returns the chosen node index alongside the
// query's outcome.
func (cl *Cluster) Dispatch(ctx context.Context, user string, q *query.Query) (int, error) {
	idx := cl.Balancer.PickIndex()
	conn, err := cl.Nodes[idx].conn(user)
	if err != nil {
		return idx, err
	}
	_, err = conn.Query(ctx, q)
	cl.Balancer.Report(ctx, idx, err)
	return idx, err
}

// QueryOn runs one query for user directly against node idx, bypassing
// the balancer — the sticky-session path: a dashboard session stays on
// the node that first served it, which is how a hot user concentrates
// load on specific nodes.
func (cl *Cluster) QueryOn(ctx context.Context, idx int, user string, q *query.Query) error {
	conn, err := cl.Nodes[idx].conn(user)
	if err != nil {
		return err
	}
	_, err = conn.Query(ctx, q)
	cl.Balancer.Report(ctx, idx, err)
	return err
}

// DistinctQuery builds the i-th of a family of queries that are all
// answerable by the flights schema but mutually distinct, so caching and
// single-flight coalescing never short-circuit admission.
func DistinctQuery(i int) *query.Query {
	return &query.Query{
		View:     query.View{Table: "flights"},
		Dims:     []query.Dim{{Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
		Filters:  []query.Filter{query.GtFilter("distance", storage.IntValue(int64(10+i)))},
	}
}

// Close tears the cluster down: client connections, balancer pools,
// published sources, bus links, proxies, backends, and the kvstore.
func (cl *Cluster) Close() {
	for _, n := range cl.Nodes {
		n.closeConns()
		n.DS.Unpublish(source)
		_ = n.Bus.Close()
		n.KVProxy.Close()
		n.BackendProxy.Close()
		n.Backend.Close()
	}
	if cl.Balancer != nil {
		cl.Balancer.Close()
	}
	if cl.kvSrv != nil {
		_ = cl.kvSrv.Close()
	}
}
