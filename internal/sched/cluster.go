// Cluster-wide admission coordination. The paper's deployment (Sect.
// 4.1.4) runs many Data Servers behind a load balancer; per-node
// admission alone lets a hot source shed on one node while its replicas
// keep queueing, so fleet behavior under overload is inconsistent. Each
// node therefore periodically publishes a compact per-source load digest
// (current AIMD limit, queue depth, EWMA queued wait, shed rate) through
// the kvstore tier — the same distributed layer that shares caches
// across the cluster — and blends what it reads back into local
// decisions:
//
//   - Deadline-shed estimates inflate with average peer queue depth, so
//     a query that would starve anywhere is shed everywhere.
//   - AIMD limits nudge one step toward the fleet mean per observation,
//     converging instead of oscillating per node.
//   - A source shedding on a majority of nodes clamps every node's
//     per-user queue bound, so the hot user's backlog sheds
//     consistently fleet-wide (stale-on-shed still applies downstream).
//
// The digests are advisory, not consensus: every decision stays local
// and correct with zero peers, stale peers are ignored (staleDigests), and
// when the bus is unreachable — or the coordinator dies — the advisory
// state expires after a short hold and nodes degrade to exactly the
// per-node admission they had before this layer existed.
package sched

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"vizq/internal/obs"
)

// Cluster metrics, shared process-wide.
var (
	cClusterPublish    = obs.C("sched.cluster.publish")
	cClusterPublishErr = obs.C("sched.cluster.publish_errors")
	cClusterListErr    = obs.C("sched.cluster.list_errors")
	cClusterStale      = obs.C("sched.cluster.stale_digests")
	cClusterShed       = obs.C("sched.cluster.shed")
	cClusterConverge   = obs.C("sched.cluster.converge")
	gClusterPeers      = obs.G("sched.cluster.peers")
	gClusterDigestAge  = obs.G("sched.cluster.digest_age_ms")
	gClusterFleetLim   = obs.G("sched.cluster.fleet_limit")
)

// clusterHold is how long peer advisory state stays actionable after the
// last ObservePeers refresh (wall clock). It is deliberately generous —
// several publish intervals — because its job is only to stop a dead
// coordinator from freezing stale fleet pressure into admission forever.
const clusterHold = 10 * time.Second

// Bus is the coordination transport: a shared key-value namespace with
// TTL and prefix listing. internal/kvstore provides both an in-process
// implementation (LocalBus) and a reconnecting networked one (RemoteBus);
// sched depends only on this shape.
type Bus interface {
	Set(key string, val []byte, ttl time.Duration) error
	List(prefix string) (map[string][]byte, error)
}

// Digest is one node's published load summary for one source.
type Digest struct {
	Node          string
	Source        string
	Published     time.Time // publisher's clock; staleness is judged by the reader's clock
	Limit         int       // current AIMD in-flight limit
	QueueDepth    int       // waiters right now
	Inflight      int
	EWMAService   time.Duration
	EWMAWait      time.Duration
	ShedRate      float64 // sheds / (sheds + admissions) over the last publish interval
	ShedTotal     int64   // cumulative, for cross-node consistency accounting
	AdmittedTotal int64
	// Draining advertises a graceful drain in progress: peers' balancers
	// stop steering sessions here before the node goes away.
	Draining bool
}

// pressured reports whether the digest advertises shed pressure: the
// node actively shed this source over its last interval, or its queue
// has reached its concurrency limit (every new arrival there waits at
// least one full drain).
func (d Digest) pressured(shedRate float64) bool {
	return d.ShedRate >= shedRate || (d.Limit > 0 && d.QueueDepth >= d.Limit)
}

// digestVersion guards the wire codec; unknown versions are rejected so
// a mixed-version fleet degrades to local-only instead of misreading.
// v2 appended the flags byte (bit 0: draining).
const digestVersion = 2

// digestFlagDraining is bit 0 of the trailing flags byte.
const digestFlagDraining = 1 << 0

// Encode serializes the digest (version byte, length-prefixed strings,
// little-endian fixed-width numbers).
func (d Digest) Encode() []byte {
	out := make([]byte, 0, 80+len(d.Node)+len(d.Source))
	out = append(out, digestVersion)
	out = appendBusString(out, d.Node)
	out = appendBusString(out, d.Source)
	out = binary.LittleEndian.AppendUint64(out, uint64(d.Published.UnixNano()))
	out = binary.LittleEndian.AppendUint32(out, uint32(d.Limit))
	out = binary.LittleEndian.AppendUint32(out, uint32(d.QueueDepth))
	out = binary.LittleEndian.AppendUint32(out, uint32(d.Inflight))
	out = binary.LittleEndian.AppendUint64(out, uint64(d.EWMAService))
	out = binary.LittleEndian.AppendUint64(out, uint64(d.EWMAWait))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(d.ShedRate))
	out = binary.LittleEndian.AppendUint64(out, uint64(d.ShedTotal))
	out = binary.LittleEndian.AppendUint64(out, uint64(d.AdmittedTotal))
	var flags byte
	if d.Draining {
		flags |= digestFlagDraining
	}
	out = append(out, flags)
	return out
}

func appendBusString(out []byte, s string) []byte {
	out = binary.LittleEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...)
}

// DecodeDigest parses an encoded digest, rejecting torn or
// unknown-version payloads.
func DecodeDigest(b []byte) (Digest, error) {
	var d Digest
	if len(b) < 1 {
		return d, errors.New("sched: empty digest")
	}
	if b[0] != digestVersion {
		return d, errors.New("sched: unknown digest version")
	}
	b = b[1:]
	str := func() (string, error) {
		if len(b) < 2 {
			return "", errors.New("sched: torn digest")
		}
		n := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < n {
			return "", errors.New("sched: torn digest")
		}
		s := string(b[:n])
		b = b[n:]
		return s, nil
	}
	u64 := func() (uint64, error) {
		if len(b) < 8 {
			return 0, errors.New("sched: torn digest")
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v, nil
	}
	u32 := func() (uint32, error) {
		if len(b) < 4 {
			return 0, errors.New("sched: torn digest")
		}
		v := binary.LittleEndian.Uint32(b)
		b = b[4:]
		return v, nil
	}
	var err error
	if d.Node, err = str(); err != nil {
		return d, err
	}
	if d.Source, err = str(); err != nil {
		return d, err
	}
	pub, err := u64()
	if err != nil {
		return d, err
	}
	d.Published = time.Unix(0, int64(pub))
	lim, err := u32()
	if err != nil {
		return d, err
	}
	d.Limit = int(lim)
	depth, err := u32()
	if err != nil {
		return d, err
	}
	d.QueueDepth = int(depth)
	inf, err := u32()
	if err != nil {
		return d, err
	}
	d.Inflight = int(inf)
	svc, err := u64()
	if err != nil {
		return d, err
	}
	d.EWMAService = time.Duration(svc)
	wait, err := u64()
	if err != nil {
		return d, err
	}
	d.EWMAWait = time.Duration(wait)
	rate, err := u64()
	if err != nil {
		return d, err
	}
	d.ShedRate = math.Float64frombits(rate)
	shed, err := u64()
	if err != nil {
		return d, err
	}
	d.ShedTotal = int64(shed)
	adm, err := u64()
	if err != nil {
		return d, err
	}
	d.AdmittedTotal = int64(adm)
	if len(b) < 1 {
		return d, errors.New("sched: torn digest")
	}
	d.Draining = b[0]&digestFlagDraining != 0
	return d, nil
}

const (
	// digestPrefix namespaces digest keys on the bus: keys are
	// digestPrefix/<source>/<node>.
	digestPrefix = "sched/digest"
	// staleDigests is the maximum digest age (reader's clock), in publish
	// intervals, still blended into decisions. Older peers are ignored: a
	// partitioned node must not steer the fleet with frozen state.
	staleDigests = 3
	// digestTTL is how long a digest outlives its publisher on the bus, in
	// publish intervals: a crashed node's entry expires on its own.
	digestTTL = 4
)

// ClusterConfig tunes one node's coordinator. Zero fields take the
// defaults noted on them.
type ClusterConfig struct {
	// Node is this node's unique id within the fleet (required).
	Node string
	// Bus is the coordination transport (required).
	Bus Bus
	// Interval is the publish-and-observe period (default 250ms).
	Interval time.Duration
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	return c
}

// clusterSource is one registered scheduler's coordination bookkeeping.
type clusterSource struct {
	sched        *Scheduler
	prevShed     int64
	prevAdmitted int64
	lastSelf     Digest
	lastPeers    []Digest
}

// Coordinator publishes digests for this node's registered sources and
// feeds peer digests back into their schedulers. One per Data Server.
type Coordinator struct {
	cfg ClusterConfig

	mu      sync.Mutex
	sources map[string]*clusterSource
}

// NewCoordinator builds a coordinator from cfg.
func NewCoordinator(cfg ClusterConfig) (*Coordinator, error) {
	if cfg.Node == "" {
		return nil, errors.New("sched: cluster node id required")
	}
	if cfg.Bus == nil {
		return nil, errors.New("sched: cluster bus required")
	}
	cfg = cfg.withDefaults()
	return &Coordinator{cfg: cfg, sources: make(map[string]*clusterSource)}, nil
}

// Register adds a source's scheduler to the publish set.
func (c *Coordinator) Register(source string, s *Scheduler) {
	if s == nil {
		return
	}
	c.mu.Lock()
	c.sources[source] = &clusterSource{sched: s}
	c.mu.Unlock()
}

// Unregister drops a source (Unpublish).
func (c *Coordinator) Unregister(source string) {
	c.mu.Lock()
	delete(c.sources, source)
	c.mu.Unlock()
}

// Node returns this coordinator's node id.
func (c *Coordinator) Node() string { return c.cfg.Node }

// Interval returns the publish period.
func (c *Coordinator) Interval() time.Duration { return c.cfg.Interval }

// LastDigest returns the digest most recently published for source.
func (c *Coordinator) LastDigest(source string) (Digest, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	src, ok := c.sources[source]
	if !ok || src.lastSelf.Node == "" {
		return Digest{}, false
	}
	return src.lastSelf, true
}

// Peers returns the fresh peer digests observed for source at the last
// Step, sorted by node.
//
//vizlint:allow unused -- sched, clustertest and dataserver tests read peer digests
func (c *Coordinator) Peers(source string) []Digest {
	c.mu.Lock()
	defer c.mu.Unlock()
	src, ok := c.sources[source]
	if !ok {
		return nil
	}
	out := make([]Digest, len(src.lastPeers))
	copy(out, src.lastPeers)
	return out
}

// Step runs one publish-and-observe round for every registered source at
// time now. Its owner calls it once per Interval: the cluster harness on
// its own clock, tests directly.
func (c *Coordinator) Step(now time.Time) {
	c.mu.Lock()
	names := make([]string, 0, len(c.sources))
	for name := range c.sources {
		names = append(names, name)
	}
	c.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		c.stepSource(name, now)
	}
}

func (c *Coordinator) stepSource(name string, now time.Time) {
	c.mu.Lock()
	src, ok := c.sources[name]
	if !ok {
		c.mu.Unlock()
		return
	}
	st := src.sched.Stats()
	admitted := st.AdmittedInteractive + st.AdmittedBackground
	dShed := st.Shed - src.prevShed
	dAdm := admitted - src.prevAdmitted
	src.prevShed, src.prevAdmitted = st.Shed, admitted
	rate := 0.0
	if dShed+dAdm > 0 {
		rate = float64(dShed) / float64(dShed+dAdm)
	}
	self := Digest{
		Node:          c.cfg.Node,
		Source:        name,
		Published:     now,
		Limit:         st.Limit,
		QueueDepth:    st.Queued,
		Inflight:      st.Inflight,
		EWMAService:   st.EWMAService,
		EWMAWait:      st.EWMAWait,
		ShedRate:      rate,
		ShedTotal:     st.Shed,
		AdmittedTotal: admitted,
		Draining:      st.Draining,
	}
	src.lastSelf = self
	sched := src.sched
	c.mu.Unlock()

	// Bus I/O happens outside the coordinator lock so a stalled link
	// cannot block Register/Unregister.
	keyPrefix := digestPrefix + "/" + name + "/"
	if err := c.cfg.Bus.Set(keyPrefix+c.cfg.Node, self.Encode(), digestTTL*c.cfg.Interval); err != nil {
		cClusterPublishErr.Inc()
	} else {
		cClusterPublish.Inc()
	}
	vals, err := c.cfg.Bus.List(keyPrefix)
	if err != nil {
		// Unreachable bus: drop to local-only immediately rather than
		// steering on whatever was last seen.
		cClusterListErr.Inc()
		sched.ObservePeers(self, nil)
		c.storePeers(name, nil)
		return
	}
	peers := make([]Digest, 0, len(vals))
	var maxAge time.Duration
	for _, raw := range vals {
		d, derr := DecodeDigest(raw)
		if derr != nil || d.Source != name {
			cClusterStale.Inc()
			continue
		}
		if d.Node == c.cfg.Node {
			continue
		}
		age := now.Sub(d.Published)
		if age < 0 {
			age = 0
		}
		if age > staleDigests*c.cfg.Interval {
			cClusterStale.Inc()
			continue
		}
		if age > maxAge {
			maxAge = age
		}
		peers = append(peers, d)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Node < peers[j].Node })
	gClusterDigestAge.Set(maxAge.Milliseconds())
	sched.ObservePeers(self, peers)
	c.storePeers(name, peers)
}

func (c *Coordinator) storePeers(name string, peers []Digest) {
	c.mu.Lock()
	if src, ok := c.sources[name]; ok {
		src.lastPeers = peers
	}
	c.mu.Unlock()
}

// ObservePeers blends the fleet's state into local admission. self is
// the digest just published for this scheduler; peers are the fresh
// digests of every other node serving the same source (may be empty —
// zero peers means local-only admission, exactly the pre-cluster
// behavior). Decisions taken here:
//
//   - Majority shed: count pressured nodes across the fleet (self
//     included). Strictly more than half → the per-user cluster clamp
//     arms (see Admit).
//   - Backlog estimate: remember average peer queue depth for
//     estimateLocked's inflation term.
//   - Limit convergence: nudge the local limit one step toward the
//     fleet's mean limit. One step per observation keeps the governor
//     authoritative — coordination biases it, never overrides it.
func (s *Scheduler) ObservePeers(self Digest, peers []Digest) {
	if s == nil {
		return
	}
	if len(peers) == 0 {
		s.mu.Lock()
		s.peerCount = 0
		s.peerQueueAvg = 0
		s.clusterShed = false
		s.peerExpiry = time.Time{}
		s.mu.Unlock()
		gClusterPeers.Set(0)
		return
	}
	now := time.Now()
	s.mu.Lock()
	fleet := len(peers) + 1
	pressured := 0
	if self.pressured(pressureShedRate) {
		pressured++
	}
	qSum := 0.0
	limSum := s.limit
	for _, d := range peers {
		if d.pressured(pressureShedRate) {
			pressured++
		}
		qSum += float64(d.QueueDepth)
		limSum += d.Limit
	}
	s.peerCount = len(peers)
	s.peerQueueAvg = qSum / float64(len(peers))
	s.clusterShed = pressured*2 > fleet
	s.peerExpiry = now.Add(clusterHold)

	target := int(math.Round(float64(limSum) / float64(fleet)))
	old := s.limit
	switch {
	case s.limit < target && s.limit < s.cfg.MaxLimit:
		s.limit++
	case s.limit > target && s.limit > s.cfg.MinLimit:
		s.limit--
	}
	changed := s.limit != old
	if changed {
		gLimit.Set(int64(s.limit))
	}
	if s.limit > old {
		// A raised limit frees capacity; grant it to queued waiters now
		// rather than on the next completion.
		s.dispatchLocked()
	}
	s.mu.Unlock()
	if changed {
		cClusterConverge.Inc()
	}
	gClusterPeers.Set(int64(len(peers)))
	gClusterFleetLim.Set(int64(target))
}
