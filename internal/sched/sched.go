// Package sched is the Data Server's admission-control and scheduling
// layer. connection.Pool bounds how many queries one data source executes
// at once, but nothing above it bounds how many queries *wait*: an
// overload burst queues unboundedly inside the pool, every queued query
// eventually burns its full client timeout, and interactive p99 collapses
// to the timeout. Systems built for interaction at scale (Hillview,
// IDEBench) keep tail latency bounded with explicit arrival discipline,
// not just caching; this package supplies it per published source:
//
//   - Hierarchical fair queuing. Waiting queries are queued per user and,
//     within a user, per session. Dequeues go round-robin across *users*,
//     then round-robin across the user's *sessions* — so a user's share
//     of the source is constant no matter how many dashboards (sessions)
//     they open, and within that share no single session can starve the
//     user's others. There are no priority classes: extract pulls and
//     refreshes dial the live database on their own connection and never
//     pass through admission.
//   - Deadline-aware load shedding. A query whose context deadline will
//     expire before its estimated queue wait (EWMA of recent service
//     times x the work fair queuing will serve ahead of it, divided by
//     the concurrency limit) is rejected immediately with ErrShed instead
//     of timing out slowly.
//   - A concurrency limit. At most Limit queries (the pool's Max) run at
//     once; in a fleet, ObservePeers nudges it one step per observation
//     toward the peers' mean (see cluster.go).
//
// A shed is not a backend failure: it never reaches the circuit breaker,
// and the pipeline may answer it from a stale cache entry (see
// internal/core's degraded-read path).
package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"vizq/internal/obs"
)

// Scheduler metrics, shared process-wide across schedulers.
var (
	cAdmitted    = obs.C("sched.admitted")
	cAdmitDirect = obs.C("sched.admitted.direct")
	cShed        = obs.C("sched.shed")
	cShedFull    = obs.C("sched.shed.queue_full")
	cShedDrain   = obs.C("sched.shed.draining")
	cShedUser    = obs.C("sched.user.shed.queue_full")
	cQueued      = obs.C("sched.queued")
	cCanceled    = obs.C("sched.canceled")
	gInflight    = obs.G("sched.inflight")
	gLimit       = obs.G("sched.limit")
	gDepth       = obs.G("sched.queue.depth")
	gUsers       = obs.G("sched.user.queued")
	mWaitNS      = obs.H("sched.wait.ns")
	mServiceNS   = obs.H("sched.service.ns")
)

type userKey struct{}
type sessionKey struct{}

// WithUser tags the context with a fair-queuing user identity (the human
// behind the sessions — typically the authenticated Data Server user).
// All of a user's sessions share one fair-queuing share.
func WithUser(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, userKey{}, id)
}

// UserOf reads the context's user identity ("" when untagged; all
// untagged queries share one user, which degrades gracefully to the old
// flat per-session fairness).
func UserOf(ctx context.Context) string {
	if u, ok := ctx.Value(userKey{}).(string); ok {
		return u
	}
	return ""
}

// WithSession tags the context with a fair-queuing session identity
// (typically one client connection or one dashboard).
func WithSession(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, sessionKey{}, id)
}

// SessionOf reads the context's session identity ("" when untagged; all
// untagged queries share one queue).
func SessionOf(ctx context.Context) string {
	if s, ok := ctx.Value(sessionKey{}).(string); ok {
		return s
	}
	return ""
}

// ErrShed is the sentinel all load-shedding rejections wrap: the query was
// refused *before* consuming backend capacity, in microseconds rather than
// after a timeout-length wait. Callers distinguish it from backend errors
// with errors.Is(err, ErrShed).
var ErrShed = errors.New("sched: load shed")

// ShedError carries why a query was shed and what the scheduler estimated.
type ShedError struct {
	Reason  string        // "deadline", "queue-full", "cluster-pressure" or "draining"
	EstWait time.Duration // estimated queue wait at rejection time
	Budget  time.Duration // remaining context budget (0 when none)
}

// Error renders the rejection.
func (e *ShedError) Error() string {
	if e.Reason == "deadline" {
		return fmt.Sprintf("sched: load shed (estimated wait %v exceeds remaining budget %v)", e.EstWait, e.Budget)
	}
	return fmt.Sprintf("sched: load shed (%s)", e.Reason)
}

// Unwrap makes errors.Is(err, ErrShed) hold.
func (e *ShedError) Unwrap() error { return ErrShed }

// Config tunes one source's scheduler. Zero fields take the defaults
// noted on them.
type Config struct {
	// Limit is the in-flight bound — normally the source's pool Max,
	// which the Data Server fills in at Publish (default 4).
	Limit int
	// MinLimit / MaxLimit bound how far ObservePeers' convergence step
	// may move the limit (defaults 1 and 2*Limit).
	MinLimit int
	MaxLimit int
	// MaxQueue bounds the total number of waiting queries per source
	// (default 128). Beyond it every arrival is shed.
	MaxQueue int
	// MaxUserQueue bounds one user's total waiting queries summed across
	// all their sessions (default 64): a user opening ten dashboards
	// cannot buy ten sessions' worth of queue either.
	MaxUserQueue int
	// MaxSessionQueue bounds one session's waiting queries (default 16):
	// a chatty dashboard sheds before it can monopolize the queue.
	MaxSessionQueue int
}

const (
	// deadlineSafety is the fraction of a query's remaining deadline
	// budget its estimated wait may consume before it is shed. Below 1 it
	// keeps admitted-query latency under the deadline.
	deadlineSafety = 0.85
	// peerBacklogWeight scales how strongly peer queue depth (from cluster
	// digests) inflates local deadline-shed estimates: with Q the average
	// peer queue depth, the local estimate is multiplied by
	// 1 + peerBacklogWeight*Q/limit — fleet-wide backlog sheds
	// deadline-bound queries a little earlier everywhere.
	peerBacklogWeight = 0.25
	// clusterUserQueue is the per-user queue bound applied while a
	// majority of the fleet reports shed pressure for this source.
	// Clamping the *user* bound — not the source bound — sheds the hot
	// user's backlog consistently on every node while light users keep
	// queueing normally.
	clusterUserQueue = 1
	// pressureShedRate is the shed-rate threshold above which a peer's
	// digest counts as "pressured" for the majority-shed rule.
	pressureShedRate = 0.05
)

func (c Config) withDefaults() Config {
	if c.Limit <= 0 {
		c.Limit = 4
	}
	if c.MinLimit <= 0 {
		c.MinLimit = 1
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 2 * c.Limit
	}
	if c.MaxLimit < c.MinLimit {
		c.MaxLimit = c.MinLimit
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 128
	}
	if c.MaxUserQueue <= 0 {
		c.MaxUserQueue = 64
	}
	if c.MaxSessionQueue <= 0 {
		c.MaxSessionQueue = 16
	}
	return c
}

// Stats snapshots one scheduler's activity.
type Stats struct {
	Admitted int64
	// AdmittedDirect counts uncontended fast-path admissions (no queue
	// wait at all); they are excluded from the queue-wait histogram.
	AdmittedDirect int64
	Shed           int64
	ShedDeadline   int64
	ShedQueueFull  int64
	// ShedUserQueueFull counts queue-full sheds caused by the per-user
	// bound specifically (the source queue still had room).
	ShedUserQueueFull int64
	Canceled          int64 // left the queue, or returned a granted slot, on context cancellation
	Queued            int
	Limit             int
	// ShedClusterPressure counts sheds forced by the fleet-majority rule:
	// this node still had queue room, but the source was shedding on a
	// majority of nodes.
	ShedClusterPressure int64
	// ShedDraining counts sheds caused by a graceful drain: arrivals
	// refused while draining plus queued waiters flushed when the drain
	// began. Stale-on-shed still applies to them downstream.
	ShedDraining int64
	// Draining reports whether the scheduler is refusing new admissions;
	// it is advertised in cluster digests so peers stop steering here.
	Draining bool
	// ClusterPeers is the number of fresh peer digests currently blended
	// into admission decisions (0 = running local-only).
	ClusterPeers int
}

// waiter is one queued admission request.
type waiter struct {
	ready   chan struct{}
	granted bool       // guarded by Scheduler.mu
	shed    *ShedError // set (before ready closes) when flushed by a drain
}

// fairQueue is one level of the user → session hierarchy. The
// bottom level (a session) holds its waiters FIFO in items; a level above
// keeps one child per key in kids and serves them round-robin in ring
// order, next naming the child whose turn is next. A child leaves the
// ring the moment its count n reaches zero, so every child on the ring
// holds a waiter, and one that refills rejoins at the back.
type fairQueue struct {
	n     int // waiters at and below this level
	items []*waiter
	kids  map[string]*fairQueue
	ring  []string
	next  int
}

// push queues w under path (user, then session), creating the children
// on first use.
func (q *fairQueue) push(w *waiter, path ...string) {
	q.n++
	if len(path) == 0 {
		q.items = append(q.items, w)
		return
	}
	k := q.kids[path[0]]
	if k == nil {
		if q.kids == nil {
			q.kids = make(map[string]*fairQueue)
		}
		k = &fairQueue{}
		q.kids[path[0]] = k
		q.ring = append(q.ring, path[0])
	}
	k.push(w, path[1:]...)
}

// pop dequeues the next waiter in round-robin order, or nil when empty.
// Each pop moves every level it passes through on to its next child.
func (q *fairQueue) pop() *waiter {
	if q.n == 0 {
		return nil
	}
	q.n--
	if len(q.items) > 0 {
		w := q.items[0]
		q.items = q.items[1:]
		return w
	}
	i := q.next
	k := q.kids[q.ring[i]]
	w := k.pop()
	if k.n == 0 {
		q.drop(i)
	} else {
		q.next = (i + 1) % len(q.ring)
	}
	return w
}

// remove takes w out from under path, reporting whether it was queued
// there.
func (q *fairQueue) remove(w *waiter, path ...string) bool {
	if len(path) == 0 {
		i := slices.Index(q.items, w)
		if i < 0 {
			return false
		}
		q.items = slices.Delete(q.items, i, i+1)
		q.n--
		return true
	}
	k := q.kids[path[0]]
	if k == nil || !k.remove(w, path[1:]...) {
		return false
	}
	q.n--
	if k.n == 0 {
		q.drop(slices.Index(q.ring, path[0]))
	}
	return true
}

// size counts the waiters under path (0 when path names no child).
func (q *fairQueue) size(path ...string) int {
	if len(path) == 0 {
		return q.n
	}
	if k := q.kids[path[0]]; k != nil {
		return k.size(path[1:]...)
	}
	return 0
}

// drop removes the emptied child at ring index i. next keeps naming the
// child it named, or the one after a dropped one, wrapping at the end.
func (q *fairQueue) drop(i int) {
	delete(q.kids, q.ring[i])
	q.ring = slices.Delete(q.ring, i, i+1)
	if q.next > i {
		q.next--
	}
	if q.next >= len(q.ring) {
		q.next = 0
	}
}

// Scheduler is one source's admission controller. Safe for concurrent use.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	limit    int
	queue    fairQueue

	// ewmaNS estimates service time.
	ewmaNS float64

	// draining refuses new admissions (graceful drain); quiesce is a
	// lazily-created broadcast channel closed when inflight and waiting
	// both reach zero, for Quiesce waiters.
	draining bool
	quiesce  chan struct{}

	// Cluster advisory state, refreshed by ObservePeers. It expires
	// clusterHold after the last refresh (wall clock): a dead coordinator
	// or unreachable bus must decay the fleet's influence back to
	// local-only admission, never freeze it in.
	peerCount    int
	peerQueueAvg float64
	clusterShed  bool
	peerExpiry   time.Time

	// The counts of Stats, each rolled up into its scheduler metric where
	// one exists. They move and are read under mu, so a snapshot's shed
	// reasons always add up to Shed.
	admitted, admittedDirect, completed, canceled, shed, shedDeadline,
	shedQueueFull, shedUserQueueFull, shedClusterPressure,
	shedDraining obs.Counter
}

// New builds a scheduler from cfg.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg, limit: cfg.Limit}
	gLimit.Set(int64(s.limit))
	s.admitted.RollUp(cAdmitted)
	s.admittedDirect.RollUp(cAdmitDirect)
	s.canceled.RollUp(cCanceled)
	s.shed.RollUp(cShed)
	s.shedQueueFull.RollUp(cShedFull)
	s.shedClusterPressure.RollUp(cClusterShed)
	s.shedDraining.RollUp(cShedDrain)
	return s
}

// Stats snapshots counters. Nil-safe (no scheduler = zero stats).
func (s *Scheduler) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Admitted:            s.admitted.Value(),
		AdmittedDirect:      s.admittedDirect.Value(),
		Shed:                s.shed.Value(),
		ShedDeadline:        s.shedDeadline.Value(),
		ShedQueueFull:       s.shedQueueFull.Value(),
		ShedUserQueueFull:   s.shedUserQueueFull.Value(),
		ShedClusterPressure: s.shedClusterPressure.Value(),
		ShedDraining:        s.shedDraining.Value(),
		Canceled:            s.canceled.Value(),
		Queued:              s.queue.n,
		Limit:               s.limit,
		Draining:            s.draining,
	}
	if s.clusterFreshLocked(time.Now()) {
		st.ClusterPeers = s.peerCount
	}
	return st
}

// Ticket is one admitted query's capacity slot. Done returns it; every
// admitted ticket must be Done exactly once.
type Ticket struct {
	s     *Scheduler
	start time.Time
	done  bool
}

// Done releases the slot, feeding the observed service time to the wait
// estimator. Nil-safe and idempotent.
func (t *Ticket) Done() {
	if t == nil || t.done {
		return
	}
	t.done = true
	t.s.finish(time.Since(t.start), true)
}

// cancel releases the slot without a latency observation and without
// counting a completion (the caller's context died between grant and use;
// the query never ran).
func (t *Ticket) cancel() {
	if t == nil || t.done {
		return
	}
	t.done = true
	t.s.finish(0, false)
}

// Admit asks for capacity to run one query. It returns immediately when
// the source has headroom, queues under the context's user and session
// when it does not, and sheds — returning an error wrapping
// ErrShed within microseconds — when a queue bound (source, user or
// session) is hit or the context's deadline would expire before the
// estimated queue wait. A nil scheduler admits everything with a nil
// Ticket (Done on a nil Ticket is a no-op).
func (s *Scheduler) Admit(ctx context.Context) (*Ticket, error) {
	if s == nil {
		return nil, nil
	}
	_, sp := obs.StartSpan(ctx, obs.SpanSchedAdmit)
	defer sp.Finish()
	user := UserOf(ctx)
	sess := SessionOf(ctx)
	start := time.Now()

	s.mu.Lock()
	// A draining scheduler admits nothing: the node is about to go away,
	// so the query belongs on a peer (the balancer sees the draining bit
	// via the digest) or a stale cache entry (ErrShed-wrapping errors get
	// degraded reads downstream).
	if s.draining {
		s.shed.Inc()
		s.shedDraining.Inc()
		s.mu.Unlock()
		return nil, &ShedError{Reason: "draining"}
	}
	// Fast path: capacity free and nobody waiting (admitting past waiters
	// would reorder the fair queue).
	// Direct admissions have no queue wait by definition: they are
	// counted, not observed, so the wait histogram only describes
	// queries that actually queued.
	if s.inflight < s.limit && s.queue.n == 0 {
		s.admitLocked()
		s.admittedDirect.Inc()
		s.mu.Unlock()
		return &Ticket{s: s, start: time.Now()}, nil
	}

	// Deadline-aware shedding: reject now if the estimated wait consumes
	// the context's remaining budget. The estimate is fair-share aware:
	// it counts the work hierarchical round-robin would actually serve
	// ahead of this arrival, not the whole backlog.
	est := s.estimateLocked(user)
	var budget time.Duration
	if deadline, ok := ctx.Deadline(); ok {
		budget = time.Until(deadline)
		if float64(est) > deadlineSafety*float64(budget) {
			s.shed.Inc()
			s.shedDeadline.Inc()
			s.mu.Unlock()
			return nil, &ShedError{Reason: "deadline", EstWait: est, Budget: budget}
		}
	}

	// Bounded queues at every level: per source, per user, per session.
	// While a majority of the fleet reports shed pressure for this source,
	// the per-user bound clamps to clusterUserQueue: the hot user's
	// backlog sheds here too — even though this node alone still has
	// queue room — so overload behavior is consistent fleet-wide.
	userCap := s.cfg.MaxUserQueue
	clusterClamp := s.clusterShedActiveLocked(start)
	if clusterClamp {
		userCap = clusterUserQueue
	}
	queued := s.queue.n
	userQueued := s.queue.size(user)
	userFull := userQueued >= userCap
	if queued >= s.cfg.MaxQueue || userFull || s.queue.size(user, sess) >= s.cfg.MaxSessionQueue {
		s.shed.Inc()
		if clusterClamp && userFull && userQueued < s.cfg.MaxUserQueue {
			// Only the cluster clamp rejected this query; locally it would
			// still have queued.
			s.shedClusterPressure.Inc()
			s.mu.Unlock()
			return nil, &ShedError{Reason: "cluster-pressure", EstWait: est, Budget: budget}
		}
		s.shedQueueFull.Inc()
		if userFull && queued < s.cfg.MaxQueue {
			s.shedUserQueueFull.Inc()
		}
		s.mu.Unlock()
		if userFull {
			cShedUser.Inc()
		}
		return nil, &ShedError{Reason: "queue-full", EstWait: est, Budget: budget}
	}
	w := s.enqueueLocked(user, sess)
	s.mu.Unlock()
	cQueued.Inc()

	select {
	case <-w.ready:
		if w.shed != nil {
			// The drain flushed this waiter: ready closed with a shed
			// verdict instead of a grant (shed stats were counted by the
			// flush; the close of w.ready orders the write of w.shed).
			return nil, w.shed
		}
		mWaitNS.ObserveDuration(time.Since(start))
		return &Ticket{s: s, start: time.Now()}, nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.shed != nil {
			// The drain flush raced the cancellation; the waiter already
			// left the queue and was counted as shed.
			s.mu.Unlock()
			return nil, w.shed
		}
		if w.granted {
			// The grant raced the cancellation: the slot is ours and must
			// go back, but the query never ran — it counts as a
			// cancellation, never as a completion, and nothing is observed.
			s.mu.Unlock()
			(&Ticket{s: s}).cancel()
			return nil, ctx.Err()
		}
		s.removeLocked(user, sess, w)
		s.canceled.Inc()
		s.notifyQuiesceLocked()
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

// SetDraining toggles drain mode. Turning it on flushes every queued
// waiter with a ShedError reason "draining" (they would otherwise wait
// on capacity this node intends to give up) and makes every subsequent
// Admit shed the same way; in-flight work keeps its slots — drain bounds
// *new* work, Quiesce waits out the old. Turning it off resumes normal
// admission. Nil-safe.
func (s *Scheduler) SetDraining(on bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.draining == on {
		s.mu.Unlock()
		return
	}
	s.draining = on
	var flushed []*waiter
	if on {
		// Draining through nextLocked flushes in fair order and keeps
		// the gauges current.
		for {
			w := s.nextLocked()
			if w == nil {
				break
			}
			w.shed = &ShedError{Reason: "draining"}
			flushed = append(flushed, w)
			s.shed.Inc()
			s.shedDraining.Inc()
		}
		s.notifyQuiesceLocked()
	}
	s.mu.Unlock()
	for _, w := range flushed {
		close(w.ready)
	}
}

// Quiesce blocks until the scheduler holds no work — nothing in flight
// and nothing queued — or ctx expires. It is the drain deadline's wait
// primitive: call SetDraining(true) first so the waiting count only
// falls. Nil-safe.
func (s *Scheduler) Quiesce(ctx context.Context) error {
	if s == nil {
		return nil
	}
	for {
		s.mu.Lock()
		if s.inflight == 0 && s.queue.n == 0 {
			s.mu.Unlock()
			return nil
		}
		if s.quiesce == nil {
			s.quiesce = make(chan struct{})
		}
		ch := s.quiesce
		s.mu.Unlock()
		select {
		case <-ch:
			// Re-check from the top: a grant between the notify and this
			// wake can raise inflight again only via dispatch of queued
			// work, which the zero check catches.
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// notifyQuiesceLocked wakes Quiesce waiters when the scheduler goes
// idle. Callers hold s.mu.
func (s *Scheduler) notifyQuiesceLocked() {
	if s.quiesce != nil && s.inflight == 0 && s.queue.n == 0 {
		close(s.quiesce)
		s.quiesce = nil
	}
}

// admitLocked counts one admission.
func (s *Scheduler) admitLocked() {
	s.inflight++
	gInflight.Set(int64(s.inflight))
	s.admitted.Inc()
}

// estimateLocked predicts how long a new arrival from the given user
// would wait. Everything in flight is served first. Round-robin across
// users does NOT serve the whole backlog ahead of it: each other user is
// served at most once per round it takes to drain this user's own queue
// (plus the new arrival), so a light user's estimate stays small even
// behind a greedy user's deep backlog. Everything ahead costs one EWMA
// service time, drained limit-wide, plus the arrival's own service time.
// An unwarmed estimator (no completions yet) returns 0 and admission
// falls back to the queue bounds alone.
func (s *Scheduler) estimateLocked(user string) time.Duration {
	if s.ewmaNS <= 0 {
		return 0
	}
	own := s.queue.size(user)
	ahead := s.inflight + own
	// The user round-robin reaches this arrival at the back of its user's
	// queue after own+1 rounds; each competitor is served once a round.
	for id, uq := range s.queue.kids {
		if id != user {
			ahead += min(own+1, uq.n)
		}
	}
	limit := float64(s.limit)
	est := s.ewmaNS * (float64(ahead)/limit + 1)
	// Fleet-backlog blending: peers queueing deeply for this source mean
	// the fleet is behind even when this node looks calm — a query sent
	// anywhere waits longer than the local backlog suggests, so inflate
	// the estimate and shed deadline-bound arrivals a little earlier.
	if s.peerQueueAvg > 0 && s.clusterFreshLocked(time.Now()) {
		est *= 1 + peerBacklogWeight*s.peerQueueAvg/limit
	}
	return time.Duration(est)
}

// clusterFreshLocked reports whether peer advisory state is recent enough
// to act on; past the hold window admission falls back to local-only.
func (s *Scheduler) clusterFreshLocked(now time.Time) bool {
	return s.peerCount > 0 && now.Before(s.peerExpiry)
}

// clusterShedActiveLocked reports whether the fleet-majority shed clamp
// applies right now.
func (s *Scheduler) clusterShedActiveLocked(now time.Time) bool {
	return s.clusterShed && s.clusterFreshLocked(now)
}

// enqueueLocked queues a new waiter under (user, session). Every enqueue
// must be balanced by a dequeue (nextLocked) or a removal (removeLocked) —
// the vizlint release check pins this on the caller's paths.
func (s *Scheduler) enqueueLocked(user, sess string) *waiter {
	w := &waiter{ready: make(chan struct{})}
	s.queue.push(w, user, sess)
	s.queueGaugesLocked()
	return w
}

// removeLocked drops a canceled waiter from its session queue.
func (s *Scheduler) removeLocked(user, sess string, w *waiter) {
	s.queue.remove(w, user, sess)
	s.queueGaugesLocked()
}

// queueGaugesLocked publishes the queue depth and queued-user gauges.
func (s *Scheduler) queueGaugesLocked() {
	gDepth.Set(int64(s.queue.n))
	gUsers.Set(int64(len(s.queue.ring)))
}

// finish returns one slot. A completed query (Done) feeds the estimator
// and counts as completed; a canceled grant only
// returns capacity and counts toward Canceled — it never ran, so it must
// not inflate the completion count or the service estimate. Either way,
// freed capacity is granted to queued waiters.
func (s *Scheduler) finish(d time.Duration, completed bool) {
	s.mu.Lock()
	s.inflight--
	if completed {
		s.completed.Inc()
		mServiceNS.ObserveDuration(d)
		const alpha = 0.2
		ns := float64(d.Nanoseconds())
		if s.ewmaNS == 0 {
			s.ewmaNS = ns
		} else {
			s.ewmaNS = (1-alpha)*s.ewmaNS + alpha*ns
		}
	} else {
		s.canceled.Inc()
	}
	s.dispatchLocked()
	gInflight.Set(int64(s.inflight))
	s.notifyQuiesceLocked()
	s.mu.Unlock()
}

// dispatchLocked grants freed capacity: round-robin across users,
// round-robin across sessions within a user.
func (s *Scheduler) dispatchLocked() {
	for s.inflight < s.limit {
		w := s.nextLocked()
		if w == nil {
			return
		}
		w.granted = true
		s.admitLocked()
		close(w.ready)
	}
}

// nextLocked pops the next waiter in round-robin order, or nil.
func (s *Scheduler) nextLocked() *waiter {
	w := s.queue.pop()
	if w != nil {
		s.queueGaugesLocked()
	}
	return w
}
