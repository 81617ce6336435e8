// Package sched is the Data Server's admission-control and scheduling
// layer. connection.Pool bounds how many queries one data source executes
// at once, but nothing above it bounds how many queries *wait*: an
// overload burst queues unboundedly inside the pool, every queued query
// eventually burns its full client timeout, and interactive p99 collapses
// to the timeout. Interactive-at-scale systems (Hillview, IDEBench) keep
// tail latency bounded with explicit arrival discipline, not just caching;
// this package supplies it per published source:
//
//   - Priority classes. Queries carry a Class (Interactive vs Background)
//     in their context; dashboard renders outrank extract refreshes.
//   - Hierarchical fair queuing. Waiting queries are queued per user and,
//     within a user, per session. Dequeues go class-priority-first,
//     round-robin across *users* within a class, then round-robin across
//     the user's *sessions* — so a user's share of the source is constant
//     no matter how many dashboards (sessions) they open, and within that
//     share no single session can starve the user's others.
//   - Deadline-aware load shedding. A query whose context deadline will
//     expire before its estimated queue wait (EWMA of recent service
//     times x the work fair queuing will serve ahead of it, divided by
//     the concurrency limit) is rejected immediately with ErrShed instead
//     of timing out slowly.
//   - An adaptive concurrency governor. The in-flight limit starts at the
//     pool's Max and adjusts around it using observed service latency:
//     sustained latency inflation shrinks the limit, headroom with queued
//     demand grows it.
//
// A shed is not a backend failure: it never reaches the circuit breaker,
// and the pipeline may answer it from a stale cache entry (see
// internal/core's degraded-read path).
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"vizq/internal/obs"
)

// Scheduler metrics, shared process-wide across schedulers.
var (
	cAdmitted    = obs.C("sched.admitted")
	cAdmittedInt = obs.C("sched.admitted.interactive")
	cAdmittedBg  = obs.C("sched.admitted.background")
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

// Class is a query's priority class.
type Class uint8

// The two classes: dashboard renders are Interactive, extract refreshes
// and other maintenance traffic are Background. Interactive is the zero
// value — an untagged context is someone waiting on a spinner.
const (
	Interactive Class = iota
	Background
)

// numClasses sizes per-class arrays.
const numClasses = 2

// String names the class.
func (c Class) String() string {
	if c == Background {
		return "background"
	}
	return "interactive"
}

type classKey struct{}
type userKey struct{}
type sessionKey struct{}

// WithClass tags the context with a priority class.
func WithClass(ctx context.Context, c Class) context.Context {
	return context.WithValue(ctx, classKey{}, c)
}

// ClassOf reads the context's class; untagged contexts are Interactive.
func ClassOf(ctx context.Context) Class {
	if c, ok := ctx.Value(classKey{}).(Class); ok {
		return c
	}
	return Interactive
}

// EnsureClass tags the context with c only if no class is set yet, so an
// upstream tag (an extract refresh marking itself Background) survives
// the Data Server's default.
func EnsureClass(ctx context.Context, c Class) context.Context {
	if _, ok := ctx.Value(classKey{}).(Class); ok {
		return ctx
	}
	return WithClass(ctx, c)
}

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

// EnsureUser tags the context with id only if no user is set yet.
func EnsureUser(ctx context.Context, id string) context.Context {
	if _, ok := ctx.Value(userKey{}).(string); ok {
		return ctx
	}
	return WithUser(ctx, id)
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

// EnsureSession tags the context with id only if no session is set yet.
func EnsureSession(ctx context.Context, id string) context.Context {
	if _, ok := ctx.Value(sessionKey{}).(string); ok {
		return ctx
	}
	return WithSession(ctx, id)
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
	// Limit is the initial in-flight bound — normally the source's pool
	// Max, which the Data Server fills in at Publish (default 4).
	Limit int
	// MinLimit / MaxLimit bound the governor's adjustment range around
	// Limit (defaults 1 and 2*Limit).
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
	// AdjustEvery is how many completions pass between governor steps
	// (default 8).
	AdjustEvery int
}

const (
	// deadlineSafety is the fraction of a query's remaining deadline
	// budget its estimated wait may consume before it is shed. Below 1 it
	// keeps admitted-query latency under the deadline.
	deadlineSafety = 0.85
	// tolerance is the governor's latency slack: the limit shrinks when
	// the service EWMA exceeds tolerance x the observed latency floor.
	tolerance = 2.0
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
	if c.AdjustEvery <= 0 {
		c.AdjustEvery = 8
	}
	return c
}

// Stats snapshots one scheduler's activity.
type Stats struct {
	AdmittedInteractive int64
	AdmittedBackground  int64
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
	Completed         int64 // ran to completion and returned the slot via Done
	Inflight          int
	Queued            int
	// QueuedUsers is the number of distinct user queues currently holding
	// waiters (per class; a user waiting in both classes counts twice).
	QueuedUsers int
	Limit       int
	// EWMAService is the current service-time estimate admission math uses.
	EWMAService time.Duration
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
	// EWMAWait is the smoothed queue wait published in cluster digests.
	EWMAWait time.Duration
	// ClusterPeers is the number of fresh peer digests currently blended
	// into admission decisions (0 = running local-only).
	ClusterPeers int
	// ClusterShedActive reports whether the fleet-majority shed clamp is
	// in force right now.
	ClusterShedActive bool
}

// waiter is one queued admission request.
type waiter struct {
	class   Class
	ready   chan struct{}
	granted bool       // guarded by Scheduler.mu
	shed    *ShedError // set (before ready closes) when flushed by a drain
}

// sessionQueue is one session's FIFO of waiters within a user.
type sessionQueue struct {
	id    string
	items []*waiter
}

// userQueue is one user's set of session queues within a class; dequeues
// round-robin across the user's sessions.
type userQueue struct {
	id       string
	sessions map[string]*sessionQueue
	ring     []*sessionQueue // visit order; empty sessions are removed
	cursor   int
	waiting  int // queued across all of this user's sessions
}

// classQueue round-robins across the class's users.
type classQueue struct {
	users   map[string]*userQueue
	ring    []*userQueue // visit order; empty users are removed
	cursor  int
	waiting int
}

// Scheduler is one source's admission controller. Safe for concurrent use.
type Scheduler struct {
	cfg Config

	mu          sync.Mutex
	inflight    int
	limit       int
	classes     [numClasses]classQueue
	waiting     int
	queuedUsers int // user queues holding waiters, across classes

	// ewmaNS estimates service time; floorNS tracks the lowest smoothed
	// latency seen (slowly decaying upward) as the governor's baseline.
	ewmaNS      float64
	floorNS     float64
	sinceAdjust int

	// ewmaWaitNS smooths observed queue waits for the cluster digest.
	ewmaWaitNS float64

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
	admittedInteractive, admittedBackground, admittedDirect, completed,
	canceled, shed, shedDeadline, shedQueueFull, shedUserQueueFull,
	shedClusterPressure, shedDraining obs.Counter
}

// New builds a scheduler from cfg.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg, limit: cfg.Limit}
	for i := range s.classes {
		s.classes[i].users = make(map[string]*userQueue)
	}
	s.admittedInteractive.RollUp(cAdmittedInt)
	s.admittedBackground.RollUp(cAdmittedBg)
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
		AdmittedInteractive: s.admittedInteractive.Value(),
		AdmittedBackground:  s.admittedBackground.Value(),
		AdmittedDirect:      s.admittedDirect.Value(),
		Shed:                s.shed.Value(),
		ShedDeadline:        s.shedDeadline.Value(),
		ShedQueueFull:       s.shedQueueFull.Value(),
		ShedUserQueueFull:   s.shedUserQueueFull.Value(),
		ShedClusterPressure: s.shedClusterPressure.Value(),
		ShedDraining:        s.shedDraining.Value(),
		Canceled:            s.canceled.Value(),
		Completed:           s.completed.Value(),
		Inflight:            s.inflight,
		Queued:              s.waiting,
		QueuedUsers:         s.queuedUsers,
		Limit:               s.limit,
		EWMAService:         time.Duration(s.ewmaNS),
		EWMAWait:            time.Duration(s.ewmaWaitNS),
		Draining:            s.draining,
	}
	if s.clusterFreshLocked(time.Now()) {
		st.ClusterPeers = s.peerCount
		st.ClusterShedActive = s.clusterShed
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
// estimator and the governor. Nil-safe and idempotent.
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
// the source has headroom, queues under the context's class, user and
// session when it does not, and sheds — returning an error wrapping
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
	class := ClassOf(ctx)
	user := UserOf(ctx)
	sess := SessionOf(ctx)
	sp.Annotate("class", class.String())
	if user != "" {
		sp.Annotate("user", user)
	}
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
		sp.Annotate("via", "shed-draining")
		return nil, &ShedError{Reason: "draining"}
	}
	// Fast path: capacity free and nobody of same-or-higher priority
	// waiting (admitting past waiters would reorder the fair queue).
	// Direct admissions have no queue wait by definition: they are
	// counted, not observed, so the wait histogram only describes
	// queries that actually queued.
	if s.inflight < s.limit && !s.queuedAtOrAbove(class) {
		s.admitLocked(class)
		s.admittedDirect.Inc()
		s.mu.Unlock()
		sp.Annotate("via", "direct")
		return &Ticket{s: s, start: time.Now()}, nil
	}

	// Deadline-aware shedding: reject now if the estimated wait consumes
	// the context's remaining budget. The estimate is fair-share aware:
	// it counts the work hierarchical round-robin would actually serve
	// ahead of this arrival, not the whole backlog.
	est := s.estimateLocked(class, user)
	var budget time.Duration
	if deadline, ok := ctx.Deadline(); ok {
		budget = time.Until(deadline)
		if float64(est) > deadlineSafety*float64(budget) {
			s.shed.Inc()
			s.shedDeadline.Inc()
			s.mu.Unlock()
			sp.Annotate("via", "shed-deadline")
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
	cq := &s.classes[class]
	uq := cq.users[user]
	var sq *sessionQueue
	if uq != nil {
		sq = uq.sessions[sess]
	}
	userFull := uq != nil && uq.waiting >= userCap
	if s.waiting >= s.cfg.MaxQueue || userFull ||
		(sq != nil && len(sq.items) >= s.cfg.MaxSessionQueue) {
		s.shed.Inc()
		if clusterClamp && userFull && uq.waiting < s.cfg.MaxUserQueue {
			// Only the cluster clamp rejected this query; locally it would
			// still have queued.
			s.shedClusterPressure.Inc()
			s.mu.Unlock()
			sp.Annotate("via", "shed-cluster-pressure")
			return nil, &ShedError{Reason: "cluster-pressure", EstWait: est, Budget: budget}
		}
		s.shedQueueFull.Inc()
		if userFull && s.waiting < s.cfg.MaxQueue {
			s.shedUserQueueFull.Inc()
		}
		s.mu.Unlock()
		if userFull {
			cShedUser.Inc()
		}
		sp.Annotate("via", "shed-queue-full")
		return nil, &ShedError{Reason: "queue-full", EstWait: est, Budget: budget}
	}
	w := s.enqueueLocked(class, user, sess)
	s.mu.Unlock()
	cQueued.Inc()
	sp.Annotate("via", "queue")

	select {
	case <-w.ready:
		if w.shed != nil {
			// The drain flushed this waiter: ready closed with a shed
			// verdict instead of a grant (shed stats were counted by the
			// flush; the close of w.ready orders the write of w.shed).
			sp.Annotate("via", "shed-draining")
			return nil, w.shed
		}
		wait := time.Since(start)
		mWaitNS.ObserveDuration(wait)
		s.mu.Lock()
		s.observeWaitLocked(wait)
		s.mu.Unlock()
		return &Ticket{s: s, start: time.Now()}, nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.shed != nil {
			// The drain flush raced the cancellation; the waiter already
			// left the queue and was counted as shed.
			s.mu.Unlock()
			sp.Annotate("via", "shed-draining")
			return nil, w.shed
		}
		if w.granted {
			// The grant raced the cancellation: the slot is ours and must
			// go back, but the query never ran — it counts as a
			// cancellation, never as a completion, and nothing is observed.
			s.mu.Unlock()
			(&Ticket{s: s}).cancel()
			sp.Annotate("via", "canceled-after-grant")
			return nil, ctx.Err()
		}
		s.removeLocked(class, user, sess, w)
		s.canceled.Inc()
		s.notifyQuiesceLocked()
		s.mu.Unlock()
		sp.Annotate("via", "canceled")
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
		// nextLocked maintains every queue invariant (counts, rings,
		// gauges), so draining through it flushes in fair order.
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
		if s.inflight == 0 && s.waiting == 0 {
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
	if s.quiesce != nil && s.inflight == 0 && s.waiting == 0 {
		close(s.quiesce)
		s.quiesce = nil
	}
}

// admitLocked counts one admission.
func (s *Scheduler) admitLocked(class Class) {
	s.inflight++
	gInflight.Set(int64(s.inflight))
	cAdmitted.Inc()
	if class == Background {
		s.admittedBackground.Inc()
	} else {
		s.admittedInteractive.Inc()
	}
}

// queuedAtOrAbove reports whether any waiter of class c or higher priority
// (lower value) is queued.
func (s *Scheduler) queuedAtOrAbove(c Class) bool {
	for i := Class(0); i <= c; i++ {
		if s.classes[i].waiting > 0 {
			return true
		}
	}
	return false
}

// estimateLocked predicts how long a new arrival of class c from the
// given user would wait. Everything in flight and everything queued in
// higher-priority classes is served first. Within the arrival's own
// class, round-robin across users does NOT serve the whole backlog ahead
// of it: each other user is served at most once per round it takes to
// drain this user's own queue (plus the new arrival), so a light user's
// estimate stays small even behind a greedy user's deep backlog. Everything ahead costs one EWMA service time, drained
// limit-wide, plus the arrival's own service time. An unwarmed estimator
// (no completions yet) returns 0 and admission falls back to the queue
// bounds alone.
func (s *Scheduler) estimateLocked(c Class, user string) time.Duration {
	if s.ewmaNS <= 0 {
		return 0
	}
	ahead := s.inflight
	for i := Class(0); i < c; i++ {
		ahead += s.classes[i].waiting
	}
	cq := &s.classes[c]
	own := 0
	if uq := cq.users[user]; uq != nil {
		own = uq.waiting
	}
	ahead += own
	// The user round-robin reaches this arrival at the back of its user's
	// queue after own+1 rounds; each competitor is served once a round.
	for id, uq := range cq.users {
		if id != user {
			ahead += min(own+1, uq.waiting)
		}
	}
	limit := s.limit
	if limit < 1 {
		limit = 1
	}
	est := s.ewmaNS * (float64(ahead)/float64(limit) + 1)
	// Fleet-backlog blending: peers queueing deeply for this source mean
	// the fleet is behind even when this node looks calm — a query sent
	// anywhere waits longer than the local backlog suggests, so inflate
	// the estimate and shed deadline-bound arrivals a little earlier.
	if s.peerQueueAvg > 0 && s.clusterFreshLocked(time.Now()) {
		est *= 1 + peerBacklogWeight*s.peerQueueAvg/float64(limit)
	}
	return time.Duration(est)
}

// observeWaitLocked smooths one observed queue wait into the digest's
// wait estimate.
func (s *Scheduler) observeWaitLocked(d time.Duration) {
	const alpha = 0.2
	ns := float64(d.Nanoseconds())
	if s.ewmaWaitNS == 0 {
		s.ewmaWaitNS = ns
	} else {
		s.ewmaWaitNS = (1-alpha)*s.ewmaWaitNS + alpha*ns
	}
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

// enqueueLocked appends a new waiter under (class, user, session),
// creating the user and session queues on first use. Every enqueue must
// be balanced by a dequeue (nextLocked) or a removal (removeLocked) —
// the vizlint release check pins this on the caller's paths.
func (s *Scheduler) enqueueLocked(class Class, user, sess string) *waiter {
	cq := &s.classes[class]
	uq := cq.users[user]
	if uq == nil {
		uq = &userQueue{id: user, sessions: make(map[string]*sessionQueue)}
		cq.users[user] = uq
		cq.ring = append(cq.ring, uq)
		s.queuedUsers++
		gUsers.Set(int64(s.queuedUsers))
	}
	sq := uq.sessions[sess]
	if sq == nil {
		sq = &sessionQueue{id: sess}
		uq.sessions[sess] = sq
		uq.ring = append(uq.ring, sq)
	}
	w := &waiter{class: class, ready: make(chan struct{})}
	sq.items = append(sq.items, w)
	uq.waiting++
	cq.waiting++
	s.waiting++
	gDepth.Set(int64(s.waiting))
	return w
}

// removeLocked drops a canceled waiter from its session queue.
func (s *Scheduler) removeLocked(class Class, user, sess string, w *waiter) {
	cq := &s.classes[class]
	uq := cq.users[user]
	if uq == nil {
		return
	}
	sq := uq.sessions[sess]
	if sq == nil {
		return
	}
	for i, x := range sq.items {
		if x == w {
			sq.items = append(sq.items[:i], sq.items[i+1:]...)
			uq.waiting--
			cq.waiting--
			s.waiting--
			gDepth.Set(int64(s.waiting))
			break
		}
	}
	if len(sq.items) == 0 {
		s.dropSessionLocked(uq, sq)
	}
	if uq.waiting == 0 {
		s.dropUserLocked(cq, uq)
	}
}

// dropSessionLocked removes an empty session from its user's map and ring.
func (s *Scheduler) dropSessionLocked(uq *userQueue, sq *sessionQueue) {
	delete(uq.sessions, sq.id)
	for i, x := range uq.ring {
		if x == sq {
			uq.ring = append(uq.ring[:i], uq.ring[i+1:]...)
			if uq.cursor > i {
				uq.cursor--
			}
			if len(uq.ring) > 0 {
				uq.cursor %= len(uq.ring)
			} else {
				uq.cursor = 0
			}
			return
		}
	}
}

// dropUserLocked removes an empty user from the class map and ring.
func (s *Scheduler) dropUserLocked(cq *classQueue, uq *userQueue) {
	if _, ok := cq.users[uq.id]; !ok {
		return
	}
	delete(cq.users, uq.id)
	s.queuedUsers--
	gUsers.Set(int64(s.queuedUsers))
	for i, x := range cq.ring {
		if x == uq {
			cq.ring = append(cq.ring[:i], cq.ring[i+1:]...)
			if cq.cursor > i {
				cq.cursor--
			}
			if len(cq.ring) > 0 {
				cq.cursor %= len(cq.ring)
			} else {
				cq.cursor = 0
			}
			return
		}
	}
}

// finish returns one slot. A completed query (Done) feeds the estimator
// and the governor and counts toward Completed; a canceled grant only
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
		// The floor chases the best smoothed latency seen, decaying upward
		// slowly so a legitimately slower regime resets the baseline.
		if s.floorNS == 0 || s.ewmaNS < s.floorNS {
			s.floorNS = s.ewmaNS
		} else {
			s.floorNS *= 1.002
		}
		s.governLocked()
	} else {
		s.canceled.Inc()
	}
	s.dispatchLocked()
	gInflight.Set(int64(s.inflight))
	s.notifyQuiesceLocked()
	s.mu.Unlock()
}

// governLocked adapts the in-flight limit around the configured base:
// additive decrease when the service EWMA inflates past tolerance x the
// latency floor (the backend is congesting — more concurrency would only
// queue inside it), additive increase when latency is healthy and demand
// is queued. Steps at most once per AdjustEvery completions.
func (s *Scheduler) governLocked() {
	s.sinceAdjust++
	if s.sinceAdjust < s.cfg.AdjustEvery {
		return
	}
	s.sinceAdjust = 0
	switch {
	case s.ewmaNS > s.floorNS*tolerance && s.limit > s.cfg.MinLimit:
		s.limit--
	case s.waiting > 0 && s.ewmaNS <= s.floorNS*tolerance && s.limit < s.cfg.MaxLimit:
		s.limit++
	}
	gLimit.Set(int64(s.limit))
}

// dispatchLocked grants freed capacity: Interactive before Background,
// round-robin across users within a class, round-robin across sessions
// within a user.
func (s *Scheduler) dispatchLocked() {
	for s.inflight < s.limit {
		w := s.nextLocked()
		if w == nil {
			return
		}
		w.granted = true
		s.admitLocked(w.class)
		close(w.ready)
	}
}

// nextLocked pops the next waiter in scheduling order, or nil. The outer
// loop is the user-level round-robin: each dequeue moves the cursor on
// to the next user.
func (s *Scheduler) nextLocked() *waiter {
	for ci := range s.classes {
		cq := &s.classes[ci]
		if cq.waiting == 0 {
			continue
		}
		for range cq.ring { // at most one full ring scan finds a waiter
			uq := cq.ring[cq.cursor]
			if uq.waiting == 0 {
				// Defensive: empty users are dropped eagerly, but keep the
				// scan robust if one slips through.
				s.dropUserLocked(cq, uq)
				if len(cq.ring) == 0 {
					break
				}
				continue
			}
			w := s.popSessionLocked(cq, uq)
			if w == nil {
				// The user's session ring was all-empty despite a positive
				// waiting count; resync by dropping it.
				s.dropUserLocked(cq, uq)
				if len(cq.ring) == 0 {
					break
				}
				continue
			}
			if uq.waiting == 0 {
				s.dropUserLocked(cq, uq)
			} else {
				cq.cursor = (cq.cursor + 1) % len(cq.ring)
			}
			return w
		}
	}
	return nil
}

// popSessionLocked dequeues one waiter from the user's session ring in
// round-robin order, or nil when every session is empty.
func (s *Scheduler) popSessionLocked(cq *classQueue, uq *userQueue) *waiter {
	for range uq.ring {
		sq := uq.ring[uq.cursor]
		if len(sq.items) == 0 {
			// Defensive: empty sessions are dropped eagerly, but keep the
			// scan robust if one slips through.
			s.dropSessionLocked(uq, sq)
			if len(uq.ring) == 0 {
				return nil
			}
			continue
		}
		w := sq.items[0]
		sq.items = sq.items[1:]
		uq.waiting--
		cq.waiting--
		s.waiting--
		gDepth.Set(int64(s.waiting))
		if len(sq.items) == 0 {
			s.dropSessionLocked(uq, sq)
		} else {
			uq.cursor = (uq.cursor + 1) % len(uq.ring)
		}
		return w
	}
	return nil
}
