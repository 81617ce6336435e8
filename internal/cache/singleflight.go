package cache

import (
	"context"
	"sync"

	"vizq/internal/obs"
	"vizq/internal/tde/exec"
)

// Single-flight metrics, shared process-wide: leader counts executions that
// ran the remote query; shared counts callers that joined an in-flight
// execution instead of issuing a duplicate.
var (
	cSFLeader = obs.C("cache.singleflight.leader")
	cSFShared = obs.C("cache.singleflight.shared")
)

// Call is one in-flight execution of a key. done closes when res/err are
// set.
type Call struct {
	done chan struct{}
	res  *exec.Result
	err  error
}

// Flight coalesces concurrent executions of the same key (the structural
// query identity): the first caller becomes the leader and runs the
// execution; callers arriving while the leader is in flight block and share
// its result. This is the request-coalescing answer to the correlated-miss
// stampede — K sessions rendering the same fresh dashboard send 1 remote
// query, not K (cf. memcached-style leases against thundering herds).
//
// Errors propagate to every waiter but do not poison the slot: the call is
// deregistered before waiters wake, so the next request for the key starts
// a fresh execution.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*Call

	leader, shared obs.Counter
}

// NewFlight creates an empty flight group.
func NewFlight() *Flight {
	f := &Flight{calls: make(map[string]*Call)}
	f.leader.RollUp(cSFLeader)
	f.shared.RollUp(cSFShared)
	return f
}

// Counts reports how many of this group's callers led an execution and
// how many shared one already in flight.
func (f *Flight) Counts() (leader, shared int64) {
	return f.leader.Value(), f.shared.Value()
}

// Join registers a caller for key. The first caller leads (leader is true)
// and must Finish the call on every path, or every later caller for the key
// waits forever; callers arriving while it is in flight follow and Wait on
// it. Join never blocks, so one goroutine can lead or follow many keys.
func (f *Flight) Join(key string) (c *Call, leader bool) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		f.shared.Inc()
		return c, false
	}
	c = &Call{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()
	f.leader.Inc()
	return c, true
}

// Finish publishes the leader's outcome and wakes the followers. The key is
// deregistered first so an error never poisons the slot: any caller
// arriving after this point starts a fresh flight.
func (f *Flight) Finish(key string, c *Call, res *exec.Result, err error) {
	c.res, c.err = res, err
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
}

// Wait blocks until the call is finished and returns its outcome. A
// follower whose ctx ends first unblocks with ctx.Err() while the leader
// keeps running for the others.
func (c *Call) Wait(ctx context.Context) (*exec.Result, error) {
	select {
	case <-c.done:
		return c.res, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Do executes fn once per key among concurrent callers: Join, then fn and
// Finish as the leader or Wait as a follower. It returns fn's result,
// whether this caller shared another caller's execution, and fn's error.
func (f *Flight) Do(ctx context.Context, key string, fn func() (*exec.Result, error)) (res *exec.Result, shared bool, err error) {
	c, leader := f.Join(key)
	if !leader {
		res, err = c.Wait(ctx)
		return res, true, err
	}
	res, err = fn()
	f.Finish(key, c, res, err)
	return res, false, err
}

// Pending reports the number of in-flight keys (tests, introspection).
func (f *Flight) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}
