package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"vizq/internal/cache"
	"vizq/internal/connection"
	"vizq/internal/remote"
	"vizq/internal/resilience"
	"vizq/internal/sched"
)

// newSchedProcessor builds a pipeline with admission control and returns
// the scheduler for direct manipulation (holding slots, reading stats).
func newSchedProcessor(t testing.TB, srv *remote.Server, opt Options, copt cache.Options, scfg sched.Config) (*Processor, *sched.Scheduler) {
	t.Helper()
	sc := sched.New(scfg)
	opt.Scheduler = sc
	pool := connection.NewPool(srv.Addr(), connection.PoolConfig{Max: 4})
	t.Cleanup(pool.Close)
	return NewProcessor(pool, cache.NewIntelligentCache(copt), cache.NewLiteralCache(copt), opt), sc
}

// saturate seeds the scheduler's service-time estimator and occupies its
// only slot so the next admission must queue or shed.
func saturate(t testing.TB, sc *sched.Scheduler) *sched.Ticket {
	t.Helper()
	seed, err := sc.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	seed.Done() // one completion: the wait estimator is now warm
	hold, err := sc.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return hold
}

// TestShedIsNotABreakerFailure pins the resilience integration: a load
// shed happens before the resilience layer runs, so it must never count
// against the circuit breaker — an overload burst must not trip the
// breaker open and lock out the recovered backend.
func TestShedIsNotABreakerFailure(t *testing.T) {
	srv := startBackend(t, remote.Config{})
	opt := DefaultOptions()
	opt.DisableSingleFlight = true
	opt.Resilience = &resilience.Config{MaxAttempts: 1, BreakerMinSamples: 1, BreakerFailureRatio: 0.5}
	p, sc := newSchedProcessor(t, srv, opt, cache.DefaultOptions(), sched.Config{Limit: 1})

	hold := saturate(t, sc)
	shedCount := 0
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
		_, err := p.Execute(ctx, carrierCounts())
		cancel()
		if err == nil {
			t.Fatal("saturated scheduler admitted a doomed-deadline query")
		}
		if !errors.Is(err, sched.ErrShed) {
			t.Fatalf("want ErrShed, got %v", err)
		}
		shedCount++
	}
	hold.Done()

	br := p.Resilience().Breaker()
	if st := br.Stats(); st.State != resilience.Closed || st.Opened != 0 || st.FastFails != 0 {
		t.Fatalf("breaker saw %d sheds as failures: %+v", shedCount, st)
	}
	// With capacity back, the same pipeline serves fresh immediately — the
	// burst left no open breaker and no wedged scheduler state.
	res, err := p.Execute(context.Background(), carrierCounts())
	if err != nil || res.N == 0 {
		t.Fatalf("post-burst query = (%v, %v)", res, err)
	}
	if st := sc.Stats(); st.ShedDeadline != int64(shedCount) {
		t.Fatalf("scheduler stats: %+v, want %d deadline sheds", st, shedCount)
	}
}

// TestStaleServedOnShed pins the degraded-read integration: a shed query
// whose caches hold an expired-but-in-grace entry is answered stale, like
// an outage would be — a slightly old dashboard beats an error during an
// overload burst.
func TestStaleServedOnShed(t *testing.T) {
	srv := startBackend(t, remote.Config{})
	opt := DefaultOptions()
	opt.DisableSingleFlight = true
	opt.Resilience = &resilience.Config{MaxAttempts: 1, BreakerMinSamples: 100, ServeStale: true}
	copt := cache.DefaultOptions()
	copt.FreshFor = 30 * time.Millisecond
	copt.StaleGrace = time.Hour
	p, sc := newSchedProcessor(t, srv, opt, copt, sched.Config{Limit: 1})

	warm, err := p.Execute(context.Background(), carrierCounts())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) //vizlint:allow sleep -- let the cache entry expire into its grace window

	hold := saturate(t, sc)
	defer hold.Done()
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	res, err := p.Execute(ctx, carrierCounts())
	if err != nil {
		t.Fatalf("shed with grace entry should serve stale, got %v", err)
	}
	if !res.Stale || res.N != warm.N {
		t.Fatalf("stale answer = (N=%d stale=%v), warm N=%d", res.N, res.Stale, warm.N)
	}
	if st := p.Stats(); st.StaleServed == 0 {
		t.Fatalf("StaleServed = 0 after stale-on-shed: %+v", st)
	}
	if st := sc.Stats(); st.Shed == 0 {
		t.Fatalf("no shed recorded: %+v", st)
	}
}

// TestShedWithoutStaleFallsThrough: without ServeStale (or without a
// grace entry) the shed error itself reaches the caller, typed.
func TestShedWithoutStaleFallsThrough(t *testing.T) {
	srv := startBackend(t, remote.Config{})
	opt := DefaultOptions()
	opt.DisableSingleFlight = true
	p, sc := newSchedProcessor(t, srv, opt, cache.DefaultOptions(), sched.Config{Limit: 1})

	hold := saturate(t, sc)
	defer hold.Done()
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	_, err := p.Execute(ctx, carrierCounts())
	var se *sched.ShedError
	if !errors.As(err, &se) {
		t.Fatalf("want *sched.ShedError, got %v", err)
	}
	if se.Reason != "deadline" {
		t.Fatalf("shed reason %q", se.Reason)
	}
}

// TestSchedulerAdmitsThroughSingleFlight: with coalescing on, only the
// single-flight leader consumes an admission slot; N concurrent identical
// queries against a Limit-1 scheduler all succeed.
func TestSchedulerAdmitsThroughSingleFlight(t *testing.T) {
	srv := startBackend(t, remote.Config{Latency: 2 * time.Millisecond})
	opt := DefaultOptions()
	opt.DisableIntelligentCache = true
	opt.DisableLiteralCache = true
	p, sc := newSchedProcessor(t, srv, opt, cache.DefaultOptions(), sched.Config{Limit: 1})

	const herd = 8
	errs := make(chan error, herd)
	release := make(chan struct{})
	for i := 0; i < herd; i++ {
		go func() {
			<-release
			_, err := p.Execute(context.Background(), carrierCounts())
			errs <- err
		}()
	}
	close(release)
	for i := 0; i < herd; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("coalesced query %d: %v", i, err)
		}
	}
	st := sc.Stats()
	if st.Admitted > herd {
		t.Fatalf("admissions exceed callers: %+v", st)
	}
	if st.Inflight != 0 {
		t.Fatalf("leaked admission slots: %+v", st)
	}
}

// TestUserQuotaThroughPipeline pins that the context's user identity
// survives the whole Execute path into admission control: a user over
// their per-user queue bound is shed by the pipeline with ErrShed while
// another user's queries still queue, regardless of session ids.
func TestUserQuotaThroughPipeline(t *testing.T) {
	srv := startBackend(t, remote.Config{})
	opt := DefaultOptions()
	opt.DisableIntelligentCache = true
	opt.DisableLiteralCache = true
	opt.DisableSingleFlight = true
	p, sc := newSchedProcessor(t, srv, opt, cache.DefaultOptions(),
		sched.Config{Limit: 1, MinLimit: 1, MaxLimit: 1, MaxUserQueue: 1, MaxQueue: 100, MaxSessionQueue: 100})

	hold, err := sc.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tagged := func(user, sess string) context.Context {
		return sched.WithSession(sched.WithUser(context.Background(), user), sess)
	}
	waitQueued := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for sc.Stats().Queued != n {
			if time.Now().After(deadline) {
				t.Fatalf("queue depth never reached %d: %+v", n, sc.Stats())
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	done := make(chan error, 2)
	go func() {
		_, err := p.Execute(tagged("alice", "s1"), carrierCounts())
		done <- err
	}()
	waitQueued(1)

	// alice from a second session: over her user quota, shed by Execute.
	if _, err := p.Execute(tagged("alice", "s2"), carrierCounts()); !errors.Is(err, sched.ErrShed) {
		t.Fatalf("over-quota user not shed through the pipeline: %v", err)
	}
	// bob is not affected by alice's quota.
	go func() {
		_, err := p.Execute(tagged("bob", "s1"), carrierCounts())
		done <- err
	}()
	waitQueued(2)

	hold.Done()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued query failed: %v", err)
		}
	}
}
