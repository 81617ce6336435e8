package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSessionContext(t *testing.T) {
	ctx := context.Background()
	if SessionOf(ctx) != "" {
		t.Fatal("untagged context should have empty session")
	}
	ctx = WithSession(ctx, "u1")
	if SessionOf(ctx) != "u1" {
		t.Fatalf("SessionOf = %q", SessionOf(ctx))
	}
}

func TestNilSchedulerAdmitsEverything(t *testing.T) {
	var s *Scheduler
	tk, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tk.Done() // nil ticket: no-op
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil scheduler stats = %+v", st)
	}
}

func TestDirectAdmitUpToLimit(t *testing.T) {
	s := New(Config{Limit: 2})
	t1, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := s.probe()
	if st.Inflight != 2 || st.Admitted != 2 {
		t.Fatalf("stats after two admits: %+v", st)
	}
	t1.Done()
	t2.Done()
	t2.Done() // idempotent
	if st := s.probe(); st.Inflight != 0 || st.Completed != 2 {
		t.Fatalf("stats after release: %+v", st)
	}
}

func TestQueueGrantsFIFOOnRelease(t *testing.T) {
	s := New(Config{Limit: 1})
	first, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := s.Admit(context.Background())
			if err != nil {
				t.Errorf("queued admit %d: %v", i, err)
				return
			}
			got <- i
			time.Sleep(5 * time.Millisecond)
			tk.Done()
		}(i)
		// Order the enqueues deterministically.
		waitUntil(t, func() bool { return s.Stats().Queued == i })
	}
	first.Done()
	wg.Wait()
	if a, b := <-got, <-got; a != 1 || b != 2 {
		t.Fatalf("grant order %d,%d; want 1,2", a, b)
	}
}

func TestDeadlineShedFailsFast(t *testing.T) {
	s := New(Config{Limit: 1})
	// Warm the estimator: one completed query with a known service time.
	seedEWMA(s, 50*time.Millisecond)

	hold, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Done()

	// Remaining budget 10ms, estimated wait >= 100ms: shed immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = s.Admit(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("want ErrShed, got %v", err)
	}
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "deadline" || se.EstWait <= 0 {
		t.Fatalf("shed detail: %+v", se)
	}
	if elapsed > 5*time.Millisecond {
		t.Fatalf("shed took %v; must fail fast, not wait", elapsed)
	}
	if st := s.Stats(); st.Shed != 1 || st.ShedDeadline != 1 {
		t.Fatalf("shed stats %+v", st)
	}
}

func TestNoDeadlineNeverDeadlineShed(t *testing.T) {
	s := New(Config{Limit: 1})
	seedEWMA(s, time.Hour) // absurd estimate; without a deadline it is moot
	hold, _ := s.Admit(context.Background())
	defer hold.Done()
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk, err := s.Admit(context.Background())
		if err != nil {
			t.Errorf("deadline-less admit: %v", err)
			return
		}
		tk.Done()
	}()
	waitUntil(t, func() bool { return s.Stats().Queued == 1 })
	hold.Done()
	<-done
}

func TestQueueFullSheds(t *testing.T) {
	s := New(Config{Limit: 1, MaxQueue: 2})
	hold, _ := s.Admit(context.Background())
	defer hold.Done()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := s.Admit(context.Background())
			if err == nil {
				tk.Done()
			}
		}()
	}
	waitUntil(t, func() bool { return s.Stats().Queued == 2 })
	_, err := s.Admit(context.Background())
	if !errors.Is(err, ErrShed) {
		t.Fatalf("queue-full admit: want ErrShed, got %v", err)
	}
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "queue-full" {
		t.Fatalf("shed detail: %+v", se)
	}
	hold.Done()
	wg.Wait()
}

func TestPerSessionQueueBound(t *testing.T) {
	s := New(Config{Limit: 1, MaxSessionQueue: 1, MaxQueue: 100})
	hold, _ := s.Admit(context.Background())
	defer hold.Done()
	chatty := WithSession(context.Background(), "chatty")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk, err := s.Admit(chatty)
		if err == nil {
			tk.Done()
		}
	}()
	waitUntil(t, func() bool { return s.Stats().Queued == 1 })
	if _, err := s.Admit(chatty); !errors.Is(err, ErrShed) {
		t.Fatalf("session bound: want ErrShed, got %v", err)
	}
	// A different session still queues fine.
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk, err := s.Admit(WithSession(context.Background(), "quiet"))
		if err != nil {
			t.Errorf("quiet session shed: %v", err)
			return
		}
		tk.Done()
	}()
	waitUntil(t, func() bool { return s.Stats().Queued == 2 })
	hold.Done()
	wg.Wait()
	<-done
}

// TestFairnessAcrossSessions pins the WFQ property the scheduler exists
// for: with one chatty session holding a deep queue and one light session
// holding a single query, the light query is granted on the first or
// second dequeue, not behind the chatty backlog.
func TestFairnessAcrossSessions(t *testing.T) {
	s := New(Config{Limit: 1})
	hold, _ := s.Admit(context.Background())

	const chattyDepth = 8
	order := make(chan string, chattyDepth+1)
	var wg sync.WaitGroup
	enqueue := func(sess string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := s.Admit(WithSession(context.Background(), sess))
			if err != nil {
				t.Errorf("%s admit: %v", sess, err)
				return
			}
			order <- sess
			tk.Done()
		}()
	}
	for i := 0; i < chattyDepth; i++ {
		enqueue("chatty")
		waitUntil(t, func() bool { return s.Stats().Queued == i+1 })
	}
	enqueue("light")
	waitUntil(t, func() bool { return s.Stats().Queued == chattyDepth+1 })

	hold.Done()
	wg.Wait()
	close(order)
	var grants []string
	for g := range order {
		grants = append(grants, g)
	}
	for i, g := range grants {
		if g == "light" {
			if i > 1 {
				t.Fatalf("light session granted at position %d behind the chatty backlog: %v", i, grants)
			}
			return
		}
	}
	t.Fatalf("light session never granted: %v", grants)
}

func TestCancelWhileQueuedRemovesWaiter(t *testing.T) {
	s := New(Config{Limit: 1})
	hold, _ := s.Admit(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Admit(ctx)
		errc <- err
	}()
	waitUntil(t, func() bool { return s.Stats().Queued == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitUntil(t, func() bool { return s.Stats().Queued == 0 })
	if st := s.Stats(); st.Canceled != 1 {
		t.Fatalf("canceled count %d", st.Canceled)
	}
	hold.Done()
	// Capacity must not have leaked: a fresh admit succeeds directly.
	tk, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tk.Done()
}

// TestAdmitReleaseStress hammers the scheduler from many goroutines with
// random cancellations and verifies no capacity is leaked: afterwards the
// scheduler is empty and admits directly.
func TestAdmitReleaseStress(t *testing.T) {
	s := New(Config{Limit: 3, MaxQueue: 64, MaxSessionQueue: 64})
	var wg sync.WaitGroup
	var admitted, shed, canceled atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				ctx := WithSession(context.Background(), fmt.Sprintf("s%d", g%4))
				if g%2 == 1 {
					ctx = WithUser(ctx, "other")
				}
				var cancel context.CancelFunc
				if rng.Intn(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				tk, err := s.Admit(ctx)
				switch {
				case err == nil:
					admitted.Add(1)
					if rng.Intn(8) == 0 {
						time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
					}
					tk.Done()
				case errors.Is(err, ErrShed):
					shed.Add(1)
				default:
					canceled.Add(1)
				}
				if cancel != nil {
					cancel()
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.probe()
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("leaked capacity: %+v", st)
	}
	if admitted.Load() == 0 {
		t.Fatal("stress admitted nothing")
	}
	// Accounting must match client-observed outcomes exactly: every
	// successful Admit+Done is one completion, every context loss — whether
	// removed from the queue or canceled after a racing grant — is one
	// cancellation. (Pre-fix, grants racing cancellation counted as
	// Completed.)
	if st.Completed != admitted.Load() {
		t.Fatalf("Completed = %d, clients completed %d", st.Completed, admitted.Load())
	}
	if st.Canceled != canceled.Load() {
		t.Fatalf("Canceled = %d, clients canceled %d", st.Canceled, canceled.Load())
	}
	tk, err := s.Admit(context.Background())
	if err != nil {
		t.Fatalf("post-stress admit: %v", err)
	}
	tk.Done()
	t.Logf("admitted=%d shed=%d canceled=%d", admitted.Load(), shed.Load(), canceled.Load())
}

func TestShedErrorMessage(t *testing.T) {
	e := &ShedError{Reason: "deadline", EstWait: time.Second, Budget: time.Millisecond}
	if e.Error() == "" || !errors.Is(e, ErrShed) {
		t.Fatalf("bad ShedError: %v", e)
	}
	f := &ShedError{Reason: "queue-full"}
	if f.Error() == "" || !errors.Is(f, ErrShed) {
		t.Fatalf("bad ShedError: %v", f)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Limit != 4 || c.MinLimit != 1 || c.MaxLimit != 8 || c.MaxQueue != 128 ||
		c.MaxUserQueue != 64 || c.MaxSessionQueue != 16 {
		t.Fatalf("defaults: %+v", c)
	}
	c = Config{MinLimit: 6, MaxLimit: 2}.withDefaults()
	if c.MaxLimit < c.MinLimit {
		t.Fatalf("MaxLimit %d below MinLimit %d", c.MaxLimit, c.MinLimit)
	}
}

// seedEWMA primes the service-time estimator with one synthetic completion.
func seedEWMA(s *Scheduler, d time.Duration) {
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
	s.finish(d, true)
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
