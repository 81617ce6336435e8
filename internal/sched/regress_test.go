package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"vizq/internal/obs"
)

// TestGrantedSlotReturnCountsCanceledNotCompleted is the regression test
// for the Completed overcount: when a queued waiter's grant races its
// context cancellation, Admit returns the already-granted slot via
// (&Ticket{s: s}).cancel(). Pre-fix, that path ran the same accounting as
// Done and counted a query that never ran as Completed. The slot return
// must count as Canceled, feed nothing to the service estimator, and
// still free the capacity.
func TestGrantedSlotReturnCountsCanceledNotCompleted(t *testing.T) {
	s := New(Config{Limit: 1})
	tk, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tk.Done() // the only genuine completion in this test

	// Replay the racing branch of Admit deterministically: the dispatcher
	// granted the slot (admitLocked) but the waiter's context died, so the
	// slot goes back through the cancel path.
	s.mu.Lock()
	s.admitLocked()
	s.mu.Unlock()
	(&Ticket{s: s}).cancel()

	st := s.Stats()
	if st.Completed != 1 {
		t.Fatalf("Completed = %d, want 1: a canceled grant must not count as completed", st.Completed)
	}
	if st.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1", st.Canceled)
	}
	if st.Inflight != 0 {
		t.Fatalf("Inflight = %d: canceled grant leaked the slot", st.Inflight)
	}
	// A zero-duration cancel must not have polluted the service estimator
	// (one real completion set it; the cancel would have dragged it down).
	if st.EWMAService <= 0 {
		t.Fatalf("EWMAService = %v: cancel path fed the estimator a zero", st.EWMAService)
	}
}

// TestShedErrorFieldConsistency is the regression test for the queue-full
// shed dropping the deadline: both shed reasons must populate Budget when
// the context has a deadline, so callers logging shed decisions see the
// same fields on either path.
func TestShedErrorFieldConsistency(t *testing.T) {
	s := New(Config{Limit: 1, MaxQueue: 1, MaxSessionQueue: 1})
	seedEWMA(s, 10*time.Millisecond)
	hold, _ := s.Admit(context.Background())
	defer hold.Done()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk, err := s.Admit(WithSession(context.Background(), "filler"))
		if err == nil {
			tk.Done()
		}
	}()
	waitUntil(t, func() bool { return s.Stats().Queued == 1 })

	// Queue-full shed WITH a deadline: Budget must carry the remaining
	// budget, exactly as the deadline shed does.
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	_, err := s.Admit(ctx)
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "queue-full" {
		t.Fatalf("want queue-full shed, got %v", err)
	}
	if se.Budget <= 0 || se.Budget > time.Hour {
		t.Fatalf("queue-full shed Budget = %v: must expose the remaining deadline budget", se.Budget)
	}
	if se.EstWait <= 0 {
		t.Fatalf("queue-full shed EstWait = %v: estimator was warmed, must be exposed", se.EstWait)
	}

	// Queue-full shed WITHOUT a deadline: Budget stays zero.
	_, err = s.Admit(context.Background())
	if !errors.As(err, &se) || se.Reason != "queue-full" || se.Budget != 0 {
		t.Fatalf("deadline-less queue-full shed: %v", err)
	}

	// Deadline shed exposes the same pair.
	s2 := New(Config{Limit: 1})
	seedEWMA(s2, time.Minute)
	hold2, _ := s2.Admit(context.Background())
	defer hold2.Done()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	_, err = s2.Admit(ctx2)
	if !errors.As(err, &se) || se.Reason != "deadline" || se.Budget <= 0 || se.EstWait <= 0 {
		t.Fatalf("deadline shed fields: %v", err)
	}

	hold.Done()
	wg.Wait()
}

// TestDirectAdmitsSkipWaitHistogram is the regression test for the
// wait-histogram skew: uncontended fast-path admissions must be counted
// (AdmittedDirect / sched.admitted.direct), not recorded as zero-duration
// waits — pre-fix they flooded the histogram's zero bucket and made queue
// p99 meaningless under light load.
func TestDirectAdmitsSkipWaitHistogram(t *testing.T) {
	h := obs.H("sched.wait.ns")
	before := h.Count()

	s := New(Config{Limit: 2})
	t1, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Count(); got != before {
		t.Fatalf("wait histogram count grew by %d on direct admissions; direct waits must not be observed", got-before)
	}
	if st := s.Stats(); st.AdmittedDirect != 2 {
		t.Fatalf("AdmittedDirect = %d, want 2", st.AdmittedDirect)
	}

	// A genuinely queued admission IS observed.
	granted := make(chan struct{})
	go func() {
		defer close(granted)
		tk, err := s.Admit(context.Background())
		if err != nil {
			t.Errorf("queued admit: %v", err)
			return
		}
		tk.Done()
	}()
	waitUntil(t, func() bool { return s.Stats().Queued == 1 })
	t1.Done()
	<-granted
	if got := h.Count(); got != before+1 {
		t.Fatalf("wait histogram count delta = %d after one queued admission, want 1", got-before)
	}
	if st := s.Stats(); st.AdmittedDirect != 2 {
		t.Fatalf("queued admission bumped AdmittedDirect: %+v", st)
	}
	t2.Done()
}
