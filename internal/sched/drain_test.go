package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestDrainShedsNewArrivals: a draining scheduler refuses every Admit
// with reason "draining", and errors.Is(err, ErrShed) holds so
// stale-on-shed degraded reads still apply.
func TestDrainShedsNewArrivals(t *testing.T) {
	s := New(Config{Limit: 2})
	s.SetDraining(true)
	if !s.Stats().Draining {
		t.Fatal("Draining() = false after SetDraining(true)")
	}
	_, err := s.Admit(context.Background())
	if err == nil {
		t.Fatal("draining scheduler admitted")
	}
	if !errors.Is(err, ErrShed) {
		t.Fatalf("drain shed does not wrap ErrShed: %v", err)
	}
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "draining" {
		t.Fatalf("shed reason = %v, want draining", err)
	}
	st := s.Stats()
	if st.ShedDraining != 1 || !st.Draining {
		t.Fatalf("stats = %+v, want ShedDraining=1 Draining=true", st)
	}

	// Undrain resumes normal admission.
	s.SetDraining(false)
	tk, err := s.Admit(context.Background())
	if err != nil {
		t.Fatalf("post-undrain admit: %v", err)
	}
	tk.Done()
}

// TestDrainFlushesQueuedWaiters: waiters queued before the drain are
// flushed immediately with the draining shed, not left to burn their
// deadlines waiting on capacity the node is giving up.
func TestDrainFlushesQueuedWaiters(t *testing.T) {
	s := New(Config{Limit: 1})
	hold, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const queued = 4
	errs := make(chan error, queued)
	var started sync.WaitGroup
	for i := 0; i < queued; i++ {
		started.Add(1)
		go func() {
			ctx := WithSession(context.Background(), "s1")
			started.Done()
			_, aerr := s.Admit(ctx)
			errs <- aerr
		}()
	}
	started.Wait()
	waitForQueued(t, s, queued)

	s.SetDraining(true)
	for i := 0; i < queued; i++ {
		select {
		case aerr := <-errs:
			var se *ShedError
			if !errors.As(aerr, &se) || se.Reason != "draining" {
				t.Fatalf("flushed waiter got %v, want draining shed", aerr)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("queued waiter not flushed by drain")
		}
	}
	if st := s.Stats(); st.ShedDraining != queued || st.Queued != 0 {
		t.Fatalf("stats = %+v, want ShedDraining=%d Queued=0", st, queued)
	}
	hold.Done()
}

// TestQuiesceWaitsForInflight: Quiesce returns only after in-flight
// tickets are returned, and honors its context deadline while work is
// still out.
func TestQuiesceWaitsForInflight(t *testing.T) {
	s := New(Config{Limit: 2})
	tk, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.SetDraining(true)

	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if qerr := s.Quiesce(short); !errors.Is(qerr, context.DeadlineExceeded) {
		t.Fatalf("Quiesce with work in flight = %v, want deadline exceeded", qerr)
	}

	done := make(chan error, 1)
	go func() { done <- s.Quiesce(context.Background()) }()
	tk.Done()
	select {
	case qerr := <-done:
		if qerr != nil {
			t.Fatalf("Quiesce after Done: %v", qerr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Quiesce did not wake when the last ticket returned")
	}
	// An idle scheduler quiesces immediately.
	if qerr := s.Quiesce(context.Background()); qerr != nil {
		t.Fatalf("idle Quiesce: %v", qerr)
	}
}

// TestNilSchedulerDrainOps: drain APIs are nil-safe like the rest of the
// scheduler surface.
func TestNilSchedulerDrainOps(t *testing.T) {
	var s *Scheduler
	s.SetDraining(true)
	if s.Stats().Draining {
		t.Fatal("nil scheduler reports draining")
	}
	if err := s.Quiesce(context.Background()); err != nil {
		t.Fatalf("nil Quiesce: %v", err)
	}
}

// TestDigestCarriesDraining: the draining bit survives the wire codec,
// and a v2 digest missing its flags byte is rejected as torn.
func TestDigestCarriesDraining(t *testing.T) {
	d := Digest{Node: "n1", Source: "src", Published: time.Unix(5, 0), Limit: 4, Draining: true}
	got, err := DecodeDigest(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Draining {
		t.Fatal("draining bit lost in round trip")
	}
	d.Draining = false
	if got, err = DecodeDigest(d.Encode()); err != nil || got.Draining {
		t.Fatalf("clear round trip: %v draining=%v", err, got.Draining)
	}
	enc := d.Encode()
	if _, err := DecodeDigest(enc[:len(enc)-1]); err == nil {
		t.Fatal("digest without flags byte decoded")
	}
}

// waitForQueued polls until the scheduler reports n queued waiters.
func waitForQueued(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().Queued >= n {
			return
		}
		time.Sleep(time.Millisecond) //vizlint:allow sleep -- test poll for queue depth
	}
	t.Fatalf("queue never reached %d (at %d)", n, s.Stats().Queued)
}
