package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestUserContext(t *testing.T) {
	ctx := context.Background()
	if UserOf(ctx) != "" {
		t.Fatal("untagged context should have empty user")
	}
	ctx = WithUser(ctx, "alice")
	if UserOf(ctx) != "alice" {
		t.Fatalf("UserOf = %q", UserOf(ctx))
	}
}

// TestUserFairnessGreedyVsSingles pins the tentpole property: a user
// opening many sessions gets ONE user's share, not one share per session.
// One greedy user holds 8 sessions x 2 queued queries; three single-session
// users hold one query each. Under user-level WRR every single-session
// user is granted within the first user round-robin round (positions
// 0..3). Under flat per-session WRR (the pre-fix behavior) the singles
// queue behind 8 greedy sessions and the last is granted at position 10.
func TestUserFairnessGreedyVsSingles(t *testing.T) {
	s := New(Config{Limit: 1})
	hold, _ := s.Admit(context.Background())

	order := make(chan string, 32)
	var wg sync.WaitGroup
	enqueue := func(user, sess string) {
		wg.Add(1)
		before := s.Stats().Queued
		go func() {
			defer wg.Done()
			ctx := WithUser(context.Background(), user)
			ctx = WithSession(ctx, sess)
			tk, err := s.Admit(ctx)
			if err != nil {
				t.Errorf("%s/%s admit: %v", user, sess, err)
				return
			}
			order <- user
			tk.Done()
		}()
		waitUntil(t, func() bool { return s.Stats().Queued == before+1 })
	}
	for i := 0; i < 8; i++ {
		enqueue("greedy", fmt.Sprintf("g%d", i))
	}
	for i := 0; i < 8; i++ { // second query per greedy session
		enqueue("greedy", fmt.Sprintf("g%d", i))
	}
	for i := 0; i < 3; i++ {
		enqueue(fmt.Sprintf("single-%d", i), "main")
	}
	if st := s.Stats(); st.QueuedUsers != 4 {
		t.Fatalf("QueuedUsers = %d, want 4", st.QueuedUsers)
	}

	hold.Done()
	wg.Wait()
	close(order)
	var grants []string
	for g := range order {
		grants = append(grants, g)
	}
	for i := 0; i < 3; i++ {
		user := fmt.Sprintf("single-%d", i)
		pos := -1
		for j, g := range grants {
			if g == user {
				pos = j
				break
			}
		}
		if pos < 0 || pos > 3 {
			t.Fatalf("%s granted at position %d behind the greedy user's 16-deep backlog: %v", user, pos, grants)
		}
	}
}

// TestMaxUserQueueAcrossSessions pins the per-user bound: the cap applies
// to a user's TOTAL queued queries, summed across sessions — opening more
// sessions does not buy more queue.
func TestMaxUserQueueAcrossSessions(t *testing.T) {
	s := New(Config{Limit: 1, MaxUserQueue: 2, MaxQueue: 100, MaxSessionQueue: 100})
	hold, _ := s.Admit(context.Background())
	defer hold.Done()

	greedy := func(sess string) context.Context {
		return WithSession(WithUser(context.Background(), "greedy"), sess)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		sess := fmt.Sprintf("s%d", i)
		go func() {
			defer wg.Done()
			tk, err := s.Admit(greedy(sess))
			if err == nil {
				tk.Done()
			}
		}()
		waitUntil(t, func() bool { return s.Stats().Queued == i+1 })
	}
	// Third query from a FRESH session of the same user: still over quota.
	if _, err := s.Admit(greedy("s2")); !errors.Is(err, ErrShed) {
		t.Fatalf("user bound across sessions: want ErrShed, got %v", err)
	}
	if st := s.Stats(); st.ShedUserQueueFull != 1 || st.ShedQueueFull != 1 {
		t.Fatalf("user-bound shed stats: %+v", st)
	}
	// A different user is unaffected by the greedy user's quota.
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk, err := s.Admit(WithUser(context.Background(), "other"))
		if err != nil {
			t.Errorf("other user shed: %v", err)
			return
		}
		tk.Done()
	}()
	waitUntil(t, func() bool { return s.Stats().Queued == 3 })
	hold.Done()
	wg.Wait()
	<-done
}

// TestSameSessionIDDifferentUsers pins that session queues are scoped
// inside their user: two users reusing the session id "main" must not
// share a queue or a session bound.
func TestSameSessionIDDifferentUsers(t *testing.T) {
	s := New(Config{Limit: 1, MaxSessionQueue: 1, MaxQueue: 100})
	hold, _ := s.Admit(context.Background())
	var wg sync.WaitGroup
	for i, user := range []string{"alice", "bob"} {
		wg.Add(1)
		u := user
		go func() {
			defer wg.Done()
			ctx := WithSession(WithUser(context.Background(), u), "main")
			tk, err := s.Admit(ctx)
			if err != nil {
				t.Errorf("%s admit: %v", u, err)
				return
			}
			tk.Done()
		}()
		waitUntil(t, func() bool { return s.Stats().Queued == i+1 })
	}
	// alice/main holds one queued query at MaxSessionQueue=1; bob/main
	// queued fine above, proving the bound did not cross users.
	hold.Done()
	wg.Wait()
	if st := s.Stats(); st.Queued != 0 || st.QueuedUsers != 0 {
		t.Fatalf("leaked queue state: %+v", st)
	}
}
