package sched

// White-box tests for the dispatch machinery's edge cases: ring-cursor
// correctness when queues empty out at or before the cursor, the
// round-robin order across users and sessions (empty-then-refilled queues
// included), and the defensive branches that resync a ring whose waiting
// counts drifted. They drive the locked internals directly so every
// scenario is deterministic, at both levels of the hierarchy (session
// rings within a user, user rings within a class).

import (
	"context"
	"slices"
	"testing"
)

// enq enqueues one waiter under (user, sess) and returns it.
func enq(s *Scheduler, user, sess string) *waiter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueueLocked(Interactive, user, sess)
}

// drainOrder pops waiters until the queue is empty, returning the session
// ids (or user ids, via the label map) in grant order.
func drainOrder(s *Scheduler, label map[*waiter]string) []string {
	var order []string
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		w := s.nextLocked()
		if w == nil {
			return order
		}
		order = append(order, label[w])
	}
}

func TestSessionRingCursorOnRemoval(t *testing.T) {
	cases := []struct {
		name     string
		cursor   int // session-ring cursor before the removal
		remove   string
		wantNext []string // drain order after removing session "b"'s waiter
	}{
		// Ring is [a b c], one waiter each, all under one user.
		{"remove-before-cursor", 2, "b", []string{"c", "a"}},
		{"remove-at-cursor", 1, "b", []string{"c", "a"}},
		{"remove-after-cursor", 0, "b", []string{"a", "c"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Limit: 1})
			label := map[*waiter]string{}
			ws := map[string]*waiter{}
			for _, id := range []string{"a", "b", "c"} {
				w := enq(s, "u", id)
				label[w] = id
				ws[id] = w
			}
			s.mu.Lock()
			s.classes[Interactive].users["u"].cursor = tc.cursor
			s.removeLocked(Interactive, "u", tc.remove, ws[tc.remove])
			s.mu.Unlock()
			got := drainOrder(s, label)
			if len(got) != len(tc.wantNext) {
				t.Fatalf("drain order %v, want %v", got, tc.wantNext)
			}
			for i := range got {
				if got[i] != tc.wantNext[i] {
					t.Fatalf("drain order %v, want %v", got, tc.wantNext)
				}
			}
			if st := s.Stats(); st.Queued != 0 || st.QueuedUsers != 0 {
				t.Fatalf("residual queue state: %+v", st)
			}
		})
	}
}

func TestUserRingCursorOnRemoval(t *testing.T) {
	cases := []struct {
		name     string
		cursor   int // class-level user-ring cursor before the removal
		wantNext []string
	}{
		// Ring is [ua ub uc], one single-waiter session each; ub's waiter
		// is canceled, emptying and dropping user ub.
		{"drop-before-cursor", 2, []string{"uc", "ua"}},
		{"drop-at-cursor", 1, []string{"uc", "ua"}},
		{"drop-after-cursor", 0, []string{"ua", "uc"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Limit: 1})
			label := map[*waiter]string{}
			var wb *waiter
			for _, u := range []string{"ua", "ub", "uc"} {
				w := enq(s, u, "main")
				label[w] = u
				if u == "ub" {
					wb = w
				}
			}
			s.mu.Lock()
			s.classes[Interactive].cursor = tc.cursor
			s.removeLocked(Interactive, "ub", "main", wb)
			s.mu.Unlock()
			got := drainOrder(s, label)
			if len(got) != 2 || got[0] != tc.wantNext[0] || got[1] != tc.wantNext[1] {
				t.Fatalf("drain order %v, want %v", got, tc.wantNext)
			}
		})
	}
}

// TestRoundRobinOrder pins the dequeue order: one grant per user in turn
// across a class's users, and within a user one grant per session in
// turn. A queue that empties drops off its ring and, refilled, rejoins at
// the back with no turn carried over.
func TestRoundRobinOrder(t *testing.T) {
	type waiterAt struct{ user, sess string }
	cases := []struct {
		name   string
		before []waiterAt // drained first, so the queues empty and drop
		queued []waiterAt
		want   []string // "user/session" in grant order
	}{
		{
			name:   "users",
			queued: []waiterAt{{"a", "m"}, {"a", "m"}, {"a", "m"}, {"b", "m"}, {"c", "m"}, {"c", "m"}},
			want:   []string{"a/m", "b/m", "c/m", "a/m", "c/m", "a/m"},
		},
		{
			name:   "sessions",
			queued: []waiterAt{{"u", "x"}, {"u", "x"}, {"u", "x"}, {"u", "y"}},
			want:   []string{"u/x", "u/y", "u/x", "u/x"},
		},
		{
			name: "users-then-sessions",
			queued: []waiterAt{
				{"u1", "s1"}, {"u1", "s1"}, {"u1", "s2"}, {"u1", "s2"}, {"u2", "m"}, {"u2", "m"},
			},
			want: []string{"u1/s1", "u2/m", "u1/s2", "u2/m", "u1/s1", "u1/s2"},
		},
		{
			name:   "session-refill",
			before: []waiterAt{{"u", "w"}, {"u", "x"}},
			queued: []waiterAt{{"u", "w"}, {"u", "w"}, {"u", "x"}},
			want:   []string{"u/w", "u/x", "u/w"},
		},
		{
			name:   "user-refill",
			before: []waiterAt{{"vip", "m"}, {"std", "m"}},
			queued: []waiterAt{{"vip", "m"}, {"vip", "m"}, {"std", "m"}},
			want:   []string{"vip/m", "std/m", "vip/m"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Limit: 1})
			label := map[*waiter]string{}
			fill := func(ws []waiterAt) {
				for _, w := range ws {
					label[enq(s, w.user, w.sess)] = w.user + "/" + w.sess
				}
			}
			fill(tc.before)
			if got := drainOrder(s, label); len(got) != len(tc.before) {
				t.Fatalf("first round drained %v", got)
			}
			fill(tc.queued)
			if got := drainOrder(s, label); !slices.Equal(got, tc.want) {
				t.Fatalf("grant order %v, want %v", got, tc.want)
			}
		})
	}
}

// TestDefensiveEmptyBranches drives the resync paths: an empty session or
// user that somehow survives on a ring (the invariant says it cannot, but
// the scan must not spin or grant nil if one slips through).
func TestDefensiveEmptyBranches(t *testing.T) {
	t.Run("empty-session-on-ring", func(t *testing.T) {
		s := New(Config{Limit: 1})
		real := enq(s, "u", "real")
		s.mu.Lock()
		uq := s.classes[Interactive].users["u"]
		phantom := &sessionQueue{id: "phantom"}
		uq.sessions["phantom"] = phantom
		uq.ring = append([]*sessionQueue{phantom}, uq.ring...)
		uq.cursor = 0
		w := s.nextLocked()
		s.mu.Unlock()
		if w != real {
			t.Fatal("scan did not skip the phantom empty session")
		}
		if st := s.Stats(); st.Queued != 0 || st.QueuedUsers != 0 {
			t.Fatalf("residual state after resync: %+v", st)
		}
	})
	t.Run("empty-user-on-ring", func(t *testing.T) {
		s := New(Config{Limit: 1})
		real := enq(s, "u", "main")
		s.mu.Lock()
		cq := &s.classes[Interactive]
		phantom := &userQueue{id: "phantom", sessions: map[string]*sessionQueue{}}
		cq.users["phantom"] = phantom
		cq.ring = append([]*userQueue{phantom}, cq.ring...)
		cq.cursor = 0
		s.queuedUsers++
		w := s.nextLocked()
		gone := cq.users["phantom"] == nil
		s.mu.Unlock()
		if w != real {
			t.Fatal("scan did not skip the phantom empty user")
		}
		if !gone {
			t.Fatal("phantom user not dropped by the defensive branch")
		}
	})
	t.Run("user-with-all-empty-sessions", func(t *testing.T) {
		// waiting>0 but every session ring entry is empty: popSessionLocked
		// returns nil and nextLocked must resync by dropping the user, then
		// still grant the real waiter behind it.
		s := New(Config{Limit: 1})
		real := enq(s, "u", "main")
		s.mu.Lock()
		cq := &s.classes[Interactive]
		broken := &userQueue{id: "broken", sessions: map[string]*sessionQueue{}, waiting: 1}
		cq.users["broken"] = broken
		cq.ring = append([]*userQueue{broken}, cq.ring...)
		cq.cursor = 0
		s.queuedUsers++
		w := s.nextLocked()
		gone := cq.users["broken"] == nil
		s.mu.Unlock()
		if w != real {
			t.Fatal("scan did not resync past the broken user")
		}
		if !gone {
			t.Fatal("broken user not dropped")
		}
	})
}

// TestDrainAfterEdgeCases exercises the same machinery end-to-end: after
// cursor surgery the scheduler still grants every waiter exactly once.
func TestDrainAfterEdgeCases(t *testing.T) {
	s := New(Config{Limit: 1})
	hold, _ := s.Admit(context.Background())
	n := 6
	got := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		ctx := WithUser(context.Background(), []string{"a", "b", "c"}[i%3])
		before := s.Stats().Queued
		go func() {
			tk, err := s.Admit(ctx)
			if err != nil {
				t.Errorf("admit: %v", err)
				return
			}
			tk.Done() // before the send, so the final Stats sees it
			got <- struct{}{}
		}()
		waitUntil(t, func() bool { return s.Stats().Queued == before+1 })
	}
	hold.Done()
	for i := 0; i < n; i++ {
		<-got
	}
	if st := s.Stats(); st.Queued != 0 || st.Inflight != 0 || st.QueuedUsers != 0 {
		t.Fatalf("residual state: %+v", st)
	}
}
