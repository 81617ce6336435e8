package sched

// White-box tests for the fair queue: ring-cursor correctness when
// queues empty out at or before the cursor, the round-robin order across
// users and sessions (empty-then-refilled queues included), and a seeded
// comparison against a reference model. They drive the locked internals
// directly so every scenario is deterministic, at both levels of the
// hierarchy (session rings within a user, the ring of users).

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// enq enqueues one waiter under (user, sess) and returns it.
func enq(s *Scheduler, user, sess string) *waiter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueueLocked(user, sess)
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
			s.queue.kids["u"].next = tc.cursor
			s.removeLocked("u", tc.remove, ws[tc.remove])
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
		cursor   int // user-ring cursor before the removal
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
			s.queue.next = tc.cursor
			s.removeLocked("ub", "main", wb)
			s.mu.Unlock()
			got := drainOrder(s, label)
			if len(got) != 2 || got[0] != tc.wantNext[0] || got[1] != tc.wantNext[1] {
				t.Fatalf("drain order %v, want %v", got, tc.wantNext)
			}
		})
	}
}

// TestRoundRobinOrder pins the dequeue order: one grant per user in turn
// across users, and within a user one grant per session in
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

// The reference model of the fair queue: a ring of users, per user a ring
// of sessions, per session a FIFO — plain slices searched linearly, each
// ring with the index of the entry whose turn is next.
type (
	modelSess struct {
		id string
		ws []*waiter
	}
	modelUser struct {
		id   string
		ring []*modelSess
		next int
	}
	model struct {
		ring []*modelUser
		next int
	}
)

func (m *model) push(w *waiter, user, sess string) {
	var u *modelUser
	for _, x := range m.ring {
		if x.id == user {
			u = x
		}
	}
	if u == nil {
		u = &modelUser{id: user}
		m.ring = append(m.ring, u)
	}
	var se *modelSess
	for _, x := range u.ring {
		if x.id == sess {
			se = x
		}
	}
	if se == nil {
		se = &modelSess{id: sess}
		u.ring = append(u.ring, se)
	}
	se.ws = append(se.ws, w)
}

// cut deletes ring entry i, keeping next on the entry after it.
func cut[T any](ring []T, next, i int) ([]T, int) {
	ring = slices.Delete(ring, i, i+1)
	if next > i {
		next--
	}
	if next == len(ring) {
		next = 0
	}
	return ring, next
}

func (m *model) pop() *waiter {
	if len(m.ring) == 0 {
		return nil
	}
	u := m.ring[m.next]
	se := u.ring[u.next]
	w := se.ws[0]
	se.ws = se.ws[1:]
	if len(se.ws) == 0 {
		u.ring, u.next = cut(u.ring, u.next, u.next)
	} else {
		u.next = (u.next + 1) % len(u.ring)
	}
	if len(u.ring) == 0 {
		m.ring, m.next = cut(m.ring, m.next, m.next)
	} else {
		m.next = (m.next + 1) % len(m.ring)
	}
	return w
}

func (m *model) remove(w *waiter, user, sess string) bool {
	for i, u := range m.ring {
		for j, se := range u.ring {
			k := slices.Index(se.ws, w)
			if u.id != user || se.id != sess || k < 0 {
				continue
			}
			se.ws = slices.Delete(se.ws, k, k+1)
			if len(se.ws) == 0 {
				u.ring, u.next = cut(u.ring, u.next, j)
			}
			if len(u.ring) == 0 {
				m.ring, m.next = cut(m.ring, m.next, i)
			}
			return true
		}
	}
	return false
}

// checkAgainstModel compares every level of q with the model m: sizes,
// ring order and cursor, and that ring and kids name the same children
// with none of them empty.
func checkAgainstModel(t *testing.T, q *fairQueue, m *model, users, sessions []string) {
	t.Helper()
	ids := func(q *fairQueue) string {
		keys := make([]string, 0, len(q.kids))
		for k, kid := range q.kids {
			if kid.n == 0 {
				t.Fatalf("empty child %q kept", k)
			}
			keys = append(keys, k)
		}
		ring := slices.Clone(q.ring)
		slices.Sort(keys)
		slices.Sort(ring)
		if !slices.Equal(keys, ring) {
			t.Fatalf("ring %v and kids %v differ", q.ring, keys)
		}
		return fmt.Sprint(q.ring, q.next)
	}
	var userIDs []string
	total := 0
	for _, u := range m.ring {
		userIDs = append(userIDs, u.id)
		var sessIDs []string
		for _, se := range u.ring {
			sessIDs = append(sessIDs, se.id)
		}
		if got, want := ids(q.kids[u.id]), fmt.Sprint(sessIDs, u.next); got != want {
			t.Fatalf("user %s session ring %s, want %s", u.id, got, want)
		}
	}
	if got, want := ids(q), fmt.Sprint(userIDs, m.next); got != want {
		t.Fatalf("user ring %s, want %s", got, want)
	}
	for _, user := range users {
		userN := 0
		for _, sess := range sessions {
			want := 0
			for _, u := range m.ring {
				for _, se := range u.ring {
					if u.id == user && se.id == sess {
						want = len(se.ws)
					}
				}
			}
			if got := q.size(user, sess); got != want {
				t.Fatalf("size(%s, %s) = %d, want %d", user, sess, got, want)
			}
			if kid := q.kids[user]; kid != nil && kid.kids[sess] != nil && len(kid.kids[sess].items) != want {
				t.Fatalf("session %s/%s holds %d items, want %d", user, sess, len(kid.kids[sess].items), want)
			}
			userN += want
		}
		if got := q.size(user); got != userN {
			t.Fatalf("size(%s) = %d, want %d", user, got, userN)
		}
		total += userN
	}
	if q.size() != total {
		t.Fatalf("size() = %d, want %d", q.size(), total)
	}
}

// TestFairQueueMatchesModel runs seeded random push/pop/remove sequences
// through the scheduler's queue and the reference model side by side,
// checking the grant order and every level's state after each step.
func TestFairQueueMatchesModel(t *testing.T) {
	users := []string{"u0", "u1", "u2", "u3"}
	sessions := []string{"s0", "s1", "s2"}
	type queued struct {
		w          *waiter
		user, sess string
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(Config{})
		var m model
		var live []queued
		s.mu.Lock()
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				user, sess := users[rng.Intn(len(users))], sessions[rng.Intn(len(sessions))]
				w := s.enqueueLocked(user, sess)
				m.push(w, user, sess)
				live = append(live, queued{w, user, sess})
			case op < 8:
				got, want := s.nextLocked(), m.pop()
				if got != want {
					t.Fatalf("seed %d step %d: popped %p, model popped %p", seed, step, got, want)
				}
				live = slices.DeleteFunc(live, func(x queued) bool { return x.w == got })
			case len(live) > 0:
				i := rng.Intn(len(live))
				x := live[i]
				sess := x.sess
				if rng.Intn(4) == 0 {
					sess = sessions[rng.Intn(len(sessions))] // maybe the wrong path
				}
				got := s.queue.remove(x.w, x.user, sess)
				if want := m.remove(x.w, x.user, sess); got != want {
					t.Fatalf("seed %d step %d: remove = %v, model %v", seed, step, got, want)
				}
				if got {
					live = slices.Delete(live, i, i+1)
				}
			}
			checkAgainstModel(t, &s.queue, &m, users, sessions)
			if s.queue.n != len(live) {
				t.Fatalf("seed %d step %d: %d queued, %d live", seed, step, s.queue.n, len(live))
			}
		}
		s.mu.Unlock()
	}
}
