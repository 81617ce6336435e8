package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// memBus is an in-memory Bus with injectable failures for coordinator
// tests (kvstore.LocalBus is the production equivalent; sched tests must
// not import kvstore).
type memBus struct {
	mu      sync.Mutex
	entries map[string][]byte
	setErr  error
	listErr error
}

func newMemBus() *memBus { return &memBus{entries: make(map[string][]byte)} }

func (b *memBus) Set(key string, val []byte, _ time.Duration) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.setErr != nil {
		return b.setErr
	}
	b.entries[key] = val
	return nil
}

func (b *memBus) List(prefix string) (map[string][]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.listErr != nil {
		return nil, b.listErr
	}
	out := make(map[string][]byte)
	for k, v := range b.entries {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out[k] = v
		}
	}
	return out, nil
}

func (b *memBus) fail(set, list error) {
	b.mu.Lock()
	b.setErr, b.listErr = set, list
	b.mu.Unlock()
}

func TestDigestCodecRoundTrip(t *testing.T) {
	d := Digest{
		Node:       "node-b",
		Source:     "sales",
		Published:  time.Unix(0, 1723100000000000000),
		Limit:      7,
		QueueDepth: 12,
		ShedRate:   0.375,
		Draining:   true,
	}
	got, err := DecodeDigest(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Published.Equal(d.Published) {
		t.Fatalf("published %v != %v", got.Published, d.Published)
	}
	got.Published = d.Published
	if got != d {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d)
	}
}

// TestDigestIgnoresRetiredFields pins mixed-version coordination: a v3
// payload that still carries Inflight, EWMAService, EWMAWait, ShedTotal
// and AdmittedTotal (the digest before those fields were dropped) decodes
// to the trimmed digest, and ObservePeers takes the same pressure, clamp
// and limit decisions from it as from the trimmed digest.
func TestDigestIgnoresRetiredFields(t *testing.T) {
	old := []byte(`{"V":3,"Node":"node-b","Source":"sales","Published":"2024-08-08T07:33:20Z",` +
		`"Limit":8,"QueueDepth":12,"Inflight":8,"EWMAService":83000000,"EWMAWait":210000000,` +
		`"ShedRate":0.375,"ShedTotal":41,"AdmittedTotal":1003,"Draining":false}`)
	trimmed := Digest{
		Node:       "node-b",
		Source:     "sales",
		Published:  time.Date(2024, 8, 8, 7, 33, 20, 0, time.UTC),
		Limit:      8,
		QueueDepth: 12,
		ShedRate:   0.375,
	}
	got, err := DecodeDigest(old)
	if err != nil {
		t.Fatalf("retired fields rejected: %v", err)
	}
	if !got.Published.Equal(trimmed.Published) {
		t.Fatalf("published %v != %v", got.Published, trimmed.Published)
	}
	got.Published = trimmed.Published
	if got != trimmed {
		t.Fatalf("decoded %+v, want %+v", got, trimmed)
	}

	// Two peers, both pressured, one of them the old-format digest: the
	// clamp arms (2 of 3 nodes), and the limit steps toward the mean.
	self := Digest{Node: "node-a", Source: "sales", Limit: 4}
	other := Digest{Node: "node-c", Source: "sales", Limit: 8, QueueDepth: 2, ShedRate: 0.5}
	observe := func(peer Digest) (probe, float64) {
		s := New(Config{Limit: 4})
		s.ObservePeers(self, []Digest{peer, other})
		s.mu.Lock()
		q := s.peerQueueAvg
		s.mu.Unlock()
		return s.probe(), q
	}
	fromOld, qOld := observe(got)
	fromNew, qNew := observe(trimmed)
	if fromOld != fromNew || qOld != qNew {
		t.Fatalf("old digest: %+v queue %v; trimmed: %+v queue %v", fromOld, qOld, fromNew, qNew)
	}
	if !fromOld.ClusterShedActive || fromOld.Limit != 5 || fromOld.ClusterPeers != 2 || qOld != 7 {
		t.Fatalf("decisions from the old digest: %+v queue %v", fromOld, qOld)
	}
}

func TestDigestDecodeRejectsTornAndUnknownVersion(t *testing.T) {
	enc := Digest{Node: "a", Source: "s"}.Encode()
	if _, err := DecodeDigest(nil); err == nil {
		t.Fatal("empty payload should fail")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := DecodeDigest(bad); err == nil {
		t.Fatal("unknown version should fail")
	}
	// Every truncation point must fail cleanly, never panic.
	for i := 1; i < len(enc); i++ {
		if _, err := DecodeDigest(enc[:i]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", i)
		}
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(ClusterConfig{Bus: newMemBus()}); err == nil {
		t.Fatal("missing node id should fail")
	}
	if _, err := NewCoordinator(ClusterConfig{Node: "a"}); err == nil {
		t.Fatal("missing bus should fail")
	}
	c, err := NewCoordinator(ClusterConfig{Node: "a", Bus: newMemBus()})
	if err != nil {
		t.Fatal(err)
	}
	if c.Node() != "a" {
		t.Fatalf("node = %q", c.Node())
	}
	if c.Interval() != 250*time.Millisecond {
		t.Fatalf("default interval = %v", c.Interval())
	}
	if _, ok := c.LastDigest("unknown"); ok {
		t.Fatal("unknown source should have no digest")
	}
	if c.Peers("unknown") != nil {
		t.Fatal("unknown source should have no peers")
	}
}

// twoNodes wires two coordinators to one shared bus with a fake clock
// and returns everything the digest-propagation tests need.
func twoNodes(t *testing.T) (*memBus, *Coordinator, *Coordinator, *Scheduler, *Scheduler, *time.Time) {
	t.Helper()
	bus := newMemBus()
	now := time.Unix(1_723_000_000, 0)
	ca, err := NewCoordinator(ClusterConfig{Node: "a", Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewCoordinator(ClusterConfig{Node: "b", Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	sa := New(Config{Limit: 2})
	sb := New(Config{Limit: 2})
	ca.Register("src", sa)
	cb.Register("src", sb)
	return bus, ca, cb, sa, sb, &now
}

func TestCoordinatorPropagatesDigests(t *testing.T) {
	_, ca, cb, sa, sb, now := twoNodes(t)
	ca.Step(*now)
	cb.Step(*now)
	// a published before b listed, so b sees a; a stepped first and saw
	// nothing. One more round and both see each other.
	ca.Step(*now)

	if peers := cb.Peers("src"); len(peers) != 1 || peers[0].Node != "a" {
		t.Fatalf("b peers = %+v", peers)
	}
	if peers := ca.Peers("src"); len(peers) != 1 || peers[0].Node != "b" {
		t.Fatalf("a peers = %+v", peers)
	}
	if d, ok := ca.LastDigest("src"); !ok || d.Node != "a" || d.Source != "src" || d.Limit != 2 {
		t.Fatalf("a self digest = %+v ok=%v", d, ok)
	}
	if st := sa.Stats(); st.ClusterPeers != 1 {
		t.Fatalf("a should blend 1 peer, stats=%+v", st)
	}
	if st := sb.Stats(); st.ClusterPeers != 1 {
		t.Fatalf("b should blend 1 peer, stats=%+v", st)
	}
}

func TestCoordinatorIgnoresStaleDigests(t *testing.T) {
	_, ca, cb, sa, _, now := twoNodes(t)
	cb.Step(*now) // b publishes at t0
	ca.Step(*now)
	if st := sa.Stats(); st.ClusterPeers != 1 {
		t.Fatalf("fresh peer should count, stats=%+v", st)
	}
	// Advance past StaleAfter (default 750ms) without b republishing:
	// b's digest is still on the bus (TTL 1s) but must be ignored.
	*now = now.Add(900 * time.Millisecond)
	ca.Step(*now)
	if st := sa.Stats(); st.ClusterPeers != 0 {
		t.Fatalf("stale peer should be dropped, stats=%+v", st)
	}
	if peers := ca.Peers("src"); len(peers) != 0 {
		t.Fatalf("stale peers retained: %+v", peers)
	}
}

func TestCoordinatorBusFailureFallsBackToLocal(t *testing.T) {
	bus, ca, cb, sa, _, now := twoNodes(t)
	cb.Step(*now)
	ca.Step(*now)
	if st := sa.Stats(); st.ClusterPeers != 1 {
		t.Fatalf("want 1 peer before failure, stats=%+v", st)
	}
	bus.fail(errors.New("down"), errors.New("down"))
	ca.Step(*now)
	if st := sa.probe(); st.ClusterPeers != 0 || st.ClusterShedActive {
		t.Fatalf("bus failure must drop to local-only, stats=%+v", st)
	}
	bus.fail(nil, nil)
	cb.Step(*now)
	ca.Step(*now)
	if st := sa.Stats(); st.ClusterPeers != 1 {
		t.Fatalf("healed bus should restore peers, stats=%+v", st)
	}
}

func TestCoordinatorSkipsTornAndForeignEntries(t *testing.T) {
	bus, ca, _, sa, _, now := twoNodes(t)
	// A torn payload and a digest for a different source under this
	// source's prefix must both be skipped without affecting state.
	_ = bus.Set("sched/digest/src/zz", []byte{digestVersion, 0xff}, 0)
	other := Digest{Node: "b", Source: "other", Published: *now}
	_ = bus.Set("sched/digest/src/b", other.Encode(), 0)
	ca.Step(*now)
	if st := sa.Stats(); st.ClusterPeers != 0 {
		t.Fatalf("torn/foreign digests must not count as peers, stats=%+v", st)
	}
}

func TestCoordinatorUnregisterStopsPublishing(t *testing.T) {
	bus, ca, _, _, _, now := twoNodes(t)
	ca.Step(*now)
	if got, _ := bus.List("sched/digest/src/"); len(got) != 1 {
		t.Fatalf("expected 1 digest, got %d", len(got))
	}
	ca.Unregister("src")
	ca.Step(*now)
	if _, ok := ca.LastDigest("src"); ok {
		t.Fatal("unregistered source should have no digest")
	}
}

func TestObservePeersMajorityShedClamp(t *testing.T) {
	s := New(Config{Limit: 1, MaxUserQueue: 8})
	// Occupy the only slot so arrivals queue.
	tk, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Done()

	ctx := WithUser(WithSession(context.Background(), "sess"), "hot")
	var wg sync.WaitGroup
	admit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := s.Admit(ctx)
			if err == nil {
				tk.Done()
			}
		}()
	}
	admit() // hot user's 1 queued query: allowed even under the clamp
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	// 2 of 3 fleet nodes pressured (both peers shed; self is calm) →
	// strict majority → clamp arms.
	self := Digest{Node: "a", Source: "src"}
	peers := []Digest{
		{Node: "b", ShedRate: 0.5, Limit: 1, QueueDepth: 3},
		{Node: "c", ShedRate: 0.2, Limit: 1, QueueDepth: 2},
	}
	s.ObservePeers(self, peers)
	if st := s.probe(); !st.ClusterShedActive || st.ClusterPeers != 2 {
		t.Fatalf("majority pressure should arm the clamp, stats=%+v", st)
	}

	// The hot user's second queued query now sheds with the cluster
	// reason, even though MaxUserQueue=8 has plenty of room.
	_, err = s.Admit(ctx)
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "cluster-pressure" {
		t.Fatalf("want cluster-pressure shed, got %v", err)
	}
	if !errors.Is(err, ErrShed) {
		t.Fatal("cluster shed must wrap ErrShed for stale-on-shed")
	}
	if st := s.Stats(); st.ShedClusterPressure != 1 {
		t.Fatalf("ShedClusterPressure = %d", st.ShedClusterPressure)
	}

	// A different (victim) user with an empty queue still gets to queue.
	victim := WithUser(WithSession(context.Background(), "v1"), "victim")
	cctx, cancel := context.WithCancel(victim)
	done := make(chan error, 1)
	go func() {
		tk, err := s.Admit(cctx)
		if err == nil {
			tk.Done()
		}
		done <- err
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 2 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("victim should have queued then canceled, got %v", err)
	}

	// Minority pressure disarms the clamp.
	s.ObservePeers(self, []Digest{
		{Node: "b", ShedRate: 0.0, Limit: 4, QueueDepth: 0},
		{Node: "c", ShedRate: 0.0, Limit: 4, QueueDepth: 0},
	})
	if st := s.probe(); st.ClusterShedActive {
		t.Fatalf("minority pressure should disarm the clamp, stats=%+v", st)
	}
	tk.Done()
	wg.Wait()
}

func TestObservePeersSelfPressureCounts(t *testing.T) {
	s := New(Config{Limit: 1})
	// Fleet of 2: self pressured + calm peer = majority (2*1 > 2 is
	// false — so NOT a majority; then a pressured peer tips it).
	self := Digest{Node: "a", ShedRate: 0.9, Limit: 1, QueueDepth: 5}
	calm := Digest{Node: "b", Limit: 4}
	s.ObservePeers(self, []Digest{calm})
	if s.probe().ClusterShedActive {
		t.Fatal("1 of 2 pressured is not a strict majority")
	}
	hot := Digest{Node: "b", ShedRate: 0.9, Limit: 1, QueueDepth: 5}
	s.ObservePeers(self, []Digest{hot})
	if !s.probe().ClusterShedActive {
		t.Fatal("2 of 2 pressured is a majority")
	}
}

func TestObservePeersLimitConvergence(t *testing.T) {
	// Fleet limits {1, 7}: mean 4. Each observation moves one step
	// toward it from both ends.
	s := New(Config{Limit: 1, MaxLimit: 16})
	peer := Digest{Node: "b", Limit: 7}
	for i := 0; i < 10; i++ {
		s.ObservePeers(Digest{Node: "a", Limit: s.Stats().Limit}, []Digest{peer})
	}
	// From 1: targets round((1+7)/2)=4, then recomputes each step as the
	// local limit moves; it must settle within one step of the peer mean
	// region and stop oscillating.
	got := s.Stats().Limit
	if got < 4 || got > 7 {
		t.Fatalf("limit should converge toward the fleet mean, got %d", got)
	}
	settled := s.Stats().Limit
	s.ObservePeers(Digest{Node: "a", Limit: settled}, []Digest{{Node: "b", Limit: settled}})
	if s.Stats().Limit != settled {
		t.Fatalf("equal fleet limits must not move: %d -> %d", settled, s.Stats().Limit)
	}
}

func TestObservePeersRaisedLimitDispatchesWaiters(t *testing.T) {
	s := New(Config{Limit: 1, MaxLimit: 8})
	tk, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan struct{})
	go func() {
		tk2, err := s.Admit(context.Background())
		if err == nil {
			defer tk2.Done()
		}
		close(granted)
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })
	// Peers run at limit 5 → convergence raises ours → the waiter must
	// be granted by the raise itself, not by a later completion.
	s.ObservePeers(Digest{Node: "a", Limit: 1}, []Digest{{Node: "b", Limit: 5}})
	select {
	case <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("raised limit did not dispatch the queued waiter")
	}
	tk.Done()
}

func TestObservePeersExpiryFallsBackToLocal(t *testing.T) {
	s := New(Config{Limit: 1})
	hot := []Digest{
		{Node: "b", ShedRate: 0.9, Limit: 1, QueueDepth: 9},
		{Node: "c", ShedRate: 0.9, Limit: 1, QueueDepth: 9},
	}
	s.ObservePeers(Digest{Node: "a"}, hot)
	if !s.probe().ClusterShedActive {
		t.Fatal("clamp should arm")
	}
	// Simulate a dead coordinator: force the hold window into the past.
	s.mu.Lock()
	s.peerExpiry = time.Now().Add(-time.Second)
	s.mu.Unlock()
	if st := s.probe(); st.ClusterShedActive || st.ClusterPeers != 0 {
		t.Fatalf("expired advisory state must read as local-only, stats=%+v", st)
	}
	// And Admit must not clamp either.
	ctx := WithUser(context.Background(), "hot")
	tk, err := s.Admit(ctx)
	if err != nil {
		t.Fatalf("expired clamp must not shed: %v", err)
	}
	tk.Done()
}

func TestPeerBacklogInflatesDeadlineEstimate(t *testing.T) {
	s := New(Config{Limit: 1})
	// Warm the estimator: one completion at ~50ms.
	tk, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.ewmaNS = float64(50 * time.Millisecond)
	s.mu.Unlock()

	// Local estimate for a new arrival: inflight=1 → (1/1 + 1)*50ms =
	// 100ms. A 150ms budget clears it (0.85*150 = 127.5ms).
	ctx1, cancel1 := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel1()
	s.mu.Lock()
	est := s.estimateLocked("u")
	s.mu.Unlock()
	if est != 100*time.Millisecond {
		t.Fatalf("baseline estimate = %v", est)
	}
	_ = ctx1

	// Peers carrying deep backlog (avg queue 2, limit 1) inflate the
	// estimate by 1 + peerBacklogWeight*2/1: 150ms at 0.25 → shed.
	s.ObservePeers(Digest{Node: "a"}, []Digest{
		{Node: "b", Limit: 1, QueueDepth: 2},
		{Node: "c", Limit: 1, QueueDepth: 2},
	})
	s.mu.Lock()
	est = s.estimateLocked("u")
	s.mu.Unlock()
	if want := time.Duration(float64(100*time.Millisecond) * (1 + peerBacklogWeight*2)); est != want {
		t.Fatalf("peer-inflated estimate = %v, want %v", est, want)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel2()
	_, err = s.Admit(ctx2)
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "deadline" {
		t.Fatalf("want deadline shed from peer backlog, got %v", err)
	}
	tk.Done()
}

func TestObservePeersNilAndEmpty(t *testing.T) {
	var nilSched *Scheduler
	nilSched.ObservePeers(Digest{}, nil) // must not panic

	s := New(Config{Limit: 2})
	s.ObservePeers(Digest{Node: "a"}, []Digest{{Node: "b", ShedRate: 1, QueueDepth: 9, Limit: 1}})
	s.ObservePeers(Digest{Node: "a"}, nil)
	if st := s.probe(); st.ClusterPeers != 0 || st.ClusterShedActive {
		t.Fatalf("empty peer set must clear advisory state, stats=%+v", st)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond) //vizlint:allow sleep -- test poll loop with deadline
	}
	t.Fatal("condition not reached in time")
}

func TestDigestPressured(t *testing.T) {
	cases := []struct {
		d    Digest
		want bool
	}{
		{Digest{ShedRate: 0.1, Limit: 4, QueueDepth: 0}, true},  // shedding
		{Digest{ShedRate: 0.0, Limit: 4, QueueDepth: 4}, true},  // queue at limit
		{Digest{ShedRate: 0.0, Limit: 4, QueueDepth: 3}, false}, // headroom
		{Digest{ShedRate: 0.0, Limit: 0, QueueDepth: 9}, false}, // no limit known
	}
	for i, c := range cases {
		if got := c.d.pressured(0.05); got != c.want {
			t.Errorf("case %d: pressured(%+v) = %v, want %v", i, c.d, got, c.want)
		}
	}
}

func TestClusterShedRateInDigest(t *testing.T) {
	bus := newMemBus()
	now := time.Unix(1_723_000_000, 0)
	c, err := NewCoordinator(ClusterConfig{Node: "a", Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Limit: 1, MaxQueue: 1})
	c.Register("src", s)

	// Round 1: 1 admit, no sheds → rate 0.
	tk, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c.Step(now)
	if d, _ := c.LastDigest("src"); d.ShedRate != 0 {
		t.Fatalf("round 1 shed rate = %v", d.ShedRate)
	}

	// Round 2: with the slot held and MaxQueue=1, one waiter fills the
	// queue and the next arrival sheds → 1 shed, 0 admissions → rate 1.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk2, err := s.Admit(context.Background())
		if err == nil {
			tk2.Done()
		}
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })
	if _, err := s.Admit(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("want queue-full shed, got %v", err)
	}
	c.Step(now)
	if d, _ := c.LastDigest("src"); d.ShedRate != 1 {
		t.Fatalf("round 2 shed rate = %v, want 1", d.ShedRate)
	}
	tk.Done()
	wg.Wait()

	// Round 3: the queued waiter's grant and no new shed → rate 0; the
	// rate covers the last interval, not the scheduler's lifetime.
	c.Step(now)
	d, _ := c.LastDigest("src")
	if d.ShedRate != 0 {
		t.Fatalf("round 3 shed rate = %v, want 0", d.ShedRate)
	}
	if fmt.Sprintf("%s", d.Source) != "src" {
		t.Fatalf("source = %q", d.Source)
	}
}
