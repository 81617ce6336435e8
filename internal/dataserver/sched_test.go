package dataserver

import (
	"context"
	"errors"
	"testing"
	"time"

	"vizq/internal/core"
	"vizq/internal/query"
	"vizq/internal/sched"
	"vizq/internal/tde/storage"
)

// TestSchedulerPerSource pins the Data Server wiring: with a Scheduler
// config, every published source gets its own admission controller whose
// limit follows that source's pool size, client queries are admitted
// through it, and Unpublish drops it with the source.
func TestSchedulerPerSource(t *testing.T) {
	backend := startBackend(t)
	s := publishFlights(t, backend, Config{
		PipelineOptions: core.DefaultOptions(),
		Scheduler:       &sched.Config{},
	})
	sc := s.Scheduler("FAA Flights")
	if sc == nil {
		t.Fatal("published source has no scheduler")
	}
	if s.Scheduler("nope") != nil {
		t.Fatal("unknown source returned a scheduler")
	}
	// The limit anchors to the pool size (default 4).
	if got := sc.Stats().Limit; got != 4 {
		t.Fatalf("scheduler limit %d, want pool max 4", got)
	}

	conn, _, err := s.Connect("faa flights", "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	q := &query.Query{
		View:     query.View{Table: "ignored"},
		Dims:     []query.Dim{{Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
	}
	if _, err := conn.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.Admitted != 1 {
		t.Fatalf("client query admitted %d times, want 1: %+v", st.Admitted, st)
	}

	// A second source gets its own scheduler, limited by its own pool.
	if err := s.Publish(&PublishedSource{
		Name:               "second",
		Backend:            backend.Addr(),
		View:               query.View{Table: "flights"},
		MaxPoolConnections: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Scheduler("second").Stats().Limit; got != 2 {
		t.Fatalf("second source's scheduler limit %d, want its pool max 2", got)
	}

	// Unpublish drops the scheduler with the source.
	s.Unpublish("second")
	if s.Scheduler("second") != nil {
		t.Fatal("unpublished source still has a scheduler")
	}
}

// TestUserQuotaAcrossConnections pins that the fair-queuing user identity
// comes from the authenticated user, not the connection: two connections
// opened by the same user share ONE per-user queue bound, while a
// different user is untouched by it.
func TestUserQuotaAcrossConnections(t *testing.T) {
	backend := startBackend(t)
	s := publishFlights(t, backend, Config{
		PipelineOptions: core.DefaultOptions(),
		Scheduler: &sched.Config{Limit: 1, MinLimit: 1, MaxLimit: 1,
			MaxUserQueue: 1, MaxQueue: 100, MaxSessionQueue: 100},
	})
	sc := s.Scheduler("FAA Flights")

	// Occupy the single slot so client queries queue instead of running.
	hold, err := sc.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	distinct := func(i int) *query.Query {
		// Distinct filters per call defeat caching and single-flight
		// coalescing: every query must reach admission on its own.
		return &query.Query{
			View:     query.View{Table: "ignored"},
			Dims:     []query.Dim{{Col: "carrier"}},
			Measures: []query.Measure{{Fn: query.Count, As: "n"}},
			Filters:  []query.Filter{query.GtFilter("distance", storage.IntValue(int64(100+i)))},
		}
	}
	connect := func(user string) *ClientConn {
		conn, _, err := s.Connect("faa flights", user)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(conn.Close)
		return conn
	}
	alice1, alice2, bob := connect("alice"), connect("alice"), connect("bob")

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
		_, err := alice1.Query(context.Background(), distinct(1))
		done <- err
	}()
	waitQueued(1)

	// Same user, fresh connection (fresh session): the per-user bound of 1
	// still applies, so this sheds instead of queuing.
	if _, err := alice2.Query(context.Background(), distinct(2)); !errors.Is(err, sched.ErrShed) {
		t.Fatalf("second connection of the same user must hit the user quota: %v", err)
	}
	if st := sc.Stats(); st.ShedUserQueueFull != 1 {
		t.Fatalf("user-quota shed not accounted: %+v", st)
	}

	// A different user queues fine past alice's quota.
	go func() {
		_, err := bob.Query(context.Background(), distinct(3))
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

// TestNoSchedulerByDefault: without a Scheduler config the pipeline runs
// unthrottled exactly as before — no scheduler is created.
func TestNoSchedulerByDefault(t *testing.T) {
	backend := startBackend(t)
	s := publishFlights(t, backend, Config{PipelineOptions: core.DefaultOptions()})
	if s.Scheduler("FAA Flights") != nil {
		t.Fatal("scheduler created without a Scheduler config")
	}
	conn, _, err := s.Connect("faa flights", "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := &query.Query{
		View:     query.View{Table: "ignored"},
		Dims:     []query.Dim{{Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
	}
	if _, err := conn.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
}
