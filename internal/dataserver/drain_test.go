package dataserver

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"vizq/internal/core"
	"vizq/internal/query"
	"vizq/internal/sched"
	"vizq/internal/tde/storage"
)

// TestDrainLifecycle covers the graceful-drain contract end to end:
// draining refuses new sessions with ErrDraining, sheds client queries
// through the scheduler with reason "draining", quiesces once in-flight
// work returns, and Undrain restores everything.
func TestDrainLifecycle(t *testing.T) {
	backend := startBackend(t)
	s := publishFlights(t, backend, Config{
		PipelineOptions: core.DefaultOptions(),
		Scheduler:       &sched.Config{},
	})
	conn, _, err := s.Connect("faa flights", "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if !s.Scheduler("FAA Flights").Stats().Draining {
		t.Fatal("source scheduler not draining")
	}

	// New sessions are refused with the typed sentinel.
	if _, _, err := s.Connect("faa flights", "bob"); !errors.Is(err, ErrDraining) {
		t.Fatalf("Connect while draining = %v, want ErrDraining", err)
	}

	// Existing sessions shed through the scheduler: ErrShed (degradable)
	// with reason "draining".
	q := &query.Query{
		View:     query.View{Table: "ignored"},
		Dims:     []query.Dim{{Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}},
	}
	_, qerr := conn.Query(context.Background(), q)
	var se *sched.ShedError
	if !errors.As(qerr, &se) || se.Reason != "draining" {
		t.Fatalf("query while draining = %v, want draining shed", qerr)
	}
	if !errors.Is(qerr, sched.ErrShed) {
		t.Fatalf("draining shed does not wrap ErrShed: %v", qerr)
	}

	s.Undrain()
	if s.Draining() || s.Scheduler("FAA Flights").Stats().Draining {
		t.Fatal("Undrain did not clear draining")
	}
	if _, _, err := s.Connect("faa flights", "bob"); err != nil {
		t.Fatalf("Connect after Undrain: %v", err)
	}
	if _, err := conn.Query(context.Background(), q); err != nil {
		t.Fatalf("query after Undrain: %v", err)
	}
	st := s.Scheduler("FAA Flights").Stats()
	if st.ShedDraining == 0 {
		t.Fatalf("stats = %+v, want ShedDraining > 0", st)
	}
}

// TestDrainDeadline: a drain with admitted work still in flight returns
// the context error, and the server stays draining afterwards.
func TestDrainDeadline(t *testing.T) {
	backend := startBackend(t)
	s := publishFlights(t, backend, Config{
		PipelineOptions: core.DefaultOptions(),
		Scheduler:       &sched.Config{},
	})
	// Hold a slot directly on the source's scheduler: an "in-flight query"
	// that outlives the drain deadline.
	tk, err := s.Scheduler("FAA Flights").Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with in-flight work = %v, want deadline exceeded", err)
	}
	if !s.Draining() {
		t.Fatal("failed drain flipped the server back to accepting")
	}
	tk.Done()
	// With the slot back, a fresh drain completes.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain after work finished: %v", err)
	}
	s.Undrain()
}

// TestSessionMovedError pins the failover error contract: typed, lists
// lost temp state, and unwraps to ErrSessionMoved.
func TestSessionMovedError(t *testing.T) {
	var err error = &SessionMovedError{From: "node0", To: "node2", LostTemps: []string{"selA", "selB"}}
	if !errors.Is(err, ErrSessionMoved) {
		t.Fatal("SessionMovedError does not unwrap to ErrSessionMoved")
	}
	var sm *SessionMovedError
	if !errors.As(err, &sm) || len(sm.LostTemps) != 2 || sm.To != "node2" {
		t.Fatalf("errors.As round trip mangled: %+v", sm)
	}
	msg := err.Error()
	for _, want := range []string{"node0", "node2", "selA", "selB"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error message %q missing %q", msg, want)
		}
	}
}

// TestTempAliases: the failover support surface reports live aliases and
// forgets them when the connection closes.
func TestTempAliases(t *testing.T) {
	backend := startBackend(t)
	s := publishFlights(t, backend, Config{PipelineOptions: core.DefaultOptions()})
	conn, _, err := s.Connect("faa flights", "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := conn.TempAliases(); len(got) != 0 {
		t.Fatalf("fresh connection has aliases %v", got)
	}
	if err := conn.CreateTempTable("sel", "origin", []storage.Value{storage.StrValue("LAX")}); err != nil {
		t.Fatal(err)
	}
	if got := conn.TempAliases(); len(got) != 1 || got[0] != "sel" {
		t.Fatalf("aliases = %v, want [sel]", got)
	}
	conn.Close()
	if got := conn.TempAliases(); len(got) != 0 {
		t.Fatalf("aliases after close = %v", got)
	}
}
