package connection

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"vizq/internal/remote"
	"vizq/internal/tde/engine"
	"vizq/internal/workload"
)

// TestServerDeathMidQueryDiscardsConn is the regression test for the pool
// poisoning bug: a connection whose server died mid-query (EOF/reset on the
// wire) must be discarded, not released back into the idle list where it
// would poison the next caller.
func TestServerDeathMidQueryDiscardsConn(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 2000, Days: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(engine.New(db), remote.Config{Latency: 300 * time.Millisecond})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	p := NewPool(srv.Addr(), PoolConfig{Max: 2})
	defer p.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := p.QueryMany(context.Background(),
			[]string{`(aggregate (table flights) (groupby carrier) (aggs (n count *)))`})
		errCh <- err
	}()

	// Wait for the query's connection to be live, then kill the server
	// while the request is inside the 300ms latency window.
	deadline := time.Now().Add(2 * time.Second)
	for p.Live() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never dialed")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the request hit the wire
	srv.Close()

	if err := <-errCh; err == nil {
		t.Fatal("expected a transport error from the killed server")
	}

	if live := p.Live(); live != 0 {
		t.Fatalf("dead connection retained by the pool: Live() = %d, want 0", live)
	}
	st := p.Stats()
	if st.Discards != 1 {
		t.Fatalf("Stats().Discards = %d, want 1 (dead conn must be discarded, not released)", st.Discards)
	}
	if st.Dials != st.Discards+st.Evictions+int64(p.Live()) {
		t.Fatalf("stats do not add up: dials=%d discards=%d evictions=%d live=%d",
			st.Dials, st.Discards, st.Evictions, p.Live())
	}
}

// timeoutErr implements net.Error-ish Timeout() but reports false: the old
// predicate treated any Timeout()-shaped error as transport without calling
// Timeout(), and missed EOF/closed entirely.
type timeoutErr struct{ timeout bool }

func (e *timeoutErr) Error() string { return "timeoutErr" }

func (e *timeoutErr) Timeout() bool { return e.timeout }

func TestIsTransportPredicate(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"EOF", io.EOF, true},
		{"wrapped EOF", fmt.Errorf("read frame: %w", io.EOF), true},
		{"unexpected EOF", io.ErrUnexpectedEOF, true},
		{"net.ErrClosed", net.ErrClosed, true},
		{"op error", &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset by peer")}, true},
		{"context canceled", context.Canceled, true},
		{"context deadline", context.DeadlineExceeded, true},
		{"timeout true", &timeoutErr{timeout: true}, true},
		{"timeout false", &timeoutErr{timeout: false}, false},
		{"query error", fmt.Errorf("remote: no such column"), false},
	}
	for _, c := range cases {
		if got := IsTransport(c.err); got != c.want {
			t.Errorf("IsTransport(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}
