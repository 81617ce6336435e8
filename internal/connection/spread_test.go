package connection

import (
	"context"
	"testing"
	"time"

	"vizq/internal/remote"
)

// TestQueryManyDeadlineBetweenFramesDiscardsConn: a deadline that fires
// between two frames of one response leaves the rest of the response on the
// wire. The pool must discard that connection, not release it, and return
// the answer that did arrive.
func TestQueryManyDeadlineBetweenFramesDiscardsConn(t *testing.T) {
	// One scan batch costs 8ms: the first statement (the carriers table,
	// one batch) answers after 8ms, the second (4 000 flights rows, four
	// batches) no sooner than 40ms.
	srv := startServer(t, remote.Config{ScanBatchDelay: 8 * time.Millisecond})
	p := NewPool(srv.Addr(), PoolConfig{Max: 2})
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	answers, err := p.QueryMany(ctx, []string{
		`(aggregate (table carriers) (groupby) (aggs (n count *)))`,
		`(aggregate (table flights) (groupby date) (aggs (n count *)))`,
	})
	if err == nil {
		t.Fatal("expected a deadline error between the two frames")
	}
	if len(answers) != 1 || answers[0].Err != nil {
		t.Fatalf("answers = %+v, want the first statement's", answers)
	}
	st := p.Stats()
	if st.Discards != 1 || p.Live() != 0 {
		t.Fatalf("broken connection kept: discards=%d live=%d", st.Discards, p.Live())
	}
	// The next request gets a fresh connection and a clean answer.
	res, err := p.Query(context.Background(), countQ)
	if err != nil || res.N == 0 {
		t.Fatalf("query after the discard = (%v, %v)", res, err)
	}
	if st := p.Stats(); st.Dials != 2 || st.Reuses != 0 {
		t.Fatalf("stats after the discard = %+v, want a second dial and no reuse", st)
	}
}

// TestSpreadRule pins Pool.Spread on recorded round trips: a wave no larger
// than the pool always travels one statement per request; a larger one is
// spread over Max requests only when the source's fixed round-trip cost
// (the windowed minimum of round trip minus execution time) exceeds a
// typical statement's execution time.
func TestSpreadRule(t *testing.T) {
	p := NewPool("127.0.0.1:0", PoolConfig{Max: 2})
	record := func(rtt, exec time.Duration, stmts int) {
		answers := make([]remote.Answer, stmts)
		for i := range answers {
			answers[i].ExecNS = int64(exec)
		}
		p.observe(rtt, answers)
	}
	if got := p.Spread(5); got != 5 {
		t.Fatalf("no round trip seen: Spread(5) = %d, want 5", got)
	}

	// Latency-bound: 10ms of every round trip is fixed, statements take 1ms.
	record(13*time.Millisecond, time.Millisecond, 3)
	record(11*time.Millisecond, time.Millisecond, 1)
	if got := p.Spread(5); got != 2 {
		t.Fatalf("latency-bound source: Spread(5) = %d, want 2", got)
	}
	if got := p.Spread(2); got != 2 {
		t.Fatalf("Spread(2) = %d, want 2", got)
	}
	// One slow round trip (a queueing spike) does not raise the minimum.
	record(40*time.Millisecond, time.Millisecond, 1)
	if got := p.Spread(5); got != 2 {
		t.Fatalf("after a spike: Spread(5) = %d, want 2", got)
	}

	// The source turns exec-bound: 0.2ms fixed, 8ms statements. Once the
	// latency-bound round trips have left the window, waves go one
	// statement per request again.
	for i := 0; i < costWindow; i++ {
		record(8200*time.Microsecond, 8*time.Millisecond, 1)
	}
	if got := p.Spread(5); got != 5 {
		t.Fatalf("exec-bound source: Spread(5) = %d, want 5", got)
	}
}
