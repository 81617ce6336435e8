package remote

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"
)

// slowEchoServer speaks the wire protocol but answers every request only
// after delay, tagging the response Name with the request it answers. When
// maxRequests > 0 the connection is dropped after that many responses. It
// keeps serving after a client's deadline fires, so the late frame is on
// the wire when the client next reads.
func slowEchoServer(t *testing.T, delay time.Duration, maxRequests int) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				w := bufio.NewWriter(conn)
				for served := 0; maxRequests <= 0 || served < maxRequests; served++ {
					req, err := readFrame[Request](r)
					if err != nil {
						return
					}
					time.Sleep(delay)
					if err := writeFrame(w, &Response{Name: "resp-for-" + req.Name}); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln
}

// TestDeadlineErrorPoisonsNoFurtherRequest is the regression test for the
// cross-request frame-bleed bug: after a deadline-exceeded read the response
// frame is still in flight; a connection reused for the next request would
// read the stale frame as that request's answer. The connection must be
// marked broken on any read/write error so it cannot be reused.
func TestDeadlineErrorPoisonsNoFurtherRequest(t *testing.T) {
	ln := slowEchoServer(t, 150*time.Millisecond, 0)
	defer ln.Close()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.CreateTempTable(ctx, "first", nil); err == nil {
		t.Fatal("expected a deadline error on the slow first request")
	}

	if !c.Closed() {
		t.Fatal("connection must be marked broken after a read error (stale response frame still in flight)")
	}

	// Even if a caller ignores the broken state, the next request must not
	// receive the first request's late frame. Give the server time to flush
	// the stale response onto the wire first.
	time.Sleep(200 * time.Millisecond)
	name, err := c.CreateTempTable(context.Background(), "second", nil)
	if err == nil && name == "resp-for-first" {
		t.Fatalf("stale frame bleed: second request answered with %q", name)
	}
}

// TestPeerDropPoisonsConn covers the EOF half: once the peer hangs up, the
// first failing round trip must take the connection out of service.
func TestPeerDropPoisonsConn(t *testing.T) {
	ln := slowEchoServer(t, 0, 1) // server drops the conn after one response
	defer ln.Close()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("warm request failed: %v", err)
	}
	// The server has now dropped its end. The next round trip fails (EOF on
	// read, or a reset on write) and must mark the connection broken.
	if err := c.Ping(context.Background()); err == nil {
		t.Fatal("expected an error on the dropped connection")
	}
	if !c.Closed() {
		t.Fatal("connection must be marked broken after a round-trip error")
	}
}

// TestDeadlineBetweenFramesBreaksConn is the frame-bleed test for query
// requests, which are answered by one frame per statement: a deadline that
// fires after the first frame leaves the second on the wire. The call must
// return the answer that arrived, the connection must be marked broken, and
// the late frame must never answer a later request.
func TestDeadlineBetweenFramesBreaksConn(t *testing.T) {
	// One scan batch costs 10ms: the first statement (the carriers table,
	// one batch) answers after 10ms, the second (5 000 flights rows, five
	// batches) no sooner than 60ms.
	srv := startServer(t, Config{ScanBatchDelay: 10 * time.Millisecond})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	answers, err := c.QueryMany(ctx, []string{
		`(aggregate (table carriers) (groupby) (aggs (n count *)))`,
		`(aggregate (table flights) (groupby date) (aggs (n count *)))`,
	})
	if err == nil {
		t.Fatal("expected a deadline error between the two frames")
	}
	if len(answers) != 1 || answers[0].Err != nil || answers[0].Result.N != 1 {
		t.Fatalf("answers before the deadline = %+v, want the first statement's", answers)
	}
	if !c.Closed() {
		t.Fatal("connection must be marked broken after a deadline between frames")
	}

	time.Sleep(200 * time.Millisecond) // the second frame is on the wire now
	if res, err := c.Query(context.Background(), `(aggregate (table flights) (groupby) (aggs (n count *)))`); err == nil {
		t.Fatalf("broken connection answered a later request with %d rows", res.N)
	}
}
