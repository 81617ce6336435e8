package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"vizq/internal/obs"
	"vizq/internal/tde/exec"
	"vizq/internal/wire"
)

// Round-trip metrics, shared process-wide.
var (
	mRoundTripNS = obs.H("remote.roundtrip.ns")
	cBroken      = obs.C("remote.conns_broken")
	cRequests    = obs.C("remote.requests") // query requests; each carries one or more statements
)

// Conn is one client connection to a simulated remote database. A single
// connection executes one request at a time — concurrent queries require
// multiple connections, the strategy most backends mandate (Sect. 3.5).
type Conn struct {
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	buf    []byte // every request of the connection is encoded here
	closed bool
}

// Dial opens a connection to a remote server.
func Dial(addr string) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Conn{
		conn: nc,
		r:    bufio.NewReaderSize(nc, 1<<16),
		w:    bufio.NewWriterSize(nc, 1<<16),
	}, nil
}

// Close shuts the connection, releasing session state on the server.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// Closed reports whether Close has been called.
func (c *Conn) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// roundTrip sends req and reads n response frames. On a transport error it
// returns the frames that arrived before it.
func (c *Conn) roundTrip(ctx context.Context, req *Request, n int) ([]*Response, error) {
	_, sp := obs.StartSpan(ctx, obs.SpanRemote)
	defer sp.Finish()
	start := time.Now()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("remote: connection closed")
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = c.conn.SetDeadline(deadline)
	} else {
		_ = c.conn.SetDeadline(time.Time{})
	}
	c.buf = AppendRequest(c.buf[:0], req)
	if err := wire.WriteFrame(c.w, c.buf); err != nil {
		c.breakLocked()
		return nil, err
	}
	resps := make([]*Response, 0, n)
	for len(resps) < n {
		frame, err := wire.ReadFrame(c.r)
		var resp *Response
		if err == nil {
			resp, err = DecodeResponse(frame)
		}
		if err != nil {
			c.breakLocked()
			return resps, err
		}
		resps = append(resps, resp)
	}
	mRoundTripNS.ObserveDuration(time.Since(start))
	return resps, nil
}

// call is a one-frame round trip whose response error is the call's error.
func (c *Conn) call(ctx context.Context, req *Request) (*Response, error) {
	resps, err := c.roundTrip(ctx, req, 1)
	if err != nil {
		return nil, err
	}
	if resps[0].Err != "" {
		return nil, fmt.Errorf("remote: %s", resps[0].Err)
	}
	return resps[0], nil
}

// breakLocked takes the connection out of service after a transport fault.
// On a deadline-exceeded read the response frame may still be in flight —
// or, in a query request, the rest of its frames; a reused connection would
// read them as the answer to its next request (cross-request frame bleed),
// so any write/read error is terminal.
// Callers hold c.mu, hence the direct conn.Close rather than c.Close.
func (c *Conn) breakLocked() {
	if c.closed {
		return
	}
	c.closed = true
	cBroken.Inc()
	_ = c.conn.Close()
}

// Ping checks liveness.
func (c *Conn) Ping(ctx context.Context) error {
	_, err := c.call(ctx, &Request{Op: OpPing})
	return err
}

// Answer is one statement's response within a query request.
type Answer struct {
	Result *exec.Result
	// Err is the statement's own error: the server answered, and the
	// connection is fine.
	Err error
	// ExecNS is the server-reported execution time of the statement.
	ExecNS int64
}

// QueryMany sends stmts as one query request: the server pays its latency
// once, runs them in order and answers each in its own frame. The error is a
// transport failure, after which the connection is broken and the answers
// are those of the statements whose frames arrived.
func (c *Conn) QueryMany(ctx context.Context, stmts []string) ([]Answer, error) {
	cRequests.Inc()
	resps, err := c.roundTrip(ctx, &Request{Op: OpQuery, Stmts: stmts}, len(stmts))
	answers := make([]Answer, len(resps))
	for i, r := range resps {
		answers[i] = Answer{Result: r.Result, ExecNS: r.ExecNS}
		switch {
		case r.Err != "":
			answers[i].Err = fmt.Errorf("remote: %s", r.Err)
		case r.Result == nil:
			answers[i].Err = errors.New("remote: empty result")
		}
	}
	return answers, err
}

// Query executes one TQL statement on the server.
func (c *Conn) Query(ctx context.Context, tql string) (*exec.Result, error) {
	answers, err := c.QueryMany(ctx, []string{tql})
	if err != nil {
		return nil, err
	}
	return answers[0].Result, answers[0].Err
}

// CreateTempTable uploads rows as a session-local temporary table and
// returns its qualified name for use in subsequent queries.
func (c *Conn) CreateTempTable(ctx context.Context, alias string, rows *exec.Result) (string, error) {
	resp, err := c.call(ctx, &Request{Op: OpTempCreate, Name: alias, Result: rows})
	if err != nil {
		return "", err
	}
	return resp.Name, nil
}

// DropTempTable removes a session temp table by alias.
func (c *Conn) DropTempTable(ctx context.Context, alias string) error {
	_, err := c.call(ctx, &Request{Op: OpTempDrop, Name: alias})
	return err
}
