package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"vizq/internal/wire"
)

// Wire protocol: every message is one wire frame. A request names an op
// and a key; Set adds a value and a TTL, and List treats the key as a
// prefix and is answered with every unexpired pair under it. Any other op
// is answered with an error. A message is its fields in order, written
// with the wire primitives; a value goes as its length and its bytes.

const (
	opGet  = "get"
	opSet  = "set"
	opList = "list"
)

type request struct {
	Op  string
	Key string
	TTL time.Duration
	Val []byte
}

type response struct {
	Err   string
	Found bool
	Val   []byte
	Pairs map[string][]byte
}

func (q *request) append(dst []byte) []byte {
	dst = wire.AppendString(wire.AppendString(dst, q.Op), q.Key)
	return wire.AppendString(binary.AppendVarint(dst, int64(q.TTL)), q.Val)
}

func decodeRequest(frame []byte) (*request, error) {
	rd := wire.NewReader(frame)
	q := &request{Op: rd.Str(), Key: rd.Str(), TTL: time.Duration(rd.Varint()), Val: []byte(rd.Str())}
	return q, rd.Done()
}

func (p *response) append(dst []byte) []byte {
	dst = wire.AppendBool(wire.AppendString(dst, p.Err), p.Found)
	dst = binary.AppendUvarint(wire.AppendString(dst, p.Val), uint64(len(p.Pairs)))
	for k, v := range p.Pairs {
		dst = wire.AppendString(wire.AppendString(dst, k), v)
	}
	return dst
}

func decodeResponse(frame []byte) (*response, error) {
	rd := wire.NewReader(frame)
	p := &response{Err: rd.Str(), Found: rd.Bool(), Val: []byte(rd.Str())}
	n := rd.Count(2)
	p.Pairs = make(map[string][]byte, n)
	for range n {
		k := rd.Str()
		p.Pairs[k] = []byte(rd.Str())
	}
	return p, rd.Done()
}

// Server exposes a Store over TCP.
type Server struct{ *wire.Server }

// Serve starts a server on addr ("127.0.0.1:0" for an ephemeral port).
func Serve(addr string, store *Store) (*Server, error) {
	srv, err := wire.Listen(addr, func(conn net.Conn) { serve(conn, store) })
	if err != nil {
		return nil, err
	}
	return &Server{srv}, nil
}

func serve(conn net.Conn, store *Store) {
	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)
	var buf []byte
	for {
		frame, err := wire.ReadFrame(r)
		if err != nil {
			return
		}
		req, err := decodeRequest(frame)
		if err != nil {
			return
		}
		buf = answer(store, req).append(buf[:0])
		if err := wire.WriteFrame(w, buf); err != nil {
			return
		}
	}
}

func answer(store *Store, req *request) *response {
	switch req.Op {
	case opGet:
		v, ok := store.Get(req.Key)
		return &response{Found: ok, Val: v}
	case opSet:
		store.Set(req.Key, req.Val, req.TTL)
		return &response{}
	case opList:
		return &response{Pairs: scanMap(store, req.Key)}
	}
	return &response{Err: fmt.Sprintf("bad op %q", req.Op)}
}

// DefaultTimeout bounds each round trip unless NewClient is given another.
const DefaultTimeout = 2 * time.Second

// Client talks to a kvstore server over one connection at a time. It dials
// on first use and bounds every round trip with a deadline, so a stalled
// link fails fast. Any transport error closes the connection (a late
// response may still be in flight on it) and the next call redials, so a
// cache tier or coordination bus rides out kvstore restarts and
// partitions instead of wedging on a dead connection.
type Client struct {
	addr    string
	timeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	buf  []byte // every request is encoded here
}

// NewClient creates a client for the kvstore server at addr. timeout 0
// selects DefaultTimeout.
func NewClient(addr string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Client{addr: addr, timeout: timeout}
}

// Close drops the current connection, if any; a later call redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeLocked()
}

func (c *Client) closeLocked() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.r, c.w = nil, nil, nil
	return err
}

// call runs one round trip; a server-side error is the call's error. A
// connection that sat idle may have been cut while no call was using it,
// and the client learns of that only now: a transport error other than a
// timeout on a reused connection redials once and resends, which get, set
// and list, all idempotent, allow. A stalled link still fails within one
// timeout, and a dead server after one dial.
func (c *Client) call(req *request) (*response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	reused := c.conn != nil
	resp, err := c.roundTripLocked(req)
	var ne net.Error
	if err != nil && reused && !(errors.As(err, &ne) && ne.Timeout()) {
		resp, err = c.roundTripLocked(req)
	}
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("kvstore: %s", resp.Err)
	}
	return resp, nil
}

// roundTripLocked sends req and reads the response, dialing first when
// there is no connection. A transport error closes the connection.
func (c *Client) roundTripLocked(req *request) (*response, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			return nil, err
		}
		c.conn, c.r, c.w = conn, bufio.NewReaderSize(conn, 1<<16), bufio.NewWriterSize(conn, 1<<16)
	}
	resp, err := c.exchangeLocked(req)
	if err != nil {
		_ = c.closeLocked() // the transport error is the one to report
	}
	return resp, err
}

func (c *Client) exchangeLocked(req *request) (*response, error) {
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return nil, err
	}
	c.buf = req.append(c.buf[:0])
	if err := wire.WriteFrame(c.w, c.buf); err != nil {
		return nil, err
	}
	frame, err := wire.ReadFrame(c.r)
	if err != nil {
		return nil, err
	}
	return decodeResponse(frame)
}

// Get fetches a key.
func (c *Client) Get(key string) ([]byte, bool, error) {
	resp, err := c.call(&request{Op: opGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	return resp.Val, resp.Found, nil
}

// Set stores a key with TTL (0 = none).
func (c *Client) Set(key string, val []byte, ttl time.Duration) error {
	_, err := c.call(&request{Op: opSet, Key: key, TTL: ttl, Val: val})
	return err
}

// List returns every unexpired entry whose key starts with prefix.
func (c *Client) List(prefix string) (map[string][]byte, error) {
	resp, err := c.call(&request{Op: opList, Key: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Pairs, nil
}
