package kvstore

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"vizq/internal/wire"
)

// Wire protocol: every message is one wire frame. A request names an op
// and a key; Set adds a value and a TTL, and List treats the key as a
// prefix and is answered with every unexpired pair under it. Any other op
// is answered with an error.

const (
	opGet  = "get"
	opSet  = "set"
	opList = "list"
)

type request struct {
	Op  string
	Key string
	TTL time.Duration `json:",omitempty"`
	Val []byte        `json:",omitempty"`
}

type response struct {
	Err   string            `json:",omitempty"`
	Found bool              `json:",omitempty"`
	Val   []byte            `json:",omitempty"`
	Pairs map[string][]byte `json:",omitempty"`
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
	for {
		req, err := wire.ReadFrame[request](r)
		if err != nil {
			return
		}
		if err := wire.WriteFrame(w, answer(store, req)); err != nil {
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

// call runs one round trip; a server-side error is the call's error.
func (c *Client) call(req *request) (*response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			return nil, err
		}
		c.conn, c.r, c.w = conn, bufio.NewReaderSize(conn, 1<<16), bufio.NewWriterSize(conn, 1<<16)
	}
	resp, err := c.roundTripLocked(req)
	if err != nil {
		_ = c.closeLocked() // the transport error is the one to report
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("kvstore: %s", resp.Err)
	}
	return resp, nil
}

func (c *Client) roundTripLocked(req *request) (*response, error) {
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(c.w, req); err != nil {
		return nil, err
	}
	return wire.ReadFrame[response](c.r)
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
