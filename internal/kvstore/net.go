package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Wire protocol: every message is length-prefixed. Requests are
// [op u8][keyLen u32][key][ttlMs u64][valLen u32][val]; responses are
// [status u8][valLen u32][val]. Ops: G(et), S(et), L(ist); any other
// op is answered with an error status. List treats the key as a prefix and returns, in the response
// body, [count u32] followed by count pairs of [keyLen u32][key]
// [valLen u32][val], sorted by key.

const (
	opGet  = 'G'
	opSet  = 'S'
	opList = 'L'

	statusOK       = 0
	statusNotFound = 1
	statusError    = 2
)

// Server exposes a Store over TCP.
type Server struct {
	store *Store
	ln    net.Listener
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Serve starts a server on addr ("127.0.0.1:0" for an ephemeral port).
func Serve(addr string, store *Store) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{store: store, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server, dropping live client connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		_ = c.Close() // best-effort: the server is going away
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)
	for {
		op, err := r.ReadByte()
		if err != nil {
			return
		}
		key, err := readBlob(r)
		if err != nil {
			return
		}
		var ttl uint64
		if err := binary.Read(r, binary.LittleEndian, &ttl); err != nil {
			return
		}
		val, err := readBlob(r)
		if err != nil {
			return
		}
		var werr error
		switch op {
		case opGet:
			if v, ok := s.store.Get(string(key)); ok {
				werr = writeResponse(w, statusOK, v)
			} else {
				werr = writeResponse(w, statusNotFound, nil)
			}
		case opSet:
			s.store.Set(string(key), val, time.Duration(ttl)*time.Millisecond)
			werr = writeResponse(w, statusOK, nil)
		case opList:
			werr = writeResponse(w, statusOK, encodePairs(s.store.Scan(string(key))))
		default:
			werr = writeResponse(w, statusError, []byte(fmt.Sprintf("bad op %q", op)))
		}
		if werr != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func readBlob(r *bufio.Reader) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > 1<<30 {
		return nil, errors.New("kvstore: blob too large")
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func writeResponse(w *bufio.Writer, status byte, val []byte) error {
	if err := w.WriteByte(status); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(val))); err != nil {
		return err
	}
	_, err := w.Write(val)
	return err
}

// encodePairs flattens Scan results into a List response body:
// [count u32] then per pair [keyLen u32][key][valLen u32][val].
func encodePairs(pairs []KV) []byte {
	size := 4
	for _, p := range pairs {
		size += 8 + len(p.Key) + len(p.Val)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(pairs)))
	for _, p := range pairs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p.Key)))
		out = append(out, p.Key...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p.Val)))
		out = append(out, p.Val...)
	}
	return out
}

// decodePairs is the inverse of encodePairs.
func decodePairs(body []byte) (map[string][]byte, error) {
	if len(body) < 4 {
		return nil, errors.New("kvstore: short list response")
	}
	count := binary.LittleEndian.Uint32(body)
	body = body[4:]
	out := make(map[string][]byte, count)
	next := func() ([]byte, error) {
		if len(body) < 4 {
			return nil, errors.New("kvstore: torn list response")
		}
		n := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if uint32(len(body)) < n {
			return nil, errors.New("kvstore: torn list response")
		}
		b := body[:n:n]
		body = body[n:]
		return b, nil
	}
	for i := uint32(0); i < count; i++ {
		key, err := next()
		if err != nil {
			return nil, err
		}
		val, err := next()
		if err != nil {
			return nil, err
		}
		out[string(key)] = val
	}
	return out, nil
}

// Client talks to a kvstore server over a single multiplexed connection.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	addr    string
	timeout time.Duration
}

// SetTimeout bounds each subsequent round trip with a connection deadline
// (0 = wait forever). Coordination-bus callers set this so a stalled link
// surfaces as an error instead of hanging the publisher.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Dial connects to a kvstore server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 1<<16),
		w:    bufio.NewWriterSize(conn, 1<<16),
		addr: addr,
	}, nil
}

// Close shuts the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(op byte, key string, ttl time.Duration, val []byte) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if err := c.writeRequest(op, key, ttl, val); err != nil {
		return 0, nil, err
	}
	status, err := c.r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	body, err := readBlob(c.r)
	if err != nil {
		return 0, nil, err
	}
	return status, body, nil
}

// writeRequest frames and flushes one request. bufio's sticky error would
// surface at Flush anyway, but checking each write keeps the failure close
// to its cause.
func (c *Client) writeRequest(op byte, key string, ttl time.Duration, val []byte) error {
	if err := c.w.WriteByte(op); err != nil {
		return err
	}
	if err := binary.Write(c.w, binary.LittleEndian, uint32(len(key))); err != nil {
		return err
	}
	if _, err := c.w.WriteString(key); err != nil {
		return err
	}
	if err := binary.Write(c.w, binary.LittleEndian, uint64(ttl/time.Millisecond)); err != nil {
		return err
	}
	if err := binary.Write(c.w, binary.LittleEndian, uint32(len(val))); err != nil {
		return err
	}
	if _, err := c.w.Write(val); err != nil {
		return err
	}
	return c.w.Flush()
}

// Get fetches a key.
func (c *Client) Get(key string) ([]byte, bool, error) {
	status, body, err := c.roundTrip(opGet, key, 0, nil)
	if err != nil {
		return nil, false, err
	}
	return body, status == statusOK, nil
}

// Set stores a key with TTL (0 = none).
func (c *Client) Set(key string, val []byte, ttl time.Duration) error {
	status, body, err := c.roundTrip(opSet, key, ttl, val)
	if err != nil {
		return err
	}
	if status != statusOK {
		return fmt.Errorf("kvstore: set failed: %s", body)
	}
	return nil
}

// List returns every unexpired entry whose key starts with prefix.
func (c *Client) List(prefix string) (map[string][]byte, error) {
	status, body, err := c.roundTrip(opList, prefix, 0, nil)
	if err != nil {
		return nil, err
	}
	if status != statusOK {
		return nil, fmt.Errorf("kvstore: list failed: %s", body)
	}
	return decodePairs(body)
}
