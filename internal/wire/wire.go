// Package wire owns how bytes cross a socket between vizq processes. A
// message is one frame: a u32 little-endian length followed by that many
// bytes of JSON. ReadFrame treats the length as the peer's claim, not a
// fact, so a peer that announces a huge frame costs only what it sends.
// Listen is the accept loop every server shares: one goroutine per
// connection, and Close drops the live ones and waits for them.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
)

// WriteFrame encodes v as one frame and flushes it.
func WriteFrame[T any](w *bufio.Writer, v *T) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Flush()
}

// frameChunk is how much of a frame ReadFrame allocates before any of it
// has arrived.
const frameChunk = 64 << 10

// ReadFrame reads one frame. The length in its header is the peer's claim,
// not a fact: the buffer starts at frameChunk and doubles only as bytes
// arrive, so a peer that announces a large frame and then stalls or hangs
// up costs at most twice what it actually sent.
func ReadFrame[T any](r *bufio.Reader) (*T, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > 1<<30 {
		return nil, fmt.Errorf("wire: frame too large (%d)", n)
	}
	data := make([]byte, 0, min(n, frameChunk))
	for len(data) < n {
		if len(data) == cap(data) {
			data = slices.Grow(data, min(n-len(data), len(data)))
		}
		k, err := io.ReadFull(r, data[len(data):min(n, cap(data))])
		data = data[:len(data)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header arrived: the frame is cut short
		}
		if err != nil {
			return nil, err
		}
	}
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, err
	}
	return v, nil
}

// Server accepts TCP connections and runs serve on each in its own
// goroutine; serve returning closes the connection.
type Server struct {
	ln    net.Listener
	serve func(net.Conn)
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Listen starts a server on addr ("127.0.0.1:0" for an ephemeral port).
func Listen(addr string, serve func(net.Conn)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, serve: serve, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, drops every live connection and waits until each
// serve call has returned.
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
	_ = conn.Close() // serve is done with it; Close may have closed it already
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
			s.serve(conn)
		}()
	}
}
