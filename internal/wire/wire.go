// Package wire owns the bytes that leave a vizq process: the frames that
// cross a socket and the single-file databases written to disk. A socket
// message is one frame, a u32 little-endian length followed by that many
// bytes; a database file is one message read whole. The package that owns
// a message encodes it with AppendString, AppendBool and the binary
// package's Append helpers and decodes it with a Reader. ReadFrame and
// every Reader count treat a length as a claim, not a fact, so a peer or
// file that announces a huge frame or column costs only what it holds.
// Listen is the accept loop every server shares: one goroutine per
// connection, and Close drops the live ones and waits for them.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
)

// maxFrame is the largest frame ReadFrame accepts and the largest count a
// Reader returns.
const maxFrame = 1 << 30

// WriteFrame writes data as one frame and flushes it.
func WriteFrame(w *bufio.Writer, data []byte) error {
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
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > maxFrame {
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
	return data, nil
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString[S ~string | ~[]byte](dst []byte, s S) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBool appends b as one byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

var errShort = errors.New("wire: message shorter than its contents claim")

// A Reader decodes one message, a frame or a file. It holds the message as
// one string, so every string it returns is a substring of it: decoding
// allocates once per message, not once per string. The first error sticks:
// later reads return zero values, and Done reports it.
type Reader struct {
	s   string
	err error
}

// NewReader returns a Reader over a copy of frame.
func NewReader(frame []byte) *Reader { return &Reader{s: string(frame)} }

// Done reports the first error, or an error when bytes are left over: a
// frame holds one message and nothing after it.
func (r *Reader) Done() error {
	if len(r.s) > 0 {
		r.Fail(fmt.Errorf("wire: %d bytes after the message", len(r.s)))
	}
	return r.err
}

// Fail records err unless an earlier error is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err, r.s = err, ""
	}
}

// Need reports whether n more bytes are left, and fails when they are not:
// a caller sizes a slice by a claimed count only after Need has seen the
// bytes that back it.
func (r *Reader) Need(n int) bool {
	if n < 0 || n > len(r.s) {
		r.Fail(errShort)
		return false
	}
	return true
}

// Raw returns the next n bytes, or "" when fewer are left.
func (r *Reader) Raw(n int) string {
	if !r.Need(n) {
		return ""
	}
	v := r.s[:n]
	r.s = r.s[n:]
	return v
}

// Bool reads a byte and reports whether it is not 0.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Raw(1); b != "" {
		return b[0]
	}
	return 0
}

// Uint64 reads 8 little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if b := r.Raw(8); b != "" {
		return binary.LittleEndian.Uint64([]byte(b)) // a stack copy: no allocation
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint([]byte(r.s[:min(len(r.s), binary.MaxVarintLen64)]))
	if n <= 0 {
		r.Fail(errors.New("wire: bad varint"))
		return 0
	}
	r.s = r.s[n:]
	return x
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Str reads a string written by AppendString.
func (r *Reader) Str() string { return r.Raw(r.Count(1)) }

// Count reads a uvarint count of items that each take at least size bytes
// of what is left, and fails, returning 0, when those bytes are not there:
// a claimed count costs no more than the frame that carried it.
func (r *Reader) Count(size int) int {
	n := r.Uvarint()
	if n > maxFrame || size > 0 && n > uint64(len(r.s)/size) {
		r.Fail(errShort)
		return 0
	}
	return int(n)
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
