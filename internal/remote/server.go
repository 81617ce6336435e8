// Package remote simulates an external database server plus the client
// connection machinery Tableau uses to talk to it. The server executes TQL
// (its "dialect") against a TDE engine behind a configurable performance
// model: per-request latency, a concurrency throttle, and a
// serial-per-query vs parallel-plan execution model. Those are exactly the
// backend properties Sect. 3.5 identifies as governing concurrent workload
// behaviour; any vendor engine is interchangeable with this simulator for
// the experiments.
//
// Session-local temporary tables live for the duration of one client
// connection and are reclaimed when it closes (Sect. 5.4).
package remote

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"vizq/internal/obs"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/opt"
	"vizq/internal/tde/plan"
)

// Config is the server's performance model.
type Config struct {
	// Latency is added to every request (network round trip + dispatch).
	Latency time.Duration
	// MaxConcurrent throttles simultaneously executing queries (0 =
	// unlimited): "the database is likely to throttle them based on
	// available resources or a hard-coded threshold."
	MaxConcurrent int
	// QueryDOP is the degree of parallelism of a single query: 1 models the
	// common thread-per-query architecture; >1 models engines with parallel
	// plans (SQL Server, the TDE).
	QueryDOP int
	// PerRowCost adds artificial work proportional to result rows,
	// amplifying the gap between remote execution and cache hits (0 = none).
	PerRowCost time.Duration
	// ScanBatchDelay simulates disk-bound scans in the backing engine (see
	// exec.Config); it makes the backend's resource behaviour realistic on
	// in-memory substrates.
	ScanBatchDelay time.Duration
}

// Stats counts server-side activity.
type Stats struct {
	// Requests counts query requests received; each carries one or more
	// statements.
	Requests int64
	// Queries counts the statements those requests carried.
	Queries     int64
	TempCreates int64
	TempDrops   int64
	MaxInFlight int64
}

// Server is a simulated remote database.
type Server struct {
	eng *engine.Engine
	cfg Config
	ln  net.Listener
	wg  sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}
	sessSeq int64

	// The live form of Stats; none has a process-wide name. inFlight's
	// high-water mark is MaxInFlight.
	requests, queries, tempCreates, tempDrops obs.Counter
	inFlight                                  obs.Gauge

	sem chan struct{}
}

// NewServer wraps an engine with the performance model. The engine's
// optimizer options are adjusted to the configured QueryDOP.
func NewServer(eng *engine.Engine, cfg Config) *Server {
	if cfg.QueryDOP <= 0 {
		cfg.QueryDOP = 1
	}
	o := eng.Options()
	o.MaxDOP = cfg.QueryDOP
	eng.SetOptions(o)
	s := &Server{eng: eng, cfg: cfg, conns: make(map[net.Conn]struct{})}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return s
}

// Engine exposes the backing engine (test setup).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Start listens on addr ("127.0.0.1:0" for ephemeral).
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:    s.requests.Value(),
		Queries:     s.queries.Value(),
		TempCreates: s.tempCreates.Value(),
		TempDrops:   s.tempDrops.Value(),
		MaxInFlight: s.inFlight.Max(),
	}
}

// Close stops the server and drops all sessions.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.sessSeq++
		sessID := s.sessSeq
		s.mu.Unlock()

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serveSession(conn, sessID)
		}()
	}
}

// session-local state: temp tables created over this connection.
type session struct {
	id    int64
	temps map[string]string // client alias -> qualified engine name
	seq   int
}

func (s *Server) serveSession(conn net.Conn, id int64) {
	sess := &session{id: id, temps: make(map[string]string)}
	defer func() {
		// Reclaim session state when the connection closes (Sect. 5.4).
		for _, qualified := range sess.temps {
			_ = s.eng.DropTempTable(qualified)
		}
	}()
	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)
	for {
		req, err := readFrame[Request](r)
		if err != nil {
			return
		}
		if s.cfg.Latency > 0 {
			time.Sleep(s.cfg.Latency) //vizlint:allow sleep -- simulated network round trip (performance model)
		}
		if req.Op != OpQuery {
			if err := writeFrame(w, s.handle(sess, req)); err != nil {
				return
			}
			continue
		}
		// A query request pays the round trip once, then runs its statements
		// one after another on this session — a connection never has more
		// than one executing — and answers each with its own frame as soon
		// as it is done.
		s.requests.Inc()
		s.queries.Add(int64(len(req.Stmts)))
		for _, stmt := range req.Stmts {
			if err := writeFrame(w, s.handleQuery(stmt)); err != nil {
				return
			}
		}
	}
}

func (s *Server) handle(sess *session, req *Request) *Response {
	switch req.Op {
	case OpPing:
		return &Response{}
	case OpTempCreate:
		return s.handleTempCreate(sess, req)
	case OpTempDrop:
		return s.handleTempDrop(sess, req)
	case OpMetadata:
		return s.handleMetadata(req)
	default:
		return &Response{Err: fmt.Sprintf("remote: unknown op %q", req.Op)}
	}
}

func (s *Server) handleQuery(stmt string) *Response {
	if s.sem != nil {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	start := time.Now()
	ctx := context.Background()
	if s.cfg.ScanBatchDelay > 0 {
		ctx = exec.WithConfig(ctx, exec.Config{ScanBatchDelay: s.cfg.ScanBatchDelay})
	}
	res, err := s.eng.Query(ctx, stmt)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	if s.cfg.PerRowCost > 0 {
		time.Sleep(time.Duration(res.N) * s.cfg.PerRowCost) //vizlint:allow sleep -- simulated per-row backend cost (performance model)
	}
	return &Response{Result: res, ExecNS: time.Since(start).Nanoseconds()}
}

func (s *Server) handleTempCreate(sess *session, req *Request) *Response {
	if req.Result == nil {
		return &Response{Err: "remote: temp create without data"}
	}
	s.tempCreates.Inc()
	sess.seq++
	unique := fmt.Sprintf("s%d_%d_%s", sess.id, sess.seq, req.Name)
	qualified, err := s.eng.CreateTempTable(unique, req.Result)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	// Re-creating an alias replaces its table (the pipeline names a query's
	// externalized filters "filter0", "filter1", ... in order): drop the old
	// one or it stays in the engine until the session ends.
	if old, ok := sess.temps[req.Name]; ok {
		_ = s.eng.DropTempTable(old) // best effort: it may already be gone
	}
	sess.temps[req.Name] = qualified
	return &Response{Name: qualified}
}

func (s *Server) handleMetadata(req *Request) *Response {
	schema, name := "Extract", req.Name
	if dot := lastDot(name); dot > 0 {
		schema, name = req.Name[:dot], req.Name[dot+1:]
	}
	tbl, err := s.eng.Database().Table(schema, name)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	cols := make([]plan.ColInfo, len(tbl.Cols))
	for i, c := range tbl.Cols {
		cols[i] = plan.ColInfo{Name: c.Name, Type: c.Type, Coll: c.Coll}
	}
	return &Response{Result: exec.NewResult(cols)}
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

func (s *Server) handleTempDrop(sess *session, req *Request) *Response {
	s.tempDrops.Inc()
	qualified, ok := sess.temps[req.Name]
	if !ok {
		qualified = req.Name
	}
	if err := s.eng.DropTempTable(qualified); err != nil {
		return &Response{Err: err.Error()}
	}
	delete(sess.temps, req.Name)
	return &Response{}
}

// ---- wire protocol: u32 length-prefixed JSON frames ----
//
// Every request is one frame. A query request carries one or more statements
// and is answered by one response frame per statement, in order; every other
// op is answered by one frame.

// Op identifies a request type.
type Op string

// Request operations.
const (
	OpPing Op = "ping"
	// OpQuery runs Request.Stmts in order on the session.
	OpQuery      Op = "query"
	OpTempCreate Op = "tempcreate"
	OpTempDrop   Op = "tempdrop"
	// OpMetadata returns a zero-row result carrying a table's schema
	// (column names, types, collations).
	OpMetadata Op = "metadata"
)

// Request is one client->server message.
type Request struct {
	Op     Op
	Stmts  []string     `json:",omitempty"`
	Name   string       `json:",omitempty"`
	Result *exec.Result `json:",omitempty"`
}

// Response is one server->client message: the answer to one statement of a
// query request, or to one request of any other op.
type Response struct {
	Err    string       `json:",omitempty"`
	Result *exec.Result `json:",omitempty"`
	Name   string       `json:",omitempty"`
	ExecNS int64        `json:",omitempty"`
}

func writeFrame[T any](w *bufio.Writer, v *T) error {
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

// frameChunk is how much of a frame readFrame allocates before any of it
// has arrived.
const frameChunk = 64 << 10

// readFrame reads one frame. The length in its header is the peer's claim,
// not a fact: the buffer starts at frameChunk and doubles only as bytes
// arrive, so a peer that announces a large frame and then stalls or hangs
// up costs at most twice what it actually sent.
func readFrame[T any](r *bufio.Reader) (*T, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > 1<<30 {
		return nil, fmt.Errorf("remote: frame too large (%d)", n)
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

// SetDOPOption exposes opt.Options tuning for tests.
func SetDOPOption(eng *engine.Engine, dop int) {
	o := eng.Options()
	o.MaxDOP = dop
	if o.GrainWork == 0 {
		o = opt.DefaultOptions()
		o.MaxDOP = dop
	}
	eng.SetOptions(o)
}
