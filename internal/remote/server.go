// Package remote simulates an external database server plus the client
// connection machinery Tableau uses to talk to it. The server executes TQL
// (its "dialect") against a TDE engine behind a configurable performance
// model: per-request latency, a concurrency throttle, and a
// serial-per-query vs parallel-plan execution model. Those are exactly the
// backend properties Sect. 3.5 identifies as governing concurrent workload
// behaviour; any vendor engine is interchangeable with this simulator for
// the experiments.
//
// Each connection is one engine session: its temporary tables are its own,
// no other connection can read, list or drop them, and they go when the
// connection closes (Sect. 5.4).
package remote

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"vizq/internal/obs"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/wire"
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
	MaxInFlight int64
}

// Server is a simulated remote database.
type Server struct {
	eng *engine.Engine
	cfg Config
	srv *wire.Server

	// The live form of Stats; none has a process-wide name. inFlight's
	// high-water mark is MaxInFlight.
	requests, queries, tempCreates obs.Counter
	inFlight                       obs.Gauge

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
	s := &Server{eng: eng, cfg: cfg}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return s
}

// Start listens on addr ("127.0.0.1:0" for ephemeral).
func (s *Server) Start(addr string) error {
	srv, err := wire.Listen(addr, s.serveSession)
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:    s.requests.Value(),
		Queries:     s.queries.Value(),
		TempCreates: s.tempCreates.Value(),
		MaxInFlight: s.inFlight.Max(),
	}
}

// Close stops the server and drops all sessions.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) serveSession(conn net.Conn) {
	sess := s.eng.NewSession()
	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)
	var buf []byte // every response of the session is encoded here
	send := func(resp *Response) error {
		buf = AppendResponse(buf[:0], resp)
		return wire.WriteFrame(w, buf)
	}
	for {
		frame, err := wire.ReadFrame(r)
		if err != nil {
			return
		}
		req, err := DecodeRequest(frame)
		if err != nil {
			return
		}
		if s.cfg.Latency > 0 {
			time.Sleep(s.cfg.Latency) //vizlint:allow sleep -- simulated network round trip (performance model)
		}
		if req.Op != OpQuery {
			if err := send(s.handle(sess, req)); err != nil {
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
			if err := send(s.handleQuery(sess, stmt)); err != nil {
				return
			}
		}
	}
}

func (s *Server) handle(sess *engine.Session, req *Request) *Response {
	switch req.Op {
	case OpPing:
		return &Response{}
	case OpTempCreate:
		return s.handleTempCreate(sess, req)
	case OpTempDrop:
		return s.handleTempDrop(sess, req)
	default:
		return &Response{Err: fmt.Sprintf("remote: unknown op %q", req.Op)}
	}
}

func (s *Server) handleQuery(sess *engine.Session, stmt string) *Response {
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
	res, err := sess.Query(ctx, stmt)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	return &Response{Result: res, ExecNS: time.Since(start).Nanoseconds()}
}

// handleTempCreate makes req.Result the session's temp table req.Name.
// Re-creating a name replaces its table: the pipeline names a query's
// externalized filters "filter0", "filter1", ... in order.
func (s *Server) handleTempCreate(sess *engine.Session, req *Request) *Response {
	if req.Result == nil {
		return &Response{Err: "remote: temp create without data"}
	}
	s.tempCreates.Inc()
	name, err := sess.CreateTemp(req.Name, req.Result)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	return &Response{Name: name}
}

func (s *Server) handleTempDrop(sess *engine.Session, req *Request) *Response {
	if err := sess.DropTemp(req.Name); err != nil {
		return &Response{Err: err.Error()}
	}
	return &Response{}
}

// ---- wire protocol: one wire frame per message ----
//
// Every request is one frame. A query request carries one or more statements
// and is answered by one response frame per statement, in order; every other
// op is answered by one frame. A message is its fields in order, written
// with the wire primitives; a result is exec.AppendResult's columnar form
// behind a presence byte.

// Op identifies a request type.
type Op string

// Request operations.
const (
	OpPing Op = "ping"
	// OpQuery runs Request.Stmts in order on the session.
	OpQuery      Op = "query"
	OpTempCreate Op = "tempcreate"
	OpTempDrop   Op = "tempdrop"
)

// Request is one client->server message.
type Request struct {
	Op     Op
	Stmts  []string
	Name   string
	Result *exec.Result
}

// Response is one server->client message: the answer to one statement of a
// query request, or to one request of any other op.
type Response struct {
	Err    string
	Result *exec.Result
	Name   string
	ExecNS int64
}

// AppendRequest appends req's frame body to dst.
func AppendRequest(dst []byte, req *Request) []byte {
	dst = wire.AppendString(dst, string(req.Op))
	dst = binary.AppendUvarint(dst, uint64(len(req.Stmts)))
	for _, s := range req.Stmts {
		dst = wire.AppendString(dst, s)
	}
	return appendResult(wire.AppendString(dst, req.Name), req.Result)
}

// DecodeRequest decodes a frame body written by AppendRequest.
func DecodeRequest(frame []byte) (*Request, error) {
	rd := wire.NewReader(frame)
	req := &Request{Op: Op(rd.Str())}
	req.Stmts = make([]string, rd.Count(1))
	for i := range req.Stmts {
		req.Stmts[i] = rd.Str()
	}
	req.Name, req.Result = rd.Str(), readResult(rd)
	return req, rd.Done()
}

// AppendResponse appends resp's frame body to dst.
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = appendResult(wire.AppendString(dst, resp.Err), resp.Result)
	return binary.AppendVarint(wire.AppendString(dst, resp.Name), resp.ExecNS)
}

// DecodeResponse decodes a frame body written by AppendResponse.
func DecodeResponse(frame []byte) (*Response, error) {
	rd := wire.NewReader(frame)
	resp := &Response{Err: rd.Str(), Result: readResult(rd), Name: rd.Str(), ExecNS: rd.Varint()}
	return resp, rd.Done()
}

func appendResult(dst []byte, res *exec.Result) []byte {
	if res == nil {
		return append(dst, 0)
	}
	return exec.AppendResult(append(dst, 1), res)
}

func readResult(rd *wire.Reader) *exec.Result {
	if !rd.Bool() {
		return nil
	}
	return exec.ReadResult(rd)
}
