package resilience

import (
	"context"
	"errors"
	"io"
	"net"
	"os"

	"vizq/internal/sched"
)

// Kind says whose fault a failed backend call is. Every layer that reacts
// to a failure reads its answer off this one classification: the pool
// (discard the connection?), node health (blame the node?), the breaker
// (count a failure? retry?) and the stale fallback (serve old data?) —
// DESIGN.md, "Request path", has the full table.
type Kind int

const (
	// NoError is the kind of a nil error.
	NoError Kind = iota
	// QueryError: the backend answered with a well-formed error. It is
	// alive, the connection is clean, and the query is what is wrong.
	QueryError
	// Transport: the peer hung up (EOF, reset, closed) or the socket
	// misbehaved (net.OpError, a timeout the caller did not set). The
	// connection is suspect and so is the node — node death shows up as
	// refused/reset/EOF.
	Transport
	// Caller: a transport-shaped failure attributable to the caller — its
	// context is done, or the error is a cancellation or deadline. The
	// connection is still poisoned (a response frame may be left on the
	// wire), but the node is not to blame: the conn deadline is set *from*
	// the caller's context, so a timeout says "the caller ran out of
	// patience", not "the node is down". The error itself is inspected, not
	// only ctx.Err(): the conn deadline and the context timer race by
	// microseconds, and a deadline that lands first must not be
	// misattributed.
	Caller
	// Refused: the request was never sent — the circuit breaker was open
	// (ErrOpen) or admission control shed it (sched.ErrShed).
	Refused
)

// Classify sorts err, returned by a backend call made under ctx, into its
// Kind. It is the only place in the module that inspects error shapes.
func Classify(ctx context.Context, err error) Kind {
	switch {
	case err == nil:
		return NoError
	case errors.Is(err, ErrOpen), errors.Is(err, sched.ErrShed):
		return Refused
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		return Caller
	}
	var op *net.OpError
	var timeout interface{ Timeout() bool }
	switch {
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, net.ErrClosed),
		errors.As(err, &op),
		errors.As(err, &timeout) && timeout.Timeout():
		if ctx.Err() != nil {
			return Caller
		}
		return Transport
	}
	return QueryError
}

// ConnSuspect reports whether a failure of this kind leaves the connection
// it happened on unusable: the pool discards it instead of reusing it.
func (k Kind) ConnSuspect() bool { return k == Transport || k == Caller }
