package dataserver

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"vizq/internal/obs"
	"vizq/internal/sched"
)

// ErrDraining is the sentinel Connect wraps while the server drains: new
// sessions belong on a peer node.
var ErrDraining = errors.New("dataserver: draining")

// ErrSessionMoved is the sentinel a failover wraps when a session was
// re-established on a surviving node. The move itself succeeded — the
// typed SessionMovedError lists the in-memory temp tables that did NOT
// travel, so the caller re-materializes them instead of silently
// querying against missing data.
var ErrSessionMoved = errors.New("dataserver: session moved")

// SessionMovedError reports a completed session failover and the state
// lost with it.
type SessionMovedError struct {
	From      string   // node the session left
	To        string   // node it re-connected to
	LostTemps []string // temp-table aliases the new node does not have
}

// Error renders the move.
func (e *SessionMovedError) Error() string {
	return fmt.Sprintf("dataserver: session moved %s -> %s (lost temp tables: %s)",
		e.From, e.To, strings.Join(e.LostTemps, ", "))
}

// Unwrap makes errors.Is(err, ErrSessionMoved) hold.
func (e *SessionMovedError) Unwrap() error { return ErrSessionMoved }

// Drain gracefully takes the server out of rotation: new sessions are
// refused (Connect wraps ErrDraining), every published source's
// scheduler stops admitting — queued waiters flush immediately with a
// "draining" shed, which stale-on-shed may still answer — and in-flight
// admitted work is waited out until ctx expires. The scheduler's
// draining bit rides the next cluster digest, so peers' balancers stop
// steering here without any extra signaling. Sources without admission
// control have no quiesce handle; Drain still refuses their new
// sessions but cannot wait out their in-flight work.
//
// Drain returns nil when every source quiesced inside the deadline, or
// ctx's error when work was still in flight — either way the server
// stays draining until Undrain.
func (s *Server) Drain(ctx context.Context) error {
	_, sp := obs.StartSpan(ctx, obs.SpanDrain)
	defer sp.Finish()

	s.mu.Lock()
	s.draining = true
	scheds := make([]*sched.Scheduler, 0, len(s.scheds))
	for _, sd := range s.scheds {
		scheds = append(scheds, sd)
	}
	s.mu.Unlock()

	for _, sd := range scheds {
		sd.SetDraining(true)
	}
	var firstErr error
	for _, sd := range scheds {
		if err := sd.Quiesce(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return fmt.Errorf("dataserver: drain incomplete: %w", firstErr)
	}
	return nil
}

// Undrain puts the server back in rotation: sessions connect again and
// every source's scheduler resumes admission (the cleared draining bit
// rides the next digest).
func (s *Server) Undrain() {
	s.mu.Lock()
	s.draining = false
	scheds := make([]*sched.Scheduler, 0, len(s.scheds))
	for _, sd := range s.scheds {
		scheds = append(scheds, sd)
	}
	s.mu.Unlock()
	for _, sd := range scheds {
		sd.SetDraining(false)
	}
}

// Draining reports whether the server is refusing new sessions.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// TempAliases lists the connection's live temp-table aliases — the state
// a failover must re-materialize on the new node.
func (c *ClientConn) TempAliases() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.temps))
	for alias := range c.temps {
		out = append(out, alias)
	}
	return out
}
