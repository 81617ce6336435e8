package clustertest

import (
	"context"
	"fmt"
	"sync"

	"vizq/internal/dataserver"
	"vizq/internal/obs"
	"vizq/internal/query"
	"vizq/internal/tde/storage"
)

// cRetry counts the queries a failover session re-sent on another node
// after its own node was blamed for a transport error.
var cRetry = obs.C("balancer.health.retries")

// Session is one user's sticky dashboard session against a specific
// node, with optional transparent failover. Without failover it models
// the pre-lifecycle world: the session is pinned to its node and a node
// death surfaces as user-visible errors. With failover, a query that
// hits an unroutable or freshly-dead node re-dispatches: the session
// re-establishes itself on a surviving node via the normal
// published-source handshake and retries once. If the old session held
// temp tables, the move instead returns a *dataserver.SessionMovedError
// (wrapping dataserver.ErrSessionMoved) — the tables did not travel, and
// silently retrying a query that references them would return wrong
// data; the owner, which knows which tables it created, re-materializes
// them and retries (the tests do it with Rematerialize, in
// export_test.go).
//
// All methods serialize on the session mutex: a session is one user's
// dashboard, which issues one interaction at a time.
type Session struct {
	cl       *Cluster
	user     string
	failover bool

	mu    sync.Mutex
	node  int
	conn  *dataserver.ClientConn
	moved int
}

// NewSession opens a session for user on node idx.
func (cl *Cluster) NewSession(user string, idx int, failover bool) (*Session, error) {
	conn, _, err := cl.Nodes[idx].DS.Connect(source, user)
	if err != nil {
		return nil, err
	}
	return &Session{cl: cl, user: user, failover: failover, node: idx, conn: conn}, nil
}

// Node reports which node currently serves the session.
func (s *Session) Node() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node
}

// Moves reports how many times the session failed over.
func (s *Session) Moves() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.moved
}

// Query runs one query on the session's node. With failover enabled, an
// unroutable node (ejected or draining per the balancer) moves the
// session before dispatch, and a blameworthy transport failure moves it
// and retries once after reporting the node to health tracking. A move
// that strands temp tables returns *dataserver.SessionMovedError
// instead of retrying (see type comment).
func (s *Session) Query(ctx context.Context, q *query.Query) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failover && !s.cl.Balancer.Routable(s.node) {
		if err := s.moveLocked(); err != nil {
			return err
		}
	}
	_, err := s.conn.Query(ctx, q)
	if blamed := s.cl.Balancer.Report(ctx, s.node, err); !blamed || !s.failover {
		return err
	}
	if merr := s.moveLocked(); merr != nil {
		return merr
	}
	cRetry.Inc()
	_, err = s.conn.Query(ctx, q)
	s.cl.Balancer.Report(ctx, s.node, err)
	return err
}

// CreateTempTable creates a temp table on the session's current node.
func (s *Session) CreateTempTable(alias, col string, vals []storage.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn.CreateTempTable(alias, col, vals)
}

// Close releases the session's connection.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn.Close()
}

// moveLocked re-establishes the session on a surviving node: pick a
// routable node other than the current one, run the published-source
// handshake there, and swap connections. Temp tables do not travel; if
// the old connection held any, the (completed) move reports them via
// *dataserver.SessionMovedError.
func (s *Session) moveLocked() error {
	from := s.node
	var lastErr error
	for _, to := range s.candidatesLocked(from) {
		conn, _, err := s.cl.Nodes[to].DS.Connect(source, s.user)
		if err != nil {
			// Racing a drain or a second failure; try the next survivor.
			lastErr = err
			continue
		}
		lost := s.conn.TempAliases()
		s.conn.Close()
		s.conn = conn
		s.node = to
		s.moved++
		if len(lost) > 0 {
			return &dataserver.SessionMovedError{
				From:      s.cl.Nodes[from].Name,
				To:        s.cl.Nodes[to].Name,
				LostTemps: lost,
			}
		}
		return nil
	}
	if lastErr != nil {
		return fmt.Errorf("clustertest: session %q found no accepting node: %w", s.user, lastErr)
	}
	return fmt.Errorf("clustertest: session %q has no surviving node to move to", s.user)
}

// candidatesLocked lists failover targets: the balancer's preferred
// routable pick first, then every other routable node as fallback.
func (s *Session) candidatesLocked(from int) []int {
	var out []int
	seen := map[int]bool{from: true}
	if best := s.cl.Balancer.PickIndexExcluding(from); best >= 0 {
		out = append(out, best)
		seen[best] = true
	}
	for i := range s.cl.Nodes {
		if !seen[i] && s.cl.Balancer.Routable(i) {
			out = append(out, i)
		}
	}
	return out
}
