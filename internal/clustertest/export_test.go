package clustertest

import "vizq/internal/tde/storage"

// tempSpec is one temp table a test created on a session, kept so the
// test can re-materialize it after a failover.
type tempSpec struct {
	alias string
	col   string
	vals  []storage.Value
}

// Rematerialize re-creates the given temp tables on the session's current
// node, skipping any still live there — the owner's response to
// ErrSessionMoved.
func (s *Session) Rematerialize(temps []tempSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make(map[string]bool)
	for _, a := range s.conn.TempAliases() {
		live[a] = true
	}
	for _, spec := range temps {
		if live[spec.alias] {
			continue
		}
		if err := s.conn.CreateTempTable(spec.alias, spec.col, spec.vals); err != nil {
			return err
		}
	}
	return nil
}
