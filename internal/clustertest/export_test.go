package clustertest

// Rematerialize re-creates the session's recorded temp tables on its
// current node — the owner's response to ErrSessionMoved.
func (s *Session) Rematerialize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make(map[string]bool)
	for _, a := range s.conn.TempAliases() {
		live[a] = true
	}
	for _, spec := range s.temps {
		if live[spec.alias] {
			continue
		}
		if err := s.conn.CreateTempTable(spec.alias, spec.col, spec.vals); err != nil {
			return err
		}
	}
	return nil
}
