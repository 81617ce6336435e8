package dataserver

import "strings"

// SharedTempCount reports live shared temp definitions.
func (s *Server) SharedTempCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.temps)
}

// IsExtract reports whether the published source is served from an extract.
func (s *Server) IsExtract(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.extracts[strings.ToLower(name)]
	return ok
}
