package fixture

import "sync/atomic"

type counterStats struct {
	hits  int64
	total int64
}

// AtomicHit updates hits through sync/atomic, making hits an atomic field
// everywhere.
func (s *counterStats) AtomicHit() {
	atomic.AddInt64(&s.hits, 1)
}

// PlainRead loads hits without atomic: races with AtomicHit. (1 finding)
func (s *counterStats) PlainRead() int64 {
	return s.hits // want: atomics (plain load of an atomic field)
}

// PlainWrite stores hits without atomic. (1 finding)
func (s *counterStats) PlainWrite() {
	s.hits = 0 // want: atomics (plain store to an atomic field)
}

// TotalOnly touches a field no atomic ever touches: not a finding.
func (s *counterStats) TotalOnly() int64 {
	s.total++
	return s.total
}
