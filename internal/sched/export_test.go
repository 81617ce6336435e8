package sched

import "time"

// probe is Stats plus the state only tests read: completions, slots in
// use, users with waiters, the service estimate and the cluster clamp.
type probe struct {
	Stats
	Completed         int64
	Inflight          int
	QueuedUsers       int
	EWMAService       time.Duration
	ClusterShedActive bool
}

// probe snapshots Stats, then the test-only state.
func (s *Scheduler) probe() probe {
	p := probe{Stats: s.Stats()}
	s.mu.Lock()
	defer s.mu.Unlock()
	p.Completed = s.completed.Value()
	p.Inflight = s.inflight
	p.QueuedUsers = len(s.queue.ring)
	p.EWMAService = time.Duration(s.ewmaNS)
	p.ClusterShedActive = s.clusterShedActiveLocked(time.Now())
	return p
}
