package fixture

import "sync"

type gauge struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// Add uses the canonical defer pattern.
func (g *gauge) Add(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n += v
}

// TryAdd releases explicitly on every return path.
func (g *gauge) TryAdd(v, limit int) bool {
	g.mu.Lock()
	if g.n+v > limit {
		g.mu.Unlock()
		return false
	}
	g.n += v
	g.mu.Unlock()
	return true
}

// Read pairs RLock with a deferred RUnlock.
func (g *gauge) Read() int {
	g.rw.RLock()
	defer g.rw.RUnlock()
	return g.n
}

// Loop locks and unlocks within each iteration.
func (g *gauge) Loop(vals []int) {
	for _, v := range vals {
		g.mu.Lock()
		g.n += v
		g.mu.Unlock()
	}
}

// Wait releases before blocking and re-acquires per round, with
// terminating select arms.
func (g *gauge) Wait(ch chan int, stop chan struct{}) int {
	for {
		g.mu.Lock()
		if g.n > 0 {
			n := g.n
			g.mu.Unlock()
			return n
		}
		g.mu.Unlock()
		select {
		case v := <-ch:
			g.mu.Lock()
			g.n += v
			g.mu.Unlock()
		case <-stop:
			return 0
		}
	}
}

// helper does not lock, so calling it under the lock is fine.
func (g *gauge) helperLocked() int { return g.n }

func (g *gauge) Snapshot() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.helperLocked()
}

// Handoff returns holding the lock on purpose; the directive suppresses
// the locks finding.
func (g *gauge) Handoff() {
	g.mu.Lock() //vizlint:allow locks -- the caller unlocks
}
