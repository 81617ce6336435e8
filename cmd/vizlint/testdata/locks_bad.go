package fixture

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

// Bump leaks the lock on the limit path.
func (c *counter) Bump(limit int) bool {
	c.mu.Lock() // want: locks (the limit return leaves c.mu locked)
	if c.n >= limit {
		return false
	}
	c.n++
	c.mu.Unlock()
	return true
}

// Total deadlocks: locked() re-acquires the mutex Total already holds.
func (c *counter) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.locked() // want: locks (call chain re-locks c.mu)
}

func (c *counter) locked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Twice locks the same mutex twice on one path.
func (c *counter) Twice() {
	c.mu.Lock()
	c.mu.Lock() // want: locks (double lock)
	c.mu.Unlock()
	c.mu.Unlock()
}

// Set falls off the end of the function still holding the lock.
func (c *counter) Set(v int) {
	c.mu.Lock() // want: locks (function exits locked)
	c.n = v
}

// Drain breaks out of its loop still holding the lock.
func (c *counter) Drain() {
	for {
		c.mu.Lock() // want: locks (the break leaves c.mu locked)
		if c.n == 0 {
			break
		}
		c.n--
		c.mu.Unlock()
	}
}
