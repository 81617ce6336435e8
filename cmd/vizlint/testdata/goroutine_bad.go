package fixture

import "sync"

type worker struct {
	mu    sync.Mutex
	count int
}

// Kick launches a goroutine that mutates shared receiver state without
// the mutex and offers no way to join or cancel it.
func (w *worker) Kick() {
	go func() { // want: goroutine (no join or cancellation signal)
		w.count++ // want: goroutine (unprotected shared write)
	}()
}
