package fixture

import "sync"

type orderA struct{ mu sync.Mutex }

type orderB struct{ mu sync.Mutex }

// LockAB acquires orderA.mu then orderB.mu: one half of the cycle.
func LockAB(a *orderA, b *orderB) {
	a.mu.Lock()
	b.mu.Lock() // want: lockorder (lock order cycle)
	b.mu.Unlock()
	a.mu.Unlock()
}

// LockBA acquires in the opposite order. Together with LockAB this closes
// a lock-order cycle: one concurrent caller of each can deadlock.
// (1 finding)
func LockBA(a *orderA, b *orderB) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

// SendWhileLocked holds orderA.mu across a channel send: if no receiver is
// ready, every other user of the lock waits on that receiver too.
// (1 finding)
func SendWhileLocked(a *orderA, ch chan int) {
	a.mu.Lock()
	ch <- 1 // want: lockorder (lock held across channel send)
	a.mu.Unlock()
}

// WaitViaCall holds orderB.mu across a call that blocks — the blocking
// operation is inside the callee, so only the call graph sees it.
// (1 finding)
func WaitViaCall(b *orderB, wg *sync.WaitGroup) {
	b.mu.Lock()
	joinHelpers(wg) // want: lockorder (lock held across a blocking call)
	b.mu.Unlock()
}

func joinHelpers(wg *sync.WaitGroup) {
	wg.Wait()
}
