package fixture

import "time"

func waitForServer() {
	time.Sleep(50 * time.Millisecond) // want: sleep (sleep as synchronization)
}

func backoff(done <-chan struct{}) {
	t := time.NewTimer(time.Second) // want: sleep (a wait off the clock)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}

func timeout(ch <-chan int) int {
	select {
	case v := <-ch:
		return v
	case <-time.After(time.Second): // want: sleep (a wait off the clock)
		return 0
	}
}
