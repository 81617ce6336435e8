package clock

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestWallClock(t *testing.T) {
	var c *Clock
	before := time.Now()
	if now := c.Now(); now.Before(before) {
		t.Fatalf("nil clock read %v, before %v", now, before)
	}
	start := time.Now()
	if err := c.Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Sleep = %v", err)
	}
	if waited := time.Since(start); waited < time.Millisecond {
		t.Fatalf("nil clock slept %v, want >= 1ms", waited)
	}
}

func TestWallSleepReturnsOnCancel(t *testing.T) {
	var c *Clock
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := c.Sleep(ctx, time.Hour)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("cancelled Sleep took %v", waited)
	}
}

func TestManualSleepMovesTheClock(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)
	c := Manual(t0)
	if err := c.Sleep(context.Background(), 3*time.Second); err != nil {
		t.Fatalf("Sleep = %v", err)
	}
	if got := c.Now(); !got.Equal(t0.Add(3 * time.Second)) {
		t.Fatalf("after Sleep(3s) Now = %v, want %v", got, t0.Add(3*time.Second))
	}
	if got := c.Advance(time.Minute); !got.Equal(t0.Add(time.Minute + 3*time.Second)) {
		t.Fatalf("Advance returned %v", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := c.Now()
	if err := c.Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on a done context = %v, want context.Canceled", err)
	}
	if got := c.Now(); !got.Equal(before) {
		t.Fatalf("Sleep on a done context moved the clock %v", got.Sub(before))
	}
}

// TestManualAdvanceRace is for -race: Advance and Now from many
// goroutines, and every reader sees time only move forward.
func TestManualAdvanceRace(t *testing.T) {
	c := Manual(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Advance(time.Millisecond)
			}
		}()
		go func() {
			defer wg.Done()
			last := c.Now()
			for j := 0; j < 500; j++ {
				now := c.Now()
				if now.Before(last) {
					t.Errorf("clock went back from %v to %v", last, now)
					return
				}
				last = now
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); !got.Equal(time.Unix(0, 0).Add(2 * time.Second)) {
		t.Fatalf("after 2000 Advance(1ms) Now = %v, want 2s past the start", got)
	}
}
