package kvstore

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore(0)
	s.Set("a", []byte("1"), 0)
	v, ok := s.Get("a")
	if !ok || string(v) != "1" {
		t.Fatal("get failed")
	}
	s.Set("a", []byte("2"), 0) // overwrite
	if v, _ := s.Get("a"); string(v) != "2" {
		t.Error("overwrite failed")
	}
	if _, ok := s.Get("b"); ok {
		t.Error("absent key served")
	}
	hits, misses := s.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
}

func TestStoreTTL(t *testing.T) {
	s := NewStore(0)
	now := time.Unix(1000, 0)
	s.SetClock(func() time.Time { return now })
	s.Set("k", []byte("v"), time.Second)
	if _, ok := s.Get("k"); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(2 * time.Second)
	if _, ok := s.Get("k"); ok {
		t.Error("expired entry served")
	}
	if s.Len() != 0 {
		t.Error("expired entry not removed")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(100)
	s.Set("a", make([]byte, 40), 0)
	s.Set("b", make([]byte, 40), 0)
	s.Get("a") // a is now most recently used
	s.Set("c", make([]byte, 40), 0)
	if _, ok := s.Get("b"); ok {
		t.Error("LRU victim should be b")
	}
	if _, ok := s.Get("a"); !ok {
		t.Error("recently used entry evicted")
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set("k", []byte("hello"), time.Minute); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get("k")
	if err != nil || !ok || string(v) != "hello" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	// The retired delete and ping ops are answered with an error status,
	// and the key survives the delete attempt.
	for _, op := range []byte{'D', 'P'} {
		status, body, err := cl.roundTrip(op, "k", 0, nil)
		if err != nil || status != statusError || string(body) != fmt.Sprintf("bad op %q", op) {
			t.Errorf("op %q = (%d, %q, %v), want a bad-op error", op, status, body, err)
		}
	}
	if _, ok, _ := cl.Get("k"); !ok {
		t.Error("key lost after a refused delete")
	}
}

func TestNetworkConcurrentClients(t *testing.T) {
	store := NewStore(0)
	srv, err := Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("k%d_%d", c, i)
				if err := cl.Set(key, []byte(key), 0); err != nil {
					t.Error(err)
					return
				}
				if v, ok, err := cl.Get(key); err != nil || !ok || string(v) != key {
					t.Errorf("get %s = %q %v %v", key, v, ok, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if store.Len() != 100 {
		t.Errorf("store len = %d", store.Len())
	}
}

func TestServerCloseDropsClients(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Requests after close fail rather than hang.
	done := make(chan error, 1)
	go func() {
		_, _, err := cl.Get("k")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("get after server close should fail")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("client hung after server close")
	}
}
