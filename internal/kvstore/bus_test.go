package kvstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vizq/internal/chaos"
	"vizq/internal/clock"
	"vizq/internal/wire"
)

func TestStoreScan(t *testing.T) {
	s := NewStore(0)
	clk := clock.Manual(time.Unix(1000, 0))
	s.SetClock(clk)
	s.Set("dig/a/n2", []byte("2"), 0)
	s.Set("dig/a/n1", []byte("1"), time.Second)
	s.Set("dig/b/n1", []byte("3"), 0)
	s.Set("other", []byte("x"), 0)

	got := s.Scan("dig/a/")
	if len(got) != 2 || got[0].Key != "dig/a/n1" || got[1].Key != "dig/a/n2" {
		t.Fatalf("scan = %+v, want dig/a/* sorted", got)
	}
	if string(got[0].Val) != "1" || string(got[1].Val) != "2" {
		t.Fatalf("scan values = %+v", got)
	}
	if hits, misses := s.Stats(); hits != 0 || misses != 0 {
		t.Errorf("scan perturbed hit/miss counters: %d/%d", hits, misses)
	}

	// Past the TTL the expired entry disappears from the scan AND from
	// the store (swept, not just filtered).
	clk.Advance(2 * time.Second)
	got = s.Scan("dig/")
	if len(got) != 2 || got[0].Key != "dig/a/n2" || got[1].Key != "dig/b/n1" {
		t.Fatalf("post-expiry scan = %+v", got)
	}
	if s.Len() != 3 {
		t.Errorf("expired entry not swept: len = %d", s.Len())
	}
	if got := s.Scan("nope/"); len(got) != 0 {
		t.Errorf("scan of absent prefix = %+v", got)
	}
}

// TestStoreScanDoesNotPromote: a coordination-bus sweep must not refresh
// LRU positions, or digest polling would pin digests in the cache tier
// and evict real cache entries instead.
func TestStoreScanDoesNotPromote(t *testing.T) {
	s := NewStore(100)
	s.Set("a", make([]byte, 40), 0)
	s.Set("b", make([]byte, 40), 0)
	s.Scan("a")                     // must NOT touch a's LRU position
	s.Set("c", make([]byte, 40), 0) // evicts the true LRU victim
	if _, ok := s.Get("a"); ok {
		t.Error("scan promoted its results; eviction victim should be a")
	}
	if _, ok := s.Get("b"); !ok {
		t.Error("unscanned recent entry evicted")
	}
}

// TestStoreScanTTLRace: concurrent writers with immediately-expiring TTLs
// against concurrent scanners — the expiry sweep inside Scan must be safe
// under -race, and once writers stop every entry must age out.
func TestStoreScanTTLRace(t *testing.T) {
	s := NewStore(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Set(fmt.Sprintf("k/%d", (w*200+i)%8), []byte("v"), time.Nanosecond)
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Scan("k/")
				s.Get("k/0")
			}
		}()
	}
	wg.Wait()
	if got := s.Scan("k/"); len(got) != 0 {
		t.Errorf("expired entries survived the final sweep: %+v", got)
	}
	if s.Len() != 0 {
		t.Errorf("store still holds %d expired entries", s.Len())
	}
}

func TestClientList(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr(), 0)
	defer c.Close()

	for k, v := range map[string]string{"dig/n1": "v1", "dig/n2": "v2", "zz": "x"} {
		if err := c.Set(k, []byte(v), time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.List("dig/")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || string(m["dig/n1"]) != "v1" || string(m["dig/n2"]) != "v2" {
		t.Fatalf("list = %v", m)
	}
	if m, err := c.List("absent/"); err != nil || len(m) != 0 {
		t.Fatalf("list of absent prefix = %v, %v", m, err)
	}
}

// TestServerAllocatesWhatArrives: a request header's length is only the
// peer's claim. A raw connection that announces a 64 MiB frame and hangs
// up must cost the server about what arrived, and the server must keep
// serving other clients.
func TestServerAllocatesWhatArrives(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr(), 0)
	defer c.Close()
	if err := c.Set("k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(binary.LittleEndian.AppendUint32(nil, 64<<20)); err != nil {
		t.Fatal(err)
	}
	if err := raw.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The server closes its side once it has given up on the frame.
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server kept the torn connection: read err = %v", err)
	}
	runtime.ReadMemStats(&after)
	_ = raw.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a 64 MiB claim with no payload allocated %d bytes, want < 1 MiB", got)
	}

	if v, ok, err := c.Get("k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("get after the torn connection = %q %v %v", v, ok, err)
	}
}

// TestClientTimeoutOnStall: a server that accepts but never answers must
// not hang a client — its round-trip deadline surfaces as a timeout error
// instead of wedging the caller.
func TestClientTimeoutOnStall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			<-stop // hold the connection open, never respond
		}
	}()

	c := NewClient(ln.Addr().String(), 50*time.Millisecond)
	defer c.Close()
	_, _, err = c.Get("k")
	if err == nil {
		t.Fatal("stalled round trip returned no error")
	}
	var nerr net.Error
	if !asNetError(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}
}

func asNetError(err error, target *net.Error) bool {
	for err != nil {
		if ne, ok := err.(net.Error); ok {
			*target = ne
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestLocalBus(t *testing.T) {
	b := NewLocalBus(NewStore(0))
	if err := b.Set("p/a", []byte("1"), time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := b.Set("q/b", []byte("2"), 0); err != nil {
		t.Fatal(err)
	}
	m, err := b.List("p/")
	if err != nil || len(m) != 1 || string(m["p/a"]) != "1" {
		t.Fatalf("local bus list = %v, %v", m, err)
	}
}

func TestClientDialFailure(t *testing.T) {
	// Grab a port and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	b := NewClient(addr, 100*time.Millisecond)
	if err := b.Set("k", []byte("v"), 0); err == nil {
		t.Fatal("set against a dead address succeeded")
	}
	if _, err := b.List("k"); err == nil {
		t.Fatal("list against a dead address succeeded")
	}
	if err := b.Close(); err != nil { // no live connection: still clean
		t.Fatal(err)
	}
}

// TestClientReconnects: the client must fail fast across a partition and
// transparently redial once it heals — a client that stayed on its broken
// connection would wedge the cache tier and the coordination bus alike.
func TestClientReconnects(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := chaos.New(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	b := NewClient(proxy.Addr(), 0) // 0 selects DefaultTimeout
	defer b.Close()
	if err := b.Set("dig/n1", []byte("v"), time.Minute); err != nil {
		t.Fatal(err)
	}

	// Partition: live relays die, new connections are refused.
	proxy.SetMode(chaos.Fault{Kind: chaos.Refuse})
	proxy.KillActive()
	if _, err := b.List("dig/"); err == nil {
		t.Fatal("list across a partition succeeded")
	}
	if err := b.Set("dig/n1", []byte("v2"), time.Minute); err == nil {
		t.Fatal("set across a partition succeeded")
	}

	// Heal: the very next op redials and sees the surviving entry.
	proxy.Heal()
	m, err := b.List("dig/")
	if err != nil {
		t.Fatalf("list after heal: %v", err)
	}
	if string(m["dig/n1"]) != "v" {
		t.Fatalf("entry lost across the partition: %v", m)
	}
}

// TestClientRidesOutIdleCut: a connection cut while no call is using it
// costs the next call a redial, not an error.
func TestClientRidesOutIdleCut(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := chaos.New(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c := NewClient(proxy.Addr(), 0)
	defer c.Close()

	if err := c.Set("k", []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	proxy.KillActive() // nothing in flight: the client does not know yet
	if err := c.Set("k", []byte("v2"), 0); err != nil {
		t.Fatalf("set after an idle cut: %v", err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("get after an idle cut = %q %v %v", v, ok, err)
	}
	if n := proxy.Accepted(); n != 2 {
		t.Errorf("%d dials, want 2: the first and one redial", n)
	}

	// A dead server costs a reused connection one dial, then the error.
	proxy.SetMode(chaos.Fault{Kind: chaos.Refuse})
	proxy.KillActive()
	if err := c.Set("k", []byte("v3"), 0); err == nil {
		t.Fatal("set against a dead server succeeded")
	}
	if n := proxy.Accepted(); n != 3 {
		t.Errorf("%d dials, want 3: a dead server gets one redial", n)
	}
}

// TestClientNoRedialOnStall: a reused connection that stops answering fails
// with its one timeout; the client does not dial again to wait a second.
func TestClientNoRedialOnStall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dials atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			go func() {
				defer conn.Close()
				r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
				if _, err := wire.ReadFrame(r); err != nil {
					return
				}
				if err := wire.WriteFrame(w, (&response{}).append(nil)); err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, r) // answer once, then read and never answer
			}()
		}
	}()

	c := NewClient(ln.Addr().String(), 50*time.Millisecond)
	defer c.Close()
	if err := c.Set("k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Get("k")
	var nerr net.Error
	if !asNetError(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("%d dials, want 1: a timeout is not retried", n)
	}
}

// TestClientSharedAcrossGoroutines: one Client serves concurrent callers
// while its link is cut under them. Calls that meet the dead connection may
// fail, but none may see another call's answer, and once the cuts stop every
// caller gets through again.
func TestClientSharedAcrossGoroutines(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := chaos.New(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c := NewClient(proxy.Addr(), 0)
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d_%d", g, i)
				if err := c.Set(key, []byte(key), 0); err != nil {
					continue // the link was cut under this call
				}
				if v, ok, err := c.Get(key); err == nil && (!ok || string(v) != key) {
					t.Errorf("get %s = %q %v: another call's answer", key, v, ok)
				}
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		proxy.KillActive()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if err := c.Set("after", []byte("v"), 0); err != nil {
		t.Fatalf("set after the cuts stopped: %v", err)
	}
}
