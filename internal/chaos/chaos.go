// Package chaos is a deterministic fault-injection harness for the query
// stack's network path. It grew out of the ad-hoc proxy in the connection
// pool's stress test: a protocol-agnostic TCP proxy that relays client
// connections to a backend and applies a per-connection fault drawn from a
// seeded, reproducible schedule. The pool, retry, and circuit-breaker
// layers under test see genuine EOF/reset/timeout transport errors —
// exactly what a flaky or dying database produces — but the fault sequence
// is a pure function of the schedule and the accept order, so failures
// reproduce run after run instead of depending on timing luck.
//
// Fault kinds model the distinct ways a backend dies (Sect. 5 of the paper
// puts the Data Server in front of 40+ customer-operated backends, which
// fail in all of these ways):
//
//	Refuse    – the TCP handshake completes but the connection is torn
//	            down before a byte moves: the client's first round trip
//	            fails with reset/EOF (a crashed process behind a live
//	            load balancer).
//	Stall     – accept, then black-hole: bytes are accepted but nothing
//	            is ever relayed, so the client blocks until its deadline
//	            (a wedged server, the expensive failure mode).
//	CutMid    – relay the request, then cut the connection partway into
//	            the response frame (a mid-query crash).
//	Trickle   – relay the response one byte at a time with a fixed delay
//	            (a saturated or degraded link).
//	KillAfter – relay faithfully, then cut both directions after a fixed
//	            delay (the original stress-test behaviour).
//
// A Schedule assigns a Fault to each accepted connection by index. Mode
// overrides (SetMode/Heal) switch every new connection to one fault for
// the duration of a simulated outage window, and KillActive cuts the
// relays already in flight — together they script "backend goes dark at
// t=X for D seconds" scenarios for experiments and loadsim.
package chaos

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Kind enumerates fault behaviours.
type Kind int

const (
	// None relays the connection faithfully.
	None Kind = iota
	// Refuse tears the connection down immediately after accept.
	Refuse
	// Stall accepts and never relays a byte.
	Stall
	// CutMid relays Bytes response bytes, then cuts the connection.
	CutMid
	// Trickle relays the response one byte per Delay.
	Trickle
	// KillAfter relays both directions, then cuts after Delay.
	KillAfter
)

// String names the kind for test tables and logs.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Refuse:
		return "refuse"
	case Stall:
		return "stall"
	case CutMid:
		return "cut-mid-frame"
	case Trickle:
		return "trickle"
	case KillAfter:
		return "kill-after"
	}
	return "unknown"
}

// Fault is one connection's scripted behaviour.
type Fault struct {
	Kind Kind
	// Delay is the relay time before a KillAfter cut, or the per-byte
	// delay for Trickle.
	Delay time.Duration
	// Bytes is how many backend->client bytes CutMid relays before
	// cutting; 0 cuts before the first response byte.
	Bytes int
}

// Schedule maps the i-th accepted connection (0-based) to its fault.
// Implementations must be safe for calls from the accept goroutine.
type Schedule interface {
	Fault(conn int) Fault
}

// ScheduleFunc adapts a function to the Schedule interface.
type ScheduleFunc func(conn int) Fault

// Fault implements Schedule.
func (f ScheduleFunc) Fault(conn int) Fault { return f(conn) }

// Healthy is the all-None schedule.
func Healthy() Schedule { return Repeat(Fault{Kind: None}) }

// Seq replays the given faults in accept order, then heals: connection i
// gets faults[i], and every connection past the end gets None. Seq(f, f)
// is the canonical "N failures then heal" schedule retry tests need.
//
//vizlint:allow unused -- fault schedule for the dataserver retry tests
func Seq(faults ...Fault) Schedule {
	return ScheduleFunc(func(conn int) Fault {
		if conn < len(faults) {
			return faults[conn]
		}
		return Fault{Kind: None}
	})
}

// Repeat applies the same fault to every connection.
func Repeat(f Fault) Schedule {
	return ScheduleFunc(func(int) Fault { return f })
}

// RandomKill reproduces the original stress-test schedule: each connection
// is killed with probability p after a delay uniform in [minDelay,
// maxDelay), decided by a seeded generator. The fault for connection i is
// a pure function of (seed, i), so concurrent accept order does not change
// any individual connection's fate.
//
//vizlint:allow unused -- fault schedule for the connection stress test
func RandomKill(seed int64, p float64, minDelay, maxDelay time.Duration) Schedule {
	var mu sync.Mutex
	decided := []Fault{}
	rng := rand.New(rand.NewSource(seed))
	return ScheduleFunc(func(conn int) Fault {
		mu.Lock()
		defer mu.Unlock()
		for len(decided) <= conn {
			f := Fault{Kind: None}
			if rng.Float64() < p {
				span := maxDelay - minDelay
				d := minDelay
				if span > 0 {
					d += time.Duration(rng.Int63n(int64(span)))
				}
				f = Fault{Kind: KillAfter, Delay: d}
			}
			decided = append(decided, f)
		}
		return decided[conn]
	})
}

// Proxy is the fault-injecting TCP relay.
type Proxy struct {
	ln      net.Listener
	backend string

	mu       sync.Mutex
	sched    Schedule
	override *Fault
	conns    []net.Conn
	accepted int
	closed   bool
}

// New starts a proxy in front of backend applying sched to each accepted
// connection. Close releases the listener and every tracked connection.
func New(backend string, sched Schedule) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if sched == nil {
		sched = Healthy()
	}
	p := &Proxy{ln: ln, backend: backend, sched: sched}
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address — point the client (pool) here.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Accepted reports how many connections the proxy has accepted.
//
//vizlint:allow unused -- core and dataserver tests count dials through the proxy
func (p *Proxy) Accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

// SetMode overrides the schedule: every connection accepted from now on
// gets fault f, regardless of index. Use with KillActive to start an
// outage window; Heal ends it.
func (p *Proxy) SetMode(f Fault) {
	p.mu.Lock()
	p.override = &f
	p.mu.Unlock()
}

// Heal removes the SetMode override, returning control to the schedule.
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.override = nil
	p.mu.Unlock()
}

// KillActive cuts every relay currently in flight (the moment an outage
// begins, established connections die too).
func (p *Proxy) KillActive() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close shuts the listener and every tracked connection.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

func (p *Proxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		idx := p.accepted
		p.accepted++
		fault := p.sched.Fault(idx)
		if p.override != nil {
			fault = *p.override
		}
		p.mu.Unlock()
		go p.serve(client, fault)
	}
}

// track registers conns for cleanup; returns false if the proxy is closed
// (the conns are closed instead).
func (p *Proxy) track(cs ...net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		for _, c := range cs {
			c.Close()
		}
		return false
	}
	p.conns = append(p.conns, cs...)
	return true
}

func (p *Proxy) serve(client net.Conn, fault Fault) {
	switch fault.Kind {
	case Refuse:
		client.Close()
		return
	case Stall:
		// Hold the connection open without relaying; the client blocks on
		// its read until its deadline fires or the proxy closes.
		p.track(client)
		return
	}

	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		client.Close()
		return
	}
	if !p.track(client, server) {
		return
	}

	switch fault.Kind {
	case CutMid:
		go func() { _, _ = io.Copy(server, client); server.Close() }()
		go func() {
			if fault.Bytes > 0 {
				_, _ = io.CopyN(client, server, int64(fault.Bytes))
			}
			client.Close()
			server.Close()
		}()
	case Trickle:
		go func() { _, _ = io.Copy(server, client); server.Close() }()
		go func() {
			buf := make([]byte, 1)
			for {
				n, err := server.Read(buf)
				if n > 0 {
					//vizlint:allow sleep -- simulated degraded-link pacing
					time.Sleep(fault.Delay)
					if _, werr := client.Write(buf[:n]); werr != nil {
						break
					}
				}
				if err != nil {
					break
				}
			}
			client.Close()
			server.Close()
		}()
	default: // None, KillAfter
		go func() { _, _ = io.Copy(server, client); server.Close() }()
		go func() { _, _ = io.Copy(client, server); client.Close() }()
		if fault.Kind == KillAfter {
			go func() {
				//vizlint:allow sleep -- scheduled mid-flight connection kill
				time.Sleep(fault.Delay)
				client.Close()
				server.Close()
			}()
		}
	}
}
