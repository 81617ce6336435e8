package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. Registration (first lookup of a name) takes
// a lock; every subsequent operation on the returned metric is a lock-free
// atomic, so instrumented hot paths fetch their metrics once at package
// init and never touch the registry again.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the instrumented packages use.
var Default = NewRegistry()

// C returns (registering if needed) the named counter in Default.
func C(name string) *Counter { return Default.Counter(name) }

// G returns (registering if needed) the named gauge in Default.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns (registering if needed) the named histogram in Default.
func H(name string) *Histogram { return Default.Histogram(name) }

// Counter is a monotonically increasing count. A registry's counters are
// process-wide. A Counter that is a field of some other value is an
// instance counter: it counts for its owner alone, is never registered,
// and after RollUp every increment also adds to the registered counter of
// the same name, so one Inc feeds both the owner's Stats view and the
// registry.
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// RollUp makes the instance counter c add every increment to parent as
// well; a nil parent leaves c per-instance only. Call it before c is
// shared.
func (c *Counter) RollUp(parent *Counter) { c.parent = parent }

// Add increments the counter.
func (c *Counter) Add(n int64) {
	c.v.Add(n)
	if c.parent != nil {
		c.parent.v.Add(n)
	}
}

// Inc increments by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (e.g. pool depth) that also tracks its
// high-water mark.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Add moves the gauge by delta, updating the high-water mark.
func (g *Gauge) Add(delta int64) {
	cur := g.v.Add(delta)
	for {
		m := g.max.Load()
		if cur <= m || g.max.CompareAndSwap(m, cur) {
			return
		}
	}
}

// Set pins the gauge to v, updating the high-water mark.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max reads the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// histBuckets is the fixed bucket count: bucket i holds observations v with
// bit-length i, i.e. v in [2^(i-1), 2^i). 48 buckets cover nanosecond
// durations up to ~3.2 days and row counts up to ~10^14.
const histBuckets = 48

// Histogram is a lock-free exponential histogram over non-negative int64
// observations (durations in nanoseconds, row counts, sizes). Buckets are
// powers of two: coarse, but enough to read off medians and tails without
// any locking or allocation on the observe path.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for quantile q in [0,1]: the top of the
// bucket containing the q-th observation. Coarse (power-of-two buckets) but
// monotone and lock-free.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return 1<<uint(histBuckets-1) - 1
}

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry, JSON-encodable.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]GaugeSnap     `json:"gauges"`
	Histograms map[string]HistogramSnap `json:"histograms"`
}

// GaugeSnap is one gauge's snapshot.
type GaugeSnap struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// HistogramSnap is one histogram's snapshot.
type HistogramSnap struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]GaugeSnap, len(r.gauges)),
		Histograms: make(map[string]HistogramSnap, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnap{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistogramSnap{
			Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		}
	}
	return s
}

// WriteJSON dumps the registry as one indented JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText dumps the registry as sorted, aligned text. Histogram names
// ending in ".ns" render their statistics as durations.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter  %-32s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		if _, err := fmt.Fprintf(w, "gauge    %-32s %d (max %d)\n", name, g.Value, g.Max); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		var err error
		if len(name) > 3 && name[len(name)-3:] == ".ns" {
			_, err = fmt.Fprintf(w, "hist     %-32s n=%d mean=%s p50=%s p95=%s p99=%s\n", name,
				h.Count, roundDur(time.Duration(int64(h.Mean))),
				roundDur(time.Duration(h.P50)), roundDur(time.Duration(h.P95)), roundDur(time.Duration(h.P99)))
		} else {
			_, err = fmt.Fprintf(w, "hist     %-32s n=%d mean=%.1f p50=%d p95=%d p99=%d\n", name,
				h.Count, h.Mean, h.P50, h.P95, h.P99)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
