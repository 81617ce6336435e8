// Package obs is the observability layer for the query stack: per-query
// span trees (tracing) and named process-wide counters/gauges/histograms
// (metrics), both stdlib-only.
//
// Tracing is opt-in per request: attach a *Tracer to the context with
// WithTracer and every instrumented stage along the query path — batch
// planning, cache probes, fusion, pool acquisition, remote round trips,
// local answers, post-processing — records a span. Without a tracer in the
// context, StartSpan returns a nil *Span whose methods are no-ops, so the
// disabled path costs one context lookup and no allocation.
//
// Metrics are always on: hot paths increment lock-free atomics in the
// package-level Default registry, directly or through an instance counter
// that rolls up into it (Counter.RollUp). Registry dumps render as aligned
// text (WriteText) or JSON (WriteJSON).
package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span names used across the query path (the span taxonomy). Instrumented
// packages share these constants so stage aggregation lines up.
const (
	SpanBatch       = "batch"              // one ExecuteBatch call
	SpanQuery       = "query"              // one Execute call
	SpanCacheProbe  = "cache.probe"        // intelligent/literal cache lookup
	SpanFuse        = "fuse"               // opportunity graph + fusion planning
	SpanPoolAcquire = "pool.acquire"       // waiting for / dialing a connection
	SpanRemote      = "remote.roundtrip"   // one request/response on a connection
	SpanLocalAnswer = "local.answer"       // answering a query from a predecessor
	SpanPostProcess = "postprocess"        // deriving member results from a fused result
	SpanTempTable   = "temptable"          // externalizing filters into session temp tables
	SpanDSQuery     = "ds.query"           // one Data Server client query
	SpanRetry       = "resilience.retry"   // one retried attempt (attempt >= 2) incl. its backoff
	SpanBreaker     = "resilience.breaker" // a circuit-breaker fast-fail (near-zero duration by design)
	SpanSchedAdmit  = "sched.admit"        // admission control: direct admit, queue wait, or shed
	SpanHealthProbe = "balancer.probe"     // one half-open health probe against an ejected node
	SpanDrain       = "ds.drain"           // one graceful Data Server drain (quiesce + shed)
)

// Tracer collects finished root spans for one traced unit of work (a
// request, a benchmark pass, a load-sim session). It is safe for use from
// the concurrent goroutines a query batch spawns.
type Tracer struct {
	mu    sync.Mutex
	roots []*Span
}

// New creates an empty tracer.
func New() *Tracer { return &Tracer{} }

// Span is one timed stage. Fields are written by the goroutine running the
// stage and read after Finish; child lists are mutex-guarded because sibling
// stages run concurrently.
type Span struct {
	Name  string
	Start time.Time
	End   time.Time

	tracer *Tracer
	parent *Span

	mu       sync.Mutex
	children []*Span
	attrs    []Attr
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

type ctxKey struct{}

type ctxVal struct {
	tracer *Tracer
	span   *Span
}

// WithTracer attaches a tracer to the context; subsequent StartSpan calls
// along this context record spans into it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{tracer: t})
}

// StartSpan begins a span under the context's current span (or as a root).
// When the context carries no tracer it returns (ctx, nil) without
// allocating; all Span methods are nil-safe, so instrumentation sites need
// no branching.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok || v.tracer == nil {
		return ctx, nil
	}
	sp := &Span{Name: name, Start: time.Now(), tracer: v.tracer, parent: v.span}
	if v.span != nil {
		v.span.mu.Lock()
		v.span.children = append(v.span.children, sp)
		v.span.mu.Unlock()
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{tracer: v.tracer, span: sp}), sp
}

// Finish stamps the span's end time; root spans register with the tracer.
// Safe on a nil span.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.End = time.Now()
	if s.parent == nil {
		s.tracer.mu.Lock()
		s.tracer.roots = append(s.tracer.roots, s)
		s.tracer.mu.Unlock()
	}
}

// Annotate attaches a key/value pair. Safe on a nil span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Annotatef attaches a formatted value. Safe on a nil span.
func (s *Span) Annotatef(key, format string, args ...any) {
	if s == nil {
		return
	}
	s.Annotate(key, fmt.Sprintf(format, args...))
}

// Duration is the span's elapsed time (zero before Finish).
func (s *Span) Duration() time.Duration {
	if s == nil || s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Children snapshots the child spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Roots snapshots the finished root spans in finish order.
func (t *Tracer) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// StageStat aggregates all spans of one name across the tracer's trees.
type StageStat struct {
	Name  string
	Count int
	Total time.Duration
	Max   time.Duration
}

// Stages walks every recorded span tree and aggregates by span name. The
// result is sorted by descending total time.
func (t *Tracer) Stages() []StageStat {
	acc := make(map[string]*StageStat)
	var walk func(*Span)
	walk = func(s *Span) {
		st := acc[s.Name]
		if st == nil {
			st = &StageStat{Name: s.Name}
			acc[s.Name] = st
		}
		st.Count++
		d := s.Duration()
		st.Total += d
		if d > st.Max {
			st.Max = d
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range t.Roots() {
		walk(r)
	}
	out := make([]StageStat, 0, len(acc))
	for _, st := range acc {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// FormatStages renders stage aggregates as one aligned block, suitable for
// benchrunner's per-experiment breakdown.
func FormatStages(stats []StageStat) string {
	if len(stats) == 0 {
		return "(no spans recorded)"
	}
	var b strings.Builder
	nameW := len("stage")
	for _, s := range stats {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %7s  %10s  %10s  %10s\n", nameW, "stage", "count", "total", "mean", "max")
	for _, s := range stats {
		mean := time.Duration(0)
		if s.Count > 0 {
			mean = s.Total / time.Duration(s.Count)
		}
		fmt.Fprintf(&b, "%-*s  %7d  %10s  %10s  %10s\n", nameW, s.Name, s.Count,
			roundDur(s.Total), roundDur(mean), roundDur(s.Max))
	}
	return b.String()
}

func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}
