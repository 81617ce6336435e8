package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vizq/internal/obs"
	"vizq/internal/query"
	"vizq/internal/tde/exec"
)

// benchSpan is one recorded interval. The driver's own spans (a render, a
// replayed call) and the obs spans the stack recorded under them share this
// form; times are nanoseconds since the pass began.
type benchSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Render int    `json:"render"` // spans of one render share its number
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // load | interact, on render spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// renderSpanName is the driver-side span around a whole render: the call
// into vizql.Session.Render, or the zone loop over ClientConn.Query.
const renderSpanName = "render"

// tracePass keeps the spans of a traced pass in memory until it ends.
type tracePass struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []benchSpan
	renders int
}

func newTracePass() *tracePass { return &tracePass{t0: time.Now()} }

func (t *tracePass) rel(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// addRender records the driver's span around one render and hangs the
// stack's own span trees (one root per batch or per Data Server query)
// under it.
func (t *tracePass) addRender(kind string, start, end time.Time, tracer *obs.Tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.renders++
	render := t.renders
	root := t.add(benchSpan{Render: render, Name: renderSpanName, Kind: kind, Start: t.rel(start), End: t.rel(end)})
	var walk func(parent int, s *obs.Span)
	walk = func(parent int, s *obs.Span) {
		id := t.add(benchSpan{Parent: parent, Render: render, Name: s.Name, Start: t.rel(s.Start), End: t.rel(s.End)})
		for _, c := range s.Children() {
			walk(id, c)
		}
	}
	for _, r := range tracer.Roots() {
		walk(root, r)
	}
}

func (t *tracePass) add(s benchSpan) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// stageTotals is the summed duration and self time of all spans of a name.
type stageTotals struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// stages aggregates the pass by span name. A span's self time is its
// duration minus the part of it that its children cover; overlapping
// children (a batch's concurrent queries) are counted once. Replay spans
// belong to no render and are left out.
func (t *tracePass) stages() map[string]*stageTotals {
	children := make(map[int][][2]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*stageTotals{}
	for _, s := range t.spans {
		if s.Render == 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &stageTotals{}
			out[s.Name] = st
		}
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	at := lo
	for _, x := range iv {
		start, end := x[0], x[1]
		if start < at {
			start = at
		}
		if end > hi {
			end = hi
		}
		if end > start {
			sum += end - start
			at = end
		}
	}
	return sum
}

// blocking says how long the pass's renders were blocked, in all: wall is
// the summed render time; inFlight the part of it during which at least one
// remote round trip was in flight; latency the simulated-latency floor of
// that part, a render's round trips going out poolSize at a time.
func (t *tracePass) blocking(latency time.Duration) (wall, inFlight, latencyFloor time.Duration) {
	trips := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Name == obs.SpanRemote && s.Render != 0 {
			trips[s.Render] = append(trips[s.Render], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		if s.Name != renderSpanName {
			continue
		}
		wall += time.Duration(s.End - s.Start)
		iv := trips[s.Render]
		inFlight += time.Duration(covered(iv, s.Start, s.End))
		latencyFloor += time.Duration((len(iv)+poolSize-1)/poolSize) * latency
	}
	return wall, inFlight, latencyFloor
}

// write dumps the spans as JSON, one object per span.
func (t *tracePass) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Renders  int         `json:"renders"`
		Spans    []benchSpan `json:"spans"`
	}{workload, seed, t.renders, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// recording is the traced pass's inputs, kept for layer replay: every
// distinct zone query the backend had to answer, with the result the stack
// returned for it.
type recording struct {
	mu    sync.Mutex
	seen  map[string]bool
	items []recorded
}

type recorded struct {
	q   *query.Query
	res *exec.Result
}

func newRecording() *recording { return &recording{seen: map[string]bool{}} }

func (r *recording) add(checks []zoneCheck) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range checks {
		if key := c.q.Key(); !r.seen[key] {
			r.seen[key] = true
			r.items = append(r.items, recorded{q: c.q, res: c.res})
		}
	}
}
