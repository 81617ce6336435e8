package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledTracingIsNilSafe(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, SpanQuery)
	if sp != nil {
		t.Fatalf("expected nil span without tracer, got %v", sp)
	}
	if ctx2 != ctx {
		t.Fatalf("expected identical context without tracer")
	}
	// Every method must be a no-op on nil.
	sp.Finish()
	if sp.Duration() != 0 || sp.Children() != nil {
		t.Fatalf("nil span accessors must return zero values")
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, SpanBatch)
	if root == nil {
		t.Fatalf("StartSpan under an attached tracer returned no span")
	}
	_, probe := StartSpan(ctx, SpanCacheProbe)
	probe.Finish()
	cctx, remote := StartSpan(ctx, SpanRemote)
	_, inner := StartSpan(cctx, SpanPoolAcquire)
	inner.Finish()
	remote.Finish()
	root.Finish()

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != SpanBatch {
		t.Fatalf("roots = %v, want one %q", roots, SpanBatch)
	}
	kids := roots[0].Children()
	if len(kids) != 2 || kids[0].Name != SpanCacheProbe || kids[1].Name != SpanRemote {
		t.Fatalf("children = %v", kids)
	}
	if got := kids[1].Children(); len(got) != 1 || got[0].Name != SpanPoolAcquire {
		t.Fatalf("grandchildren = %v", got)
	}
}

func TestConcurrentChildSpans(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, SpanBatch)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := StartSpan(ctx, SpanRemote)
			sp.Finish()
		}()
	}
	wg.Wait()
	root.Finish()
	if got := len(tr.Roots()[0].Children()); got != 32 {
		t.Fatalf("children = %d, want 32", got)
	}
}

func TestStagesAggregation(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, SpanBatch)
	for i := 0; i < 3; i++ {
		_, sp := StartSpan(ctx, SpanRemote)
		sp.Finish()
	}
	root.Finish()
	stages := tr.Stages()
	byName := map[string]StageStat{}
	for _, s := range stages {
		byName[s.Name] = s
	}
	if byName[SpanRemote].Count != 3 || byName[SpanBatch].Count != 1 {
		t.Fatalf("stages = %+v", stages)
	}
	text := FormatStages(stages)
	if !strings.Contains(text, SpanRemote) || !strings.Contains(text, "count") {
		t.Fatalf("FormatStages output missing content:\n%s", text)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("x.count") != c {
		t.Fatalf("counter not interned by name")
	}

	g := r.Gauge("x.depth")
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if g.Value() != 1 || g.Max() != 5 {
		t.Fatalf("gauge = %d max %d, want 1 max 5", g.Value(), g.Max())
	}
	g.Set(7)
	if g.Value() != 7 || g.Max() != 7 {
		t.Fatalf("gauge after Set = %d max %d", g.Value(), g.Max())
	}

	h := r.Histogram("x.ns")
	for i := 0; i < 100; i++ {
		h.Observe(int64(i))
	}
	h.ObserveDuration(2 * time.Millisecond)
	if h.Count() != 101 {
		t.Fatalf("hist count = %d", h.Count())
	}
	if p50 := h.Quantile(0.5); p50 < 31 || p50 > 127 {
		t.Fatalf("p50 = %d, want within [31,127]", p50)
	}
	if p99 := h.Quantile(0.999); p99 < 2_000_000-1 {
		t.Fatalf("p99.9 = %d, want to land in the 2ms bucket", p99)
	}
	if h.Quantile(0.0) != 0 && h.Count() > 0 && h.Quantile(0.0) > 1 {
		t.Fatalf("q0 = %d", h.Quantile(0.0))
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestRegistryDumps(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.hits").Add(2)
	r.Gauge("b.depth").Set(3)
	r.Histogram("c.wait.ns").ObserveDuration(time.Millisecond)
	r.Histogram("d.rows").Observe(42)

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a.hits", "b.depth", "c.wait.ns", "d.rows"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("WriteText missing %q:\n%s", want, text.String())
		}
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(js.Bytes(), &snap); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, js.String())
	}
	if snap.Counters["a.hits"] != 2 || snap.Histograms["d.rows"].Count != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// The default registry must intern by name process-wide: two packages asking
// for the same metric share one atomic.
func TestDefaultRegistryHelpers(t *testing.T) {
	c1, c2 := C("obs.test.shared"), C("obs.test.shared")
	if c1 != c2 {
		t.Fatal("C() did not intern")
	}
	if G("obs.test.g") != G("obs.test.g") || H("obs.test.h") != H("obs.test.h") {
		t.Fatal("G()/H() did not intern")
	}
}
