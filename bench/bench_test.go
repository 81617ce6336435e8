package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"vizq/internal/query"
)

// tiny shrinks a workload until a test can build and run it in well under a
// second: the code paths stay, the sample sizes go.
func tiny(t *testing.T, name string) *workloadSpec {
	t.Helper()
	spec := findSpec(name)
	if spec == nil {
		t.Fatalf("no workload %q", name)
	}
	spec.Rows, spec.CSVRows = 3000, 300
	spec.AllocSessions, spec.TracedSessions, spec.WarmSessions = 2, 3, 6
	if spec.Users > 0 {
		spec.Cache.MaxEntries = 48
	}
	return spec
}

func tinyEnv(t *testing.T, name string, seed int64) *env {
	t.Helper()
	e, err := setup(context.Background(), tiny(t, name), seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

func counted(t *testing.T, e *env, clients, sessions int) *passResult {
	t.Helper()
	res, err := runPass(context.Background(), e, newVerifier(e.eng), passConfig{clients: clients, sessions: sessions, verify: verifyInline})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 {
		t.Fatalf("%d of %d renders failed: %v", res.Failed, res.Attempted, res.FirstErr)
	}
	return res
}

func TestSameSeedSameOperations(t *testing.T) {
	a := counted(t, tinyEnv(t, "cold_scan", 7), 1, 4)
	b := counted(t, tinyEnv(t, "cold_scan", 7), 1, 4)
	c := counted(t, tinyEnv(t, "cold_scan", 8), 1, 4)
	if a.OpsHash != b.OpsHash {
		t.Errorf("seed 7 ran two different operation sequences: %s and %s", a.OpsHash, b.OpsHash)
	}
	if a.OpsHash == c.OpsHash {
		t.Errorf("seeds 7 and 8 ran the same operation sequence %s", a.OpsHash)
	}
	if a.Attempted != 4*(1+interactionsPerSession) {
		t.Errorf("4 sessions attempted %d renders, want %d", a.Attempted, 4*(1+interactionsPerSession))
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return s
	}
	for _, tc := range []struct {
		n         int
		wantValue float64
		wantUsed  float64
	}{
		{1000, 950, 95}, // p95 has 50 samples beyond it
		{200, 190, 95},  // exactly ten beyond
		{40, 30, 75},    // p95 would leave two: fall back to rank n-10
		{12, 6, 50},     // no tail to speak of: the median
	} {
		v, used, n := tail(ramp(tc.n), 95)
		if v != tc.wantValue || used != tc.wantUsed || n != tc.n {
			t.Errorf("tail of %d samples = %v at p%v (n=%d), want %v at p%v", tc.n, v, used, n, tc.wantValue, tc.wantUsed)
		}
		if beyond := tc.n - int(v); tc.n >= 2*tailSamples && beyond < tailSamples {
			t.Errorf("tail of %d samples leaves %d beyond it", tc.n, beyond)
		}
	}
	if _, _, n := tail(nil, 95); n != 0 {
		t.Errorf("tail of no samples reports n=%d", n)
	}
}

func TestMedianOfTwoIsTheirMidpoint(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{{[]float64{4, 2}, 3}, {[]float64{9, 1, 5}, 5}, {[]float64{7}, 7}, {nil, 0}} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestTimedPassEndsOnTheWallClock: the timed pass is bounded by elapsed
// time, verification included, not by time spent rendering, so that every
// workload's run takes what BENCHMARK.json says it does.
func TestTimedPassEndsOnTheWallClock(t *testing.T) {
	e := tinyEnv(t, "cold_scan", 1)
	const seconds = 0.3
	start := time.Now()
	res, err := runPass(context.Background(), e, newVerifier(e.eng), passConfig{clients: 1, seconds: seconds, verify: verifyInline})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	if res.Failed > 0 || len(res.Loads) == 0 {
		t.Fatalf("%d loads, %d of %d renders failed: %v", len(res.Loads), res.Failed, res.Attempted, res.FirstErr)
	}
	if elapsed < seconds || elapsed > seconds+2 {
		t.Errorf("a %.1f s pass took %.2f s", seconds, elapsed)
	}
}

func TestVerifierFailsCorruptedResult(t *testing.T) {
	e := tinyEnv(t, "cold_scan", 1)
	ctx := context.Background()
	ver := newVerifier(e.eng)
	for _, z := range e.spec.Dashboards[0].Zones {
		if z.Spec == nil {
			continue
		}
		q := z.Spec
		res, err := e.eng.Query(ctx, q.ToTQL())
		if err != nil {
			t.Fatal(err)
		}
		if err := ver.check(ctx, q, res); err != nil {
			t.Fatalf("zone %s: an honest result fails: %v", z.Name, err)
		}
		count := res.Cols[res.ColumnIndex(q.Measures[0].Name())]
		count.I[0]++
		if err := ver.check(ctx, q, res); err == nil {
			t.Errorf("zone %s: a measure off by one passes", z.Name)
		}
		count.I[0]--
		if res.N > 1 {
			res.Truncate(res.N - 1)
			if err := ver.check(ctx, q, res); err == nil {
				t.Errorf("zone %s: a result missing a row passes", z.Name)
			}
		}
	}
	// A top-n may break ties either way, but not skip a row above the cut.
	top := &query.Query{View: query.View{Table: "flights"}, Dims: []query.Dim{{Col: "carrier"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}}, OrderBy: []query.Order{{Col: "n", Desc: true}}, N: 3}
	res, err := e.eng.Query(ctx, top.ToTQL())
	if err != nil {
		t.Fatal(err)
	}
	if err := ver.check(ctx, top, res); err != nil {
		t.Fatalf("an honest top-3 fails: %v", err)
	}
	all := top.Clone()
	all.N = 0
	full, err := e.eng.Query(ctx, all.ToTQL())
	if err != nil {
		t.Fatal(err)
	}
	for c := range res.Cols { // swap the leader for the last-ranked carrier
		last := full.Value(full.N-1, c)
		if res.Cols[c].S != nil {
			res.Cols[c].S[0] = last.S
		} else {
			res.Cols[c].I[0] = last.I
		}
	}
	if err := ver.check(ctx, top, res); err == nil {
		t.Error("a top-3 without the leader passes")
	}
}

func TestWarmSharedSendsNoBackendQueries(t *testing.T) {
	e := tinyEnv(t, "warm_shared", 3)
	res := counted(t, e, 2, 12)
	if res.BackendQueries != 0 {
		t.Errorf("the timed phase sent %d backend queries after an exhaustive warm-up, want 0", res.BackendQueries)
	}
	if res.Renders != 2*12*(1+interactionsPerSession) {
		t.Errorf("%d renders, want %d", res.Renders, 2*12*(1+interactionsPerSession))
	}
}

func TestTenantChurnEvicts(t *testing.T) {
	before := readCounters()
	e := tinyEnv(t, "tenant_churn", 3)
	res := counted(t, e, 2, 10)
	after := readCounters()
	if d := after.since(before, "cache.intelligent.evictions") + after.since(before, "cache.literal.evictions"); d <= 0 {
		t.Errorf("no eviction over %d renders against a %d-entry cache", res.Renders, e.spec.Cache.MaxEntries)
	}
	if d := after.since(before, "core.remote_queries"); d <= 0 {
		t.Error("no backend query: the cache held the whole working set")
	}
	if d := after.since(before, "sched.shed"); d != 0 {
		t.Errorf("admission shed %.0f queries", d)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesRunner keeps BENCHMARK.json and the runner in
// step: the file's workloads and metrics are exactly what a run prints.
func TestBenchmarkFileMatchesRunner(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	var fileWorkloads, specWorkloads []string
	for _, w := range bf.Workloads {
		fileWorkloads = append(fileWorkloads, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, s := range workloadSpecs() {
		specWorkloads = append(specWorkloads, s.Name)
	}
	sameNames(t, "workloads", fileWorkloads, specWorkloads)

	setupBound := 0.0
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s is %s, better %s", m.Unit, m.Better)
			}
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}

	// One tiny run in each mode: what it reports is what the file must list.
	spec := tiny(t, "tenant_churn")
	out := t.TempDir()
	e2e, err := runEndToEnd(context.Background(), spec, 1, 0.05, out)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(context.Background(), spec, 1, out)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*workloadResult{e2e, traced} {
		if !r.correct() {
			t.Errorf("tiny %s run: %d of %d failed, problems %v", r.Workload, r.Failed, r.Attempted, r.Problems)
		}
	}
	check := func(kind string, listed []boundedMetric, defs []metricDef, printed map[string]metricValue) {
		var fileNames, defNames []string
		units := map[string]string{}
		for _, m := range listed {
			fileNames = append(fileNames, m.Name)
			units[m.Name] = m.Unit
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s metric name %q is not a valid name", kind, m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
		for _, d := range defs {
			defNames = append(defNames, d.Name)
			if units[d.Name] != d.Unit {
				t.Errorf("%s: BENCHMARK.json says unit %q, the runner %q", d.Name, units[d.Name], d.Unit)
			}
		}
		sameNames(t, kind+" metrics", fileNames, defNames)
		sameNames(t, kind+" metrics printed", fileNames, sortedKeys(printed))
	}
	check("end-to-end", bf.EndToEnd, endToEndMetrics, e2e.EndToEnd)
	check("per-layer", bf.PerLayer, perLayerMetrics, traced.PerLayer)

	// The last line of a run is the driver's contract.
	doc := &document{Workloads: []*workloadResult{e2e}}
	data, err := json.Marshal(doc.line())
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatal(err)
	}
	sameNames(t, "result line keys", sortedKeys(line), []string{"attempted", "correct", "failed", "metrics"})
	if _, err := os.Stat(out + "/trace_tenant_churn.json"); err != nil {
		t.Errorf("the traced run wrote no trace file: %v", err)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sameNames(t *testing.T, what string, a, b []string) {
	t.Helper()
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		t.Errorf("%s: %d names against %d:\n%v\n%v", what, len(a), len(b), a, b)
		return
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s differ: %q against %q", what, a[i], b[i])
		}
	}
}
