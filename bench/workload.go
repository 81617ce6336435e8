package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vizq/internal/obs"
)

// An untraced run builds its workload several times and reports the median
// as setup_s, so one slow disk flush does not decide it: at least
// minSetupReps times, then until setupBudget is spent or maxSetupReps is
// reached. A short set-up is the noisy one and gets the most repetitions; a
// long one repeats well and would otherwise eat the run's time.
const (
	minSetupReps = 2
	maxSetupReps = 7
	setupBudget  = 2500 * time.Millisecond
)

// fixedSeed drives the session streams of the warm-up and of the allocation
// pass, whatever the run's seed. Allocation counts are exact properties of
// the operations performed: the pass performs the same operations from the
// same state every time, so its two metrics can carry a bound far tighter
// than any timing's, and setup_s does not depend on the seed either.
const fixedSeed = 1

// traceClientBase puts the traced pass and its untraced twin on one session
// stream of their own, so both replay exactly the same operations.
const traceClientBase = 3000

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value, where there is one.
	N int `json:"n,omitempty"`
	// Note qualifies the value, e.g. the percentile a tail metric used.
	Note string `json:"note,omitempty"`
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	OpsHash   string                 `json:"ops_hash,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Setup     map[string]float64     `json:"setup_parts_s,omitempty"`
}

func (r *workloadResult) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func (r *workloadResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// counters is the process-wide obs counter state; every layer of the stack
// runs in this process, so a delta over a pass is that pass's counts.
type counters map[string]int64

func readCounters() counters { return obs.Default.Snapshot().Counters }

func (c counters) since(before counters, name string) float64 {
	return float64(c[name] - before[name])
}

// checkInvariants books the conditions that void a run whatever its timings:
// the resilience layer must have had nothing to absorb, admission must have
// shed nothing, and the warm workload must not have reached the backend.
func checkInvariants(res *workloadResult, spec *workloadSpec, before, after counters, backendQueries int64) {
	for _, name := range []string{"resilience.retry.attempts", "resilience.breaker.fast_fails", "sched.shed", "remote.conns_broken"} {
		if d := after.since(before, name); d != 0 {
			res.problem("%s rose by %.0f; it must stay 0", name, d)
		}
	}
	if spec.Shape == shapeShared && backendQueries != 0 {
		res.problem("the warm workload sent %d backend queries after its warm-up; it must send 0", backendQueries)
	}
}

// makeTmp creates the run's scratch directory under outDir.
func makeTmp(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "tmp-")
}

// runEndToEnd measures a workload with tracing off: set-up (several times),
// a counted allocation pass verified afterwards, and a timed pass of
// `seconds` by the wall clock with every render verified.
func runEndToEnd(ctx context.Context, spec *workloadSpec, seed int64, seconds float64, outDir string) (*workloadResult, error) {
	tmp, err := makeTmp(outDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var e *env
	var setups []float64
	parts := map[string][]float64{}
	var spent time.Duration
	for rep := 0; rep < minSetupReps || (rep < maxSetupReps && spent < setupBudget); rep++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		if e, err = setup(ctx, spec, seed, tmp); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
		}
		spent += e.times.total()
		setups = append(setups, e.times.total().Seconds())
		for name, d := range e.times.parts() {
			parts[name] = append(parts[name], d.Seconds())
		}
	}
	defer e.close()

	res := &workloadResult{Workload: spec.Name, EndToEnd: map[string]metricValue{}, Setup: map[string]float64{}}
	for name, vals := range parts {
		res.Setup[name] = median(vals)
	}
	ver := newVerifier(e.eng)
	before := readCounters()

	// The allocation pass goes first: it starts from the state set-up left,
	// which no seed has touched, so its counts repeat from run to run.
	sessions := (spec.AllocSessions + spec.Clients - 1) / spec.Clients
	alloc, err := runPass(ctx, e, ver, passConfig{clients: spec.Clients, sessions: sessions, verify: verifyDeferred, clientBase: allocClientBase, seed: fixedSeed})
	if err != nil {
		return nil, err
	}
	timed, err := runPass(ctx, e, ver, passConfig{clients: spec.Clients, seconds: seconds, verify: verifyInline})
	if err != nil {
		return nil, err
	}

	res.Attempted = timed.Attempted + alloc.Attempted
	res.Failed = timed.Failed + alloc.Failed
	res.OpsHash = timed.OpsHash
	for _, p := range []*passResult{timed, alloc} {
		if p.FirstErr != nil {
			res.problem("first failure: %v", p.FirstErr)
			break
		}
	}
	checkInvariants(res, spec, before, readCounters(), timed.BackendQueries+alloc.BackendQueries)
	if len(timed.Loads) == 0 || len(timed.Interacts) == 0 || alloc.Renders == 0 {
		res.problem("no complete session was measured")
		return res, nil
	}

	put := func(name string, v float64, n int, note string) {
		for _, m := range endToEndMetrics {
			if m.Name == name {
				res.EndToEnd[name] = metricValue{Value: v, Unit: m.Unit, N: n, Note: note}
			}
		}
	}
	put("setup_s", median(setups), len(setups), "")
	put("load_p50_ms", median(timed.Loads), len(timed.Loads), "")
	loadTail := 95.0
	if spec.LoadTail > 0 {
		loadTail = spec.LoadTail
	}
	v, used, n := tail(timed.Loads, loadTail)
	put("load_p95_ms", v, n, tailNote(used))
	put("interact_p50_ms", median(timed.Interacts), len(timed.Interacts), "")
	v, used, n = tail(timed.Interacts, 95)
	put("interact_p95_ms", v, n, tailNote(used))
	put("renders_per_s", timed.RendersPerS, timed.Renders, "")
	put("mallocs_per_render", float64(alloc.Mallocs)/float64(alloc.Renders), alloc.Renders, "")
	put("alloc_kb_per_render", float64(alloc.AllocBytes)/1024/float64(alloc.Renders), alloc.Renders, "")
	return res, nil
}

// tailNote says which percentile a tail metric could support.
func tailNote(used float64) string {
	if used >= 95 {
		return ""
	}
	return fmt.Sprintf("p%.0f: this many samples do not resolve p95", used)
}

// runTraced produces the per-layer metrics: a counted single-client pass
// with tracing off, the same pass again under an obs tracer with the
// driver's own spans around it, then layer replay of what that pass sent.
func runTraced(ctx context.Context, spec *workloadSpec, seed int64, outDir string) (*workloadResult, error) {
	tmp, err := makeTmp(outDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	atStart := readCounters()
	e, err := setup(ctx, spec, seed, tmp)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
	}
	defer e.close()
	ver := newVerifier(e.eng)
	res := &workloadResult{Workload: spec.Name, PerLayer: map[string]metricValue{}}

	// The traced pass runs between two untraced passes of the same count, so
	// that neither warm-up nor drift reads as tracing overhead. They repeat
	// the traced pass's operations exactly, except behind the Data Server:
	// its caches outlive a pass, and a repeated stream would find its own
	// results there, so each pass gets a stream of its own.
	tr, rec := newTracePass(), newRecording()
	var passes [3]*passResult
	var before, after counters
	for i := range passes {
		cfg := passConfig{clients: 1, sessions: spec.TracedSessions, verify: verifyInline, clientBase: traceClientBase}
		if i == 1 {
			cfg.tr, cfg.rec = tr, rec
			before = readCounters()
		} else if spec.Shape == shapeDataServer {
			cfg.clientBase += 1 + i
		}
		if passes[i], err = runPass(ctx, e, ver, cfg); err != nil {
			return nil, err
		}
		if i == 1 {
			after = readCounters()
		}
		runtime.GC()
	}
	traced := passes[1]
	res.OpsHash = traced.OpsHash
	for _, p := range passes {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		if p.FirstErr != nil && len(res.Problems) == 0 {
			res.problem("first failure: %v", p.FirstErr)
		}
		if spec.Shape != shapeDataServer && p.OpsHash != traced.OpsHash {
			res.problem("the traced pass did not repeat the untraced passes' operations")
		}
	}
	checkInvariants(res, spec, atStart, readCounters(), traced.BackendQueries)
	if traced.Renders == 0 {
		res.problem("no render was traced")
		return res, nil
	}

	rp, err := replay(ctx, e, rec, tr)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(outDir, "trace_"+spec.Name+".json"), spec.Name, seed); err != nil {
		return nil, err
	}
	perLayer(res, e, tr, traced, passes[0], passes[2], rp, atStart, before, after)
	return res, nil
}

// perLayer fills in every per-layer metric from the traced pass's spans and
// counter deltas and from layer replay.
func perLayer(res *workloadResult, e *env, tr *tracePass, traced, plainBefore, plainAfter *passResult, rp *replayResult, atStart, before, after counters) {
	renders := float64(traced.Attempted)
	stages := tr.stages()
	totalUS := func(name string) float64 {
		if st := stages[name]; st != nil {
			return float64(st.Total) / float64(time.Microsecond)
		}
		return 0
	}
	selfUS := func(name string) float64 {
		if st := stages[name]; st != nil {
			return float64(st.Self) / float64(time.Microsecond)
		}
		return 0
	}
	count := func(name string) float64 { return after.since(before, name) }
	units := map[string]string{}
	for _, m := range perLayerMetrics {
		units[m.Name] = m.Unit
	}
	put := func(name string, v float64, n int) {
		res.PerLayer[name] = metricValue{Value: v, Unit: units[name], N: n}
	}
	nr := int(renders)

	put("vizql.self_us_per_render", selfUS(renderSpanName)/renders, nr)
	put("vizql.iterations_per_render", float64(traced.Iterations)/renders, nr)
	put("vizql.batch_size_mean", ratio(float64(traced.BatchQueries), float64(traced.Batches)), traced.Batches)
	put("vizql.over_budget_share", float64(traced.OverBudget)/renders, nr)

	put("core.batch_self_us_per_render", (selfUS(obs.SpanBatch)+selfUS(obs.SpanQuery))/renders, nr)
	put("core.fuse_us_per_render", totalUS(obs.SpanFuse)/renders, nr)
	put("core.postprocess_us_per_render", totalUS(obs.SpanPostProcess)/renders, nr)
	put("core.local_answer_us_per_render", totalUS(obs.SpanLocalAnswer)/renders, nr)
	remoteQueries := count("core.remote_queries")
	put("core.remote_queries_per_render", remoteQueries/renders, nr)
	put("core.fused_away_per_render", count("core.fused_away")/renders, nr)
	put("core.local_answers_per_render", count("core.local_answers")/renders, nr)
	put("core.flight_shared_per_render", count("cache.singleflight.shared")/renders, nr)
	put("core.temp_tables_per_render", count("core.temp_tables")/renders, nr)

	put("cache.probe_us_per_render", totalUS(obs.SpanCacheProbe)/renders, nr)
	put("cache.get_hit_us", rp.GetHitUS, rp.Queries)
	put("cache.get_miss_us", rp.GetMissUS, rp.Queries)
	put("cache.put_us", rp.PutUS, rp.Queries)
	put("cache.derive_us_per_call", rp.DeriveUS, rp.Queries)
	intelHits := count("cache.intelligent.exact_hits") + count("cache.intelligent.derived_hits")
	put("cache.intelligent_hit_ratio", ratio(intelHits, intelHits+count("cache.intelligent.misses")), int(intelHits+count("cache.intelligent.misses")))
	litHits := count("cache.literal.hits")
	put("cache.literal_hit_ratio", ratio(litHits, litHits+count("cache.literal.misses")), int(litHits+count("cache.literal.misses")))
	evictions := count("cache.intelligent.evictions") + count("cache.literal.evictions")
	put("cache.evictions_per_render", evictions/renders, nr)
	resident := float64(traced.ResidentEntries)
	if e.ds != nil {
		// The Data Server keeps its caches to itself, so the count is
		// derived: every backend query puts one entry in each cache level,
		// and only an eviction takes one out.
		resident = 2*after.since(atStart, "core.remote_queries") -
			after.since(atStart, "cache.intelligent.evictions") - after.since(atStart, "cache.literal.evictions")
	}
	put("cache.resident_entries", resident, 0)

	admitted := count("sched.admitted")
	put("sched.admit_us_per_call", rp.AdmitUS, replayCalls)
	put("sched.wait_us_per_render", totalUS(obs.SpanSchedAdmit)/renders, nr)
	put("sched.direct_share", ratio(count("sched.admitted.direct"), admitted), int(admitted))
	put("sched.shed_share", ratio(count("sched.shed"), admitted+count("sched.shed")), int(admitted))

	reuses := count("pool.reuses")
	put("connection.acquire_us_per_call", rp.AcquireUS, replayCalls)
	put("connection.wait_us_per_render", totalUS(obs.SpanPoolAcquire)/renders, nr)
	put("connection.dials", after.since(atStart, "pool.dials"), 0)
	put("connection.reuse_ratio", ratio(reuses, reuses+count("pool.dials")), int(reuses))

	put("remote.roundtrip_ms_per_render", totalUS(obs.SpanRemote)/1000/renders, nr)
	put("remote.wire_us_per_query", rp.WireUS, rp.Queries)
	put("remote.wire_ns_per_cell", rp.WireNSPerCell, rp.Queries)
	put("remote.result_rows_per_query", rp.RowsPerQuery, rp.Queries)
	put("remote.tempcreate_ms_per_call", rp.TempCreateMS, 0)

	put("tde.plan_us_per_query", rp.PlanUS, rp.Queries)
	put("tde.exec_ms_per_query", rp.ExecMS, rp.Queries)
	put("tde.mallocs_per_query", rp.MallocsPerQuery, rp.Queries)
	put("tde.alloc_kb_per_query", rp.AllocKBPerQuery, rp.Queries)
	put("tde.save_s", e.times.Save.Seconds(), 1)
	put("tde.open_s", e.times.Open.Seconds(), 1)

	put("dataserver.query_overhead_us", rp.DSOverheadUS, 0)
	put("dataserver.local_answers_per_render", count("ds.local_answers")/renders, nr)

	put("resilience.retries", count("resilience.retry.attempts"), 0)
	put("resilience.breaker_fast_fails", count("resilience.breaker.fast_fails"), 0)

	put("extract.parse_rows_per_s", rp.ParseRowsPerS, e.times.ExtractRows)
	put("extract.create_extract_s", e.times.Extract.Seconds(), 1)

	// Where a render's time goes, as shares of the traced renders' wall
	// time (one client, so a render waits for everything under it). While a
	// round trip is in flight the render waits for the simulated latency,
	// then for the engine and the wire; replay says in what proportion the
	// rest of a round trip is engine and wire.
	wall, inFlight, latencyFloor := tr.blocking(e.spec.Latency)
	if latencyFloor > inFlight {
		latencyFloor = inFlight
	}
	wallUS := float64(wall) / float64(time.Microsecond)
	backendUS := float64(inFlight-latencyFloor) / float64(time.Microsecond)
	engineUS := rp.ExecMS*1000 + rp.PlanUS
	tdeUS := backendUS * ratio(engineUS, engineUS+math.Max(rp.WireUS, 0))
	putUS := 2 * remoteQueries * rp.PutUS
	put("share.tde_exec", ratio(tdeUS, wallUS), nr)
	put("share.wire_put_post", ratio(backendUS-tdeUS+putUS+totalUS(obs.SpanPostProcess), wallUS), nr)
	put("share.simulated_latency", ratio(float64(latencyFloor)/float64(time.Microsecond), wallUS), nr)

	// The passes hold the same number of renders (the same renders, off the
	// Data Server), so their mean render times compare directly; a median of
	// the load-and-click mixture would sit on the gap between its two modes.
	renderMean := func(p *passResult) float64 {
		return mean(append(append([]float64(nil), p.Loads...), p.Interacts...))
	}
	untraced := (renderMean(plainBefore) + renderMean(plainAfter)) / 2
	put("trace_overhead_share", ratio(renderMean(traced)-untraced, untraced), nr)
}
