package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one named metric of the benchmark. The names are the
// contract later issues cite; BENCHMARK.json lists the same names with
// their regression bounds, and a test keeps the two in step.
type metricDef struct {
	Name string
	Unit string
	// Moves says which end-to-end metric this per-layer metric is predicted
	// to move, and on which workload (written down before measuring).
	Moves string
}

// endToEndMetrics are measured with tracing off. fail_share from the issue
// is not a metric here: the driver's contract forbids a metric that is
// always 0, so failures are reported as the failed/attempted pair instead.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "load_p50_ms", Unit: "ms"},
	{Name: "load_p95_ms", Unit: "ms"},
	{Name: "interact_p50_ms", Unit: "ms"},
	{Name: "interact_p95_ms", Unit: "ms"},
	{Name: "renders_per_s", Unit: "1/s"},
	{Name: "mallocs_per_render", Unit: "count"},
	{Name: "alloc_kb_per_render", Unit: "kB"},
}

// perLayerMetrics come from the traced run: counter deltas, obs span
// totals, and single-threaded replay of the recorded inputs into each
// layer's public functions. A value of 0 means the layer was idle on that
// workload.
var perLayerMetrics = []metricDef{
	{"vizql.self_us_per_render", "us", "interact_p50_ms on warm_shared"},
	{"vizql.iterations_per_render", "count", "interact_p50_ms on warm_shared"},
	{"vizql.batch_size_mean", "count", "interact_p50_ms on warm_shared"},
	{"vizql.over_budget_share", "share", "interact_p95_ms on every workload"},

	{"core.batch_self_us_per_render", "us", "load_p50_ms, renders_per_s on warm_shared"},
	{"core.fuse_us_per_render", "us", "load_p50_ms, renders_per_s on warm_shared"},
	{"core.postprocess_us_per_render", "us", "interact_p50_ms on wide_result"},
	{"core.local_answer_us_per_render", "us", "load_p50_ms on warm_shared"},
	{"core.remote_queries_per_render", "count", "load_p50_ms on wan_batch and cold_scan"},
	{"core.fused_away_per_render", "count", "load_p50_ms on wan_batch"},
	{"core.local_answers_per_render", "count", "load_p50_ms on wan_batch"},
	{"core.flight_shared_per_render", "count", "renders_per_s on tenant_churn"},
	{"core.temp_tables_per_render", "count", "interact_p50_ms on wide_result"},

	{"cache.probe_us_per_render", "us", "interact_p50_ms, renders_per_s on warm_shared"},
	{"cache.get_hit_us", "us", "interact_p50_ms, renders_per_s on warm_shared; none on cold_scan"},
	{"cache.get_miss_us", "us", "renders_per_s on tenant_churn"},
	{"cache.put_us", "us", "renders_per_s on tenant_churn, interact_p50_ms on wide_result"},
	{"cache.derive_us_per_call", "us", "interact_p50_ms, renders_per_s on warm_shared"},
	{"cache.intelligent_hit_ratio", "share", "renders_per_s on tenant_churn"},
	{"cache.literal_hit_ratio", "share", "renders_per_s on tenant_churn"},
	{"cache.evictions_per_render", "count", "renders_per_s on tenant_churn"},
	{"cache.resident_entries", "count", "renders_per_s on tenant_churn"},

	{"sched.admit_us_per_call", "us", "renders_per_s on tenant_churn; none on warm_shared"},
	{"sched.wait_us_per_render", "us", "renders_per_s on tenant_churn"},
	{"sched.direct_share", "share", "renders_per_s on tenant_churn"},
	{"sched.shed_share", "share", "must be 0: a shed is a failed render"},

	{"connection.acquire_us_per_call", "us", "load_p50_ms on wan_batch"},
	{"connection.wait_us_per_render", "us", "load_p50_ms on wan_batch"},
	{"connection.dials", "count", "setup_s"},
	{"connection.reuse_ratio", "share", "load_p50_ms on wan_batch"},

	{"remote.roundtrip_ms_per_render", "ms", "load_p50_ms on wan_batch and cold_scan"},
	{"remote.wire_us_per_query", "us", "load_p50_ms, interact_p50_ms on wide_result; <5% on cold_scan"},
	{"remote.wire_ns_per_cell", "ns", "load_p50_ms, alloc_kb_per_render on wide_result"},
	{"remote.result_rows_per_query", "count", "alloc_kb_per_render on wide_result"},
	{"remote.tempcreate_ms_per_call", "ms", "interact_p50_ms on wide_result"},

	{"tde.plan_us_per_query", "us", "negligible everywhere; wan_batch backend at most"},
	{"tde.exec_ms_per_query", "ms", "load_p50_ms, renders_per_s on cold_scan; less on tenant_churn"},
	{"tde.mallocs_per_query", "count", "mallocs_per_render on cold_scan"},
	{"tde.alloc_kb_per_query", "kB", "alloc_kb_per_render on cold_scan"},
	{"tde.save_s", "s", "setup_s"},
	{"tde.open_s", "s", "setup_s"},

	{"dataserver.query_overhead_us", "us", "interact_p50_ms on tenant_churn"},
	{"dataserver.local_answers_per_render", "count", "interact_p50_ms on tenant_churn"},

	{"resilience.retries", "count", "must be 0: a retry voids the run"},
	{"resilience.breaker_fast_fails", "count", "must be 0: a fast-fail voids the run"},

	{"extract.parse_rows_per_s", "1/s", "setup_s"},
	{"extract.create_extract_s", "s", "setup_s"},

	{"share.tde_exec", "share", "predicted >= 0.6 on cold_scan, ~0 on warm_shared"},
	{"share.wire_put_post", "share", "predicted >= 0.25 on wide_result, < 0.1 on cold_scan"},
	{"share.simulated_latency", "share", "predicted >= 0.85 on wan_batch, 0 elsewhere"},
	{"trace_overhead_share", "share", "none: end-to-end metrics are never taken from the traced run"},
}

// benchmarkFile mirrors BENCHMARK.json, the driver's contract.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchmarkFile finds BENCHMARK.json from the repository root or from
// inside bench/, the two directories the benchmark is run from.
func loadBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &bf, nil
	}
	return nil, firstErr
}

func (bf *benchmarkFile) endToEnd(name string) (boundedMetric, bool) {
	for _, m := range bf.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return boundedMetric{}, false
}
