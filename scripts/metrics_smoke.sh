#!/usr/bin/env bash
# Metrics smoke test: a short loadsim run must produce well-formed,
# non-empty metrics. The instrumentation layer is load-bearing for the
# benchrunner stage breakdowns, so an accidentally dead counter path
# should fail the gate, not ship. Run from the repo root (scripts/check.sh
# and CI both do).
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(go run ./cmd/loadsim -users 2 -interactions 1 -rows 5000 -latency 1ms -sched -metrics json)"
# The JSON dump follows the human-readable report; it starts at the first
# line holding a lone "{".
metrics_json="$(awk 'f||/^\{$/{f=1;print}' <<<"$out")"
if [[ -z "$metrics_json" ]]; then
    echo "metrics smoke FAILED: no JSON object in loadsim -metrics json output" >&2
    exit 1
fi
for key in '"remote.roundtrip.ns"' '"remote.requests"' '"pool.acquire.wait.ns"' '"pool.acquire.total.ns"' \
           '"core.batch.size"' '"cache.literal.hits"' \
           '"cache.singleflight.leader"' '"cache.singleflight.shared"' \
           '"cache.literal.evict_sampled"' '"cache.intelligent.evict_sampled"' \
           '"cache.distributed.errors"' '"cache.stale_served"' \
           '"resilience.retry.attempts"' '"resilience.breaker.fast_fails"' \
           '"sched.admitted"' '"sched.admitted.direct"' '"sched.inflight"' \
           '"sched.limit"' '"sched.service.ns"' '"sched.user.queued"'; do
    if ! grep -q "$key" <<<"$metrics_json"; then
        echo "metrics smoke FAILED: $key missing from loadsim -metrics json output" >&2
        exit 1
    fi
done
if ! python3 -c 'import json,sys; json.load(sys.stdin)' <<<"$metrics_json" 2>/dev/null; then
    echo "metrics smoke FAILED: loadsim -metrics json emitted malformed JSON" >&2
    exit 1
fi
# Every remote miss runs through the single-flight layer as a leader, so a
# run that issued remote queries must report a non-zero leader count — a
# zero here means the coalescing path is dead code.
if ! python3 -c '
import json, sys
m = json.load(sys.stdin)
c = m.get("counters", m)
v = c.get("cache.singleflight.leader", 0)
sys.exit(0 if v > 0 else 1)
' <<<"$metrics_json" 2>/dev/null; then
    echo "metrics smoke FAILED: cache.singleflight.leader never incremented" >&2
    exit 1
fi
# Every remote query travels in a query request, so a run that reached the
# backend must have counted requests — a zero means the wave path bypasses
# the counted client op.
if ! python3 -c '
import json, sys
m = json.load(sys.stdin)
c = m.get("counters", m)
v = c.get("remote.requests", 0)
sys.exit(0 if v > 0 else 1)
' <<<"$metrics_json" 2>/dev/null; then
    echo "metrics smoke FAILED: remote.requests never incremented" >&2
    exit 1
fi
# With -sched, every remote execution passes through admission control, so
# the admitted counter must be non-zero — a zero means the scheduler is
# wired up but silently bypassed.
if ! python3 -c '
import json, sys
m = json.load(sys.stdin)
c = m.get("counters", m)
v = c.get("sched.admitted", 0)
sys.exit(0 if v > 0 else 1)
' <<<"$metrics_json" 2>/dev/null; then
    echo "metrics smoke FAILED: sched.admitted never incremented" >&2
    exit 1
fi
# The in-flight limit is the configured one (loadsim -sched runs
# Limit 8) from the moment the scheduler exists, so the gauge must read
# it — a 0 here means the gauge is only set when something moves the limit.
if ! python3 -c '
import json, sys
m = json.load(sys.stdin)
v = m.get("gauges", {}).get("sched.limit", 0)
v = v.get("value", 0) if isinstance(v, dict) else v
sys.exit(0 if v == 8 else 1)
' <<<"$metrics_json" 2>/dev/null; then
    echo "metrics smoke FAILED: sched.limit gauge is not the configured limit 8" >&2
    exit 1
fi
# Fleet mode: a 3-node coordinated run must publish load digests and see
# peers — the sched.cluster.* series are the observable surface of
# cross-node admission coordination, so a silent coordinator should fail
# the gate here.
cluster_out="$(go run ./cmd/loadsim -cluster 3 -users 3 -interactions 1 -rows 5000 -latency 1ms -metrics json)"
cluster_json="$(awk 'f||/^\{$/{f=1;print}' <<<"$cluster_out")"
if [[ -z "$cluster_json" ]]; then
    echo "metrics smoke FAILED: no JSON object in loadsim -cluster output" >&2
    exit 1
fi
for key in '"sched.cluster.publish"' '"sched.cluster.publish_errors"' \
           '"sched.cluster.list_errors"' '"sched.cluster.stale_digests"' \
           '"sched.cluster.shed"' '"sched.cluster.converge"' \
           '"sched.cluster.peers"' '"sched.cluster.digest_age_ms"' \
           '"sched.cluster.fleet_limit"'; do
    if ! grep -q "$key" <<<"$cluster_json"; then
        echo "metrics smoke FAILED: $key missing from loadsim -cluster metrics" >&2
        exit 1
    fi
done
if ! python3 -c '
import json, sys
m = json.load(sys.stdin)
c = m.get("counters", m)
g = m.get("gauges", {})
def gv(k):
    v = g.get(k, 0)
    return v.get("value", 0) if isinstance(v, dict) else v
sys.exit(0 if c.get("sched.cluster.publish", 0) > 0 and gv("sched.cluster.peers") > 0 else 1)
' <<<"$cluster_json" 2>/dev/null; then
    echo "metrics smoke FAILED: cluster run published no digests or saw no peers" >&2
    exit 1
fi
# An unloaded run admits on the fast path, so the direct-admission counter
# must be non-zero — and those admissions must NOT flood the wait
# histogram with zeros: its count is bounded by the queued admissions.
if ! python3 -c '
import json, sys
m = json.load(sys.stdin)
c = m.get("counters", m)
direct = c.get("sched.admitted.direct", 0)
total = c.get("sched.admitted", 0)
waits = m.get("histograms", {}).get("sched.wait.ns", {}).get("count", 0)
sys.exit(0 if direct > 0 and waits <= total - direct else 1)
' <<<"$metrics_json" 2>/dev/null; then
    echo "metrics smoke FAILED: direct admissions missing or leaking into sched.wait.ns" >&2
    exit 1
fi
# Node lifecycle: a scripted rolling restart with drain-first must light
# up the whole health surface — ejection by blame, half-open probes,
# probe-based re-admission — and shed queued work with reason "draining".
# These series are the observable contract of the lifecycle layer; a dead
# counter here means ops dashboards go blind during real restarts.
restart_out="$(go run ./cmd/loadsim -cluster 3 -users 3 -interactions 3 -rows 5000 -latency 1ms -restart 0:1:2 -drainfirst -metrics json)"
restart_json="$(awk 'f||/^\{$/{f=1;print}' <<<"$restart_out")"
if [[ -z "$restart_json" ]]; then
    echo "metrics smoke FAILED: no JSON object in loadsim -restart output" >&2
    exit 1
fi
for key in '"balancer.health.suspect"' '"balancer.health.eject"' \
           '"balancer.health.probe"' '"balancer.health.probe_fail"' \
           '"balancer.health.readmit"' '"balancer.health.retries"' \
           '"balancer.health.ejected"' '"sched.shed.draining"'; do
    if ! grep -q "$key" <<<"$restart_json"; then
        echo "metrics smoke FAILED: $key missing from loadsim -restart metrics" >&2
        exit 1
    fi
done
if ! python3 -c '
import json, sys
m = json.load(sys.stdin)
c = m.get("counters", m)
need = ["balancer.health.eject", "balancer.health.probe",
        "balancer.health.readmit", "sched.shed.draining"]
sys.exit(0 if all(c.get(k, 0) > 0 for k in need) else 1)
' <<<"$restart_json" 2>/dev/null; then
    echo "metrics smoke FAILED: rolling restart left eject/probe/readmit/draining-shed counters at zero" >&2
    exit 1
fi
echo "metrics smoke OK"
