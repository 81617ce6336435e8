#!/usr/bin/env bash
# Allocation gate: a short run of each benchmark workload must not allocate
# more per render than the newest checked-in BENCH_<n>.json records, by more
# than 8 % in mallocs_per_render or alloc_kb_per_render. The benchmark
# counts allocations over a fixed number of renders, so a one-second run
# measures them as exactly as a full one; timings never gate here.
# tenant_churn is left out: its sampled eviction follows Go's randomized map
# order, so its counts do not repeat from run to run.
#
# The gate skips, saying so, when the Go toolchain differs from the one the
# baseline file was measured with. Run from anywhere; scripts/check.sh and
# CI both call this. `alloc_gate.sh --baseline-go` prints that toolchain's
# version (e.g. 1.24.0) and exits: CI installs it before running the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

base="$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)"
want="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["go_version"])' "$base")"
if [[ "${1:-}" == "--baseline-go" ]]; then
    echo "${want#go}"
    exit 0
fi
have="$(go version | awk '{print $3}')"
if [[ "$have" != "$want" ]]; then
    echo "alloc gate SKIPPED: $base was measured with $want, this toolchain is $have"
    exit 0
fi

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
fail=0
for w in cold_scan wide_result warm_shared wan_batch; do
    bash bench/run.sh -workload "$w" -seconds 1 -trace 0 -out "$out/$w.json" >/dev/null
    python3 - "$base" "$out/$w.json" "$w" <<'EOF' || fail=1
import json, sys

base, run, workload = sys.argv[1:]

def end_to_end(path):
    for w in json.load(open(path))["workloads"]:
        if w["workload"] == workload:
            return w["end_to_end"]
    sys.exit(f"alloc gate FAILED: {path} has no {workload} workload")

old, new = end_to_end(base), end_to_end(run)
worse = False
for m in ("mallocs_per_render", "alloc_kb_per_render"):
    o, n = old[m]["value"], new[m]["value"]
    verdict = "OK"
    if n > o * 1.08:
        verdict, worse = "FAILED", True
    print(f"alloc gate {verdict}: {workload} {m} {n:.1f} (baseline {o:.1f}, bound +8 %)")
sys.exit(1 if worse else 0)
EOF
done
exit "$fail"
