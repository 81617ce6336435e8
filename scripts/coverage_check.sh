#!/usr/bin/env bash
# Coverage ratchet: the packages that guard correctness under failure
# (wire protocol, pool, caches, resilience, the TDE file reader) must not
# silently lose test coverage. Floors are set ~2 points under the measured
# coverage at the time each package was last touched; raise a floor when
# you raise the coverage, never lower one to make a change fit.
#
# Run from anywhere; scripts/check.sh and CI both call this.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

check() {
    local pkg="$1" floor="$2"
    local out pct
    out="$(go test -cover "$pkg" | tail -1)"
    pct="$(sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p' <<<"$out")"
    if [[ -z "$pct" ]]; then
        echo "coverage FAILED: no coverage figure for $pkg (got: $out)" >&2
        fail=1
        return
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit (p+0 >= f+0) ? 1 : 0 }'; then
        echo "coverage FAILED: $pkg at ${pct}%, floor is ${floor}%" >&2
        fail=1
    else
        echo "coverage OK: $pkg ${pct}% (floor ${floor}%)"
    fi
}

check ./internal/clock      98.0
check ./internal/remote     77.8
check ./internal/kvstore    94.8
check ./internal/wire       87.9
check ./internal/tde/storage 82.8
check ./internal/tde/exec   82.0
check ./internal/tde/opt    75.7
check ./internal/connection 93.1
check ./internal/cache      93.6
check ./internal/query      90.4
check ./internal/obs        90.2
check ./internal/resilience 91.2
check ./internal/sched      93.5
check ./internal/dataserver 90.8
check ./cmd/vizlint         89.4

exit "$fail"
