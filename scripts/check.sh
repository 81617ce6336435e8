#!/usr/bin/env bash
# Full static-analysis and race gate for the vizq tree.
#
#   scripts/check.sh          run everything
#   SKIP_RACE=1 scripts/check.sh   skip the (slower) race-detector pass
#
# The same commands run in CI (.github/workflows/check.yml).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== gofmt -l (cmd/vizlint/testdata is malformed on purpose)"
unformatted="$(find . -name '*.go' -not -path './cmd/vizlint/testdata/*' -not -path './.bench_build/*' -print0 | xargs -0 gofmt -l)"
if [[ -n "$unformatted" ]]; then
    echo "$unformatted"
    echo "gofmt: the files above are not formatted"
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== count check (no hand-kept Stats fields beside obs counters)"
scripts/count_check.sh

echo "== vizlint ./... (its unused family also fails an internal package no other package imports)"
go run ./cmd/vizlint ./...

echo "== vizlint ./cmd/... (self-lint)"
go run ./cmd/vizlint ./cmd/...

if [[ "${SKIP_RACE:-0}" != "1" ]]; then
    echo "== go test -race -shuffle=on ./..."
    go test -race -shuffle=on ./...
else
    echo "== go test -shuffle=on ./... (race pass skipped)"
    go test -shuffle=on ./...
fi

echo "== fuzz smoke (10 s each: the TQL decoder, the remote frame decoder, the kvstore message decoder and the TDE file reader)"
go test ./internal/tde/tql -run '^$' -fuzz '^FuzzCompile$' -fuzztime 10s -parallel 2
go test ./internal/remote -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 10s -parallel 2
go test ./internal/kvstore -run '^$' -fuzz '^FuzzDecodeMessage$' -fuzztime 10s -parallel 2
go test ./internal/tde/storage -run '^$' -fuzz '^FuzzReadDatabase$' -fuzztime 10s -parallel 2

echo "== cache and TDE microbenchmarks (one iteration each: they must keep compiling and running)"
go test -run '^$' -bench 'BenchmarkCache|BenchmarkTDE' -benchtime 1x .

echo "== bench module (links against core/cache/connection/dataserver): vet + test"
(cd bench && go vet ./... && go test ./...)

echo "== allocation gate (per-render allocations against the newest BENCH_<n>.json)"
scripts/alloc_gate.sh

echo "== cluster kill/restart smoke (clustertest lifecycle)"
go test -run TestLifecycleKillRestartSmoke ./internal/clustertest -count=1

echo "== metrics smoke (loadsim -metrics json)"
scripts/metrics_smoke.sh

echo "== coverage ratchet"
scripts/coverage_check.sh

echo "OK"
