#!/usr/bin/env bash
# Count check: every count is kept once, in an obs instance counter that
# rolls up into the process-wide registry, and Stats() only reads those
# counters (DESIGN.md, "Counting"). A write to a hand-kept `.stats.` field
# is the twin bookkeeping that replaced: non-test Go under internal/ must
# not bring it back.
set -euo pipefail
cd "$(dirname "$0")/.."

hits="$(grep -rnE --include='*.go' --exclude='*_test.go' \
    '\.stats\.[A-Z][A-Za-z]*[[:space:]]*(\+\+|\+=|-=|=[^=])' internal || true)"
if [[ -n "$hits" ]]; then
    echo "count check FAILED: Stats fields kept by hand instead of in obs counters:" >&2
    echo "$hits" >&2
    echo "($(wc -l <<<"$hits") lines)" >&2
    exit 1
fi
