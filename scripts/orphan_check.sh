#!/usr/bin/env bash
# Orphan check: every vizq/internal/... package must be imported by some
# other package's non-test code. A package only its own tests import is
# dead weight that still costs every refactor (internal/sqlgen sat unused
# for ten PRs).
set -euo pipefail
cd "$(dirname "$0")/.."

orphans="$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | awk '
    { pkgs[$1] = 1; for (i = 2; i <= NF; i++) used[$i] = 1 }
    END { for (p in pkgs) if (p ~ /^vizq\/internal\// && !(p in used)) print p }' | sort)"
if [[ -n "$orphans" ]]; then
    echo "orphan check FAILED: imported by nothing outside their own tests:" >&2
    echo "$orphans" >&2
    exit 1
fi
