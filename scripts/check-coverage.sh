#!/usr/bin/env bash
# Coverage floors for the packages the simulation's correctness hangs
# on: the staged compile-memory model (engine/mem), the deterministic
# event core (vtime), the cluster router with its health/breaker
# control loop, the replication/claims machinery (scenario), and the
# run path every experiment goes through (harness).
# Floors sit a few points below the measured coverage at the time they
# were set (engine 83.3, mem 93.2, scenario 86.9, vtime 95.0, fault
# 100.0, cluster 94.5 — the last measured after the breaker and health
# planes landed — harness 91.9, measured once single-server runs went
# through the cluster path), so they trip on real regressions, not on
# refactoring noise.
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A floors=(
  ["./internal/cluster"]=90
  ["./internal/engine"]=79
  ["./internal/fault"]=85
  ["./internal/harness"]=88
  ["./internal/mem"]=82
  ["./internal/scenario"]=80
  ["./internal/vtime"]=90
)

fail=0
for pkg in "${!floors[@]}"; do
  out=$(go test -cover "$pkg" | tail -n 1)
  # `|| true`: a missing coverage line must reach the diagnostic below,
  # not silently kill the script through set -e.
  pct=$(echo "$out" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*' || true)
  if [ -z "$pct" ]; then
    echo "coverage: could not parse output for $pkg: $out" >&2
    fail=1
    continue
  fi
  floor=${floors[$pkg]}
  if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
    echo "coverage: $pkg at ${pct}% — below the ${floor}% floor" >&2
    fail=1
  else
    echo "coverage: $pkg at ${pct}% (floor ${floor}%)"
  fi
done
exit $fail
