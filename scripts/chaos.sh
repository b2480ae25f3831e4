#!/usr/bin/env bash
# Kill -9 chaos campaign for the real-socket multi-process runtime.
#
# Builds the one graphfly binary, then drives the seeded process-level chaos
# test: each run spawns a coordinator plus 3 worker processes (graphfly
# -cluster 3 -waldir D starts them as 'graphfly worker' from its own
# executable, one WAL directory each under D), SIGKILLs random workers at
# random batch boundaries mid-stream, lets the supervisor respawn them (WAL
# recovery + rejoin), and asserts the converged output file is
# byte-identical to a single-machine oracle run.
#
# Usage: scripts/chaos.sh [runs]     (default 20 seeded runs)
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-20}"

echo "== chaos: ${runs} seeded kill -9 runs (3 workers, per-worker WAL) =="
GRAPHFLY_CHAOS_RUNS="$runs" go test -count=1 -timeout 1800s \
    -run 'TestProcChaos' -v ./internal/dist

echo "OK: ${runs}/${runs} chaos runs converged bit-exactly with the oracle"
