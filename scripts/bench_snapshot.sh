#!/usr/bin/env bash
# Oracle perf snapshot: runs the `bench_oracle` harness, which measures
# exploration throughput and appends an entry (states/sec, wall time per
# corpus case) to BENCH_oracle.json.
#
# Usage: scripts/bench_snapshot.sh [--smoke] [--label NAME] [--out PATH]
#                                  [--filter SUBSTR] [--iters N]
#
#   --smoke   one exploration per case — CI keep-alive mode
#   --label   history label for the JSON entry (default: current)
#   --out     JSON path (default: BENCH_oracle.json at the repo root)
#   --filter  only run cases whose name contains SUBSTR
#   --iters   cap measured iterations per case (passed to bench_oracle)
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=()
LABEL="current"
OUT="BENCH_oracle.json"
EXTRA=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=(--smoke); shift ;;
    --label) LABEL="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --filter) EXTRA+=(--filter "$2"); shift 2 ;;
    --iters) EXTRA+=(--iters "$2"); shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

cargo run --release -q -p starling-bench --bin bench_oracle -- \
  "${SMOKE[@]+"${SMOKE[@]}"}" "${EXTRA[@]+"${EXTRA[@]}"}" \
  --label "$LABEL" --out "$OUT"
