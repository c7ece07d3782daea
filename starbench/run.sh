#!/usr/bin/env bash
# Builds the release `starling` server and the `starbench` binary from this
# checkout, then runs `starbench` with the given arguments:
#
#   bash starbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p starling-cli >&2
cargo build --release --offline --quiet --manifest-path starbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/starbench" --server-bin "$CARGO_TARGET_DIR/release/starling" "$@"
