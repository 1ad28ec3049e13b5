#!/usr/bin/env bash
# Builds the server and the benchmark from this checkout, then runs one
# measurement:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). Build
# messages go to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p epfis-cli --bin epfis >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/epfis" "$@"
