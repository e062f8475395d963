#!/usr/bin/env bash
# Build the gridvo daemon and the benchmark from source, then run the
# benchmark from the repository root.
#
#   bash gvbench/run.sh --workload form-hot --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin gridvo >&2
cargo build --release --offline --quiet --manifest-path gvbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/gvbench" --gridvo "$CARGO_TARGET_DIR/release/gridvo" "$@"
