#!/usr/bin/env bash
# Builds the daemon, the router and the benchmark from this checkout's
# sources, then runs one benchmark invocation; arguments pass through
# (`--workload NAME --seed N --seconds S --trace 0|1`).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --offline -p msmr-cluster -p msmr-router --bins >&2
cargo build --quiet --release --offline --manifest-path admbench/Cargo.toml >&2
# admbench starts msmr-served and msmr-router from its own directory.
exec "$CARGO_TARGET_DIR/release/admbench" --trace-dir "$CARGO_TARGET_DIR/admbench-traces" "$@"
