#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it. See README.md.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
#   benchmark/run.sh [--seed N] [--smoke] [--repeat K] [--record]     the whole suite
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dsp-benchmark" "$@"
