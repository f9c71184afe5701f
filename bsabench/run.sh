#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from source, then runs the benchmark
# with the given arguments.  Run from the repository root, e.g.
#
#   bash bsabench/run.sh --workload cold-large --seed 1 --seconds 20 --trace 0
#
# Cargo's own output goes to stderr; stdout carries only the benchmark's report,
# whose last line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/bsabench" "$@"
