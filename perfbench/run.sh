#!/usr/bin/env bash
# Builds the benchmark package in release mode against the repository's
# crates, then runs the harness with the given arguments:
#   bash perfbench/run.sh --workload campaign_cold --seed 1 --seconds 50 --trace 0
# Run it from the root of a checkout; build output goes to stderr and
# the last line of stdout is the JSON result.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" --bins >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/perfbench" "$@"
