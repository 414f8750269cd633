#!/usr/bin/env bash
# Builds the benchmark offline and runs it; see perf/README.md.
#
#   perf/run.sh                      every workload, end-to-end runs
#   perf/run.sh --traced             every workload, traced runs (per-layer metrics)
#   perf/run.sh --quick              smoke test: both kinds, 2 iterations each
#   perf/run.sh --selfcheck          both kinds twice, held against the bounds
#   perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                    one workload; the last line is the JSON result
#
# Run from the repository root (BENCHMARK.json's command does).
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr so stdout ends with the result line.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2

SGP_PERF_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
SGP_PERF_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SGP_PERF_RUSTC SGP_PERF_GIT_REV

exec "$target/release/sgp-perf" "$@"
