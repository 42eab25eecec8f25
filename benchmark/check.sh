#!/usr/bin/env bash
# Build the benchmark, run its unit tests, and smoke-run all five workloads
# (every phase and every correctness check, seconds-scale, no files written
# outside the target directory).  Run from anywhere; CI calls this one line.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest" -q
cargo run --release --offline --quiet --manifest-path "$manifest" -- \
    run --workload all --seed 1 --smoke > /dev/null
cargo run --release --offline --quiet --manifest-path "$manifest" -- \
    run --workload all --seed 1 --smoke --trace 1 > /dev/null
echo "benchmark/check.sh: ok"
