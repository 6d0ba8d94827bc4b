#!/usr/bin/env bash
# Smoke check of the end-to-end benchmark, through the package BENCHMARK.json
# builds: its unit tests, then every workload for 2 s, checking that each
# reports every end-to-end metric BENCHMARK.json lists (bounds are not
# enforced). Wiring this into scripts/ci.sh is a later change.
set -euo pipefail

cd "$(dirname "$0")/../../../../.."
manifest=crates/bench/src/bin/e2e/Cargo.toml
cargo test -q --manifest-path "$manifest"
cargo run --release -q --manifest-path "$manifest" -- --smoke
