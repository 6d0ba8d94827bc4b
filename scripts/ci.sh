#!/usr/bin/env bash
# Offline CI for the SHMT reproduction: build, tests, lints, docs, a
# trace smoke check and the end-to-end benchmark's own check. Invariants
# live in the test suites; numbers come from the e2e benchmark. No
# network access required — the workspace has no registry dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace --all-targets

echo "== tests =="
cargo test -q --workspace

echo "== serve tests, 5 more default-threaded runs =="
# The serve tests hold their executor on a gate kernel instead of racing
# the wall clock; repeated runs under the default test threads keep them
# deterministic.
for _ in 1 2 3 4 5; do
    cargo test --release -q -p shmt-serve --test serve
done

echo "== executor tests with 8 pool workers =="
# Pool workers write finished tiles straight into the shared output; the
# writer's disjoint-tiles contract and the per-claimant stashes matter most
# with more concurrent claimants than a small host's default pool has.
SHMT_THREADS=8 cargo test --release -q -p shmt --lib exec
SHMT_THREADS=8 cargo test --release -q -p shmt-serve --test alloc_free

echo "== exhaustive rounding sweep (release, ~30 s) =="
# The int8 path's libcall-free round-and-clamp against f32::round and the
# trip through i8, for all 2^32 bit patterns.
cargo test --release -q -p shmt-tensor --lib -- --ignored

echo "== exact tiles as row bands at 2048^2 (release) =="
# The executor runs abutting exact tiles as one row band, which relies on
# an exact tile's bits not depending on its bounds; the debug suite pins
# that at small sizes, this step for the benchmark's 2048^2 stencils.
cargo test --release -q -p shmt --lib exec -- --ignored

if cargo clippy --version >/dev/null 2>&1; then
    echo "== clippy (warnings are errors) =="
    cargo clippy -q --workspace --all-targets -- -D warnings
    # Hot-path crates additionally deny redundant_clone (a nursery lint,
    # so it needs the explicit -D): a stray clone on the serve or kernel
    # path is an allocation the arena work exists to eliminate.
    echo "== clippy hot-path (redundant_clone is an error) =="
    cargo clippy -q -p shmt-tensor -p shmt-kernels -p shmt -p shmt-serve \
        -p shmt-cluster --all-targets -- -D warnings -D clippy::redundant_clone
else
    echo "== clippy skipped (unavailable) =="
fi

echo "== SIMD asm check =="
# Proves the hot loops actually autovectorize: builds shmt-kernels and
# shmt-tensor with --emit asm and requires packed float ops
# (mulps/addps/sqrtps) in the kernels, packed divide / min / max / compare
# / convert in the quant and range loops, and no roundf call in either.
# Skips itself on non-x86_64 hosts.
scripts/check_simd.sh

echo "== docs (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== doc citations =="
# Every Type::item and repo path the prose docs cite must exist.
scripts/check_docs.sh

if cargo fmt --version >/dev/null 2>&1; then
    echo "== fmt check (hard gate) =="
    cargo fmt --all --check
else
    echo "== fmt check skipped (rustfmt unavailable) =="
fi

echo "== trace smoke check =="
# A traced run must produce Chrome JSON that the crate's own reader
# accepts; trace_run validates every file it writes before reporting it.
cargo run --release -q -p shmt-bench --bin trace_run -- --size 256 --partitions 8 >/dev/null
for f in results/trace_*.json; do
    [ -s "$f" ] || { echo "empty trace file: $f"; exit 1; }
done
echo "trace files written and validated: $(ls results/trace_*.json | wc -l)"

echo "== end-to-end benchmark smoke check =="
# The BENCHMARK.json benchmark through the package the driver builds: its
# unit tests, then every workload for 2 s, each checked for the full set
# of end-to-end metrics.
crates/bench/src/bin/e2e/check.sh

echo "CI OK"
