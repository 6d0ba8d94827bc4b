#!/usr/bin/env bash
# Offline CI for the SHMT reproduction: build, test, docs, and a trace
# smoke check. No network access required — the workspace has no registry
# dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace --all-targets

echo "== tests =="
cargo test -q --workspace

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

echo "== fault sweep smoke check =="
# fault_sweep re-reads every document with the crate's own JSON parser and
# asserts `degraded` is set iff a dropout scenario was injected; the bin
# aborts if either check fails.
cargo run --release -q -p shmt-bench --bin fault_sweep -- --size 256 --partitions 8 >/dev/null
for f in results/faults_*.json; do
    [ -s "$f" ] || { echo "empty fault sweep file: $f"; exit 1; }
    grep -q '"degraded":true' "$f" || { echo "no degraded scenario in $f"; exit 1; }
    grep -q '"name":"none"' "$f" || { echo "missing fault-free scenario in $f"; exit 1; }
done
echo "fault sweep files written and validated: $(ls results/faults_*.json | wc -l)"

echo "== perf report smoke check =="
# perf_report must produce a JSON artifact that the workspace's own parser
# accepts and that covers every benchmark's exact and NPU paths; the bin
# re-reads and validates the file itself and aborts on any gap. Committed
# full-size reports (BENCH_kernels.json) should be recorded with
# RUSTFLAGS="-C target-cpu=native" on an otherwise idle host so the
# autovectorized hot loops run at the ISA the machine actually has; the
# smoke gate here deliberately uses the portable default.
cargo run --release -q -p shmt-bench --bin perf_report -- --smoke >/dev/null
f=results/BENCH_kernels_smoke.json
[ -s "$f" ] || { echo "empty perf report: $f"; exit 1; }
grep -q '"best_ns":' "$f" || { echo "no measurements in $f"; exit 1; }
grep -q '"kernel/SRAD/npu/128"' "$f" || { echo "benchmark coverage gap in $f"; exit 1; }
# The NPU rows must be real distinct computations, not re-labelled exact
# timings: every benchmark records an output-difference flag.
grep -q '"kernel/Histogram/npu_differs":true' "$f" || { echo "Histogram npu path identical to exact in $f"; exit 1; }
if grep -q '"npu_differs":false' "$f"; then
    echo "an npu path produced output identical to exact in $f"; exit 1
fi
# Serve-path throughput gate: warm server, mixed requests, must clear
# the floor recorded in the artifact.
grep -q '"requests_per_s":' "$f" || { echo "serve RPS section missing in $f"; exit 1; }
grep -q '"rps_above_floor":true' "$f" || { echo "serve path below its RPS floor in $f"; exit 1; }
echo "perf report smoke validated: $f"

echo "== serve bench smoke check =="
# serve_bench sweeps 1/2/4/8 closed-loop clients over a mixed workload,
# asserts every served output is bit-identical to sequential execution,
# and aborts unless 4 concurrent clients beat sequential throughput; the
# artifact is re-read with the workspace's own JSON parser before the
# bin reports success.
cargo run --release -q -p shmt-bench --bin serve_bench -- --smoke >/dev/null
f=results/BENCH_serve_smoke.json
[ -s "$f" ] || { echo "empty serve report: $f"; exit 1; }
grep -q '"vops_per_s":' "$f" || { echo "no throughput measurements in $f"; exit 1; }
grep -q '"bit_identical":true' "$f" || { echo "bit-identity flag missing in $f"; exit 1; }
grep -q '"scaling_4_vs_1":' "$f" || { echo "scaling summary missing in $f"; exit 1; }
echo "serve bench smoke validated: $f"

echo "== chaos sweep smoke check =="
# chaos_sweep runs seeded fault scenarios with the quality guard off and
# on, asserts a disabled guard is bit-identical to no guard at all, that
# guarded runs never exceed their MAPE budget, and that miscalibration
# scenarios do exceed it unguarded; the bin re-reads the artifact with
# the workspace's own JSON parser and aborts on any violation.
cargo run --release -q -p shmt-bench --bin chaos_sweep -- --smoke >/dev/null
f=results/BENCH_quality_smoke.json
[ -s "$f" ] || { echo "empty chaos sweep report: $f"; exit 1; }
grep -q '"guard_off_bit_identical":true' "$f" || { echo "guard-off bit-identity flag missing in $f"; exit 1; }
grep -q '"within_budget":true' "$f" || { echo "no within-budget guarded scenario in $f"; exit 1; }
if grep -q '"within_budget":false' "$f"; then
    echo "guarded scenario exceeded its quality budget in $f"; exit 1
fi
grep -q '"flight_dumps":' "$f" || { echo "flight-dump count missing in $f"; exit 1; }
ls results/flight_chaos_*.json >/dev/null 2>&1 || { echo "no flight dumps from failing chaos scenarios"; exit 1; }
echo "chaos sweep smoke validated: $f ($(ls results/flight_chaos_*.json | wc -l) flight dumps)"

echo "== telemetry smoke check =="
# obs_report proves the telemetry layer pays for itself: serving with the
# observatory and flight ring on must stay within 5% of the NullSink
# path, the OpenMetrics exposition must round-trip byte-identically
# through the workspace's own parser, injected faults must leave flight
# dumps behind, and the per-device EWMA profile must track an injected
# 4x GPU slowdown. The bin aborts on any violation and re-validates its
# own artifact.
cargo run --release -q -p shmt-bench --bin obs_report -- --smoke >/dev/null
f=results/BENCH_obs_smoke.json
[ -s "$f" ] || { echo "empty obs report: $f"; exit 1; }
grep -q '"within_budget":true' "$f" || { echo "telemetry overhead budget flag missing in $f"; exit 1; }
grep -q '"round_trip":true' "$f" || { echo "exporter round-trip flag missing in $f"; exit 1; }
grep -q '"flight_dumps":' "$f" || { echo "flight-dump count missing in $f"; exit 1; }
grep -q '"slowdown_ratio":' "$f" || { echo "profile convergence missing in $f"; exit 1; }
ls results/flight_obs_*.json >/dev/null 2>&1 || { echo "no flight dumps from injected faults"; exit 1; }
echo "telemetry smoke validated: $f"

echo "== dag composition smoke check =="
# dag_report runs three pipelines through the VopDag layer and certifies
# its contract: a linear DAG reproduces the same VOPs chained by hand
# through the runtime exactly, the resident composition strictly beats
# naive host round-tripping on every pipeline, the unfused DAG is
# bit-identical to that sequential execution, the unary tail fuses, and
# identical element-wise stages leave interior edges fully resident (zero
# staged elements). The bin aborts on any violation and re-validates its
# own artifact with the workspace's JSON parser.
cargo run --release -q -p shmt-bench --bin dag_report -- --smoke >/dev/null
f=results/BENCH_dag_smoke.json
[ -s "$f" ] || { echo "empty dag report: $f"; exit 1; }
grep -q '"linear_matches_sequential":true' "$f" || { echo "linear DAG diverged from hand-chained execution in $f"; exit 1; }
grep -q '"zero_staged_interior":true' "$f" || { echo "all-resident chain staged elements in $f"; exit 1; }
grep -q '"fusion_computes_chain":true' "$f" || { echo "fused kernel computed the wrong chain in $f"; exit 1; }
if grep -q '"resident_beats_naive":false' "$f"; then
    echo "a resident composition lost to naive round-tripping in $f"; exit 1
fi
if grep -q '"bit_identical":false' "$f"; then
    echo "a DAG pipeline diverged from its sequential reference in $f"; exit 1
fi
echo "dag composition smoke validated: $f"

echo "== cluster robustness smoke check =="
# cluster_report drives an N-node fleet through seeded chaos (mid-run
# crash, slow node with a hedging A/B, 2x overload, a flapping node, a
# correlated dual failure) under open-loop Poisson/bursty/diurnal load
# and certifies the routing contract: every request resolves (no hangs),
# a single-node crash loses nothing, hedging cuts p99 under a slow node,
# the Interactive p95 SLO holds under 2x overload with BestEffort shed
# first, and a flapping node is quarantined, probed, and reintegrated.
# The bin re-reads the artifact with the workspace's own JSON parser and
# aborts on any violation.
cargo run --release -q -p shmt-bench --bin cluster_report -- --smoke >/dev/null
f=results/BENCH_cluster_smoke.json
[ -s "$f" ] || { echo "empty cluster report: $f"; exit 1; }
grep -q '"no_hangs":true' "$f" || { echo "a routed request hung in $f"; exit 1; }
grep -q '"zero_lost_everywhere":true' "$f" || { echo "requests were lost in $f"; exit 1; }
grep -q '"crash_zero_lost":true' "$f" || { echo "a node crash lost requests in $f"; exit 1; }
grep -q '"hedging_improves_p99":true' "$f" || { echo "hedging failed to cut p99 in $f"; exit 1; }
grep -q '"interactive_slo_held":true' "$f" || { echo "Interactive p95 SLO broke under overload in $f"; exit 1; }
grep -q '"besteffort_shed_first":true' "$f" || { echo "shed ordering violated in $f"; exit 1; }
grep -q '"flapping_reintegrated":true' "$f" || { echo "flapping node never reintegrated in $f"; exit 1; }
grep -q '"dual_failure_served":true' "$f" || { echo "correlated dual failure dropped requests in $f"; exit 1; }
echo "cluster robustness smoke validated: $f"

echo "== end-to-end benchmark smoke check =="
# The BENCHMARK.json benchmark through the package the driver builds: its
# unit tests, then every workload for 2 s, each checked for the full set
# of end-to-end metrics.
crates/bench/src/bin/e2e/check.sh

echo "CI OK"
