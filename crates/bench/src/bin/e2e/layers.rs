//! The traced run: where one request's host time goes, layer by layer.
//!
//! Four phases share the run's `--seconds`: an untraced phase (the
//! baseline tracing overhead is measured against), a traced phase (spans
//! around every call into a layer), a replay pass (takes `execute` apart
//! on the tiles and devices the reference run's records name), and — on
//! the open-loop workload — a ladder of fixed rates. End-to-end metrics
//! are never taken from here.

use std::collections::BTreeMap;
use std::time::Instant;

use hetsim::DeviceKind;
use shmt::exec::{compute_tasks, ComputeTask};
use shmt::partition::partition_vop;
use shmt::sampling::sample_partition;
use shmt::sched::{self, PlanContext, GPU};
use shmt::{GuardConfig, Policy, ShmtRuntime};
use shmt_tensor::quant::{dequantize_tensor, quantize_tensor};

use crate::calib::Yardstick;
use crate::harness::{run_timed, Detail, Load, Phase, Verdict, WARMUP_REQUESTS};
use crate::report::{Metric, RunResult};
use crate::run::{check_open_loop, measure, print_measured, set_up, SetUp};
use crate::spec::{self, PER_LAYER};
use crate::stats::{self, median};
use crate::trace::{self, time_us, ExecuteParts};
use crate::workloads::{Built, Kind};

/// Share of `--seconds` each phase gets.
const UNTRACED_SHARE: f64 = 0.28;
/// See [`UNTRACED_SHARE`].
const TRACED_SHARE: f64 = 0.28;
/// See [`UNTRACED_SHARE`].
const REPLAY_SHARE: f64 = 0.22;
/// See [`UNTRACED_SHARE`]; split evenly over the ladder's rates.
const LADDER_SHARE: f64 = 0.18;

/// Kinds the replay pass samples at most (the first ones of the rotation).
const REPLAY_KINDS: usize = 12;

/// One pass over one kind's VOP: the call as served, then its parts.
#[derive(Debug, Clone, Copy, Default)]
struct Replay {
    parts: ExecuteParts,
    sample_us: f64,
    npu_ns: f64,
    npu_elems: f64,
    exact_ns: f64,
    exact_elems: f64,
    quantize_ns: f64,
    dequantize_ns: f64,
    /// Guarded minus unguarded execute; 0 when the kind runs unguarded.
    guard_us: f64,
    traced_us: f64,
    events: usize,
    /// The benchmark's own check of one response.
    verify_us: f64,
}

fn replay(kind: &Kind) -> Replay {
    let r = &kind.replay;
    let config = *r.runtime.config();
    let platform = r.runtime.platform();
    let kernel = r.vop.kernel();
    let inputs: Vec<&shmt::Tensor> = r.vop.inputs().iter().collect();
    let mut out = Replay::default();

    let (report, execute_us) = time_us(|| r.runtime.execute_with_faults(&r.vop, &r.faults));
    let report = report.expect("replayed execute");
    out.parts.execute_us = execute_us;
    // A DAG kind's expectation is of the whole program, not of this root
    // stage; the digest costs the same either way.
    let (verdict, verify_us) = time_us(|| kind.expect.verdict(&report));
    std::hint::black_box(verdict);
    out.verify_us = verify_us;
    shmt::arena::recycle_report(report);

    let (hlops, partition_us) = time_us(|| partition_vop(&r.vop, config.partitions));
    let hlops = hlops.expect("replayed partition");
    out.parts.partition_us = partition_us;

    let ctx = PlanContext {
        gpu_throughput: platform.device_profiles()[GPU].throughput,
        tpu_admission: config.adapt.tpu_admission,
        tpu_residency: config.tpu_residency_hint,
    };
    let (plan, plan_us) =
        time_us(|| sched::plan(config.policy, &r.vop, &hlops, &config.quality, ctx));
    plan.recycle();
    out.parts.plan_us = plan_us;
    if let Policy::Qaws { sampling, .. } = config.policy {
        let q = &config.quality;
        let ((), us) = time_us(|| {
            for h in &hlops {
                std::hint::black_box(sample_partition(
                    inputs[0],
                    h.tile,
                    sampling,
                    q.sampling_rate,
                    q.seed,
                ));
            }
        });
        out.sample_us = us;
    }

    // The same tiles on the same devices as the reference run.
    let tasks: Vec<ComputeTask> = r
        .records
        .iter()
        .map(|rec| ComputeTask {
            tile: hlops[rec.id].tile,
            npu: rec.device == DeviceKind::EdgeTpu,
        })
        .collect();
    let (rows, cols) = r.vop.partition_space();
    let mut output = kernel.shape().allocate_output(rows, cols);
    let ((), compute_us) =
        time_us(|| compute_tasks(kernel, &inputs, &tasks, &mut output, config.compute_threads));
    out.parts.compute_us = compute_us;

    // Tile by tile on this thread alone: what each path costs per element.
    for task in &tasks {
        let elems = task.tile.len() as f64;
        if task.npu {
            let ((), us) = time_us(|| kernel.run_npu(&inputs, task.tile, &mut output));
            out.npu_ns += us * 1e3;
            out.npu_elems += elems;
            let t = task.tile;
            let region = inputs[0].view(t.row0, t.col0, t.rows, t.cols).to_tensor();
            let (q, us) = time_us(|| quantize_tensor(&region));
            out.quantize_ns += us * 1e3;
            let (back, us) = time_us(|| dequantize_tensor(&q));
            out.dequantize_ns += us * 1e3;
            std::hint::black_box(back);
        } else {
            let ((), us) = time_us(|| kernel.run_exact(&inputs, task.tile, &mut output));
            out.exact_ns += us * 1e3;
            out.exact_elems += elems;
        }
    }
    std::hint::black_box(&output);

    if config.guard.enabled {
        let mut plain = config;
        plain.guard = GuardConfig::default();
        let unguarded = ShmtRuntime::new(platform.clone(), plain);
        let (report, us) = time_us(|| unguarded.execute_with_faults(&r.vop, &r.faults));
        shmt::arena::recycle_report(report.expect("unguarded execute"));
        out.guard_us = execute_us - us;
    }

    let (report, traced_us) = time_us(|| r.runtime.execute_with_faults_traced(&r.vop, &r.faults));
    let report = report.expect("traced execute");
    out.traced_us = traced_us;
    out.events = report.trace.as_ref().map_or(0, |t| t.len());
    shmt::arena::recycle_report(report);
    out
}

/// Per-kind medians of the replays, then their mean over the sampled
/// kinds — every sampled kind weighs the same, as in the rotation.
fn over_kinds(replays: &BTreeMap<usize, Vec<Replay>>, f: impl Fn(&Replay) -> f64) -> f64 {
    let per_kind: Vec<f64> = replays
        .values()
        .map(|v| median(&v.iter().map(&f).collect::<Vec<_>>()))
        .collect();
    stats::mean(&per_kind)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::percentile(&stats::sorted(values), pct).0
    }
}

/// One rung of the ladder: p95 in milliseconds and whether the rate held.
fn ladder_rung(built: &Built, rate: f64, seconds: f64, first: usize, seed: u64) -> (f64, bool) {
    let Load::Open { senders, .. } = built.load else {
        return (0.0, false);
    };
    let phase = run_timed(
        built.system.as_ref(),
        Load::Open { rate, senders },
        seconds,
        first,
        seed ^ rate as u64,
        false,
    );
    let lat: Vec<f64> = phase
        .samples
        .iter()
        .filter(|s| s.verdict == Verdict::Ok)
        .map(|s| s.latency_ms)
        .collect();
    let p95 = p(&lat, 95.0);
    let all_ok = lat.len() == phase.samples.len();
    let held = all_ok && p95 <= spec::LADDER_LIMIT_MS && check_open_loop(&phase).is_ok();
    println!(
        "ladder {rate:>6.0}/s: {} p95 {p95:.3} ms -> {}",
        phase.tally(),
        if held { "held" } else { "not held" }
    );
    (p95, held)
}

/// Runs `workload` with tracing on and reports the per-layer metrics.
pub fn run_traced(workload: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let spec = spec::workload(workload).ok_or(format!("unknown workload {workload}"))?;
    println!("workload {}: {}", spec.name, spec.why);
    let mut yardstick = Yardstick::new();
    let SetUp {
        built,
        warm,
        seconds: setup_s,
        ..
    } = set_up(workload, seed, &mut yardstick);
    println!("set-up: {setup_s:.4} s; phase warm-up   {}", warm.tally());
    let sys = built.system.as_ref();
    let arena_before = shmt_tensor::arena::stats();

    // Untraced, measured exactly as the end-to-end run measures.
    let base = measure(
        &built,
        spec,
        &mut yardstick,
        seconds * UNTRACED_SHARE,
        WARMUP_REQUESTS,
        seed,
    )?;
    let untraced = &base.all;
    println!("phase untraced  {}", untraced.tally());
    print_measured(&base, spec);
    let late_p95 = check_open_loop(untraced)?;

    // Traced: one stretch of the same load with a span around every call,
    // stated at nominal host speed like the untraced throughput.
    let first = WARMUP_REQUESTS + untraced.samples.len();
    let before = *base.readings.last().expect("measure takes readings");
    let traced: Phase = run_timed(
        sys,
        built.load,
        seconds * TRACED_SHARE,
        first,
        seed ^ 1,
        true,
    );
    let traced_slowdown = if spec.host_bound {
        (before + yardstick.read()) / 2.0
    } else {
        1.0
    };
    println!("phase traced    {}", traced.tally());
    check_open_loop(&traced)?;
    let traced_rps = traced.count(Verdict::Ok) as f64 / traced.seconds * traced_slowdown;
    let arena_after = shmt_tensor::arena::stats();

    // Replay: sampled kinds in rotation order, round after round, until
    // the phase's time is spent (every sampled kind at least once).
    let sampled: Vec<usize> = {
        let mut seen = Vec::new();
        for &k in &built.rotation {
            if !seen.contains(&k) && seen.len() < REPLAY_KINDS {
                seen.push(k);
            }
        }
        seen
    };
    let mut replays: BTreeMap<usize, Vec<Replay>> = BTreeMap::new();
    let replay_until = Instant::now() + std::time::Duration::from_secs_f64(seconds * REPLAY_SHARE);
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < replay_until {
        for &k in &sampled {
            replays.entry(k).or_default().push(replay(&built.kinds[k]));
        }
        rounds += 1;
    }
    println!("phase replay    {} kinds x {rounds} rounds", sampled.len());

    // DAG probe and telemetry export, a few times each.
    let probes: Vec<(f64, f64)> = (0..5).filter_map(|_| sys.dag_probe()).collect();
    let dag_self_us = median(
        &probes
            .iter()
            .map(|(run, stages)| run - stages)
            .collect::<Vec<_>>(),
    );
    let exports: Vec<f64> = (0..5)
        .filter_map(|_| {
            let (text, us) = time_us(|| sys.export_openmetrics());
            text.map(|t| {
                std::hint::black_box(t);
                us
            })
        })
        .collect();

    // Ladder (open-loop workload only).
    let mut ladder = [(0.0, false); 3];
    if matches!(built.load, Load::Open { .. }) {
        let rung_s = seconds * LADDER_SHARE / spec::LADDER_RATES.len() as f64;
        let mut next = first + traced.samples.len();
        for (slot, &rate) in ladder.iter_mut().zip(&spec::LADDER_RATES) {
            *slot = ladder_rung(&built, rate, rung_s, next, seed);
            next += (rate * rung_s * 1.3) as usize;
        }
    }
    let ladder_max = spec::LADDER_RATES
        .iter()
        .zip(&ladder)
        .filter(|(_, (_, held))| *held)
        .map(|(r, _)| *r)
        .fold(0.0, f64::max);

    // Spans: self times, conservation.
    let (selfs, overruns) = trace::self_times(&traced.spans, spec::CONSERVATION_SLACK);
    let med = |map: &BTreeMap<&'static str, Vec<f64>>, name: &str| {
        map.get(name).map_or(0.0, |v| median(v))
    };
    let unconserved = replays
        .values()
        .filter(|v| {
            let m = |f: &dyn Fn(&Replay) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
            !ExecuteParts {
                execute_us: m(&|r| r.parts.execute_us),
                partition_us: m(&|r| r.parts.partition_us),
                plan_us: m(&|r| r.parts.plan_us),
                compute_us: m(&|r| r.parts.compute_us),
            }
            .conserved(spec::CONSERVATION_SLACK)
        })
        .count();

    let details: &[Detail] = &traced.details;
    let ok_details: Vec<&Detail> = details.iter().filter(|d| d.service_us > 0.0).collect();
    let queue: Vec<f64> = ok_details.iter().map(|d| d.queue_us).collect();
    let service: Vec<f64> = ok_details.iter().map(|d| d.service_us).collect();
    let routed: Vec<&Detail> = details.iter().filter(|d| d.tries > 0).collect();
    let hedged = routed.iter().filter(|d| d.hedged).count();
    let hedge_wins = routed.iter().filter(|d| d.hedge_won).count();
    let server = sys.server_metrics();
    let counter = |name: &str| server.as_ref().map_or(0.0, |m| m.counter(name));
    let node_imbalance = sys.router_facts().map_or(0.0, |(_, dispatched)| {
        let d: Vec<f64> = dispatched.iter().map(|&n| n as f64).collect();
        ratio(d.iter().copied().fold(0.0, f64::max), stats::mean(&d))
    });

    let npu_ns = over_kinds(&replays, |r| r.npu_ns);
    let exact_ns = over_kinds(&replays, |r| r.exact_ns);
    let npu_per_elem = over_kinds(&replays, |r| ratio(r.npu_ns, r.npu_elems));
    let exact_per_elem = over_kinds(&replays, |r| ratio(r.exact_ns, r.exact_elems));
    let parts = ExecuteParts {
        execute_us: over_kinds(&replays, |r| r.parts.execute_us),
        partition_us: over_kinds(&replays, |r| r.parts.partition_us),
        plan_us: over_kinds(&replays, |r| r.parts.plan_us),
        compute_us: over_kinds(&replays, |r| r.parts.compute_us),
    };
    let hlops = built.sim_mean(|s, _| s.hlops as f64);
    let hits = (arena_after.hits - arena_before.hits) as f64;
    let misses = (arena_after.misses - arena_before.misses) as f64;
    let traced_sent = traced.samples.len();
    let shed = traced.count(Verdict::Shed);

    let value = |name: &str| -> f64 {
        match name {
            "kernels.npu_ns_per_elem" => npu_per_elem,
            "kernels.npu_over_exact" => ratio(npu_per_elem, exact_per_elem),
            "kernels.npu_share" => ratio(npu_ns, npu_ns + exact_ns),
            "kernels.exact_ns_per_elem" => exact_per_elem,
            "kernels.exact_share" => ratio(exact_ns, npu_ns + exact_ns),
            "tensor.quantize_ns_per_elem" => {
                over_kinds(&replays, |r| ratio(r.quantize_ns, r.npu_elems))
            }
            "tensor.dequantize_ns_per_elem" => {
                over_kinds(&replays, |r| ratio(r.dequantize_ns, r.npu_elems))
            }
            "tensor.arena_hit_share" => ratio(hits, hits + misses),
            "tensor.arena_cached_mb" => arena_after.cached_bytes as f64 / 1e6,
            "tensor.gen_ms" => built.gen_ms,
            "core.execute_us" => parts.execute_us,
            "core.partition_us" => parts.partition_us,
            "core.plan_us" => parts.plan_us,
            "core.sample_us" => over_kinds(&replays, |r| r.sample_us),
            "core.compute_us" => parts.compute_us,
            "core.execute_self_us" => parts.self_us(),
            "core.hlops_per_req" => hlops,
            "core.steals_per_req" => built.sim_mean(|s, _| s.steals as f64),
            "core.tpu_fraction" => built.sim_mean(|s, _| s.tpu_fraction),
            "core.mape_pct" => built.sim_metrics().3,
            "core.guard_us" => over_kinds(&replays, |r| r.guard_us),
            "core.guard_verified_per_req" => built.sim_mean(|s, _| s.guard_checked as f64),
            "core.guard_repaired_per_req" => built.sim_mean(|s, _| s.guard_repaired as f64),
            "core.dag_self_us" => dag_self_us,
            "core.dag_fused_per_req" => built.sim_mean(|s, _| s.dag_fused as f64),
            "core.dag_resident_edge_share" => ratio(
                built.sim_mean(|s, _| s.dag_resident_edges as f64),
                built.sim_mean(|s, _| s.dag_edges as f64),
            ),
            "sim.gpu_busy_share" => built.sim_mean(|s, e| s.busy_s[0] / e.makespan_s),
            "sim.cpu_busy_share" => built.sim_mean(|s, e| s.busy_s[1] / e.makespan_s),
            "sim.tpu_busy_share" => built.sim_mean(|s, e| s.busy_s[2] / e.makespan_s),
            "sim.wait_share" => built.sim_mean(|s, _| ratio(s.wait_s, s.busy_s.iter().sum())),
            "sim.sched_overhead_share" => built.sim_mean(|s, e| s.sched_overhead_s / e.makespan_s),
            "sim.bus_mb_per_req" => built.sim_mean(|s, _| s.bus_bytes as f64 / 1e6),
            "sim.peak_memory_mb" => built.sim_mean(|s, _| s.peak_memory_bytes as f64 / 1e6),
            "sim.host_us_per_hlop" => ratio(parts.execute_us, hlops),
            "serve.queue_wait_us_p50" => p(&queue, 50.0),
            "serve.queue_wait_us_p95" => p(&queue, 95.0),
            "serve.service_us_p50" => p(&service, 50.0),
            "serve.handoff_us" => med(&selfs, "serve.submit_wait"),
            "serve.queue_depth_max" => server
                .as_ref()
                .and_then(|m| m.gauge_peak("serve.queue_depth"))
                .unwrap_or(0.0),
            "serve.rejected_busy" => counter("serve.rejected_busy"),
            "serve.deadline_missed" => counter("serve.deadline_missed"),
            "serve.degraded" => counter("serve.degraded"),
            "cluster.route_self_us" => med(&selfs, "cluster.route"),
            "cluster.tries_per_req" => {
                stats::mean(&routed.iter().map(|d| d.tries as f64).collect::<Vec<_>>())
            }
            "cluster.hedged_share" => ratio(hedged as f64, routed.len() as f64),
            "cluster.hedge_win_share" => ratio(hedge_wins as f64, hedged as f64),
            "cluster.shed_share" => ratio(shed as f64, traced_sent as f64),
            "cluster.node_imbalance" => node_imbalance,
            "cluster.ladder_p95_ms_r500" => ladder[0].0,
            "cluster.ladder_p95_ms_r1000" => ladder[1].0,
            "cluster.ladder_p95_ms_r2000" => ladder[2].0,
            "cluster.ladder_max_rate_ok" => ladder_max,
            "loadgen.late_ms_p95" => late_p95,
            "loadgen.build_us" => median(&details.iter().map(|d| d.build_us).collect::<Vec<_>>()),
            "trace.sink_overhead_share" => {
                over_kinds(&replays, |r| r.traced_us / r.parts.execute_us - 1.0)
            }
            "trace.events_per_req" => over_kinds(&replays, |r| r.events as f64),
            "trace.export_us" => median(&exports),
            "bench.tracing_overhead_share" => {
                1.0 - ratio(traced_rps, base.normalised.throughput_rps)
            }
            "bench.throughput_rps_all" => base.raw.throughput_rps,
            "bench.latency_ms_p95_all" => base.raw.latency_ms_p95,
            "bench.latency_ms_p50" => base.normalised.latency_ms_p50,
            "bench.latency_ms_p95" => base.normalised.latency_ms_p95,
            "bench.cpu_ms_per_req" => base.normalised.cpu_ms_per_req,
            "bench.host_slowdown" => base.host_slowdown(),
            "bench.segment_cv" => stats::cv(&base.segment_rps()),
            "bench.verify_us" => over_kinds(&replays, |r| r.verify_us),
            "bench.span_overruns" => overruns as f64,
            "bench.replay_unconserved" => unconserved as f64,
            "bench.requests_traced" => traced_sent as f64,
            other => unreachable!("per-layer metric {other} has no definition"),
        }
    };
    // A metric of a layer the workload does not go through has no value.
    let guarded = built
        .kinds
        .iter()
        .any(|k| k.replay.runtime.config().guard.enabled);
    let samples_tiles = built
        .kinds
        .iter()
        .any(|k| matches!(k.replay.runtime.config().policy, Policy::Qaws { .. }));
    let (has_server, has_router) = (server.is_some(), sys.router_facts().is_some());
    let applies = |name: &str| -> bool {
        match name {
            "core.sample_us" => samples_tiles,
            "loadgen.late_ms_p95" => has_router,
            "loadgen.build_us" | "trace.export_us" => has_server,
            _ => match name.split_once('_').map_or(name, |(head, _)| head) {
                "core.guard" => guarded,
                "core.dag" => !probes.is_empty(),
                _ => match name.split('.').next() {
                    Some("serve") => has_server,
                    Some("cluster") => has_router,
                    _ => true,
                },
            },
        }
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|spec| Metric {
            name: spec.name,
            unit: spec.unit,
            better: spec.better,
            value: applies(spec.name).then(|| value(spec.name)),
            samples: match spec.name.split('.').next() {
                Some("kernels" | "tensor" | "trace") => rounds * sampled.len(),
                Some("sim") => built.rotation.len(),
                Some("bench") => untraced.samples.len(),
                _ => traced_sent,
            },
        })
        .collect();

    let trace_path = write_chrome_trace(workload, &traced)?;
    println!(
        "spans: {} written to {trace_path}; children exceeding their parent: {overruns}; \
         kinds whose replayed parts do not fit their execute: {unconserved}",
        traced.spans.len()
    );
    // A child longer than its parent is impossible on one clock and fails
    // the run. Replayed parts that do not fit their execute are a timing
    // artefact of the replay (microsecond-scale requests sit within the
    // slack of timer noise), so they are counted and reported, not failed.
    if unconserved > 0 {
        println!(
            "WARNING: {unconserved} sampled kind(s) break partition + plan + compute <= execute by more than {:.0} %",
            spec::CONSERVATION_SLACK * 100.0
        );
    }
    println!(
        "execute as replayed: {:.1} us = partition {:.1} + plan {:.1} + compute {:.1} + self {:.1}",
        parts.execute_us,
        parts.partition_us,
        parts.plan_us,
        parts.compute_us,
        parts.self_us()
    );

    let attempted = untraced.samples.len() + traced_sent;
    let ok = untraced.count(Verdict::Ok) + traced.count(Verdict::Ok);
    Ok(RunResult {
        workload: workload.to_owned(),
        seed,
        correct: warm.count(Verdict::Ok) == warm.samples.len() && ok == attempted && overruns == 0,
        attempted,
        failed: attempted - ok,
        metrics,
    })
}

/// Writes the traced phase's spans where build outputs go, re-reads the
/// file with the repo's own Chrome-trace parser, and returns the path.
fn write_chrome_trace(workload: &str, traced: &Phase) -> Result<String, String> {
    let dir = format!("{}/e2e", crate::target_dir());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
    let path = format!("{dir}/trace-{workload}.json");
    std::fs::write(&path, trace::to_chrome_json(&traced.spans, workload))
        .map_err(|e| format!("write {path}: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let parsed = shmt_trace::chrome::from_chrome_json(&text)
        .map_err(|e| format!("{path} does not parse as a Chrome trace: {e:?}"))?;
    let complete = parsed.complete_events().count();
    if complete != traced.spans.len() {
        return Err(format!(
            "{path}: {complete} complete events read back, {} spans written",
            traced.spans.len()
        ));
    }
    Ok(path)
}
