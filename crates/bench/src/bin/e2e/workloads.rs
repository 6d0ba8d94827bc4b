//! The four workloads: what each builds during set-up (seeded inputs,
//! exact references, sequential digests, the system under test) and how
//! it issues and verifies one request. Everything goes through public
//! functions of the stack.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use hetsim::DeviceKind;
use shmt::baseline::{exact_reference, gpu_baseline};
use shmt::hlop::HlopRecord;
use shmt::quality::mape;
use shmt::sampling::SamplingMethod;
use shmt::{
    DagConfig, DagNode, FaultPlan, GuardConfig, Platform, Policy, QawsAssignment, RunReport,
    RuntimeConfig, ShmtRuntime, Tensor, Vop, VopDag,
};
use shmt_cluster::{ClusterConfig, ClusterError, ClusterRouter, NodeConfig, RouteOptions};
use shmt_kernels::primitives::UnaryOp;
use shmt_kernels::Benchmark;
use shmt_serve::{HealthConfig, Priority, Request, Response, Server, ServerConfig};
use shmt_trace::MetricsRegistry;

use crate::harness::{digest, now_ns, Detail, Expect, Issued, Load, System, Verdict};
use crate::spec;
use crate::trace::{time_us, SpanLog, StageClock};

/// What the simulator said about one kind of request, kept from the
/// sequential reference run. Deterministic for a seed.
#[derive(Debug, Clone, Default)]
pub struct SimFacts {
    /// Virtual busy seconds per device (GPU, CPU, Edge TPU).
    pub busy_s: [f64; 3],
    /// Virtual seconds devices waited for transfers.
    pub wait_s: f64,
    /// Serial scheduler overhead, virtual seconds.
    pub sched_overhead_s: f64,
    /// Bytes over the interconnect.
    pub bus_bytes: u64,
    /// Modelled peak footprint, bytes.
    pub peak_memory_bytes: u64,
    /// HLOPs executed.
    pub hlops: usize,
    /// HLOPs that changed queues by stealing.
    pub steals: usize,
    /// Fraction of elements computed on the Edge TPU.
    pub tpu_fraction: f64,
    /// Approximate HLOPs the guard verified / repaired.
    pub guard_checked: usize,
    /// See `guard_checked`.
    pub guard_repaired: usize,
    /// DAG programs: nodes fused away, edges, edges kept device-resident.
    pub dag_fused: usize,
    /// See `dag_fused`.
    pub dag_edges: usize,
    /// See `dag_fused`.
    pub dag_resident_edges: usize,
}

impl SimFacts {
    fn of(report: &RunReport) -> Self {
        let mut busy_s = [0.0; 3];
        for d in &report.devices {
            let slot = match d.kind {
                DeviceKind::Gpu => 0,
                DeviceKind::Cpu => 1,
                DeviceKind::EdgeTpu => 2,
            };
            busy_s[slot] += d.busy_s;
        }
        SimFacts {
            busy_s,
            wait_s: report.devices.iter().map(|d| d.wait_s).sum(),
            sched_overhead_s: report.scheduling_overhead_s,
            bus_bytes: report.bus_bytes,
            peak_memory_bytes: report.peak_memory_bytes,
            hlops: report.devices.iter().map(|d| d.hlops).sum(),
            steals: report.steals,
            tpu_fraction: report.tpu_fraction,
            guard_checked: report.quality.checked_hlops,
            guard_repaired: report.quality.repairs.len(),
            ..SimFacts::default()
        }
    }
}

/// A single VOP the replay pass can rebuild and take apart: the request
/// itself for single-VOP kinds, the root stage for DAG programs.
pub struct Replayable {
    /// The VOP, built from the kind's own inputs.
    pub vop: Vop,
    /// The runtime it is served by (guard and threads as served).
    pub runtime: ShmtRuntime,
    /// The fault plan it is served under.
    pub faults: FaultPlan,
    /// Where each HLOP ran in the sequential reference.
    pub records: Vec<HlopRecord>,
}

/// One kind of request in a workload's rotation.
pub struct Kind {
    /// Short label for the per-kind table.
    pub label: String,
    /// The kernel of the VOP in `replay` (a DAG program's root stage).
    pub benchmark: Benchmark,
    /// Whether requests of this kind are DAG programs.
    pub dag: bool,
    /// What every answer of this kind must equal.
    pub expect: Expect,
    /// Simulator facts of the reference run.
    pub sim: SimFacts,
    /// The VOP the replay pass works on.
    pub replay: Replayable,
}

/// What set-up hands to the run: the system, how to load it, and the
/// reference data the metrics are computed against.
pub struct Built {
    /// The system under test.
    pub system: Box<dyn System + Send>,
    /// Closed or open loop.
    pub load: Load,
    /// The kinds, indexed as `rotation` names them; shared with `system`.
    pub kinds: Arc<Vec<Kind>>,
    /// Kind index per slot of the fixed rotation requests cycle through.
    pub rotation: Vec<usize>,
    /// Milliseconds spent generating inputs.
    pub gen_ms: f64,
}

impl Built {
    /// Per-request means of the simulated metrics over the rotation:
    /// `(speedup geomean, makespan ms, energy mJ, MAPE %)`.
    pub fn sim_metrics(&self) -> (f64, f64, f64, f64) {
        let speedups: Vec<f64> = self
            .rotation
            .iter()
            .map(|&k| &self.kinds[k].expect)
            .map(|e| e.baseline_s / e.makespan_s)
            .collect();
        (
            crate::stats::geomean(&speedups),
            self.sim_mean(|_, e| e.makespan_s * 1e3),
            self.sim_mean(|_, e| e.energy_j * 1e3),
            self.sim_mean(|_, e| e.mape * 1e2),
        )
    }

    /// One line per benchmark of the rotation (its seeded variants
    /// averaged): what the simulator said about it.
    pub fn print_kinds(&self) {
        let mut groups: Vec<(&str, Vec<&Kind>)> = Vec::new();
        for kind in self.kinds.iter() {
            let name = kind.label.split('#').next().unwrap_or(&kind.label);
            match groups.iter_mut().find(|(n, _)| *n == name) {
                Some((_, members)) => members.push(kind),
                None => groups.push((name, vec![kind])),
            }
        }
        for (name, members) in groups {
            let mean = |f: &dyn Fn(&Kind) -> f64| {
                crate::stats::mean(&members.iter().map(|k| f(k)).collect::<Vec<_>>())
            };
            println!(
                "kind {name:<14} x{:<4} tpu {:.3} guard {:.1}/{:.1} sim speedup {:.4} makespan {:.4} ms energy {:.3} mJ mape {:.4} %",
                members.len(),
                mean(&|k| k.sim.tpu_fraction),
                mean(&|k| k.sim.guard_repaired as f64),
                mean(&|k| k.sim.guard_checked as f64),
                mean(&|k| k.expect.baseline_s / k.expect.makespan_s),
                mean(&|k| k.expect.makespan_s * 1e3),
                mean(&|k| k.expect.energy_j * 1e3),
                mean(&|k| k.expect.mape * 1e2),
            );
        }
    }

    /// Mean of a simulator fact over the rotation.
    pub fn sim_mean(&self, f: impl Fn(&SimFacts, &Expect) -> f64) -> f64 {
        let v: Vec<f64> = self
            .rotation
            .iter()
            .map(|&k| f(&self.kinds[k].sim, &self.kinds[k].expect))
            .collect();
        crate::stats::mean(&v)
    }
}

/// Builds the named workload from `seed`.
pub fn build(name: &str, seed: u64) -> Built {
    match name {
        "vop-stencil-2k" => build_vop(
            &[
                Benchmark::Sobel,
                Benchmark::MeanFilter,
                Benchmark::Laplacian,
                Benchmark::Hotspot,
            ],
            spec::STENCIL_EDGE,
            Policy::Qaws {
                assignment: QawsAssignment::TopK,
                sampling: SamplingMethod::Striding,
            },
            seed,
        ),
        "vop-dense-1k" => build_vop(
            &[Benchmark::Fft, Benchmark::Dct8x8, Benchmark::Blackscholes],
            spec::DENSE_EDGE,
            Policy::WorkStealing,
            seed,
        ),
        "serve-dag-guard" => build_serve(seed),
        "cluster-open-small" => build_cluster(seed),
        other => panic!("unknown workload {other}"),
    }
}

/// Inputs of kind `slot` for `seed`: distinct per slot, equal per seed.
fn input_seed(seed: u64, slot: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(slot as u64 + 1)
}

fn runtime_config(policy: Policy, partitions: usize) -> RuntimeConfig {
    let mut config = RuntimeConfig::new(policy);
    config.partitions = partitions;
    config.compute_threads = spec::SYSTEM_THREADS;
    config
}

/// Holds a reference MAPE to its budget; a breach means the workload is
/// mis-sized, not that a request failed.
fn check_budget(label: &str, got: f64, budget: f64) {
    assert!(
        got.is_finite() && got <= budget,
        "{label}: reference MAPE {got:.4} exceeds the request's budget {budget}"
    );
}

/// A single-VOP kind: sequential reference, exact reference, GPU baseline.
///
/// The sequential reference is the request as served — same configuration,
/// compute threads included — but alone on an idle process. (Not one
/// compute thread: `exec::compute_tasks` accumulates Histogram's exact
/// tiles in place when it runs inline but folds per-task partials on the
/// pool, so once a TPU partial is fractional, 1 and 2 threads differ in
/// the last bit — on about 1 % of 128x128 inputs at 8 partitions.)
fn vop_kind(
    label: String,
    benchmark: Benchmark,
    inputs: Vec<Tensor>,
    config: RuntimeConfig,
    faults: FaultPlan,
    budget: f64,
) -> Kind {
    let platform = Platform::jetson(benchmark);
    let vop = Vop::from_benchmark(benchmark, inputs).expect("valid VOP");
    let report = ShmtRuntime::new(platform.clone(), config)
        .execute_with_faults(&vop, &faults)
        .expect("sequential reference execution");
    let exact = exact_reference(&vop);
    let error = mape(&exact, &report.output);
    check_budget(&label, error, budget);
    let baseline = gpu_baseline(&platform, &vop, config.partitions).expect("GPU baseline");
    Kind {
        label,
        benchmark,
        dag: false,
        expect: Expect {
            digest: digest(&report.output),
            makespan_s: report.makespan_s,
            energy_j: report.energy.total_j(),
            mape: error,
            baseline_s: baseline.makespan_s,
        },
        sim: SimFacts::of(&report),
        replay: Replayable {
            vop,
            runtime: ShmtRuntime::new(platform, config),
            faults,
            records: report.records,
        },
    }
}

/// `variants` seeded inputs per benchmark, as unguarded fault-free kinds.
/// The order visits every benchmark before it repeats one, so consecutive
/// requests of the rotation never share inputs.
fn seeded_kinds(
    benchmarks: &[Benchmark],
    variants: usize,
    edge: usize,
    config: RuntimeConfig,
    seed: u64,
    gen_ms: &mut f64,
) -> Vec<Kind> {
    let mut kinds = Vec::with_capacity(variants * benchmarks.len());
    for variant in 0..variants {
        for (b, &benchmark) in benchmarks.iter().enumerate() {
            let slot = variant * benchmarks.len() + b;
            let inputs = generate(benchmark, edge, input_seed(seed, slot), gen_ms);
            kinds.push(vop_kind(
                format!("{benchmark}#{variant}"),
                benchmark,
                inputs,
                config,
                FaultPlan::none(),
                spec::DEFAULT_MAX_MAPE,
            ));
        }
    }
    kinds
}

/// Generates a benchmark's inputs, adding the time to `gen_ms`.
fn generate(benchmark: Benchmark, edge: usize, seed: u64, gen_ms: &mut f64) -> Vec<Tensor> {
    let (inputs, us) = time_us(|| benchmark.generate_inputs(edge, edge, seed));
    *gen_ms += us / 1e3;
    inputs
}

// ---------------------------------------------------------------- vop-*

struct VopSystem {
    kinds: Arc<Vec<Kind>>,
}

impl System for VopSystem {
    fn issue(&self, i: usize, spans: Option<&mut SpanLog>) -> Issued {
        let kind = &self.kinds[i % self.kinds.len()];
        let call_start_ns = now_ns();
        let outcome = kind.replay.runtime.execute(&kind.replay.vop);
        let call_end_ns = now_ns();
        if let Some(log) = spans {
            log.push("core.execute", None, i, call_start_ns, call_end_ns);
        }
        let verdict = match outcome {
            Ok(report) => {
                let v = kind.expect.verdict(&report);
                shmt::arena::recycle_report(report);
                v
            }
            Err(_) => Verdict::Failed,
        };
        Issued {
            verdict,
            call_start_ns,
            call_end_ns,
            detail: Detail::default(),
        }
    }
}

fn build_vop(benchmarks: &[Benchmark], edge: usize, policy: Policy, seed: u64) -> Built {
    let config = runtime_config(policy, spec::PARTITIONS);
    let mut gen_ms = 0.0;
    // Two seeded inputs per kernel.
    let kinds = seeded_kinds(benchmarks, 2, edge, config, seed, &mut gen_ms);
    let kinds = Arc::new(kinds);
    Built {
        system: Box::new(VopSystem {
            kinds: Arc::clone(&kinds),
        }),
        load: Load::Closed { clients: 1 },
        rotation: (0..kinds.len()).collect(),
        kinds,
        gen_ms,
    }
}

// ------------------------------------------------------ serve-dag-guard

/// Sobel → Relu → Sqrt → MeanFilter: four nodes, of which the two unary
/// ones fuse into one stage, so three stages execute.
fn guard_dag() -> VopDag {
    VopDag::new(vec![
        DagNode::benchmark(Benchmark::Sobel, 0, vec![]),
        DagNode::unary(UnaryOp::Relu, 0),
        DagNode::unary(UnaryOp::Sqrt, 1),
        DagNode::benchmark(Benchmark::MeanFilter, 0, vec![2]),
    ])
    .expect("valid DAG")
}

/// What flows between DAG stages is clamped the way `shmt::dag` does it.
fn sanitized(mut t: Tensor) -> Tensor {
    t.map_inplace(|v| {
        if v.is_finite() {
            v.clamp(-1.0e6, 1.0e6)
        } else {
            0.0
        }
    });
    t
}

/// The exact output of [`guard_dag`] and the GPU baseline's virtual time
/// for it: every node as its own exact kernel, one after the other.
fn dag_exact_and_baseline(input: &Tensor) -> (Tensor, f64) {
    let mut baseline_s = 0.0;
    let mut run = |vop: Vop, platform: Platform| -> Tensor {
        baseline_s += gpu_baseline(&platform, &vop, spec::PARTITIONS)
            .expect("GPU baseline")
            .makespan_s;
        sanitized(exact_reference(&vop))
    };
    let bench = |b: Benchmark, t: Tensor| Vop::from_benchmark(b, vec![t]).expect("valid VOP");
    let unary = |op: UnaryOp, t: Tensor| Vop::unary(op, t).expect("valid VOP");
    let sobel = run(
        bench(Benchmark::Sobel, input.clone()),
        Platform::jetson(Benchmark::Sobel),
    );
    let relu = run(unary(UnaryOp::Relu, sobel), Platform::generic());
    let sqrt = run(unary(UnaryOp::Sqrt, relu), Platform::generic());
    let out = run(
        bench(Benchmark::MeanFilter, sqrt),
        Platform::jetson(Benchmark::MeanFilter),
    );
    (out, baseline_s)
}

struct ServeSystem {
    server: Server,
    dag: VopDag,
    config: RuntimeConfig,
    kinds: Arc<Vec<Kind>>,
    rotation: Vec<usize>,
}

/// QoS classes 2:5:3 over ten consecutive requests.
const CLASS_MIX: [Priority; 10] = {
    use Priority::{Batch as B, BestEffort as E, Interactive as I};
    [I, B, B, E, B, I, B, E, B, E]
};

impl ServeSystem {
    fn request(&self, i: usize) -> Request {
        let kind = &self.kinds[self.rotation[i % self.rotation.len()]];
        let input = kind.replay.vop.inputs()[0].clone();
        let request = if kind.dag {
            Request::with_program(self.dag.clone(), input, self.config)
        } else {
            let vop = Vop::from_benchmark(kind.benchmark, vec![input]).expect("valid VOP");
            Request::new(vop, Platform::jetson(kind.benchmark), self.config)
                .with_faults(kind.replay.faults.clone())
        };
        request
            .with_max_mape(spec::GUARD_MAX_MAPE)
            .with_deadline(Duration::from_millis(spec::SERVE_DEADLINE_MS))
            .with_priority(CLASS_MIX[i % CLASS_MIX.len()])
    }
}

/// Spans and detail of one served response under its `serve.submit_wait`
/// span, which ends at `end_ns`: the node reports queue wait and service
/// time, and service time *is* the executor's call into the runtime.
fn served(
    spans: Option<&mut SpanLog>,
    i: usize,
    end_ns: u64,
    response: &Response,
    detail: &mut Detail,
) {
    let parent = "serve.submit_wait";
    detail.queue_us = response.queue_wait.as_secs_f64() * 1e6;
    detail.service_us = response.service_time.as_secs_f64() * 1e6;
    if let Some(log) = spans {
        let service_start = end_ns.saturating_sub((detail.service_us * 1e3) as u64);
        log.push_reported("core.execute", parent, i, end_ns, detail.service_us);
        log.push_reported("serve.queue", parent, i, service_start, detail.queue_us);
    }
}

impl System for ServeSystem {
    fn issue(&self, i: usize, mut spans: Option<&mut SpanLog>) -> Issued {
        let expect = &self.kinds[self.rotation[i % self.rotation.len()]].expect;
        let (request, build_us) = time_us(|| self.request(i));
        let call_start_ns = now_ns();
        let outcome = self
            .server
            .submit(request)
            .map_err(|_| ())
            .and_then(|ticket| ticket.wait().map_err(|_| ()));
        let call_end_ns = now_ns();
        let mut detail = Detail {
            build_us,
            ..Detail::default()
        };
        let verdict = match outcome {
            Ok(response) => {
                if let Some(log) = spans.as_deref_mut() {
                    log.push("serve.submit_wait", None, i, call_start_ns, call_end_ns);
                }
                served(spans, i, call_end_ns, &response, &mut detail);
                let v = expect.verdict(&response.report);
                shmt::arena::recycle_report(response.report);
                v
            }
            Err(()) => Verdict::Failed,
        };
        Issued {
            verdict,
            call_start_ns,
            call_end_ns,
            detail,
        }
    }

    fn server_metrics(&self) -> Option<MetricsRegistry> {
        Some(self.server.metrics())
    }

    fn export_openmetrics(&self) -> Option<String> {
        Some(self.server.export_openmetrics())
    }

    fn dag_probe(&self) -> Option<(f64, f64)> {
        let kind = self.kinds.iter().find(|k| k.dag)?;
        let mut config = self.config;
        config.guard = GuardConfig::enforcing(spec::GUARD_MAX_MAPE);
        let mut clock = StageClock::default();
        let start = now_ns();
        self.dag
            .run_with_sink(
                &kind.replay.vop.inputs()[0],
                &DagConfig::new(config),
                &mut clock,
            )
            .expect("DAG probe run");
        let run_us = (now_ns() - start) as f64 / 1e3;
        let stages_us: f64 = clock.stages.iter().map(|(a, b)| (b - a) as f64 / 1e3).sum();
        Some((run_us, stages_us))
    }
}

fn build_serve(seed: u64) -> Built {
    let config = runtime_config(Policy::WorkStealing, spec::PARTITIONS);
    let mut guarded = config;
    guarded.guard = GuardConfig::enforcing(spec::GUARD_MAX_MAPE);
    let dag = guard_dag();
    // A drifted TPU calibration: every TPU tile comes back 1.5x + 8, far
    // over budget, so the guard re-executes each of them exactly.
    let faults = FaultPlan::none()
        .with_seed(seed)
        .with_tpu_miscalibration(1.5, 8.0);
    let mut gen_ms = 0.0;
    let mut kinds = Vec::new();
    for variant in 0..2 {
        let seed = input_seed(seed, variant);
        let input = generate(Benchmark::Sobel, spec::DENSE_EDGE, seed, &mut gen_ms).remove(0);
        let run = dag
            .run(&input, &DagConfig::new(guarded))
            .expect("sequential DAG run");
        let (exact, baseline_s) = dag_exact_and_baseline(&input);
        let label = format!("dag[{}]#{variant}", dag.len());
        let error = mape(&exact, &run.output);
        // Each stage is guarded to the SLO on its own input; the error
        // the chain accumulates is held to the SLO times its stages.
        check_budget(
            &label,
            error,
            spec::GUARD_MAX_MAPE * run.stages.len() as f64,
        );
        let replay = Replayable {
            vop: Vop::from_benchmark(Benchmark::Sobel, vec![input.clone()]).expect("valid VOP"),
            runtime: ShmtRuntime::new(Platform::jetson(Benchmark::Sobel), guarded),
            faults: FaultPlan::none(),
            records: run.stages[0].report.records.clone(),
        };
        let (fused, edges, resident) = (run.fused, dag.edge_count(), run.resident_edges);
        let digest_out = digest(&run.output);
        let merged = run.into_run_report();
        kinds.push(Kind {
            label,
            benchmark: Benchmark::Sobel,
            dag: true,
            expect: Expect {
                digest: digest_out,
                makespan_s: merged.makespan_s,
                energy_j: merged.energy.total_j(),
                mape: error,
                baseline_s,
            },
            sim: SimFacts {
                dag_fused: fused,
                dag_edges: edges,
                dag_resident_edges: resident,
                ..SimFacts::of(&merged)
            },
            replay,
        });
        kinds.push(vop_kind(
            format!("Sobel+miscal#{variant}"),
            Benchmark::Sobel,
            vec![input],
            guarded,
            faults.clone(),
            spec::GUARD_MAX_MAPE,
        ));
    }
    // Kinds are [dag#0, fault#0, dag#1, fault#1]; every fourth request is
    // a miscalibrated single VOP (DAG submissions reject fault plans).
    let rotation = vec![0, 2, 0, 1, 2, 0, 2, 3];
    let kinds = Arc::new(kinds);
    let system = ServeSystem {
        // The device-health breaker is off: repairs would strike the TPU
        // into quarantine, and which requests then run TPU-masked depends
        // on how two executors interleave — no sequential reference
        // exists for that.
        server: Server::new(ServerConfig {
            executors: 2,
            queue_capacity: 8,
            health: HealthConfig {
                enabled: false,
                ..HealthConfig::default()
            },
            ..ServerConfig::default()
        }),
        dag,
        config,
        kinds: Arc::clone(&kinds),
        rotation: rotation.clone(),
    };
    Built {
        system: Box::new(system),
        load: Load::Closed { clients: 2 },
        kinds,
        rotation,
        gen_ms,
    }
}

// --------------------------------------------------- cluster-open-small

struct ClusterSystem {
    router: ClusterRouter,
    config: RuntimeConfig,
    kinds: Arc<Vec<Kind>>,
}

impl System for ClusterSystem {
    fn issue(&self, i: usize, mut spans: Option<&mut SpanLog>) -> Issued {
        let k = i % self.kinds.len();
        let kind = &self.kinds[k];
        let options = RouteOptions::new()
            .with_priority(CLASS_MIX[i % CLASS_MIX.len()])
            .with_deadline(Duration::from_millis(spec::OPEN_DEADLINE_MS))
            .with_affinity(k as u64);
        let build_us = Cell::new(0.0);
        // Requests are built from the pre-generated tensors: cloning them
        // is the only input work on the timed path.
        let make = || {
            let (request, us) = time_us(|| {
                let inputs = kind.replay.vop.inputs().to_vec();
                let vop = Vop::from_benchmark(kind.benchmark, inputs).expect("valid VOP");
                Request::new(vop, Platform::jetson(kind.benchmark), self.config)
            });
            build_us.set(build_us.get() + us);
            request
        };
        let call_start_ns = now_ns();
        let outcome = self.router.route(options, &make);
        let call_end_ns = now_ns();
        let mut detail = Detail {
            build_us: build_us.get(),
            ..Detail::default()
        };
        let verdict = match outcome {
            Ok(routed) => {
                let response = routed.response;
                if let Some(log) = spans.as_deref_mut() {
                    log.push("cluster.route", None, i, call_start_ns, call_end_ns);
                    let inner = (response.queue_wait + response.service_time).as_secs_f64() * 1e6;
                    log.push_reported("serve.submit_wait", "cluster.route", i, call_end_ns, inner);
                }
                served(spans, i, call_end_ns, &response, &mut detail);
                detail.tries = routed.tries;
                detail.hedged = routed.hedged;
                detail.hedge_won = routed.hedge_won;
                let v = kind.expect.verdict(&response.report);
                shmt::arena::recycle_report(response.report);
                v
            }
            Err(ClusterError::Shed { .. }) => Verdict::Shed,
            Err(_) => Verdict::Failed,
        };
        Issued {
            verdict,
            call_start_ns,
            call_end_ns,
            detail,
        }
    }

    fn server_metrics(&self) -> Option<MetricsRegistry> {
        let mut merged = MetricsRegistry::new();
        for id in 0..self.router.node_count() {
            merged.merge(&self.router.node_metrics(id));
        }
        Some(merged)
    }

    fn router_facts(&self) -> Option<(MetricsRegistry, Vec<u64>)> {
        Some((self.router.metrics(), self.router.node_dispatched()))
    }

    fn export_openmetrics(&self) -> Option<String> {
        Some(shmt_trace::openmetrics::render(
            &self.router.fleet_observatory(),
        ))
    }
}

fn build_cluster(seed: u64) -> Built {
    let benchmarks = [
        Benchmark::Sobel,
        Benchmark::MeanFilter,
        Benchmark::Histogram,
    ];
    let config = runtime_config(Policy::WorkStealing, spec::SMALL_PARTITIONS);
    let mut gen_ms = 0.0;
    // Many distinct small inputs: the working set (12 MB) is larger than
    // the caches, as a fleet's requests are, and set-up does enough
    // deterministic work to be timed.
    let kinds = seeded_kinds(
        &benchmarks,
        spec::SMALL_INPUTS_PER_KERNEL,
        spec::SMALL_EDGE,
        config,
        seed,
        &mut gen_ms,
    );
    let mut cluster = ClusterConfig::with_nodes(3);
    for node in &mut cluster.nodes {
        *node = NodeConfig::new(ServerConfig {
            executors: 1,
            ..ServerConfig::default()
        });
    }
    let kinds = Arc::new(kinds);
    let system = ClusterSystem {
        router: ClusterRouter::new(cluster),
        config,
        kinds: Arc::clone(&kinds),
    };
    Built {
        system: Box::new(system),
        load: Load::Open {
            rate: spec::OPEN_RATE,
            senders: 2,
        },
        rotation: (0..kinds.len()).collect(),
        kinds,
        gen_ms,
    }
}
