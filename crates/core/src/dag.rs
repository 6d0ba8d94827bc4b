//! Multi-VOP dataflow graphs with inter-stage data residency.
//!
//! [`VopDag`] is the one multi-VOP program type: a DAG of VOP stages
//! (nodes = VOP stages, edges = tensor dependencies, cycle/arity
//! validation at build time), of which a linear chain
//! ([`VopDag::linear`]) is the degenerate case. Hand-chaining VOPs through
//! the runtime re-stages every intermediate through host memory; the DAG
//! composes the stages with *mixed-mode awareness*:
//!
//! * **Residency** — an HLOP's output stays resident on its producing
//!   device when the consuming stage reads it there. The CPU and GPU share
//!   host memory (zero-copy), so exact-class edges never round-trip
//!   through framework staging buffers; an Edge-TPU tile consumed by an
//!   Edge-TPU tile of the next stage stays in device memory as int8 and
//!   skips both the producer's restoration and the consumer's cast+PCIe
//!   staging. The accuracy class is respected: int8 data is only ever left
//!   in place for an approximate-class consumer — any exact-device
//!   consumer receives restored fp32, which is exactly the cross-device
//!   edge charge.
//! * **Fusion** — adjacent element-wise stages (a unary node whose single
//!   consumer is another unary node) collapse into one VOP, eliminating
//!   the intermediate tensor entirely.
//! * **Edge charging** — only real cross-device edges are charged: the
//!   staged (non-resident) portion of every Edge-TPU tile pays its
//!   fp32↔int8 cast and its PCIe bytes on the simulated
//!   [`hetsim::Interconnect`], exactly as a lone VOP's tile does; resident
//!   portions charge nothing.
//!
//! # Cost model
//!
//! Every stage is executed **once** through the ordinary
//! [`crate::runtime::ShmtRuntime`] — placement, stealing, and the computed
//! values are decided there, so a linear DAG reproduces the per-stage
//! reports of the same VOPs chained by hand exactly. The DAG layer then
//! *re-times* each stage once through the runtime's own HLOP charging
//! loop, on a pinned plan: every device's queue holds the HLOPs it ran, in
//! the order it started them, and nothing may be stolen. Only the
//! residency discounts move a charge, so a stage with nothing resident
//! re-times to its own run. Inter-stage edges cost nothing beyond the
//! dependency itself (shared host memory is zero-copy). Stages compose
//! serially on the shared device pool, each starting when its
//! dependencies and its predecessor finish.
//!
//! Residency is a *cost-model* statement about where bytes live: the
//! simulated int8 path always models the same quantize→compute→dequantize
//! computation, so it never changes an output bit. Guarded stages
//! (per-node quality budgets) are not re-timed — their pass-1 makespan is
//! used as is, so the guard's charge is never flattered.
//!
//! [`VopDag::run_conventional`] is the paper's Fig 1a reference for the
//! same graph: every stage on its single best device (the GPU baseline),
//! serially, where [`VopDag::run`] is Fig 1c — every stage spread across
//! all devices at once.

use hetsim::{DeviceKind, FaultInjector, FaultPlan, SimTime};
use shmt_kernels::primitives::{BinaryOp, UnaryOp};
use shmt_kernels::{Aggregation, Benchmark, Kernel, KernelShape};
use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};
use shmt_trace::{NullSink, TraceSink};

use crate::baseline::gpu_baseline;
use crate::error::{Result, ShmtError};
use crate::guard::GuardConfig;
use crate::hlop::Hlop;
use crate::platform::Platform;
use crate::report::RunReport;
use crate::runtime::{RuntimeConfig, ShmtRuntime};
use crate::sched::{pooled_queues, Plan};
use crate::vop::{Opcode, Vop};

/// Identifier of a node within its DAG (its index in the node list).
pub type NodeId = usize;

/// The operation a DAG node applies to its inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeOp {
    /// A benchmark kernel stage; auxiliary inputs beyond the supplied
    /// dependencies are generated from `aux_seed` (e.g. Hotspot's power
    /// grid).
    Benchmark {
        /// The kernel this stage applies.
        benchmark: Benchmark,
        /// Seed for generated auxiliary inputs.
        aux_seed: u64,
    },
    /// A unary element-wise stage (fusable).
    Unary(UnaryOp),
    /// A binary element-wise stage over two dependencies.
    Binary(BinaryOp),
}

/// One node of a [`VopDag`]: an operation plus the node ids whose outputs
/// feed its kernel inputs, in slot order. A node with no dependencies is a
/// root and reads the DAG's external input tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNode {
    /// The operation.
    pub op: NodeOp,
    /// Producing nodes, in kernel-input slot order.
    pub deps: Vec<NodeId>,
    /// Per-stage quality budget: when set, the stage runs under an
    /// enforcing [`GuardConfig`] with this MAPE budget.
    pub max_mape: Option<f64>,
}

impl DagNode {
    /// A benchmark stage over the given dependencies (empty = root).
    pub fn benchmark(benchmark: Benchmark, aux_seed: u64, deps: Vec<NodeId>) -> Self {
        DagNode {
            op: NodeOp::Benchmark {
                benchmark,
                aux_seed,
            },
            deps,
            max_mape: None,
        }
    }

    /// A unary element-wise stage over one producer.
    pub fn unary(op: UnaryOp, dep: NodeId) -> Self {
        DagNode {
            op: NodeOp::Unary(op),
            deps: vec![dep],
            max_mape: None,
        }
    }

    /// A binary element-wise stage over two producers.
    pub fn binary(op: BinaryOp, a: NodeId, b: NodeId) -> Self {
        DagNode {
            op: NodeOp::Binary(op),
            deps: vec![a, b],
            max_mape: None,
        }
    }

    /// Attaches a per-stage quality budget (enforced by the output guard).
    #[must_use]
    pub fn with_quality_budget(mut self, max_mape: f64) -> Self {
        self.max_mape = Some(max_mape);
        self
    }
}

/// A validated DAG of VOP stages.
#[derive(Debug, Clone, PartialEq)]
pub struct VopDag {
    nodes: Vec<DagNode>,
    /// Node ids in a deterministic topological order (Kahn, smallest id
    /// first among ready nodes).
    topo: Vec<NodeId>,
    /// The unique sink (the DAG's output node).
    sink: NodeId,
}

impl VopDag {
    /// Validates and builds a DAG.
    ///
    /// # Errors
    ///
    /// Returns [`ShmtError::InvalidConfig`] when the node list is empty,
    /// a dependency index is out of range or self-referential, a node's
    /// dependency count violates its kernel's arity (unary: at most one;
    /// binary: exactly two; benchmark: at most the kernel arity), the
    /// graph has a cycle, or there is not exactly one sink.
    pub fn new(nodes: Vec<DagNode>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(ShmtError::InvalidConfig(
                "DAG needs at least one node".into(),
            ));
        }
        for (i, n) in nodes.iter().enumerate() {
            for &d in &n.deps {
                if d >= nodes.len() {
                    return Err(ShmtError::InvalidConfig(format!(
                        "node {i} depends on missing node {d}"
                    )));
                }
                if d == i {
                    return Err(ShmtError::InvalidConfig(format!(
                        "node {i} depends on itself"
                    )));
                }
            }
            let (min, max) = match n.op {
                NodeOp::Unary(_) => (0, 1),
                NodeOp::Binary(_) => (2, 2),
                NodeOp::Benchmark { benchmark, .. } => (0, benchmark.kernel().shape().num_inputs),
            };
            if n.deps.len() < min || n.deps.len() > max {
                return Err(ShmtError::InvalidConfig(format!(
                    "node {i} has {} dependencies; its kernel admits {min}..={max}",
                    n.deps.len()
                )));
            }
        }

        // Kahn's algorithm, deterministic (lowest ready id first).
        let mut indegree: Vec<usize> = nodes.iter().map(|n| n.deps.len()).collect();
        let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            for &d in &n.deps {
                consumers[d].push(i);
            }
        }
        let mut ready: Vec<NodeId> = (0..nodes.len()).filter(|&i| indegree[i] == 0).collect();
        let mut topo = Vec::with_capacity(nodes.len());
        while let Some(&next) = ready.iter().min() {
            ready.retain(|&i| i != next);
            topo.push(next);
            for &c in &consumers[next] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.push(c);
                }
            }
        }
        if topo.len() != nodes.len() {
            return Err(ShmtError::InvalidConfig(
                "DAG contains a dependency cycle".into(),
            ));
        }
        let sinks: Vec<NodeId> = (0..nodes.len())
            .filter(|&i| consumers[i].is_empty())
            .collect();
        let [sink] = sinks[..] else {
            return Err(ShmtError::InvalidConfig(format!(
                "DAG must have exactly one sink, found {}",
                sinks.len()
            )));
        };
        Ok(VopDag { nodes, topo, sink })
    }

    /// A linear chain of `(benchmark, aux_seed)` stages: node `i`
    /// consumes node `i-1`, node 0 reads the external input.
    ///
    /// # Errors
    ///
    /// Propagates [`VopDag::new`]'s validation errors (e.g. an empty
    /// chain).
    pub fn linear(stages: &[(Benchmark, u64)]) -> Result<Self> {
        let nodes = stages
            .iter()
            .enumerate()
            .map(|(i, &(benchmark, aux_seed))| {
                DagNode::benchmark(
                    benchmark,
                    aux_seed,
                    if i == 0 { vec![] } else { vec![i - 1] },
                )
            })
            .collect();
        VopDag::new(nodes)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always `false`: validation rejects empty DAGs.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// The DAG's unique sink node.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.deps.len()).sum()
    }

    /// Runs the DAG on the external input.
    ///
    /// # Errors
    ///
    /// Propagates VOP validation and runtime errors.
    pub fn run(&self, input: &Tensor, cfg: &DagConfig) -> Result<DagReport> {
        self.run_with_sink(input, cfg, &mut NullSink)
    }

    /// [`VopDag::run`], streaming every stage's runtime events (plus
    /// `dag.*` counters) into `sink` — the per-stage spans appear under
    /// the ordinary runtime event kinds.
    ///
    /// # Errors
    ///
    /// Same as [`VopDag::run`].
    pub fn run_with_sink(
        &self,
        input: &Tensor,
        cfg: &DagConfig,
        sink: &mut dyn TraceSink,
    ) -> Result<DagReport> {
        self.run_with_cancel(input.clone(), cfg, sink, &mut || false)
    }

    /// [`VopDag::run_with_sink`] with a cancellation hook, polled between
    /// stages (the serve layer uses it for pipeline-level deadlines). The
    /// input is taken by value: the last root stage moves it into its VOP
    /// instead of copying it.
    ///
    /// # Errors
    ///
    /// Same as [`VopDag::run`], plus [`ShmtError::Canceled`] when the
    /// hook returns `true`.
    pub fn run_with_cancel(
        &self,
        input: Tensor,
        cfg: &DagConfig,
        sink: &mut dyn TraceSink,
        cancel: &mut dyn FnMut() -> bool,
    ) -> Result<DagReport> {
        let stages = self.plan_stages(cfg.fuse_elementwise);
        let fused = self.nodes.len() - stages.len();

        // Pass 1: execute every stage once through the ordinary runtime,
        // in topological order. Placement and values are decided here.
        let mut execs: Vec<StageExec> = Vec::with_capacity(stages.len());
        let mut external = Some(input);
        let mut outputs: Vec<Option<Tensor>> = vec![None; stages.len()];
        for (si, stage) in stages.iter().enumerate() {
            if cancel() {
                return Err(ShmtError::Canceled);
            }
            let vop = self.stage_vop(&stages, si, &mut outputs, &mut external)?;
            let first = stage
                .nodes
                .first()
                .copied()
                .ok_or_else(|| ShmtError::Internal("execution stage has no nodes".into()))?;
            let platform = stage_platform(&self.nodes[first].op);
            let mut stage_cfg = cfg.runtime;
            if let Some(m) = stage.max_mape {
                stage_cfg.guard = GuardConfig::enforcing(m);
            }
            if cfg.residency_dispatch {
                stage_cfg.tpu_residency_hint = self.input_tpu_fraction(stage, &execs);
            }
            let runtime = ShmtRuntime::new(platform, stage_cfg);
            let (mut report, hlops) =
                runtime.execute_partitioned(&vop, &FaultPlan::none(), sink)?;
            let out = sanitize(std::mem::replace(&mut report.output, Tensor::zeros(1, 1)));
            let (rows, cols) = vop.partition_space();
            execs.push(StageExec {
                elements: rows * cols,
                kernel: vop.into_kernel(),
                runtime,
                hlops,
                report,
            });
            outputs[si] = Some(out);
        }

        // Residency coverage per eligible edge: intersect the producer's
        // TPU tiles with the consumer's TPU tiles. Eligible edges are
        // slot-0 (flowing) edges whose producer has exactly one consumer
        // and tile-aggregated output — multi-consumer outputs must be
        // restored for the other readers, and reduction partials fold on
        // the host.
        let mut resident_in: Vec<Vec<usize>> =
            execs.iter().map(|e| vec![0usize; e.hlops.len()]).collect();
        let mut resident_out: Vec<Vec<usize>> =
            execs.iter().map(|e| vec![0usize; e.hlops.len()]).collect();
        let mut resident_edges = 0usize;
        for (ci, stage) in stages.iter().enumerate() {
            let Some(&pi) = stage.deps.first() else {
                continue;
            };
            let consumers_of_p = stages
                .iter()
                .map(|s| s.deps.iter().filter(|&&d| d == pi).count())
                .sum::<usize>();
            let eligible = consumers_of_p == 1
                && matches!(execs[pi].kernel.shape().aggregation, Aggregation::Tile)
                && execs[pi].elements == execs[ci].elements;
            if !eligible {
                continue;
            }
            resident_edges += 1;
            let p_tpu: Vec<&Tile> = tpu_tiles(&execs[pi]);
            let c_tpu: Vec<&Tile> = tpu_tiles(&execs[ci]);
            for r in &execs[ci].report.records {
                if r.device != DeviceKind::EdgeTpu {
                    continue;
                }
                let ct = &execs[ci].hlops[r.id].tile;
                let ov: usize = p_tpu.iter().map(|pt| tile_overlap(pt, ct)).sum();
                resident_in[ci][r.id] = ov.min(r.elements);
            }
            for r in &execs[pi].report.records {
                if r.device != DeviceKind::EdgeTpu {
                    continue;
                }
                let pt = &execs[pi].hlops[r.id].tile;
                let ov: usize = c_tpu.iter().map(|ct| tile_overlap(pt, ct)).sum();
                resident_out[pi][r.id] = ov.min(r.elements);
            }
        }

        // Re-time every stage through the runtime's charging loop with
        // placement pinned and the residency discounts applied, then
        // compose the stage windows over the shared device pool: a stage
        // starts no earlier than its predecessor's finish (the stages
        // share all three devices) and its dependencies'. Guarded stages
        // keep their pass-1 timing — the guard's exact-device charges are
        // not re-played, so they are never discounted.
        let mut windows: Vec<(f64, f64)> = Vec::with_capacity(execs.len());
        let mut staged = vec![(0usize, 0usize); execs.len()];
        let mut resident_bus_bytes = 0u64;
        let mut prev_finish = SimTime::ZERO;
        for (i, (stage, e)) in stages.iter().zip(&execs).enumerate() {
            let makespan_s = if e.runtime.config().guard.enabled {
                resident_bus_bytes += e.report.bus_bytes;
                e.report.makespan_s
            } else {
                let plan = pinned_plan(e);
                let charged = e.runtime.charge(
                    e.kernel.as_ref(),
                    &plan,
                    &resident_in[i],
                    &resident_out[i],
                    &mut FaultInjector::new(&FaultPlan::none()),
                    &mut NullSink,
                )?;
                plan.recycle();
                resident_bus_bytes += charged.bus.total_bytes();
                staged[i] = (charged.staged_in_elements, charged.staged_out_elements);
                let end = charged
                    .latest_completion
                    .max(charged.t0 + charged.staging_s);
                charged.recycle();
                end.as_secs()
            };
            let start = stage
                .deps
                .iter()
                .fold(prev_finish, |t, &p| t.max(SimTime::from_secs(windows[p].1)));
            let finish = start + makespan_s;
            windows.push((start.as_secs(), finish.as_secs()));
            prev_finish = finish;
        }

        // The sink's exec stage is always last: validation guarantees
        // every other node a consumer, which moved its output away.
        let output = outputs
            .pop()
            .flatten()
            .ok_or_else(|| ShmtError::Internal("DAG sink produced no output".into()))?;

        let makespan_s = windows.iter().map(|w| w.1).fold(0.0f64, f64::max);
        let total_latency_s: f64 = execs.iter().map(|e| e.report.makespan_s).sum();
        let total_energy_j: f64 = execs.iter().map(|e| e.report.energy.total_j()).sum();

        let stage_reports: Vec<DagStageReport> = stages
            .iter()
            .zip(execs)
            .enumerate()
            .map(|(i, (stage, e))| {
                crate::arena::HLOPS.put(e.hlops);
                DagStageReport {
                    nodes: stage.nodes.clone(),
                    label: e.kernel.name(),
                    elements: e.elements,
                    start_s: windows[i].0,
                    finish_s: windows[i].1,
                    resident_in_elements: resident_in[i].iter().sum(),
                    resident_out_elements: resident_out[i].iter().sum(),
                    staged_in_elements: staged[i].0,
                    staged_out_elements: staged[i].1,
                    report: e.report,
                }
            })
            .collect();

        if sink.enabled() {
            sink.counter("dag.stages", stage_reports.len() as f64);
            sink.counter("dag.fused", fused as f64);
            sink.counter("dag.edges", self.edge_count() as f64);
            sink.counter("dag.resident_edges", resident_edges as f64);
            sink.counter(
                "dag.resident_elements",
                stage_reports
                    .iter()
                    .map(|s| s.resident_in_elements as f64)
                    .sum(),
            );
            sink.counter("dag.staged_bytes", resident_bus_bytes as f64);
        }

        Ok(DagReport {
            stages: stage_reports,
            makespan_s,
            total_latency_s,
            total_energy_j,
            resident_edges,
            resident_bus_bytes,
            fused,
            output,
        })
    }

    /// Runs every stage on its single best device (Fig 1a, the
    /// conventional model): the GPU baseline per stage, serially, no
    /// fusion. Returns the summed stage makespans and the sink's output.
    ///
    /// # Errors
    ///
    /// Propagates VOP validation and runtime errors.
    pub fn run_conventional(&self, input: &Tensor, partitions: usize) -> Result<(f64, Tensor)> {
        let stages = self.plan_stages(false);
        let mut external = Some(input.clone());
        let mut outputs: Vec<Option<Tensor>> = vec![None; stages.len()];
        let mut total_s = 0.0;
        for (si, stage) in stages.iter().enumerate() {
            let vop = self.stage_vop(&stages, si, &mut outputs, &mut external)?;
            let platform = stage_platform(&self.nodes[stage.nodes[0]].op);
            let report = gpu_baseline(&platform, &vop, partitions)?;
            total_s += report.makespan_s;
            outputs[si] = Some(sanitize(report.output));
        }
        // The sink's exec stage is always last (see `run_with_cancel`).
        let output = outputs
            .pop()
            .flatten()
            .ok_or_else(|| ShmtError::Internal("DAG sink produced no output".into()))?;
        Ok((total_s, output))
    }

    /// Groups nodes into execution stages, fusing chains of unary
    /// element-wise nodes when `fuse` is set. Fusion criteria: the
    /// producer is unary, its single consumer is unary, and the producer
    /// is the current tail of its stage — benchmark and binary nodes
    /// never fuse, so a linear benchmark chain always degenerates to one
    /// stage per node.
    fn plan_stages(&self, fuse: bool) -> Vec<ExecStage> {
        let mut consumer_count = vec![0usize; self.nodes.len()];
        for n in &self.nodes {
            for &d in &n.deps {
                consumer_count[d] += 1;
            }
        }
        let mut stage_of: Vec<usize> = vec![usize::MAX; self.nodes.len()];
        let mut stages: Vec<ExecStage> = Vec::new();
        for &id in &self.topo {
            let node = &self.nodes[id];
            let fusable = fuse
                && matches!(node.op, NodeOp::Unary(_))
                && node.deps.len() == 1
                && matches!(self.nodes[node.deps[0]].op, NodeOp::Unary(_))
                && consumer_count[node.deps[0]] == 1
                && stages[stage_of[node.deps[0]]].nodes.last() == Some(&node.deps[0]);
            if fusable {
                let si = stage_of[node.deps[0]];
                stages[si].nodes.push(id);
                stages[si].max_mape = merge_budget(stages[si].max_mape, node.max_mape);
                stage_of[id] = si;
            } else {
                let si = stages.len();
                stages.push(ExecStage {
                    nodes: vec![id],
                    deps: Vec::new(),
                    max_mape: node.max_mape,
                });
                stage_of[id] = si;
            }
        }
        for st in stages.iter_mut() {
            // Stages are created with one node and only ever gain more.
            let Some(&first) = st.nodes.first() else {
                continue;
            };
            st.deps = self.nodes[first]
                .deps
                .iter()
                .map(|&d| stage_of[d])
                .collect();
        }
        stages
    }

    /// Builds stage `si`'s VOP from its dependencies' outputs (or the
    /// external input for a root). Each input is moved into the VOP on
    /// its last read — when neither a later stage nor a later slot of this
    /// stage reads it — and cloned for every earlier one.
    fn stage_vop(
        &self,
        stages: &[ExecStage],
        si: usize,
        outputs: &mut [Option<Tensor>],
        external: &mut Option<Tensor>,
    ) -> Result<Vop> {
        let stage = &stages[si];
        let later = &stages[si + 1..];
        let mut inputs: Vec<Tensor> = if stage.deps.is_empty() {
            let last = !later.iter().any(|s| s.deps.is_empty());
            vec![take_or_clone(external, last)?]
        } else {
            stage
                .deps
                .iter()
                .enumerate()
                .map(|(slot, &p)| {
                    let last = !stage.deps[slot + 1..].contains(&p)
                        && !later.iter().any(|s| s.deps.contains(&p));
                    take_or_clone(&mut outputs[p], last)
                })
                .collect::<Result<_>>()?
        };
        let first = stage
            .nodes
            .first()
            .copied()
            .ok_or_else(|| ShmtError::Internal("execution stage has no nodes".into()))?;
        match self.nodes[first].op {
            NodeOp::Benchmark {
                benchmark,
                aux_seed,
            } => {
                let (rows, cols) = inputs
                    .first()
                    .ok_or_else(|| ShmtError::Internal("benchmark stage has no input".into()))?
                    .shape();
                let arity = benchmark.kernel().shape().num_inputs;
                if arity > inputs.len() {
                    let mut extra = benchmark.generate_inputs(rows, cols, aux_seed);
                    inputs.extend(extra.drain(inputs.len()..));
                }
                Vop::from_benchmark(benchmark, inputs)
            }
            NodeOp::Binary(op) => {
                let b = inputs.pop().ok_or_else(|| {
                    ShmtError::Internal("binary stage lost its second input".into())
                })?;
                let a = inputs.pop().ok_or_else(|| {
                    ShmtError::Internal("binary stage lost its first input".into())
                })?;
                Vop::binary(op, a, b)
            }
            NodeOp::Unary(op) => {
                let input = inputs
                    .pop()
                    .ok_or_else(|| ShmtError::Internal("unary stage lost its input".into()))?;
                let rest: Vec<UnaryOp> = stage.nodes[1..]
                    .iter()
                    .map(|&id| match self.nodes[id].op {
                        NodeOp::Unary(u) => u,
                        _ => op,
                    })
                    .collect();
                match rest.last() {
                    None => Vop::unary(op, input),
                    Some(&last) => Vop::new(
                        unary_opcode(last),
                        Box::new(FusedElementwise { first: op, rest }),
                        vec![input],
                    ),
                }
            }
        }
    }

    /// Fraction of a stage's flowing input produced on the Edge TPU by
    /// its slot-0 dependency — the residency hint handed to the planner
    /// under [`DagConfig::residency_dispatch`].
    fn input_tpu_fraction(&self, stage: &ExecStage, execs: &[StageExec]) -> f64 {
        let Some(&p) = stage.deps.first() else {
            return 0.0;
        };
        let e = &execs[p];
        let tpu: usize = e
            .report
            .records
            .iter()
            .filter(|r| r.device == DeviceKind::EdgeTpu)
            .map(|r| r.elements)
            .sum();
        tpu as f64 / e.elements.max(1) as f64
    }
}

/// Configuration for one DAG execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagConfig {
    /// The per-stage runtime configuration (policy, partitions, …).
    pub runtime: RuntimeConfig,
    /// Fuse adjacent unary element-wise nodes into one VOP (default on).
    pub fuse_elementwise: bool,
    /// Feed each stage's planner the fraction of its input already
    /// resident on the Edge TPU ([`crate::sched::PlanContext`]'s
    /// `tpu_residency`), letting quality-aware policies widen the TPU's
    /// admission where the data already lives. Off by default: the hint
    /// changes placement, so runs with it enabled are only comparable to
    /// references executed with the same hint.
    pub residency_dispatch: bool,
}

impl DagConfig {
    /// Defaults (fusion on, residency dispatch off) around a runtime
    /// configuration.
    pub fn new(runtime: RuntimeConfig) -> Self {
        DagConfig {
            runtime,
            fuse_elementwise: true,
            residency_dispatch: false,
        }
    }
}

/// One executed stage of a [`DagReport`].
#[derive(Debug)]
pub struct DagStageReport {
    /// The DAG nodes this stage covers (more than one after fusion).
    pub nodes: Vec<NodeId>,
    /// The stage kernel's name.
    pub label: &'static str,
    /// Elements in the stage's partition space — the *true* per-stage
    /// size (the embedded report's `output` is a placeholder, its
    /// `output_shape` and `records` carry the real counts).
    pub elements: usize,
    /// Stage start in the resident composition (virtual seconds).
    pub start_s: f64,
    /// Stage finish in the resident composition.
    pub finish_s: f64,
    /// Input elements read directly from Edge-TPU memory (per-edge
    /// residency the re-timing did not charge).
    pub resident_in_elements: usize,
    /// Output elements left in Edge-TPU memory for the consumer.
    pub resident_out_elements: usize,
    /// Input elements that crossed the bus into the TPU in the re-timed
    /// stage (the real cross-device edge charge; 0 for a guarded stage).
    pub staged_in_elements: usize,
    /// Output elements restored to host memory in the re-timed stage.
    pub staged_out_elements: usize,
    /// The stage's pass-1 run report (the timing of the same VOP run on
    /// its own; the `output` tensor is a placeholder).
    pub report: RunReport,
}

/// The outcome of one DAG execution.
#[derive(Debug)]
pub struct DagReport {
    /// Per-stage reports, in execution (topological) order.
    pub stages: Vec<DagStageReport>,
    /// End-to-end makespan of the resident composition.
    pub makespan_s: f64,
    /// Sum of the pass-1 stage makespans (stages are data-dependent, so
    /// hand-chained execution serializes them).
    pub total_latency_s: f64,
    /// Sum of stage energies.
    pub total_energy_j: f64,
    /// Edges whose intermediate was eligible to stay device-resident.
    pub resident_edges: usize,
    /// Bytes the re-timed stages charged to their interconnects
    /// (cross-device edge traffic only).
    pub resident_bus_bytes: u64,
    /// Element-wise nodes eliminated by fusion.
    pub fused: usize,
    /// The sink stage's output.
    pub output: Tensor,
}

impl DagReport {
    /// Collapses the DAG run into one [`RunReport`] shaped like a
    /// single-VOP execution, for layers (serve, bench) whose responses
    /// carry a `RunReport`: per-device accounting, energy, steals, and
    /// quality are summed across stages; `makespan_s` is the resident
    /// composition's end-to-end makespan; `bus_bytes` is the resident
    /// cross-device edge traffic. Per-HLOP records stay with the stage
    /// reports (the merged record list is empty — stage HLOP ids would
    /// collide).
    pub fn into_run_report(mut self) -> RunReport {
        let mut devices: Vec<crate::report::DeviceStats> = Vec::new();
        let mut energy = hetsim::EnergyBreakdown::default();
        let mut quality = crate::guard::QualityReport::default();
        let mut scheduling_overhead_s = 0.0;
        let mut steals = 0;
        let mut peak_memory_bytes = 0u64;
        let mut tpu_elements = 0u64;
        let mut total_elements = 0u64;
        for stage in &mut self.stages {
            let r = &mut stage.report;
            scheduling_overhead_s += r.scheduling_overhead_s;
            steals += r.steals;
            peak_memory_bytes = peak_memory_bytes.max(r.peak_memory_bytes);
            energy.idle_j += r.energy.idle_j;
            energy.active_j += r.energy.active_j;
            for d in &r.devices {
                match devices.iter_mut().find(|m| m.kind == d.kind) {
                    Some(m) => {
                        m.busy_s += d.busy_s;
                        m.wait_s += d.wait_s;
                        m.hlops += d.hlops;
                        m.max_queue_depth = m.max_queue_depth.max(d.max_queue_depth);
                        m.stolen_away += d.stolen_away;
                    }
                    None => devices.push(*d),
                }
            }
            for (kind, elems) in r.device_elements() {
                if kind == DeviceKind::EdgeTpu {
                    tpu_elements += elems;
                }
                total_elements += elems;
            }
            quality.enabled |= r.quality.enabled;
            quality.page_verifiable |= r.quality.page_verifiable;
            quality.approx_hlops += r.quality.approx_hlops;
            quality.checked_hlops += r.quality.checked_hlops;
            quality.sampled_pages += r.quality.sampled_pages;
            quality.estimated_mape = quality.estimated_mape.max(r.quality.estimated_mape);
            quality.true_mape = quality.true_mape.max(r.quality.true_mape);
            quality.overhead_s += r.quality.overhead_s;
            quality.budget_mape = quality.budget_mape.max(r.quality.budget_mape);
            quality.repairs.append(&mut r.quality.repairs);
        }
        let output_shape = self.output.shape();
        RunReport {
            output: self.output,
            output_shape,
            makespan_s: self.makespan_s,
            scheduling_overhead_s,
            devices,
            energy,
            bus_bytes: self.resident_bus_bytes,
            records: Vec::new(),
            tpu_fraction: tpu_elements as f64 / total_elements.max(1) as f64,
            steals,
            peak_memory_bytes,
            faults: hetsim::FaultReport::default(),
            quality,
            trace: None,
        }
    }
}

/// One fused execution stage (internal).
#[derive(Debug, Clone)]
struct ExecStage {
    nodes: Vec<NodeId>,
    deps: Vec<usize>,
    max_mape: Option<f64>,
}

/// Pass-1 execution data kept per stage for the re-timing.
#[derive(Debug)]
struct StageExec {
    elements: usize,
    kernel: Box<dyn Kernel>,
    /// The stage's runtime, configuration as in pass 1.
    runtime: ShmtRuntime,
    /// The stage's HLOPs, indexed by id.
    hlops: Vec<Hlop>,
    report: RunReport,
}

fn stage_platform(op: &NodeOp) -> Platform {
    match op {
        NodeOp::Benchmark { benchmark, .. } => Platform::jetson(*benchmark),
        _ => Platform::generic(),
    }
}

fn merge_budget(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

fn tpu_tiles(e: &StageExec) -> Vec<&Tile> {
    e.report
        .records
        .iter()
        .filter(|r| r.device == DeviceKind::EdgeTpu)
        .map(|r| &e.hlops[r.id].tile)
        .collect()
}

/// Elements in the intersection of two tile rectangles.
fn tile_overlap(a: &Tile, b: &Tile) -> usize {
    let r0 = a.row0.max(b.row0);
    let r1 = (a.row0 + a.rows).min(b.row0 + b.rows);
    let c0 = a.col0.max(b.col0);
    let c1 = (a.col0 + a.cols).min(b.col0 + b.cols);
    r1.saturating_sub(r0) * c1.saturating_sub(c0)
}

fn unary_opcode(op: UnaryOp) -> Opcode {
    match op {
        UnaryOp::Log => Opcode::Log,
        UnaryOp::Relu => Opcode::Relu,
        UnaryOp::Rsqrt => Opcode::Rsqrt,
        UnaryOp::Sqrt => Opcode::Sqrt,
        UnaryOp::Tanh => Opcode::Tanh,
    }
}

/// A stage's pass-1 placement as a plan: each device's queue holds the
/// HLOPs it ran, in the order it started them, and no device may steal,
/// so neither stealing nor endgame withdrawal can move an HLOP.
fn pinned_plan(e: &StageExec) -> Plan {
    let profiles = e.runtime.platform().device_profiles();
    let mut queues = pooled_queues();
    // Records are kept in execution order, so each device's HLOPs arrive
    // in the order it started them.
    for r in &e.report.records {
        if let Some(d) = profiles.iter().position(|p| p.kind == r.device) {
            queues[d].push(e.hlops[r.id]);
        }
    }
    Plan {
        queues,
        overhead_s: e.report.scheduling_overhead_s,
        steal: [[false; 3]; 3],
    }
}

/// Moves a flowing tensor out of its slot on its last read, clones it
/// otherwise.
fn take_or_clone(slot: &mut Option<Tensor>, last: bool) -> Result<Tensor> {
    let t = if last { slot.take() } else { slot.clone() };
    t.ok_or_else(|| ShmtError::Internal("dependency ran out of order".into()))
}

/// Keeps flowing data inside kernel-friendly numeric ranges between
/// stages (image kernels expect non-negative 8-bit-scale values;
/// transforms can emit negatives).
fn sanitize(mut t: Tensor) -> Tensor {
    t.map_inplace(|v| {
        if v.is_finite() {
            v.clamp(-1.0e6, 1.0e6)
        } else {
            0.0
        }
    });
    t
}

/// A chain of unary element-wise primitives fused into one kernel, so a
/// `relu → sqrt` pair runs as a single VOP with no intermediate tensor.
/// The chain runs op-outer on each row: `first` goes source → destination,
/// then every op of `rest` runs in place while the row is still in L1 —
/// per element the same ops in the same order, so bit for bit the
/// element-at-a-time fold. The int8 NPU path quantizes once around the
/// whole chain, exactly as a fused device kernel would.
#[derive(Debug, Clone)]
pub(crate) struct FusedElementwise {
    pub(crate) first: UnaryOp,
    pub(crate) rest: Vec<UnaryOp>,
}

impl Kernel for FusedElementwise {
    fn name(&self) -> &'static str {
        "fused-elementwise"
    }

    fn shape(&self) -> KernelShape {
        KernelShape::elementwise()
    }

    fn run_exact_into(&self, inputs: &[&Tensor], tile: Tile, out: &mut TensorViewMut<'_>) {
        let input = inputs[0];
        for r in tile.row0..tile.row0 + tile.rows {
            let src = &input.row(r)[tile.col0..tile.col0 + tile.cols];
            let dst = out.span_mut(r, tile.col0..tile.col0 + tile.cols);
            self.first.apply_into(src, dst);
            for op in &self.rest {
                op.apply_in_place(dst);
            }
        }
    }

    fn work_per_element(&self) -> f64 {
        4.0 * (1 + self.rest.len()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SamplingMethod;
    use crate::sched::{Policy, QawsAssignment};
    use shmt_tensor::gen;

    fn cfg() -> DagConfig {
        let mut rt = RuntimeConfig::new(Policy::WorkStealing);
        rt.partitions = 8;
        DagConfig::new(rt)
    }

    #[test]
    fn rejects_empty_cyclic_and_multi_sink_graphs() {
        assert!(matches!(
            VopDag::new(vec![]),
            Err(ShmtError::InvalidConfig(_))
        ));
        // 0 → 1 → 0 cycle.
        let cyc = vec![
            DagNode::unary(UnaryOp::Relu, 1),
            DagNode::unary(UnaryOp::Sqrt, 0),
        ];
        assert!(matches!(VopDag::new(cyc), Err(ShmtError::InvalidConfig(_))));
        // Two disconnected roots are two sinks.
        let two = vec![
            DagNode::benchmark(Benchmark::Sobel, 1, vec![]),
            DagNode::benchmark(Benchmark::Sobel, 2, vec![]),
        ];
        assert!(matches!(VopDag::new(two), Err(ShmtError::InvalidConfig(_))));
        // Binary arity violation.
        let bad = vec![
            DagNode::benchmark(Benchmark::Sobel, 1, vec![]),
            DagNode {
                op: NodeOp::Binary(BinaryOp::Add),
                deps: vec![0],
                max_mape: None,
            },
        ];
        assert!(matches!(VopDag::new(bad), Err(ShmtError::InvalidConfig(_))));
    }

    #[test]
    fn fused_elementwise_assigns_its_destination() {
        let input = gen::image8(40, 24, 3);
        let fused = FusedElementwise {
            first: UnaryOp::Relu,
            rest: vec![UnaryOp::Sqrt, UnaryOp::Tanh],
        };
        let tile = Tile {
            index: 0,
            row0: 8,
            col0: 5,
            rows: 20,
            cols: 13,
        };
        crate::vop::tests::assert_assigns(&fused, &[&input], tile);
    }

    /// The fused chain (of one to three ops) and the lone unary kernel
    /// compute an off-origin tile bit for bit as the per-element `apply`
    /// fold — signed zeros, NaN payloads, infinities, subnormals and
    /// values near `f32::MAX` included — and write nothing outside it.
    #[test]
    fn elementwise_kernels_match_the_apply_fold_on_off_origin_tiles() {
        const OPS: [UnaryOp; 5] = [
            UnaryOp::Log,
            UnaryOp::Relu,
            UnaryOp::Rsqrt,
            UnaryOp::Sqrt,
            UnaryOp::Tanh,
        ];
        let mut values = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -f32::MAX,
        ];
        values.extend([1.0, -1.0, 0.25, -3.5, 255.0, 1e-30, -1e30]);
        values.extend(
            [
                0x7fc0_0001u32,
                0xffc1_2345,
                0x7f80_0001,
                0x0000_0001,
                0x807f_ffff,
            ]
            .map(f32::from_bits),
        );
        let input = Tensor::from_fn(40, 24, |r, c| values[(r * 24 + c * 7) % values.len()]);
        let tile = Tile {
            index: 0,
            row0: 8,
            col0: 5,
            rows: 20,
            cols: 13,
        };
        let sentinel = f32::from_bits(0x7fa5_a5a5);
        let check = |kernel: &dyn Kernel, chain: &[UnaryOp]| {
            let mut out = Tensor::filled(40, 24, sentinel);
            kernel.run_exact(&[&input], tile, &mut out);
            for r in 0..40 {
                for c in 0..24 {
                    let inside = (8..28).contains(&r) && (5..18).contains(&c);
                    let want = if inside {
                        chain.iter().fold(input[(r, c)], |v, op| op.apply(v))
                    } else {
                        sentinel
                    };
                    assert_eq!(
                        out[(r, c)].to_bits(),
                        want.to_bits(),
                        "{chain:?} at ({r}, {c})"
                    );
                }
            }
        };
        for a in OPS {
            let lone = Vop::unary(a, input.clone()).unwrap().into_kernel();
            check(lone.as_ref(), &[a]);
            let single = FusedElementwise {
                first: a,
                rest: vec![],
            };
            check(&single, &[a]);
            for b in OPS {
                let pair = FusedElementwise {
                    first: a,
                    rest: vec![b],
                };
                check(&pair, &[a, b]);
                for c in OPS {
                    let triple = FusedElementwise {
                        first: a,
                        rest: vec![b, c],
                    };
                    check(&triple, &[a, b, c]);
                }
            }
        }
    }

    const VISION: [(Benchmark, u64); 2] = [(Benchmark::MeanFilter, 1), (Benchmark::Sobel, 2)];

    /// A linear DAG is the same VOPs hand-chained through
    /// `ShmtRuntime::execute` + `sanitize`, bit for bit: a benchmark chain
    /// under work stealing, and DWT → ReLU → Sqrt under QAWS-TS with
    /// fusion off (its unary stages hand-chained through `Vop::unary` on
    /// the generic platform).
    #[test]
    fn linear_dag_matches_program_exactly() {
        let mut qaws_ts = RuntimeConfig::new(Policy::Qaws {
            assignment: QawsAssignment::TopK,
            sampling: SamplingMethod::Striding,
        });
        qaws_ts.partitions = 8;
        let mut unfused = DagConfig::new(qaws_ts);
        unfused.fuse_elementwise = false;
        let dwt = VopDag::new(vec![
            DagNode::benchmark(Benchmark::Dwt, 3, vec![]),
            DagNode::unary(UnaryOp::Relu, 0),
            DagNode::unary(UnaryOp::Sqrt, 1),
        ])
        .unwrap();
        for (dag, c) in [(VopDag::linear(&VISION).unwrap(), cfg()), (dwt, unfused)] {
            let input = gen::image8(96, 96, 3);
            let d = dag.run(&input, &c).unwrap();
            assert_eq!(d.stages.len(), dag.len());
            // The same VOPs, one `ShmtRuntime::execute` after another.
            let mut flowing = input;
            let mut total_latency_s = 0.0;
            for (node, ds) in dag.nodes().iter().zip(&d.stages) {
                let (vop, platform) = match node.op {
                    NodeOp::Benchmark { benchmark, .. } => (
                        Vop::from_benchmark(benchmark, vec![flowing]).unwrap(),
                        Platform::jetson(benchmark),
                    ),
                    NodeOp::Unary(op) => (Vop::unary(op, flowing).unwrap(), Platform::generic()),
                    NodeOp::Binary(_) => unreachable!("a chain has no joins"),
                };
                let r = ShmtRuntime::new(platform, c.runtime).execute(&vop).unwrap();
                assert_eq!(ds.report.makespan_s, r.makespan_s);
                assert_eq!(ds.report.bus_bytes, r.bus_bytes);
                // The stage output moved on and left a 1x1 placeholder behind,
                // so observers must never infer workload from `report.output`:
                // `output_shape` and the per-device element counts carry the
                // real sizes.
                assert_eq!(ds.report.output.shape(), (1, 1));
                assert_eq!(ds.report.output_shape, r.output_shape);
                assert_eq!(ds.report.device_elements(), r.device_elements());
                assert_eq!(ds.elements, 96 * 96);
                total_latency_s += r.makespan_s;
                flowing = sanitize(r.output);
            }
            assert_eq!(d.output.as_slice(), flowing.as_slice());
            assert_eq!(d.total_latency_s, total_latency_s);
            assert!(d.total_energy_j > 0.0);
            // Both chains end in a non-negative function (Sobel magnitudes,
            // sqrt), up to int8 grid rounding (the TPU output grid's lower
            // edge can dequantize a hair below zero).
            assert!(d.output.as_slice().iter().all(|&v| v >= -1e-3));
        }
    }

    #[test]
    fn multi_input_stages_get_aux_inputs() {
        let dag = VopDag::linear(&[(Benchmark::Hotspot, 7)]).unwrap();
        let input = gen::temperature(96, 96, 1);
        let mut c = cfg();
        c.runtime.partitions = 4;
        let d = dag.run(&input, &c).unwrap();
        assert_eq!(d.stages.len(), 1);
        // Temperatures stay physical after one step.
        let (lo, hi) = d.output.min_max();
        assert!(lo > 250.0 && hi < 450.0, "{lo}..{hi}");
    }

    #[test]
    fn conventional_walk_is_the_per_stage_gpu_baseline() {
        let dag = VopDag::linear(&VISION).unwrap();
        let input = gen::image8(128, 128, 5);
        let (conv_s, conv_out) = dag.run_conventional(&input, 8).unwrap();
        let mut flowing = input;
        let mut total_s = 0.0;
        for (benchmark, _) in VISION {
            let vop = Vop::from_benchmark(benchmark, vec![flowing]).unwrap();
            let r = gpu_baseline(&Platform::jetson(benchmark), &vop, 8).unwrap();
            total_s += r.makespan_s;
            flowing = sanitize(r.output);
        }
        assert_eq!(conv_s, total_s);
        assert_eq!(conv_out.as_slice(), flowing.as_slice());
    }

    #[test]
    fn unary_chain_fuses_to_one_stage() {
        let dag = VopDag::new(vec![
            DagNode::benchmark(Benchmark::Dwt, 1, vec![]),
            DagNode::unary(UnaryOp::Relu, 0),
            DagNode::unary(UnaryOp::Sqrt, 1),
        ])
        .unwrap();
        let input = gen::image8(64, 64, 9);
        let d = dag.run(&input, &cfg()).unwrap();
        assert_eq!(d.stages.len(), 2, "relu+sqrt fuse into one stage");
        assert_eq!(d.fused, 1);
        assert_eq!(d.stages[1].nodes, vec![1, 2]);
        // Fusion off executes all three nodes separately.
        let mut c = cfg();
        c.fuse_elementwise = false;
        let u = dag.run(&input, &c).unwrap();
        assert_eq!(u.stages.len(), 3);
        assert_eq!(u.fused, 0);
    }

    #[test]
    fn diamond_dag_runs_and_merges() {
        // source → (relu, sqrt-of-relu?) no: diamond via binary join.
        let dag = VopDag::new(vec![
            DagNode::benchmark(Benchmark::MeanFilter, 3, vec![]),
            DagNode::unary(UnaryOp::Relu, 0),
            DagNode::unary(UnaryOp::Tanh, 0),
            DagNode::binary(BinaryOp::Add, 1, 2),
        ])
        .unwrap();
        let input = gen::image8(64, 64, 4);
        let d = dag.run(&input, &cfg()).unwrap();
        assert_eq!(d.output.shape(), (64, 64));
        // Node 0 has two consumers: neither of its edges is
        // residency-eligible, so only relu → add (the join's slot-0 edge)
        // can stay resident, and node 0's output is restored in full.
        assert_eq!(d.stages.len(), 4);
        assert_eq!(d.resident_edges, 1);
        assert_eq!(d.stages[0].resident_out_elements, 0);
        assert!(d.makespan_s > 0.0);
        // Residency only removes charges: the composition never moves
        // more bytes than the stages staged on their own.
        let staged_alone: u64 = d.stages.iter().map(|s| s.report.bus_bytes).sum();
        assert!(d.resident_bus_bytes <= staged_alone);
    }

    #[test]
    fn canceled_runs_surface_typed_error() {
        let dag = VopDag::linear(&[(Benchmark::Sobel, 1)]).unwrap();
        let input = gen::image8(32, 32, 1);
        let err = dag
            .run_with_cancel(input, &cfg(), &mut NullSink, &mut || true)
            .unwrap_err();
        assert!(matches!(err, ShmtError::Canceled));
    }
}
