//! Scheduling policies (paper §3.4–§3.5).
//!
//! A policy produces a [`Plan`]: the initial per-device queue assignment,
//! the serial scheduling overhead it incurred (sampling, canary runs), the
//! work-stealing permission matrix, and whether transfers are pipelined.
//! The runtime then plays the plan out in virtual time, stealing HLOPs
//! between queues as devices drain.
//!
//! Implemented policies:
//!
//! * **Even distribution** — naive static 50/50 round-robin between the GPU
//!   and the Edge TPU, no stealing, synchronous transfers (the paper's
//!   quality-unaware reference that loses on 6 of 10 benchmarks).
//! * **Work stealing** (§3.4) — even initial split across all devices, any
//!   device steals from the most loaded queue.
//! * **QAWS** (§3.5) — work stealing with criticality sampling; assignment
//!   by *device limits* (Algorithm 1) or *Top-K* (Algorithm 2), sampling by
//!   striding / uniform-random / reduction (Algorithms 3–5); stealing
//!   restricted so lower-accuracy devices never take higher-accuracy work.
//! * **IRA sampling** — the full input-responsiveness baseline: canary
//!   *computations* per partition (accurate but expensive, ~45% slowdown).
//! * **Oracle** — true per-partition NPU error measured offline, not
//!   charged any time (the paper's manually-optimized quality reference).

use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;
use shmt_trace::{EventKind, NullSink, TraceSink};

use crate::criticality::{CriticalityMetric, CriticalityStats};
use crate::hlop::Hlop;
use crate::sampling::{sample_partition_into, SamplingMethod};
use crate::vop::Vop;

/// Index of a device queue. By the paper's convention the GPU queue is
/// index 0 and the Edge TPU queue the last index; we insert the CPU
/// (exact, like the GPU) in between.
pub type QueueIndex = usize;

/// Queue index of the GPU.
pub const GPU: QueueIndex = 0;
/// Queue index of the CPU.
pub const CPU: QueueIndex = 1;
/// Queue index of the Edge TPU.
pub const TPU: QueueIndex = 2;

/// Accuracy class per queue index: lower is more accurate. The GPU and CPU
/// compute exact fp32; the Edge TPU is approximate int8.
pub const ACCURACY_CLASS: [u8; 3] = [0, 0, 1];

/// The QAWS hardware-assignment flavor (the `T`/`L` in QAWS-XY).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QawsAssignment {
    /// Algorithm 1: device-dependent criticality limits.
    DeviceLimits,
    /// Algorithm 2: application-dependent top-K% ranking within windows.
    TopK,
}

/// A scheduling policy for one VOP execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Static even split between GPU and Edge TPU; no stealing.
    EvenDistribution,
    /// The basic work-stealing scheduler (§3.4).
    WorkStealing,
    /// Quality-aware work stealing (§3.5).
    Qaws {
        /// Hardware assignment flavor.
        assignment: QawsAssignment,
        /// Sampling mechanism.
        sampling: SamplingMethod,
    },
    /// The full IRA canary baseline.
    IraSampling,
    /// Offline-oracle criticality assignment.
    Oracle,
}

impl Policy {
    /// The six QAWS variants in the paper's order (TS, TU, TR, LS, LU, LR).
    pub fn qaws_variants() -> [Policy; 6] {
        use QawsAssignment::*;
        use SamplingMethod::*;
        [
            Policy::Qaws {
                assignment: TopK,
                sampling: Striding,
            },
            Policy::Qaws {
                assignment: TopK,
                sampling: UniformRandom,
            },
            Policy::Qaws {
                assignment: TopK,
                sampling: Reduction,
            },
            Policy::Qaws {
                assignment: DeviceLimits,
                sampling: Striding,
            },
            Policy::Qaws {
                assignment: DeviceLimits,
                sampling: UniformRandom,
            },
            Policy::Qaws {
                assignment: DeviceLimits,
                sampling: Reduction,
            },
        ]
    }

    /// Display name matching the paper's figure legends. Static strings:
    /// policy names are rendered on every report row and bench label, and
    /// the serve path formats them per request — no heap behind them.
    pub fn name(&self) -> &'static str {
        use QawsAssignment::*;
        use SamplingMethod::*;
        match self {
            Policy::EvenDistribution => "even distribution",
            Policy::WorkStealing => "work-stealing",
            Policy::Qaws {
                assignment: TopK,
                sampling: Striding,
            } => "QAWS-TS",
            Policy::Qaws {
                assignment: TopK,
                sampling: UniformRandom,
            } => "QAWS-TU",
            Policy::Qaws {
                assignment: TopK,
                sampling: Reduction,
            } => "QAWS-TR",
            Policy::Qaws {
                assignment: DeviceLimits,
                sampling: Striding,
            } => "QAWS-LS",
            Policy::Qaws {
                assignment: DeviceLimits,
                sampling: UniformRandom,
            } => "QAWS-LU",
            Policy::Qaws {
                assignment: DeviceLimits,
                sampling: Reduction,
            } => "QAWS-LR",
            Policy::IraSampling => "IRA-sampling",
            Policy::Oracle => "oracle",
        }
    }
}

/// Window size W for Top-K ranking (Algorithm 2).
const WINDOW: usize = 16;

/// Device-limit factor: the Edge TPU accepts partitions whose criticality
/// is below `LIMIT_FACTOR x median partition criticality`. The hardware
/// limit binds harder than Top-K ranking (the paper finds the rank-based
/// approach lets the TPU take more partitions, §5.2).
const LIMIT_FACTOR: f32 = 1.2;

/// Fraction of each partition executed as the IRA canary (for the quality
/// estimate).
const IRA_CANARY_FRAC: f64 = 1.0 / 8.0;

/// IRA's end-to-end time overhead as a multiple of the ideal GPU kernel
/// time — the full technique executes canaries through every candidate
/// approximation configuration before committing, which the paper
/// measures at a 45% end-to-end slowdown.
const IRA_TIME_FACTOR: f64 = 1.45;

/// Tuning knobs for the quality-aware policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityConfig {
    /// Sampling rate (fraction of partition elements sampled; Fig 9 sweeps
    /// 2⁻²¹…2⁻¹⁴). Default 2⁻¹⁵, the paper's sweet spot.
    pub sampling_rate: f64,
    /// Criticality metric over the samples.
    pub metric: CriticalityMetric,
    /// Ablation knob: drop QAWS's accuracy-ordered steal restriction and
    /// let any device steal any queue (quality-unsafe).
    pub unrestricted_steal: bool,
    /// Seed for random sampling.
    pub seed: u64,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            sampling_rate: 2.0f64.powi(-15),
            metric: CriticalityMetric::default(),
            unrestricted_steal: false,
            seed: 0x0051_11AD,
        }
    }
}

/// A policy's output: initial queues, overhead, and stealing rules.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Initial queue contents per device index (front = next to run).
    /// Fixed-size spine (one slot per device); the inner vectors come
    /// from the runtime arena and are recycled after the plan is played.
    pub queues: [Vec<Hlop>; 3],
    /// Serial scheduler-side overhead in seconds (sampling, canaries).
    pub overhead_s: f64,
    /// Whether casts/transfers overlap compute.
    pub pipelined: bool,
    /// `steal[thief][victim]` — may `thief` take pending HLOPs from
    /// `victim`'s queue?
    pub steal: [[bool; 3]; 3],
}

impl Plan {
    /// Total HLOPs across all queues.
    pub fn total_hlops(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    /// Returns the plan's queue spines to the runtime arena.
    pub fn recycle(self) {
        for q in self.queues {
            crate::arena::HLOPS.put(q);
        }
    }
}

/// Three empty per-device queues with pooled spines.
pub(crate) fn pooled_queues() -> [Vec<Hlop>; 3] {
    [
        crate::arena::HLOPS.take(),
        crate::arena::HLOPS.take(),
        crate::arena::HLOPS.take(),
    ]
}

/// Unrestricted stealing between distinct devices.
fn steal_any() -> [[bool; 3]; 3] {
    let mut m = [[true; 3]; 3];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = false;
    }
    m
}

/// No stealing at all.
fn steal_none() -> [[bool; 3]; 3] {
    [[false; 3]; 3]
}

/// Accuracy-restricted stealing (§3.5): a device may steal only from a
/// victim whose accuracy class is the same or lower (a higher-accuracy
/// device can absorb approximate-eligible work; the Edge TPU can never
/// take work reserved for exact hardware).
fn steal_accuracy_ordered() -> [[bool; 3]; 3] {
    let mut m = [[false; 3]; 3];
    for thief in 0..3 {
        for victim in 0..3 {
            if thief != victim && ACCURACY_CLASS[thief] <= ACCURACY_CLASS[victim] {
                m[thief][victim] = true;
            }
        }
    }
    m
}

/// Device throughputs the planner needs to price scheduling overheads,
/// plus the static inputs that widen or narrow the TPU's share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanContext {
    /// GPU sustained throughput (work units/s).
    pub gpu_throughput: f64,
    /// Static multiplier on the Edge TPU's admission aperture
    /// ([`crate::calibration::AdaptiveCalibration::tpu_admission`]):
    /// scales the QAWS window share left to the TPU under Top-K and the
    /// TPU's criticality limit under DeviceLimits. `1.0` reproduces the
    /// static planner bit-for-bit; `0.0` evicts the TPU from planning.
    pub tpu_admission: f64,
    /// Fraction of this VOP's input already resident in Edge-TPU memory
    /// (the DAG layer's residency-aware dispatch hint). Widens the
    /// effective admission by `1 + tpu_residency`: data that is already
    /// on the device has paid its staging cost, so the planner may hand
    /// the TPU a larger share. The neutral `0.0` multiplies by exactly
    /// 1.0 and keeps every plan bit-identical.
    pub tpu_residency: f64,
}

impl PlanContext {
    /// A static-planner context (neutral admission, no residency) for
    /// the given GPU throughput.
    pub fn new(gpu_throughput: f64) -> Self {
        PlanContext {
            gpu_throughput,
            tpu_admission: 1.0,
            tpu_residency: 0.0,
        }
    }

    /// The TPU admission aperture after the residency widening.
    pub fn effective_admission(&self) -> f64 {
        self.tpu_admission * (1.0 + self.tpu_residency)
    }
}

/// Scales the Top-K accurate-queue count by shrinking the TPU's share
/// of each window: `w - k` partitions per window go approximate under
/// the static planner; the admission multiplier scales that share.
/// `admission == 1.0` returns `k` exactly.
fn adapt_top_k(k: usize, w: usize, admission: f64) -> usize {
    let tpu_share = (w.saturating_sub(k) as f64 * admission).round() as usize;
    w.saturating_sub(tpu_share.min(w))
}

/// Builds the plan for `policy` over the partitioned VOP.
pub fn plan(
    policy: Policy,
    vop: &Vop,
    hlops: &[Hlop],
    quality: &QualityConfig,
    ctx: PlanContext,
) -> Plan {
    plan_traced(policy, vop, hlops, quality, ctx, &mut NullSink)
}

/// [`plan`], emitting `SampleOverhead` events into `sink`: one per
/// partition, stamped at the instant the partition's share of the serial
/// overhead window ends, so the events tile `[0, overhead_s]` exactly.
pub fn plan_traced(
    policy: Policy,
    vop: &Vop,
    hlops: &[Hlop],
    quality: &QualityConfig,
    ctx: PlanContext,
    sink: &mut dyn TraceSink,
) -> Plan {
    match policy {
        Policy::EvenDistribution => {
            // Round-robin between GPU and Edge TPU only (§5.2).
            let mut queues = pooled_queues();
            for (i, h) in hlops.iter().enumerate() {
                queues[if i % 2 == 0 { GPU } else { TPU }].push(*h);
            }
            // Even distribution is naive about *where* work goes, not about
            // how transfers run: double buffering is part of the runtime
            // infrastructure (§5.6), so it stays pipelined.
            Plan {
                queues,
                overhead_s: 0.0,
                pipelined: true,
                steal: steal_none(),
            }
        }
        Policy::WorkStealing => {
            // Even initial split across all devices (§3.4), free stealing.
            let mut queues = pooled_queues();
            for (i, h) in hlops.iter().enumerate() {
                queues[i % 3].push(*h);
            }
            Plan {
                queues,
                overhead_s: 0.0,
                pipelined: true,
                steal: steal_any(),
            }
        }
        Policy::Qaws {
            assignment,
            sampling,
        } => {
            // Scores and class decisions live in pooled spines: the
            // whole QAWS planning pass is allocation-free once warm.
            let mut scores = crate::arena::SCORES.take();
            let cost = sample_scores_into(vop, hlops, sampling, quality, sink, &mut scores);
            let mut classes = crate::arena::CLASSES.take();
            match assignment {
                QawsAssignment::DeviceLimits => {
                    // The admission multiplier scales the TPU's
                    // criticality limit; x1.0 is bitwise exact.
                    let factor = LIMIT_FACTOR * ctx.effective_admission() as f32;
                    let limits = device_limits_pair(&scores, factor);
                    algorithm1_into(&scores, &limits, &mut classes);
                }
                QawsAssignment::TopK => {
                    let k = (vop.criticality_hint() * WINDOW as f64).round() as usize;
                    let k = adapt_top_k(k, WINDOW, ctx.effective_admission());
                    algorithm2_into(&scores, k.max(1), WINDOW, &mut classes);
                }
            }
            let queues = queues_from_classes(hlops, &scores, &classes);
            crate::arena::SCORES.put(scores);
            crate::arena::CLASSES.put(classes);
            Plan {
                queues,
                overhead_s: cost,
                pipelined: true,
                steal: if quality.unrestricted_steal {
                    steal_any()
                } else {
                    steal_accuracy_ordered()
                },
            }
        }
        Policy::IraSampling => {
            // Full IRA: canary computations through both paths give a real
            // per-partition quality estimate, at a cost comparable to
            // re-running the kernel (paper: 45% end-to-end slowdown).
            let (errors, _) = canary_errors(vop, hlops, IRA_CANARY_FRAC);
            let total_work: f64 = hlops.iter().map(|h| h.elements() as f64).sum::<f64>()
                * vop.kernel().work_per_element();
            let overhead_s = IRA_TIME_FACTOR * total_work / ctx.gpu_throughput.max(1.0);
            if sink.enabled() && !hlops.is_empty() {
                // The canary cost is charged as one serial window; attribute
                // an equal share to each partition so the trace shows where
                // the IRA slowdown goes.
                let share = overhead_s / hlops.len() as f64;
                for (i, h) in hlops.iter().enumerate() {
                    sink.record(
                        (i + 1) as f64 * share,
                        EventKind::SampleOverhead {
                            hlop: h.id,
                            cost_s: share,
                        },
                    );
                }
            }
            let indices = rank_assignment(&errors, vop.criticality_hint());
            Plan {
                queues: queues_from_classes(hlops, &errors, &indices),
                overhead_s,
                pipelined: true,
                steal: steal_accuracy_ordered(),
            }
        }
        Policy::Oracle => {
            // True full-partition error, free of charge: the "manually
            // identified critical regions" reference.
            let (errors, _) = canary_errors(vop, hlops, 1.0);
            let indices = rank_assignment(&errors, vop.criticality_hint());
            Plan {
                queues: queues_from_classes(hlops, &errors, &indices),
                overhead_s: 0.0,
                pipelined: true,
                steal: steal_accuracy_ordered(),
            }
        }
    }
}

/// Samples every partition and scores its criticality into `scores`
/// (cleared first); returns the total serial sampling cost. One pooled
/// value buffer is reused across every partition's draw.
fn sample_scores_into(
    vop: &Vop,
    hlops: &[Hlop],
    method: SamplingMethod,
    quality: &QualityConfig,
    sink: &mut dyn TraceSink,
    scores: &mut Vec<f32>,
) -> f64 {
    let input = &vop.inputs()[0];
    let mut cost = 0.0;
    let mut values = crate::arena::SAMPLES.take();
    scores.clear();
    scores.reserve(hlops.len());
    for h in hlops {
        let cost_s = sample_partition_into(
            input,
            h.tile,
            method,
            quality.sampling_rate,
            quality.seed,
            &mut values,
        );
        cost += cost_s;
        if sink.enabled() {
            // Stamped at the end of this partition's slice of the
            // serial sampling window.
            sink.record(cost, EventKind::SampleOverhead { hlop: h.id, cost_s });
        }
        scores.push(CriticalityStats::from_samples(&values).score(quality.metric));
    }
    crate::arena::SAMPLES.put(values);
    cost
}

/// Algorithm 1 (Device Limitation): assign each partition to the least
/// accurate device whose criticality limit admits its sampled score,
/// defaulting to the most accurate queue.
///
/// `limits` is `(limit, queue_index)` sorted ascending by limit — i.e. from
/// the most limited (least accurate) device upward, which realizes the
/// paper's "assigns only data inputs lower than the criticality limits to
/// that computing resource".
pub fn algorithm1_device_limits(scores: &[f32], limits: &[(f32, QueueIndex)]) -> Vec<QueueIndex> {
    let mut out = Vec::new();
    algorithm1_into(scores, limits, &mut out);
    out
}

/// Out-param form of [`algorithm1_device_limits`]: clears and refills
/// `out`, so the planner's warm path can reuse a pooled spine.
fn algorithm1_into(scores: &[f32], limits: &[(f32, QueueIndex)], out: &mut Vec<QueueIndex>) {
    out.clear();
    out.extend(scores.iter().map(|&s| {
        let mut q = GPU; // default: the most accurate queue
        for &(limit, queue) in limits {
            if s < limit {
                q = queue;
                break;
            }
        }
        q
    }));
}

/// Derives the Edge TPU's criticality limit from the score distribution:
/// `limit_factor x median`. The exact devices have an infinite limit.
pub fn device_limits_from(scores: &[f32], limit_factor: f32) -> Vec<(f32, QueueIndex)> {
    device_limits_pair(scores, limit_factor).to_vec()
}

/// Fixed-size form of [`device_limits_from`]: there are only ever two
/// limits (TPU's median-derived cap and the exact devices' infinity), so
/// the warm path needs no `Vec` at all. The median is selected without
/// sorting a scratch copy of the scores.
fn device_limits_pair(scores: &[f32], limit_factor: f32) -> [(f32, QueueIndex); 2] {
    let median = if scores.is_empty() {
        0.0
    } else {
        // The element a full sort would place at index len/2, found by
        // counting: `s` lands there iff fewer-than-or-`target` scores
        // order strictly below it and the ties reach past `target`.
        // Quadratic in the partition count, but partition counts are
        // tens, not millions, and it beats allocating and sorting a
        // scratch vector on every planning pass.
        let target = scores.len() / 2;
        let by = |a: f32, b: f32| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
        let mut med = scores[0];
        for &s in scores {
            let below = scores.iter().filter(|&&x| by(x, s).is_lt()).count();
            let equal = scores.iter().filter(|&&x| by(x, s).is_eq()).count();
            if below <= target && target < below + equal {
                med = s;
                break;
            }
        }
        med
    };
    [(median * limit_factor, TPU), (f32::INFINITY, GPU)]
}

/// Algorithm 2 (Top-K criticality): within each window of `w` partitions,
/// the `k` highest-criticality partitions go to the accurate queue (0) and
/// the rest to the approximate queue.
///
/// # Panics
///
/// Panics if `k > w` or `w == 0`.
pub fn algorithm2_top_k(scores: &[f32], k: usize, w: usize) -> Vec<QueueIndex> {
    let mut out = Vec::new();
    algorithm2_into(scores, k, w, &mut out);
    out
}

/// Out-param form of [`algorithm2_top_k`]: clears and refills `out` and
/// reuses one pooled rank-ordering scratch across windows. The per-window
/// sort is stable, matching the original, so ties keep their bit-exact
/// assignment.
fn algorithm2_into(scores: &[f32], k: usize, w: usize, out: &mut Vec<QueueIndex>) {
    assert!(w > 0, "window must be positive");
    assert!(k <= w, "K must not exceed the window size");
    out.clear();
    out.resize(scores.len(), TPU);
    let mut order = crate::arena::ORDER.take();
    for (w_idx, chunk) in scores.chunks(w).enumerate() {
        let base = w_idx * w;
        order.clear();
        order.extend(0..chunk.len());
        order.sort_by(|&a, &b| {
            chunk[b]
                .partial_cmp(&chunk[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for (rank, &local) in order.iter().enumerate() {
            out[base + local] = if rank < k { GPU } else { TPU };
        }
    }
    crate::arena::ORDER.put(order);
}

/// Rank-based assignment for oracle/IRA: the top `critical_fraction` of
/// partitions by measured error go to the exact queue.
fn rank_assignment(errors: &[f32], critical_fraction: f64) -> Vec<QueueIndex> {
    let n = errors.len();
    let k = ((n as f64 * critical_fraction).round() as usize).min(n);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        errors[b]
            .partial_cmp(&errors[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = vec![TPU; n];
    for &i in order.iter().take(k) {
        out[i] = GPU;
    }
    out
}

/// Materializes queues from per-partition class decisions and attaches
/// criticality metadata to each HLOP.
///
/// The TPU's queue is ordered by *ascending* criticality: the device works
/// through the most benign partitions first, and since exact devices steal
/// from the **back** of a victim's queue, whatever they reclaim is exactly
/// the most critical TPU-eligible work — the quality-preserving direction
/// of §3.5's restricted stealing.
fn queues_from_classes(hlops: &[Hlop], scores: &[f32], classes: &[QueueIndex]) -> [Vec<Hlop>; 3] {
    let mut queues = pooled_queues();
    for ((h, &score), &class) in hlops.iter().zip(scores).zip(classes) {
        let mut h = *h;
        h.criticality = Some(score);
        if class == TPU {
            queues[TPU].push(h);
        } else {
            // All exact-class work starts in the GPU queue; the CPU (same
            // accuracy class) steals at its own pace, which shares the
            // critical work in proportion to actual device speed instead
            // of a blind round-robin that can strand a slow CPU with a
            // schedule-defining straggler.
            queues[GPU].push(h);
        }
    }
    let by_score_asc = |a: &Hlop, b: &Hlop| {
        a.criticality
            .partial_cmp(&b.criticality)
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    // Unstable sort: allocation-free, and ties are immaterial here (equal
    // criticality scores are interchangeable for steal ordering).
    queues[TPU].sort_unstable_by(by_score_asc);
    // Exact queues stay in arrival order: critical partitions land
    // anywhere in the schedule, including its tail, where they can only
    // run on exact hardware — the small utilization price quality
    // awareness pays relative to unrestricted work stealing (§5.2).
    queues
}

/// Measures each partition's true NPU-vs-exact error on a canary subregion
/// (`frac` of its rows, at least one). Returns per-partition mean absolute
/// errors and the total canary work in kernel work units (two runs each).
fn canary_errors(vop: &Vop, hlops: &[Hlop], frac: f64) -> (Vec<f32>, f64) {
    let kernel = vop.kernel();
    let inputs: Vec<&Tensor> = vop.inputs().iter().collect();
    let (rows, cols) = vop.partition_space();
    let shape = kernel.shape();
    let canaries: Vec<Tile> = hlops
        .iter()
        .map(|h| {
            let canary_rows = ((h.tile.rows as f64 * frac).ceil() as usize).clamp(1, h.tile.rows);
            // Keep block kernels in phase: canary height rounded up to the
            // block edge when possible.
            let align = shape.block_align.max(1);
            let canary_rows = (canary_rows.div_ceil(align) * align).min(h.tile.rows);
            Tile {
                index: h.tile.index,
                row0: h.tile.row0,
                col0: h.tile.col0,
                rows: canary_rows,
                cols: h.tile.cols,
            }
        })
        .collect();
    let work: f64 = canaries
        .iter()
        .map(|c| 2.0 * c.len() as f64 * kernel.work_per_element())
        .sum();

    let errors = match shape.aggregation {
        shmt_kernels::Aggregation::Tile => {
            // All canary tiles are disjoint: compute both paths across all
            // partitions in parallel, then diff per canary region.
            let threads = crate::exec::default_threads();
            let mut exact = shape.allocate_output(rows, cols);
            let exact_tasks: Vec<crate::exec::ComputeTask> = canaries
                .iter()
                .map(|&tile| crate::exec::ComputeTask { tile, npu: false })
                .collect();
            crate::exec::compute_tasks(kernel, &inputs, &exact_tasks, &mut exact, threads);
            let mut approx = shape.allocate_output(rows, cols);
            let npu_tasks: Vec<crate::exec::ComputeTask> = canaries
                .iter()
                .map(|&tile| crate::exec::ComputeTask { tile, npu: true })
                .collect();
            crate::exec::compute_tasks(kernel, &inputs, &npu_tasks, &mut approx, threads);
            canaries
                .iter()
                .map(|&tile| mean_abs_diff(&exact, &approx, tile, &shape))
                .collect()
        }
        shmt_kernels::Aggregation::Reduce { .. } => canaries
            .iter()
            .map(|&canary| {
                let mut exact = shape.allocate_output(rows, cols);
                let mut approx = shape.allocate_output(rows, cols);
                kernel.run_exact(&inputs, canary, &mut exact);
                kernel.run_npu(&inputs, canary, &mut approx);
                mean_abs_diff(&exact, &approx, canary, &shape)
            })
            .collect(),
    };
    (errors, work)
}

fn mean_abs_diff(a: &Tensor, b: &Tensor, tile: Tile, shape: &shmt_kernels::KernelShape) -> f32 {
    match shape.aggregation {
        shmt_kernels::Aggregation::Tile => {
            let mut acc = 0.0f64;
            for r in tile.row0..tile.row0 + tile.rows {
                let ra = &a.row(r)[tile.col0..tile.col0 + tile.cols];
                let rb = &b.row(r)[tile.col0..tile.col0 + tile.cols];
                for (x, y) in ra.iter().zip(rb) {
                    acc += (x - y).abs() as f64;
                }
            }
            (acc / tile.len() as f64) as f32
        }
        shmt_kernels::Aggregation::Reduce { .. } => {
            let acc: f64 = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| (x - y).abs() as f64)
                .sum();
            (acc / a.len() as f64) as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_vop;
    use shmt_kernels::Benchmark;

    fn sobel_vop(n: usize) -> Vop {
        Vop::from_benchmark(Benchmark::Sobel, Benchmark::Sobel.generate_inputs(n, n, 3)).unwrap()
    }

    #[test]
    fn policy_names_match_paper_legends() {
        assert_eq!(Policy::WorkStealing.name(), "work-stealing");
        assert_eq!(
            Policy::Qaws {
                assignment: QawsAssignment::TopK,
                sampling: SamplingMethod::Striding
            }
            .name(),
            "QAWS-TS"
        );
        assert_eq!(
            Policy::Qaws {
                assignment: QawsAssignment::DeviceLimits,
                sampling: SamplingMethod::Reduction
            }
            .name(),
            "QAWS-LR"
        );
        let names: Vec<&str> = Policy::qaws_variants().iter().map(Policy::name).collect();
        assert_eq!(
            names,
            ["QAWS-TS", "QAWS-TU", "QAWS-TR", "QAWS-LS", "QAWS-LU", "QAWS-LR"]
        );
    }

    #[test]
    fn algorithm2_assigns_top_k_to_accurate_queue() {
        let scores = [1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0];
        let q = algorithm2_top_k(&scores, 2, 8);
        assert_eq!(q[1], GPU);
        assert_eq!(q[3], GPU);
        assert_eq!(q.iter().filter(|&&x| x == GPU).count(), 2);
    }

    #[test]
    fn algorithm2_windows_rank_independently() {
        let scores = [10.0, 1.0, 1.0, 1.0, /* window 2 */ 2.0, 3.0, 1.0, 1.0];
        let q = algorithm2_top_k(&scores, 1, 4);
        assert_eq!(q[0], GPU);
        assert_eq!(q[5], GPU);
        assert_eq!(q.iter().filter(|&&x| x == GPU).count(), 2);
    }

    #[test]
    fn algorithm2_handles_ragged_final_window() {
        let scores = [1.0, 2.0, 3.0, 4.0, 9.0];
        let q = algorithm2_top_k(&scores, 2, 4);
        assert_eq!(q.len(), 5);
        assert_eq!(q[4], GPU, "lone partition in final window ranks first");
    }

    #[test]
    #[should_panic(expected = "K must not exceed")]
    fn algorithm2_rejects_k_above_window() {
        algorithm2_top_k(&[1.0], 5, 4);
    }

    #[test]
    fn algorithm1_assigns_by_limits() {
        let scores = [0.5, 5.0, 1.9];
        let limits = vec![(2.0, TPU), (f32::INFINITY, GPU)];
        let q = algorithm1_device_limits(&scores, &limits);
        assert_eq!(q, vec![TPU, GPU, TPU]);
    }

    #[test]
    fn algorithm1_supports_multiple_device_limits() {
        // Algorithm 1 is written for M devices: e.g. an int8 TPU (tight
        // limit), a 16-bit DSP (wider limit), and an exact GPU. Partitions
        // fall to the least accurate device that tolerates them.
        let scores = [0.5, 3.0, 10.0, 0.9];
        let limits = vec![(1.0, 2), (5.0, 1), (f32::INFINITY, 0)];
        let q = algorithm1_device_limits(&scores, &limits);
        assert_eq!(q, vec![2, 1, 0, 2]);
    }

    #[test]
    fn device_limits_derive_from_median() {
        let limits = device_limits_from(&[1.0, 2.0, 3.0, 4.0, 100.0], 1.5);
        assert_eq!(limits[0], (4.5, TPU));
        assert!(limits[0].0 > 0.0);
        assert_eq!(limits[1].1, GPU);
    }

    #[test]
    fn even_distribution_uses_gpu_and_tpu_only() {
        let vop = sobel_vop(128);
        let hlops = partition_vop(&vop, 8).unwrap();
        let plan = plan(
            Policy::EvenDistribution,
            &vop,
            &hlops,
            &QualityConfig::default(),
            PlanContext::new(1.0e9),
        );
        assert!(plan.queues[CPU].is_empty());
        assert!(!plan.queues[GPU].is_empty());
        assert!(!plan.queues[TPU].is_empty());
        assert!(
            plan.pipelined,
            "double buffering is infrastructure, not policy"
        );
        assert_eq!(plan.steal, steal_none());
        assert_eq!(plan.total_hlops(), hlops.len());
    }

    #[test]
    fn work_stealing_splits_across_all_devices() {
        let vop = sobel_vop(128);
        let hlops = partition_vop(&vop, 9).unwrap();
        let plan = plan(
            Policy::WorkStealing,
            &vop,
            &hlops,
            &QualityConfig::default(),
            PlanContext::new(1.0e9),
        );
        assert!(plan.queues.iter().all(|q| !q.is_empty()));
        assert!(plan.steal[TPU][GPU], "unrestricted stealing");
        assert_eq!(plan.overhead_s, 0.0);
    }

    #[test]
    fn qaws_restricts_stealing_by_accuracy() {
        let vop = sobel_vop(256);
        let hlops = partition_vop(&vop, 16).unwrap();
        let p = plan(
            Policy::Qaws {
                assignment: QawsAssignment::TopK,
                sampling: SamplingMethod::Striding,
            },
            &vop,
            &hlops,
            &QualityConfig::default(),
            PlanContext::new(1.0e9),
        );
        assert!(p.steal[GPU][TPU], "GPU may steal approximate work");
        assert!(!p.steal[TPU][GPU], "TPU must not steal exact work");
        assert!(
            p.steal[GPU][CPU] && p.steal[CPU][GPU],
            "exact peers steal freely"
        );
        assert!(p.overhead_s > 0.0, "sampling costs time");
        // Every HLOP got a criticality annotation.
        for q in &p.queues {
            for h in q {
                assert!(h.criticality.is_some());
            }
        }
    }

    #[test]
    fn qaws_routes_critical_partitions_to_exact_devices() {
        let vop = sobel_vop(256);
        let hlops = partition_vop(&vop, 16).unwrap();
        let p = plan(
            Policy::Qaws {
                assignment: QawsAssignment::TopK,
                sampling: SamplingMethod::Striding,
            },
            &vop,
            &hlops,
            &QualityConfig {
                sampling_rate: 0.05,
                ..QualityConfig::default()
            },
            PlanContext::new(1.0e9),
        );
        let max_exact: f32 = p.queues[GPU]
            .iter()
            .chain(&p.queues[CPU])
            .filter_map(|h| h.criticality)
            .fold(0.0, f32::max);
        let min_exact: f32 = p.queues[GPU]
            .iter()
            .chain(&p.queues[CPU])
            .filter_map(|h| h.criticality)
            .fold(f32::INFINITY, f32::min);
        let max_tpu: f32 = p.queues[TPU]
            .iter()
            .filter_map(|h| h.criticality)
            .fold(0.0, f32::max);
        // Ranking is windowed, so strict global separation is not
        // guaranteed — but the exact queues must hold high-criticality work.
        assert!(max_exact >= max_tpu, "exact {max_exact} vs tpu {max_tpu}");
        assert!(min_exact > 0.0);
    }

    #[test]
    fn ira_charges_canary_overhead_and_oracle_does_not() {
        let vop = sobel_vop(128);
        let hlops = partition_vop(&vop, 8).unwrap();
        let ira = plan(
            Policy::IraSampling,
            &vop,
            &hlops,
            &QualityConfig::default(),
            PlanContext::new(1.0e9),
        );
        let oracle = plan(
            Policy::Oracle,
            &vop,
            &hlops,
            &QualityConfig::default(),
            PlanContext::new(1.0e9),
        );
        assert!(ira.overhead_s > 0.0);
        assert_eq!(oracle.overhead_s, 0.0);
        assert_eq!(ira.total_hlops(), hlops.len());
        assert_eq!(oracle.total_hlops(), hlops.len());
    }
}
