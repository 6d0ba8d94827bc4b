//! The SHMT runtime system — the "driver" of the virtual hardware device
//! (paper §3.3).
//!
//! `ShmtRuntime::execute` takes a VOP through the full paper pipeline:
//! partition into HLOPs (§3.4), consult the scheduling policy for the
//! initial queue plan (§3.4–3.5), then play the queues out on the modeled
//! platform in virtual time — devices pull HLOPs from their incoming
//! queues, steal across queues under the policy's rules when they drain,
//! and every HLOP's data movement (int8 casting, PCIe transfer to the Edge
//! TPU, result restoration, §3.3.2) is charged on the shared bus. The
//! *computation is real*: GPU/CPU HLOPs run the exact kernel, Edge TPU
//! HLOPs run the int8 NPU path, and the assembled output is returned for
//! quality measurement.

use hetsim::{
    DeviceTimeline, EnergyMeter, FaultInjector, FaultPlan, FaultReport, Interconnect, QueuePair,
    SimTime, TpuMiscalibration, Transfer,
};
use shmt_kernels::{Aggregation, Kernel};
use shmt_tensor::Tensor;
use shmt_trace::{EventKind, NullSink, TraceRecorder, TraceSink};

use crate::calibration::AdaptiveCalibration;
use crate::error::{Result, ShmtError};
use crate::guard::{GuardConfig, QualityReport};
use crate::hlop::{Hlop, HlopRecord};
use crate::partition::partition_vop;
use crate::platform::Platform;
use crate::report::{DeviceStats, RunReport};
use crate::sched::{
    plan_traced, Plan, PlanContext, Policy, QualityConfig, ACCURACY_CLASS, CPU, GPU, TPU,
};
use crate::vop::Vop;

/// Gauge-series names for the per-device incoming-queue depths, indexed
/// by queue index.
const QUEUE_GAUGE: [&str; 3] = ["queue.GPU", "queue.CPU", "queue.EdgeTPU"];

/// Configuration of one runtime instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Scheduling policy.
    pub policy: Policy,
    /// Desired HLOP partition count (the partitioner may produce fewer for
    /// small datasets). Default 64, matching 1024-row bands on the paper's
    /// 8192x8192 default datasets.
    pub partitions: usize,
    /// Quality-policy tuning knobs.
    pub quality: QualityConfig,
    /// Which devices participate, in queue-index order (GPU, CPU, TPU).
    /// Disabled devices' initial assignments are redistributed.
    pub device_mask: [bool; 3],
    /// Output-verification quality guard (disabled by default; a
    /// disabled guard leaves reports bit-identical).
    pub guard: GuardConfig,
    /// Static planner input: the TPU admission multiplier `sched::plan`
    /// applies to the QAWS window share and device limit. The neutral
    /// default of 1.0 is the plain planner; 0.0 evicts the TPU.
    pub adapt: AdaptiveCalibration,
    /// Ablation knob: force synchronous (non-double-buffered) casts and
    /// transfers regardless of policy.
    pub force_synchronous: bool,
    /// Fraction of this VOP's input already resident on the Edge TPU
    /// (set by the DAG layer under residency dispatch). The planner
    /// widens the TPU admission by `1 + hint`; the neutral 0.0 default
    /// multiplies by exactly 1.0 and stays bit-identical.
    pub tpu_residency_hint: f64,
    /// Host worker threads for the real HLOP computations (does not affect
    /// the modeled virtual time; results are bit-identical at any count).
    pub compute_threads: usize,
}

impl RuntimeConfig {
    /// A configuration with defaults for everything but the policy.
    pub fn new(policy: Policy) -> Self {
        RuntimeConfig {
            policy,
            partitions: 64,
            quality: QualityConfig::default(),
            guard: GuardConfig::default(),
            device_mask: [true; 3],
            adapt: AdaptiveCalibration::neutral(),
            force_synchronous: false,
            tpu_residency_hint: 0.0,
            compute_threads: crate::exec::default_threads(),
        }
    }

    /// Restricts execution to the Edge TPU (the paper's "edge TPU" solo
    /// reference rows).
    pub fn tpu_only(mut self) -> Self {
        self.device_mask = [false, false, true];
        self
    }
}

/// The SHMT virtual device runtime.
#[derive(Debug, Clone)]
pub struct ShmtRuntime {
    platform: Platform,
    config: RuntimeConfig,
}

impl ShmtRuntime {
    /// Creates a runtime for a platform and configuration.
    pub fn new(platform: Platform, config: RuntimeConfig) -> Self {
        ShmtRuntime { platform, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The platform being driven.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Executes a VOP end to end.
    ///
    /// # Errors
    ///
    /// Returns [`ShmtError::InvalidConfig`] for a zero partition count or
    /// an all-disabled device mask.
    pub fn execute(&self, vop: &Vop) -> Result<RunReport> {
        self.execute_with_sink(vop, &mut NullSink)
    }

    /// [`ShmtRuntime::execute`] with full trace capture: records every
    /// event into a fresh [`TraceRecorder`] and attaches the finalized
    /// [`shmt_trace::TraceData`] to the report's `trace` field.
    ///
    /// # Errors
    ///
    /// Same as [`ShmtRuntime::execute`].
    pub fn execute_traced(&self, vop: &Vop) -> Result<RunReport> {
        let mut recorder = TraceRecorder::new();
        let mut report = self.execute_with_sink(vop, &mut recorder)?;
        report.trace = Some(recorder.finish());
        Ok(report)
    }

    /// [`ShmtRuntime::execute`], streaming events into a caller-supplied
    /// sink (a [`shmt_trace::RingBufferSink`] for long sweeps, a
    /// [`TraceRecorder`] shared across runs, …). The untraced `execute`
    /// is exactly this method with a [`NullSink`]: one code path, so
    /// traced and untraced runs produce bit-identical reports.
    ///
    /// # Errors
    ///
    /// Same as [`ShmtRuntime::execute`].
    pub fn execute_with_sink(&self, vop: &Vop, sink: &mut dyn TraceSink) -> Result<RunReport> {
        self.execute_with_faults_sink(vop, &FaultPlan::none(), sink)
    }

    /// [`ShmtRuntime::execute`] under a deterministic fault schedule:
    /// slowed devices take proportionally longer, failed bus transfers
    /// retry with capped exponential backoff in virtual time, and a
    /// device dropout re-dispatches its pending HLOPs to surviving queues
    /// under the plan's steal matrix extended by the accuracy-class
    /// ordering — an exact device may absorb work planned for a
    /// same-or-less exact one, so a dead GPU's critical partitions fall
    /// back to the CPU, never the int8 Edge TPU, and a dead TPU degrades
    /// the run to all-exact output.
    ///
    /// [`FaultPlan::none`] is inert: the run is bit-identical to
    /// [`ShmtRuntime::execute`]. Any other plan is exactly reproducible
    /// for the same seed.
    ///
    /// # Errors
    ///
    /// Same as [`ShmtRuntime::execute`], plus
    /// [`ShmtError::NoCapableDevice`] when a device dies holding pending
    /// work and no eligible survivor remains.
    pub fn execute_with_faults(&self, vop: &Vop, faults: &FaultPlan) -> Result<RunReport> {
        self.execute_with_faults_sink(vop, faults, &mut NullSink)
    }

    /// [`ShmtRuntime::execute_with_faults`] with full trace capture, like
    /// [`ShmtRuntime::execute_traced`]: the report's `trace` additionally
    /// carries `FaultInjected`/`Retry`/`Redispatch`/`DeviceDown` events.
    ///
    /// # Errors
    ///
    /// Same as [`ShmtRuntime::execute_with_faults`].
    pub fn execute_with_faults_traced(&self, vop: &Vop, faults: &FaultPlan) -> Result<RunReport> {
        let mut recorder = TraceRecorder::new();
        let mut report = self.execute_with_faults_sink(vop, faults, &mut recorder)?;
        report.trace = Some(recorder.finish());
        Ok(report)
    }

    /// The single code path beneath every `execute*` variant: fault
    /// schedule and trace sink both explicit.
    ///
    /// # Errors
    ///
    /// Same as [`ShmtRuntime::execute_with_faults`].
    pub fn execute_with_faults_sink(
        &self,
        vop: &Vop,
        faults: &FaultPlan,
        sink: &mut dyn TraceSink,
    ) -> Result<RunReport> {
        if self.config.partitions == 0 {
            return Err(ShmtError::InvalidConfig(
                "partition count must be positive".into(),
            ));
        }
        if !self.config.device_mask.iter().any(|&m| m) {
            return Err(ShmtError::NoCapableDevice("all devices disabled".into()));
        }
        self.config.guard.validate()?;
        self.config.adapt.validate()?;

        if sink.enabled() {
            sink.record(
                0.0,
                EventKind::PartitionStart {
                    partitions: self.config.partitions,
                },
            );
        }
        let hlops = partition_vop(vop, self.config.partitions)?;
        if sink.enabled() {
            // Partitioning is host-side pointer arithmetic; it is not
            // charged virtual time, so the span collapses at the epoch.
            sink.record(0.0, EventKind::PartitionEnd { hlops: hlops.len() });
        }
        let profiles = self.platform.device_profiles();
        let mut the_plan = plan_traced(
            self.config.policy,
            vop,
            &hlops,
            &self.config.quality,
            PlanContext {
                gpu_throughput: profiles[GPU].throughput,
                tpu_admission: self.config.adapt.tpu_admission,
                tpu_residency: self.config.tpu_residency_hint,
            },
            sink,
        );
        self.apply_device_mask(&mut the_plan);
        if self.config.force_synchronous {
            the_plan.pipelined = false;
        }

        let report = self.play(vop, &hlops, the_plan, &mut FaultInjector::new(faults), sink);
        crate::arena::HLOPS.put(hlops);
        report
    }

    /// Moves HLOPs off disabled devices' queues and forbids stealing
    /// from/to disabled devices.
    ///
    /// Orphans are routed with the same accuracy-ordered rule dropout
    /// re-dispatch uses ([`kill_device`]): an enabled device is eligible
    /// when the plan already lets it steal from the disabled device, or
    /// when its accuracy class is no worse — so masking off the GPU never
    /// leaks QAWS-critical partitions onto the approximate TPU. Among
    /// eligible devices the least-loaded (ties to the lowest index) wins;
    /// if no device is eligible (e.g. only the TPU is enabled), any
    /// enabled device serves as the fallback, matching the seed's
    /// degraded-platform semantics.
    fn apply_device_mask(&self, plan: &mut Plan) {
        let mask = self.config.device_mask;
        for d in 0..3 {
            if mask[d] {
                continue;
            }
            let orphans = std::mem::take(&mut plan.queues[d]);
            for h in orphans {
                let eligible = |e: &usize| {
                    let e = *e;
                    e != d
                        && mask[e]
                        && (plan.steal[e][d] || ACCURACY_CLASS[e] <= ACCURACY_CLASS[d])
                };
                let target = (0..3)
                    .filter(eligible)
                    .min_by_key(|&e| (plan.queues[e].len(), e))
                    .or_else(|| {
                        (0..3)
                            .filter(|&e| e != d && mask[e])
                            .min_by_key(|&e| (plan.queues[e].len(), e))
                    });
                if let Some(target) = target {
                    plan.queues[target].push(h);
                }
            }
            for i in 0..3 {
                plan.steal[d][i] = false;
                plan.steal[i][d] = false;
            }
        }
    }

    /// Plays the plan out in virtual time, computing real outputs.
    fn play(
        &self,
        vop: &Vop,
        hlops: &[Hlop],
        the_plan: Plan,
        injector: &mut FaultInjector,
        sink: &mut dyn TraceSink,
    ) -> Result<RunReport> {
        let kernel = vop.kernel();
        // Kernel inputs as a fixed-arity reference array on the stack —
        // the collect into a Vec here used to be one of the per-run
        // allocations the warm serve path now avoids.
        let input_tensors = vop.inputs();
        assert!(
            input_tensors.len() <= crate::exec::MAX_KERNEL_ARITY,
            "kernel arity exceeds MAX_KERNEL_ARITY"
        );
        let mut input_refs: [&Tensor; crate::exec::MAX_KERNEL_ARITY] =
            [&input_tensors[0]; crate::exec::MAX_KERNEL_ARITY];
        for (slot, t) in input_refs.iter_mut().zip(input_tensors) {
            *slot = t;
        }
        let inputs = &input_refs[..input_tensors.len()];
        let (rows, cols) = vop.partition_space();
        let profiles = self.platform.device_profiles();

        let Charged {
            records,
            compute,
            mut timelines,
            bus,
            mut queues,
            faults,
            latest_completion,
            steals,
            t0,
            staging_s,
            ..
        } = self.charge(kernel, &the_plan, &[], &[], injector, sink)?;

        // Real computation: exact fp32 for CPU/GPU partitions, the int8
        // NPU path for Edge TPU partitions, fanned out over host threads,
        // each tile written in place in the output.
        let mut output = crate::exec::compute_output(
            kernel,
            inputs,
            &compute,
            rows,
            cols,
            self.config.compute_threads,
        );

        // The miscalibrated TPU wrote `gain·v + bias` into every tile it
        // served; tiles are disjoint, so post-hoc corruption of the
        // aggregated output is equivalent to corrupting each HLOP result.
        if let Some(m) = miscalibration(injector, kernel) {
            for task in compute.iter().filter(|t| t.npu) {
                let t = task.tile;
                for r in 0..t.rows {
                    for v in &mut output.row_mut(t.row0 + r)[t.col0..t.col0 + t.cols] {
                        *v = m.gain * *v + m.bias;
                    }
                }
            }
        }

        // Output-side quality control (§3.6): sample pages of every
        // approximate partition, estimate the error, re-execute exactly
        // over budget. Charged on the exact devices' timelines, so the
        // makespan and energy below include the verification cost.
        let (quality, guard_end) = if self.config.guard.enabled {
            // A device that dropped out is `lost` in the fault report.
            let alive = [
                self.config.device_mask[GPU] && !faults.lost[GPU],
                self.config.device_mask[CPU] && !faults.lost[CPU],
                self.config.device_mask[TPU] && !faults.lost[TPU],
            ];
            crate::guard::run_guard(
                &self.config.guard,
                kernel,
                inputs,
                &compute,
                &mut output,
                &mut timelines,
                &alive,
                latest_completion,
                sink,
            )?
        } else {
            (QualityReport::disabled(), latest_completion)
        };

        kernel.finalize(&mut output);

        let makespan = guard_end.max(t0 + staging_s).as_secs();

        // Energy (§5.5): platform idle floor over the makespan, plus each
        // device's active power over its busy time; the CPU also pays for
        // scheduling overhead and staging.
        let mut meter = EnergyMeter::new(self.platform.idle_power_w());
        for t in &timelines {
            meter.record_busy_traced(
                t.profile().kind,
                t.busy_time(),
                t.profile().active_power_w,
                sink,
            );
        }
        meter.record_busy_traced(
            profiles[CPU].kind,
            the_plan.overhead_s + staging_s,
            profiles[CPU].active_power_w,
            sink,
        );
        let energy = meter.finish(makespan);

        let mut devices: Vec<DeviceStats> = crate::arena::DEVICES.take();
        devices.extend(timelines.iter().zip(&mut queues).map(|(t, q)| {
            let completed_count = q.drain_completed().count();
            debug_assert_eq!(completed_count, t.completed());
            DeviceStats {
                kind: t.profile().kind,
                busy_s: t.busy_time(),
                wait_s: t.transfer_wait(),
                hlops: t.completed(),
                max_queue_depth: q.max_depth(),
                stolen_away: q.total_stolen_away(),
            }
        }));

        let total_elems: usize = hlops.iter().map(Hlop::elements).sum();
        let tpu_elements: usize = compute.iter().filter(|t| t.npu).map(|t| t.tile.len()).sum();
        let tpu_fraction = tpu_elements as f64 / total_elems as f64;
        let peak_memory_bytes = self.memory_model(vop, hlops.len(), tpu_fraction, output.len());

        // Per-run scratch back to the arena; the report's own spines
        // (records, devices, repairs) recycle when the caller hands the
        // report to [`crate::arena::recycle_report`].
        let scheduling_overhead_s = the_plan.overhead_s;
        the_plan.recycle();
        recycle_queues(queues);
        crate::arena::COMPUTE.put(compute);

        let output_shape = output.shape();
        Ok(RunReport {
            output,
            output_shape,
            makespan_s: makespan,
            scheduling_overhead_s,
            devices,
            energy,
            bus_bytes: bus.total_bytes(),
            records,
            tpu_fraction,
            steals,
            peak_memory_bytes,
            faults,
            quality,
            trace: None,
        })
    }

    /// The HLOP charging loop: plays a plan's queues out in virtual time,
    /// computing nothing. Devices pull HLOPs from their queues and steal
    /// under the plan's rules; an Edge-TPU HLOP pays the int8 cast, the
    /// PCIe transfer, compute, and the transfer and cast back (§3.3.2).
    /// `resident_in` / `resident_out` (by HLOP id; empty for a lone VOP)
    /// count the elements of a TPU HLOP's input already in device memory
    /// and of its output left there: only the rest pays the cast and the
    /// transfer, and a side with nothing staged skips its transfer.
    pub(crate) fn charge(
        &self,
        kernel: &dyn Kernel,
        the_plan: &Plan,
        resident_in: &[usize],
        resident_out: &[usize],
        injector: &mut FaultInjector,
        sink: &mut dyn TraceSink,
    ) -> Result<Charged> {
        let cal = *self.platform.calibration();
        let profiles = self.platform.device_profiles();
        let t0 = SimTime::from_secs(the_plan.overhead_s);
        let hlop_count = the_plan.total_hlops();

        let mut timelines: [DeviceTimeline; 3] =
            profiles.map(|p| DeviceTimeline::starting_at(p, t0));
        let mut bus = self.platform.bus();
        // Queue pairs are pooled whole: their deques keep capacity across
        // runs, so a warm run's enqueues never touch the heap.
        let mut queues = crate::arena::QUEUE_PAIRS
            .take_or(|| [QueuePair::new(), QueuePair::new(), QueuePair::new()]);
        for (d, (pair, q)) in queues.iter_mut().zip(&the_plan.queues).enumerate() {
            pair.reset();
            for h in q {
                pair.enqueue_traced(t0, *h, QUEUE_GAUGE[d], sink);
                if sink.enabled() {
                    sink.record(
                        t0.as_secs(),
                        EventKind::Dispatch {
                            hlop: h.id,
                            device: d,
                        },
                    );
                }
            }
        }

        // A disabled device is born "done": it never acts. A device that
        // drops out is additionally "dead": it can never be woken by a
        // re-dispatch, unlike a device that merely retired.
        let mut done = self.config.device_mask.map(|enabled| !enabled);
        let mut dead = [false; 3];
        let mut faults = FaultReport::default();
        let mut prev_start = [t0; 3];
        let mut latest_completion = t0;
        let mut records: Vec<HlopRecord> = crate::arena::RECORDS.take();
        records.reserve(hlop_count);
        let mut stolen_ids: Vec<bool> = crate::arena::STOLEN.take();
        stolen_ids.resize(hlop_count, false);
        let mut steals = 0usize;
        let mut staged_in_elements = 0usize;
        let mut staged_out_elements = 0usize;
        let mut compute: Vec<crate::exec::ComputeTask> = crate::arena::COMPUTE.take();
        compute.reserve(hlop_count);

        let work_per_elem = kernel.work_per_element();
        let miscal = miscalibration(injector, kernel);
        // Kernels with native uint8 NPU models take 8-bit image data
        // without a host-side cast; everything else pays the fp32->int8
        // conversion on the way in and out (§3.3.2).
        let cast_s = if kernel.npu_native_u8() {
            0.0
        } else {
            cal.cast_s_per_elem
        };

        // Once every device has retired, any queue left non-empty holds
        // stranded work (e.g. a withdrawn victim whose expected thief
        // dropped out before stealing); the drain pass wakes the owners
        // and — crucially — disables further endgame withdrawal, so each
        // owner finishes its own remainder and the run cannot re-strand.
        let mut draining = false;

        // Decision-side cost estimate: which queue looks worth stealing
        // from, which device wins the endgame.
        let est = |dev: usize, work: f64| profiles[dev].exec_time(work);

        // The next device to act is always the earliest-free one with work
        // available (its own queue, or a queue it may steal from).
        loop {
            let Some(d) = (0..3)
                .filter(|&i| !done[i])
                .min_by(|&a, &b| timelines[a].free_at().cmp(&timelines[b].free_at()))
            else {
                let mut woke = false;
                for v in 0..3 {
                    if self.config.device_mask[v] && !dead[v] && !queues[v].is_idle() {
                        done[v] = false;
                        woke = true;
                    }
                }
                if !woke {
                    break;
                }
                draining = true;
                continue;
            };
            // Dropouts fire once the virtual-time frontier (the acting
            // device's free instant) passes their scheduled moment; a
            // dead device's pending HLOPs re-dispatch immediately, while
            // HLOPs it already completed stay aggregated.
            if injector.active() {
                let now = timelines[d].free_at();
                for v in 0..3 {
                    if dead[v] || !self.config.device_mask[v] {
                        continue;
                    }
                    if let Some(at) = injector.down_at(v) {
                        if at <= now {
                            kill_device(
                                v,
                                at.max(t0),
                                &mut queues,
                                &mut done,
                                &mut dead,
                                self.config.device_mask,
                                &the_plan.steal,
                                &mut faults,
                                sink,
                            )?;
                        }
                    }
                }
                if dead[d] {
                    continue;
                }
            }

            let pending_total: usize = queues.iter().map(QueuePair::pending).sum();
            if !draining && !queues[d].is_idle() && pending_total <= 6 {
                // §3.4: the runtime may *withdraw* unprocessed HLOPs from a
                // device's assignment. In the endgame (at most a couple of
                // pending partitions per device left), a device
                // retires from pulling its own queue when a still-active
                // device that may steal from it would finish the item
                // sooner even after draining its own backlog — otherwise a
                // slow device's final pull defines the makespan. The peer
                // must also pass the steal-profit filter below against
                // *this* queue's backlog, or it would never actually come
                // take the item and the HLOP would strand.
                let Some(front) = queues[d].peek_front() else {
                    return Err(ShmtError::Internal(
                        "endgame withdrawal peeked an idle queue".into(),
                    ));
                };
                let item_work = front.elements() as f64 * work_per_elem;
                let my_completion = timelines[d].free_at() + est(d, item_work);
                let my_backlog: f64 = queues[d]
                    .iter_pending()
                    .map(|h| est(d, h.elements() as f64 * work_per_elem))
                    .sum();
                let beaten = (0..3).any(|e| {
                    if e == d || done[e] || dead[e] || !the_plan.steal[e][d] {
                        return false;
                    }
                    if est(e, item_work) > my_backlog {
                        // e's own steal filter would reject this queue.
                        return false;
                    }
                    let backlog: f64 = queues[e]
                        .iter_pending()
                        .map(|h| est(e, h.elements() as f64 * work_per_elem))
                        .sum();
                    timelines[e].free_at() + backlog + est(e, item_work) <= my_completion
                });
                if beaten {
                    done[d] = true;
                    continue;
                }
            }

            if queues[d].is_idle() {
                // Work stealing (§3.4): take one pending HLOP from the most
                // loaded queue this device is allowed to steal from. A
                // steal is only worthwhile when the thief finishes the item
                // before the victim would get around to it — otherwise a
                // slow device becomes a schedule-defining straggler.
                let victim = (0..3)
                    .filter(|&v| the_plan.steal[d][v] && !queues[v].is_idle())
                    .filter(|&v| {
                        let Some(back) = queues[v].peek_back() else {
                            return false;
                        };
                        let item_work = back.elements() as f64 * work_per_elem;
                        let victim_backlog: f64 = queues[v]
                            .iter_pending()
                            .map(|h| est(v, h.elements() as f64 * work_per_elem))
                            .sum();
                        est(d, item_work) <= victim_backlog
                    })
                    .max_by_key(|&v| queues[v].pending());
                match victim {
                    Some(v) => {
                        // Stealing from the back takes the victim's most
                        // critical pending work under quality-aware plans.
                        let Some(h) = queues[v].steal_back() else {
                            return Err(ShmtError::Internal(
                                "steal victim's queue drained before the steal".into(),
                            ));
                        };
                        stolen_ids[h.id] = true;
                        let now = timelines[d].free_at();
                        queues[d].enqueue_traced(now, h, QUEUE_GAUGE[d], sink);
                        steals += 1;
                        if sink.enabled() {
                            sink.record(
                                now.as_secs(),
                                EventKind::Steal {
                                    hlop: h.id,
                                    from: v,
                                    to: d,
                                },
                            );
                            sink.counter("steals", 1.0);
                            sink.gauge(QUEUE_GAUGE[v], now.as_secs(), queues[v].pending() as f64);
                        }
                    }
                    None => {
                        done[d] = true;
                        continue;
                    }
                }
            }

            let Some(hlop) = queues[d].pop_front() else {
                return Err(ShmtError::Internal(
                    "acting device's queue empty after refill".into(),
                ));
            };
            if sink.enabled() {
                sink.gauge(
                    QUEUE_GAUGE[d],
                    timelines[d].free_at().as_secs(),
                    queues[d].pending() as f64,
                );
            }
            let elems = hlop.elements();
            let work = elems as f64 * work_per_elem;

            // Data distribution (§3.3.2). The CPU and GPU share the
            // system's main memory (zero-copy on the prototype); the Edge
            // TPU sits behind the PCIe bus and needs int8 casting both
            // ways.
            let (data_ready, is_tpu) = if d == TPU {
                let issue = if the_plan.pipelined {
                    // Double buffering: the next HLOP's cast/transfer
                    // overlaps the device's current compute.
                    prev_start[d].max(t0)
                } else {
                    timelines[d].free_at()
                };
                let staged = elems - resident_in.get(hlop.id).map_or(0, |&r| r.min(elems));
                staged_in_elements += staged;
                let cast_done = issue + staged as f64 * cast_s;
                if sink.enabled() && cast_s > 0.0 {
                    sink.record(
                        issue.as_secs(),
                        EventKind::CastStart {
                            hlop: hlop.id,
                            device: d,
                        },
                    );
                    sink.record(
                        cast_done.as_secs(),
                        EventKind::CastEnd {
                            hlop: hlop.id,
                            device: d,
                        },
                    );
                }
                if staged == 0 {
                    (cast_done, true)
                } else {
                    let bytes_in = (staged as f64 * cal.tpu_bytes_per_elem_in) as usize;
                    let xfer = transfer_with_retries(
                        &mut bus,
                        cast_done,
                        bytes_in,
                        hlop.id,
                        d,
                        injector,
                        &mut faults,
                        sink,
                    );
                    (xfer.end, true)
                }
            } else {
                (t0, false)
            };

            // The Edge TPU's 8 MB device memory may force a large HLOP to
            // run as several sub-invocations (§3.4: "the runtime system may
            // need to further fuse or partition HLOPs").
            let extra_launches = if is_tpu {
                tpu_extra_launches(elems, profiles[TPU].device_memory_bytes) as f64
                    * profiles[TPU].launch_overhead
            } else {
                0.0
            };

            let start = timelines[d].free_at().max(data_ready);
            prev_start[d] = start;
            // A slowdown window scales the work charged, not the real
            // computation; multiplying by an exact 1.0 outside every
            // window keeps fault-free runs bit-identical.
            let slow = injector.slowdown_factor(d, start);
            if slow != 1.0 {
                faults.injected += 1;
                if sink.enabled() {
                    sink.record(
                        start.as_secs(),
                        EventKind::FaultInjected {
                            hlop: hlop.id,
                            device: d,
                        },
                    );
                    sink.counter("faults.injected", 1.0);
                }
            }
            // A miscalibrated TPU corrupts every HLOP it serves; the
            // values are damaged when the corruption is applied to the
            // computed output below.
            if is_tpu && miscal.is_some() {
                faults.injected += 1;
                if sink.enabled() {
                    sink.record(
                        start.as_secs(),
                        EventKind::FaultInjected {
                            hlop: hlop.id,
                            device: d,
                        },
                    );
                    sink.counter("faults.injected", 1.0);
                }
            }
            let mut end = timelines[d].execute_traced(data_ready, work * slow, hlop.id, d, sink);
            if extra_launches > 0.0 {
                timelines[d].stall_until(end + extra_launches);
                end += extra_launches;
            }

            // Result restoration (§3.3.2), skipped for output left in
            // device memory for the consumer.
            let staged_out = if is_tpu {
                elems - resident_out.get(hlop.id).map_or(0, |&r| r.min(elems))
            } else {
                0
            };
            staged_out_elements += staged_out;
            let completion = if staged_out > 0 {
                let bytes_out = (staged_out as f64 * cal.tpu_bytes_per_elem_out) as usize;
                let xfer = transfer_with_retries(
                    &mut bus,
                    end,
                    bytes_out,
                    hlop.id,
                    d,
                    injector,
                    &mut faults,
                    sink,
                );
                let restored = xfer.end + staged_out as f64 * cast_s;
                if sink.enabled() && cast_s > 0.0 {
                    sink.record(
                        xfer.end.as_secs(),
                        EventKind::CastStart {
                            hlop: hlop.id,
                            device: d,
                        },
                    );
                    sink.record(
                        restored.as_secs(),
                        EventKind::CastEnd {
                            hlop: hlop.id,
                            device: d,
                        },
                    );
                }
                if !the_plan.pipelined {
                    // Synchronous mode: the device blocks on the drain.
                    timelines[d].stall_until(restored);
                }
                restored
            } else {
                end
            };
            latest_completion = latest_completion.max(completion);

            // Real computation is deferred to the parallel compute phase
            // below; record which path this partition takes.
            compute.push(crate::exec::ComputeTask {
                tile: hlop.tile,
                npu: is_tpu,
            });

            // The device's monitor thread moves the finished HLOP to the
            // completion queue for aggregation (§3.3.1).
            queues[d].complete(completion, hlop);
            if sink.enabled() {
                sink.record(
                    completion.as_secs(),
                    EventKind::Aggregate {
                        hlop: hlop.id,
                        device: d,
                    },
                );
                sink.counter("hlops.completed", 1.0);
            }
            records.push(HlopRecord {
                id: hlop.id,
                device: profiles[d].kind,
                start_s: start.as_secs(),
                end_s: completion.as_secs(),
                stolen: stolen_ids[hlop.id],
                elements: elems,
            });
        }

        if records.len() != hlop_count {
            // Every missing record is an output tile that was never
            // computed; surface it as a typed error instead of silently
            // returning zero-filled regions.
            return Err(ShmtError::StrandedHlop {
                executed: records.len(),
                total: hlop_count,
            });
        }

        // Dropouts the scheduling loop never reached (the device had
        // already retired with an empty queue) still degrade the platform
        // when they fall inside the run window.
        if injector.active() {
            for (v, was_dead) in dead.iter_mut().enumerate() {
                if *was_dead || !self.config.device_mask[v] {
                    continue;
                }
                if let Some(at) = injector.down_at(v) {
                    if at <= latest_completion {
                        *was_dead = true;
                        faults.devices_lost += 1;
                        faults.injected += 1;
                        faults.degraded = true;
                        faults.lost[v] = true;
                        if sink.enabled() {
                            sink.record(at.max(t0).as_secs(), EventKind::DeviceDown { device: v });
                            sink.counter("faults.devices_lost", 1.0);
                        }
                    }
                }
            }
        }

        crate::arena::STOLEN.put(stolen_ids);

        // Host-side chunk staging overlaps the multi-device execution (the
        // baseline pays it serially; see `baseline`).
        let total_elems: usize = the_plan.queues.iter().flatten().map(Hlop::elements).sum();
        let ideal_gpu_kernel_s = total_elems as f64 * work_per_elem / profiles[GPU].throughput;
        let staging_s = self.platform.bench_profile().host_staging_frac * ideal_gpu_kernel_s;

        Ok(Charged {
            records,
            compute,
            timelines,
            bus,
            queues,
            faults,
            latest_completion,
            steals,
            t0,
            staging_s,
            staged_in_elements,
            staged_out_elements,
        })
    }

    /// The Fig 11 footprint model: shared input/output datasets, plus
    /// band-sized (not dataset-sized) GPU intermediates, plus the Edge
    /// TPU's staging buffers when it participates.
    fn memory_model(
        &self,
        vop: &Vop,
        hlop_count: usize,
        tpu_fraction: f64,
        out_elems: usize,
    ) -> u64 {
        let bench = self.platform.bench_profile();
        let (rows, cols) = vop.partition_space();
        let n = (rows * cols) as u64;
        let band_elems = n / hlop_count.max(1) as u64;
        // Alloc-only model: the peak is just the sum of the classes, so
        // plain arithmetic replaces the labeled `MemoryTracker` (whose
        // class strings were a per-run heap allocation).
        let mut mem: u64 = 0;
        mem += 4 * n * vop.inputs().len() as u64; // inputs
        mem += 4 * out_elems as u64; // output
        if self.config.device_mask[GPU] || self.config.device_mask[CPU] {
            // Per-HLOP GPU intermediates, double buffered.
            mem += (bench.gpu_intermediate * (band_elems * 4) as f64 * 2.0) as u64;
        }
        if self.config.device_mask[TPU] && tpu_fraction > 0.0 {
            // int8 in/out plus f32 snap staging, double buffered, plus the
            // resident compiled-model constant.
            mem += band_elems * 10 * 2;
            mem += 6 * 1024 * 1024;
        }
        mem += (hlop_count * 512) as u64; // runtime bookkeeping
        mem
    }
}

/// What [`ShmtRuntime::charge`] leaves behind. The pooled spines
/// (`records`, `compute`, `queues`) belong to the caller.
pub(crate) struct Charged {
    pub(crate) records: Vec<HlopRecord>,
    pub(crate) compute: Vec<crate::exec::ComputeTask>,
    pub(crate) timelines: [DeviceTimeline; 3],
    pub(crate) bus: Interconnect,
    pub(crate) queues: [QueuePair<Hlop>; 3],
    pub(crate) faults: FaultReport,
    pub(crate) latest_completion: SimTime,
    pub(crate) steals: usize,
    /// The run's epoch: the plan's serial scheduling overhead.
    pub(crate) t0: SimTime,
    /// Host-side chunk staging, overlapping the device execution: no run
    /// ends before `t0 + staging_s`.
    pub(crate) staging_s: f64,
    /// Edge-TPU elements that paid the cast and the transfer, each way.
    pub(crate) staged_in_elements: usize,
    pub(crate) staged_out_elements: usize,
}

impl Charged {
    /// Returns the pooled spines to the runtime arena.
    pub(crate) fn recycle(self) {
        crate::arena::RECORDS.put(self.records);
        crate::arena::COMPUTE.put(self.compute);
        recycle_queues(self.queues);
    }
}

fn recycle_queues(mut queues: [QueuePair<Hlop>; 3]) {
    for q in queues.iter_mut() {
        q.reset();
    }
    crate::arena::QUEUE_PAIRS.put(queues);
}

/// The TPU miscalibration a fault plan injects, when the kernel has
/// something to corrupt: reduction partials fold into shared buffers and
/// are not attributable, so only tile-aggregated kernels qualify.
fn miscalibration(injector: &FaultInjector, kernel: &dyn Kernel) -> Option<TpuMiscalibration> {
    injector
        .miscalibration()
        .filter(|_| matches!(kernel.shape().aggregation, Aggregation::Tile))
}

/// Extra kernel launches forced by the Edge TPU's finite device memory:
/// the int8 input+output footprint splits into device-memory-sized
/// sub-invocations, and the first launch is already charged by the
/// device's ordinary launch overhead — an HLOP that exactly fits pays
/// nothing extra.
fn tpu_extra_launches(elems: usize, device_memory_bytes: Option<usize>) -> u64 {
    let dev_mem = device_memory_bytes.unwrap_or(usize::MAX).max(1);
    let need = elems * 2; // int8 in + out
    need.div_ceil(dev_mem).saturating_sub(1) as u64
}

/// One bus transfer under fault injection. A failed attempt still
/// occupies the interconnect (the bytes moved but arrived corrupt), then
/// the device backs off in virtual time and re-issues; the last permitted
/// attempt is deemed delivered so runs always terminate. With an inactive
/// injector this is exactly one `transfer_traced` and no random draws.
#[allow(clippy::too_many_arguments)]
fn transfer_with_retries(
    bus: &mut Interconnect,
    ready: SimTime,
    bytes: usize,
    hlop: usize,
    device: usize,
    injector: &mut FaultInjector,
    faults: &mut FaultReport,
    sink: &mut dyn TraceSink,
) -> Transfer {
    let mut xfer = bus.transfer_traced(ready, bytes, hlop, device, sink);
    let mut attempt = 0usize;
    while injector.active()
        && attempt < injector.plan().max_transfer_retries
        && injector.transfer_fails()
    {
        attempt += 1;
        faults.injected += 1;
        faults.retried += 1;
        let resume = xfer.end + injector.backoff(attempt);
        if sink.enabled() {
            sink.record(
                xfer.end.as_secs(),
                EventKind::FaultInjected { hlop, device },
            );
            sink.counter("faults.injected", 1.0);
            sink.record(
                resume.as_secs(),
                EventKind::Retry {
                    hlop,
                    device,
                    attempt,
                },
            );
            sink.counter("faults.retries", 1.0);
        }
        xfer = bus.transfer_traced(resume, bytes, hlop, device, sink);
    }
    xfer
}

/// Kills device `d` at `now`: marks it dead and re-dispatches every HLOP
/// still pending on its incoming queue to the least-loaded eligible
/// survivor. A survivor is eligible when the plan already lets it steal
/// from `d`, or when the accuracy-class ordering allows it — an exact
/// device may absorb work planned for a same-or-less exact one, so a dead
/// GPU's critical partitions go to the CPU and never to the int8 TPU.
/// Retired (but alive) survivors are woken to drain the new work.
#[allow(clippy::too_many_arguments)]
fn kill_device(
    d: usize,
    now: SimTime,
    queues: &mut [QueuePair<Hlop>],
    done: &mut [bool; 3],
    dead: &mut [bool; 3],
    mask: [bool; 3],
    steal: &[[bool; 3]; 3],
    faults: &mut FaultReport,
    sink: &mut dyn TraceSink,
) -> Result<()> {
    dead[d] = true;
    done[d] = true;
    faults.devices_lost += 1;
    faults.injected += 1;
    faults.degraded = true;
    faults.lost[d] = true;
    if sink.enabled() {
        sink.record(now.as_secs(), EventKind::DeviceDown { device: d });
        sink.counter("faults.devices_lost", 1.0);
    }
    while let Some(h) = queues[d].pop_front() {
        let target = (0..3)
            .filter(|&e| {
                e != d
                    && mask[e]
                    && !dead[e]
                    && (steal[e][d] || ACCURACY_CLASS[e] <= ACCURACY_CLASS[d])
            })
            .min_by_key(|&e| (queues[e].pending(), e))
            .ok_or_else(|| {
                ShmtError::NoCapableDevice(format!(
                    "device {d} died holding pending HLOPs and no eligible survivor remains"
                ))
            })?;
        queues[target].enqueue_traced(now, h, QUEUE_GAUGE[target], sink);
        done[target] = false;
        faults.redispatched += 1;
        if sink.enabled() {
            sink.gauge(QUEUE_GAUGE[d], now.as_secs(), queues[d].pending() as f64);
            sink.record(
                now.as_secs(),
                EventKind::Redispatch {
                    hlop: h.id,
                    from: d,
                    to: target,
                },
            );
            sink.counter("faults.redispatched", 1.0);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::mape;
    use crate::sampling::SamplingMethod;
    use crate::sched::QawsAssignment;
    use shmt_kernels::Benchmark;

    /// A slowed-down virtual platform: at test-sized datasets the real
    /// prototype would be launch-overhead-bound (the Fig 12 small-size
    /// regime); dividing throughput keeps compute dominant so the
    /// policies' steady-state behaviour is observable.
    fn slow_platform(b: Benchmark) -> Platform {
        Platform::with_profiles(
            crate::calibration::Calibration {
                gpu_throughput: 1.0e6,
                ..Default::default()
            },
            crate::calibration::bench_profile(b),
        )
    }

    fn run(policy: Policy, b: Benchmark, n: usize) -> RunReport {
        let vop = Vop::from_benchmark(b, b.generate_inputs(n, n, 7)).unwrap();
        let mut cfg = RuntimeConfig::new(policy);
        cfg.partitions = 16;
        cfg.quality.sampling_rate = 0.01;
        ShmtRuntime::new(slow_platform(b), cfg)
            .execute(&vop)
            .unwrap()
    }

    fn exact_reference(b: Benchmark, n: usize) -> Tensor {
        let vop = Vop::from_benchmark(b, b.generate_inputs(n, n, 7)).unwrap();
        let kernel = vop.kernel();
        let inputs: Vec<&Tensor> = vop.inputs().iter().collect();
        let mut out = kernel.shape().allocate_output(n, n);
        let tile = shmt_tensor::tile::Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: n,
            cols: n,
        };
        kernel.run_exact(&inputs, tile, &mut out);
        out
    }

    #[test]
    fn tpu_extra_launch_boundary() {
        let m = 8 * 1024 * 1024usize; // the Edge TPU's device memory
        let mem = Some(m);
        // An int8 footprint exactly filling device memory is one launch —
        // the truncating-division model used to charge a phantom extra.
        assert_eq!(
            tpu_extra_launches(m / 2, mem),
            0,
            "exact fit needs no extra launch"
        );
        assert_eq!(tpu_extra_launches(m / 2 - 1, mem), 0);
        assert_eq!(
            tpu_extra_launches(m / 2 + 1, mem),
            1,
            "one element over splits once"
        );
        assert_eq!(
            tpu_extra_launches(m, mem),
            1,
            "a 2x footprint splits exactly once"
        );
        assert_eq!(tpu_extra_launches(m + 1, mem), 2);
        assert_eq!(
            tpu_extra_launches(m, None),
            0,
            "unbounded memory never splits"
        );
        assert_eq!(tpu_extra_launches(0, mem), 0);
    }

    #[test]
    fn work_stealing_executes_all_hlops_and_beats_gpu_busy() {
        let r = run(Policy::WorkStealing, Benchmark::Fft, 128);
        assert_eq!(r.records.len(), 16);
        assert!(r.makespan_s > 0.0);
        // All three devices should have contributed for FFT (TPU fast).
        assert!(r.device(hetsim::DeviceKind::EdgeTpu).unwrap().hlops > 0);
        assert!(r.tpu_fraction > 0.0);
    }

    #[test]
    fn work_stealing_output_close_to_exact() {
        let r = run(Policy::WorkStealing, Benchmark::MeanFilter, 128);
        let reference = exact_reference(Benchmark::MeanFilter, 128);
        let e = mape(&reference, &r.output);
        assert!(
            e < 0.25,
            "WS output should be approximately right, mape={e}"
        );
        assert!(e > 0.0, "some partitions ran on the int8 TPU");
    }

    #[test]
    fn qaws_quality_beats_plain_work_stealing() {
        let b = Benchmark::Sobel;
        let reference = exact_reference(b, 256);
        let vop = Vop::from_benchmark(b, b.generate_inputs(256, 256, 7)).unwrap();
        let mk = |policy| {
            let mut cfg = RuntimeConfig::new(policy);
            cfg.partitions = 32;
            cfg.quality.sampling_rate = 0.02;
            ShmtRuntime::new(slow_platform(b), cfg)
                .execute(&vop)
                .unwrap()
        };
        let ws = mk(Policy::WorkStealing);
        let qaws = mk(Policy::Qaws {
            assignment: QawsAssignment::TopK,
            sampling: SamplingMethod::Striding,
        });
        assert!(
            ws.tpu_fraction > 0.1,
            "TPU must participate: {}",
            ws.tpu_fraction
        );
        let e_ws = mape(&reference, &ws.output);
        let e_qaws = mape(&reference, &qaws.output);
        assert!(
            e_qaws < e_ws,
            "criticality routing must improve quality: QAWS {e_qaws} vs WS {e_ws}"
        );
    }

    #[test]
    fn tpu_only_runs_everything_on_the_tpu() {
        let b = Benchmark::Histogram;
        let vop = Vop::from_benchmark(b, b.generate_inputs(128, 128, 7)).unwrap();
        let cfg = RuntimeConfig::new(Policy::WorkStealing).tpu_only();
        let r = ShmtRuntime::new(Platform::jetson(b), cfg)
            .execute(&vop)
            .unwrap();
        assert!((r.tpu_fraction - 1.0).abs() < 1e-9);
        assert_eq!(r.device(hetsim::DeviceKind::Gpu).unwrap().hlops, 0);
        // Histogram counts survive the int8 count regression approximately.
        let total: f32 = r.output.as_slice().iter().sum();
        let expect = 128.0 * 128.0;
        assert!((total - expect).abs() < 0.05 * expect, "total = {total}");
    }

    #[test]
    fn even_distribution_is_slower_than_work_stealing_for_slow_tpu() {
        // MF: TPU 0.31x — a forced 50/50 split is bounded by the TPU.
        let even = run(Policy::EvenDistribution, Benchmark::MeanFilter, 256);
        let ws = run(Policy::WorkStealing, Benchmark::MeanFilter, 256);
        assert!(
            even.makespan_s > ws.makespan_s,
            "even {} vs ws {}",
            even.makespan_s,
            ws.makespan_s
        );
    }

    #[test]
    fn rejects_empty_device_mask() {
        let b = Benchmark::Sobel;
        let vop = Vop::from_benchmark(b, b.generate_inputs(64, 64, 1)).unwrap();
        let mut cfg = RuntimeConfig::new(Policy::WorkStealing);
        cfg.device_mask = [false; 3];
        let err = ShmtRuntime::new(Platform::jetson(b), cfg)
            .execute(&vop)
            .unwrap_err();
        assert!(matches!(err, ShmtError::NoCapableDevice(_)));
    }

    #[test]
    fn energy_includes_idle_and_active_parts() {
        let r = run(Policy::WorkStealing, Benchmark::Srad, 128);
        assert!(r.energy.idle_j > 0.0);
        assert!(r.energy.active_j > 0.0);
        assert!(r.edp() > 0.0);
    }

    #[test]
    fn comm_overhead_is_small_under_pipelining() {
        let r = run(Policy::WorkStealing, Benchmark::Dct8x8, 256);
        assert!(
            r.comm_overhead() < 0.10,
            "comm overhead = {}",
            r.comm_overhead()
        );
    }
}
