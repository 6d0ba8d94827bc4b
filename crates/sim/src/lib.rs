//! `hetsim` — a virtual-time heterogeneous platform model.
//!
//! The SHMT paper's prototype is a Jetson Nano (quad-core ARM + 128-core
//! Maxwell GPU) with an M.2 Edge TPU, sharing data through main memory over
//! PCIe (§4.1). That hardware is unavailable here, so this crate models the
//! platform's *timing and energy behaviour* while the actual computation is
//! performed in software by the kernels crate:
//!
//! * [`SimTime`]/[`Duration`] — virtual time in seconds.
//! * [`DeviceProfile`]/[`DeviceTimeline`] — a processing unit's cost model
//!   (launch overhead + work/throughput) and its busy/wait bookkeeping.
//! * [`Interconnect`] — the shared PCIe/LPDDR4 bus: transfers serialize,
//!   with per-transfer latency and finite bandwidth (25.6 GB/s on the
//!   prototype).
//! * [`EnergyMeter`] — integrates platform idle power plus per-device
//!   active power over busy intervals (the paper's wall-plug power meter,
//!   §5.5).
//! * [`QueuePair`] — the per-device incoming/completion queue pair of the
//!   SHMT kernel driver (§3.3).
//! * [`FaultPlan`]/[`FaultInjector`] — a seeded, deterministic schedule of
//!   hardware misbehaviour (slowdown windows, transient transfer failures,
//!   device dropout, TPU output miscalibration) that the runtime consults;
//!   the empty plan is inert and leaves runs bit-identical.
//!
//! The SHMT runtime (the `shmt` crate) drives these pieces: it decides what
//! executes where, charges each HLOP's compute and transfer costs here, and
//! reads back makespan, energy, and overhead statistics.
//!
//! Every cost-charging entry point takes a `shmt_trace::TraceSink`
//! ([`DeviceTimeline::execute_traced`], [`Interconnect::transfer_traced`],
//! [`QueuePair::enqueue_traced`], [`EnergyMeter::record_busy_traced`]);
//! the untraced `execute` and `record_busy` call them with a `NullSink`, so
//! there is a single code path and tracing can never change simulated
//! behaviour.
//!
//! # Examples
//!
//! ```
//! use hetsim::{DeviceKind, DeviceProfile, DeviceTimeline, SimTime};
//!
//! let gpu = DeviceProfile::jetson_gpu(1.0e9);
//! let mut timeline = DeviceTimeline::new(gpu);
//! let done = timeline.execute(SimTime::ZERO, 1.0e8); // 0.1 s of work
//! assert!(done.as_secs() > 0.1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod device;
mod fault;
mod interconnect;
mod power;
mod queue;
mod time;

pub use device::{DeviceKind, DeviceProfile, DeviceTimeline, Precision};
pub use fault::{
    Dropout, FaultInjector, FaultPlan, FaultReport, SlowdownWindow, TpuMiscalibration,
};
pub use interconnect::{Interconnect, Transfer};
pub use power::{edp, EnergyBreakdown, EnergyMeter};
pub use queue::QueuePair;
pub use time::{Duration, SimTime};
