//! Execution reports: what one VOP run (or baseline run) produced and cost.

use hetsim::{DeviceKind, EnergyBreakdown, FaultReport};
use shmt_tensor::Tensor;
use shmt_trace::TraceData;

use crate::guard::QualityReport;
use crate::hlop::HlopRecord;

/// Per-device accounting for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceStats {
    /// Which device.
    pub kind: DeviceKind,
    /// Seconds the device spent computing.
    pub busy_s: f64,
    /// Seconds the device spent waiting for data transfers.
    pub wait_s: f64,
    /// HLOPs completed.
    pub hlops: usize,
    /// Deepest this device's incoming queue ever got (§3.4's imbalance
    /// signal).
    pub max_queue_depth: usize,
    /// HLOPs withdrawn from this device's queue by other devices' steals.
    pub stolen_away: usize,
}

/// The result of executing one VOP through the SHMT runtime.
#[derive(Debug)]
pub struct RunReport {
    /// The computed output (genuinely computed: exact on GPU/CPU
    /// partitions, int8-degraded on Edge TPU partitions).
    pub output: Tensor,
    /// The true `(rows, cols)` of the computed output. Pipeline layers
    /// move `output` out and leave a 1×1 placeholder behind (the PR-4
    /// clone-avoidance), so observers must read the real size from here,
    /// never from `output.shape()`.
    pub output_shape: (usize, usize),
    /// End-to-end virtual latency, including scheduling overhead.
    pub makespan_s: f64,
    /// Serial scheduler overhead included in the makespan (sampling or
    /// canary computation).
    pub scheduling_overhead_s: f64,
    /// Per-device accounting.
    pub devices: Vec<DeviceStats>,
    /// Energy totals.
    pub energy: EnergyBreakdown,
    /// Bytes moved over the interconnect.
    pub bus_bytes: u64,
    /// Completion records per HLOP.
    pub records: Vec<HlopRecord>,
    /// Fraction of elements computed on the Edge TPU.
    pub tpu_fraction: f64,
    /// Number of HLOPs that moved queues through stealing.
    pub steals: usize,
    /// Modeled peak memory footprint (bytes).
    pub peak_memory_bytes: u64,
    /// What the fault injector did during the run; all-zero (and
    /// `degraded: false`) for a run without a fault plan.
    pub faults: FaultReport,
    /// What the quality guard observed and repaired; all-zero (with
    /// `enabled: false`) for a run without the guard.
    pub quality: QualityReport,
    /// The structured event trace, when the run was captured through
    /// [`crate::runtime::ShmtRuntime::execute_with_faults_traced`]; `None` otherwise.
    pub trace: Option<TraceData>,
}

impl RunReport {
    /// Energy-delay product (J·s).
    pub fn edp(&self) -> f64 {
        self.energy.total_j() * self.makespan_s
    }

    /// Total device busy time.
    fn total_busy_s(&self) -> f64 {
        self.devices.iter().map(|d| d.busy_s).sum()
    }

    /// Communication overhead: time spent waiting on data exchange as a
    /// fraction of total device busy time (the paper's Table 3 metric).
    pub fn comm_overhead(&self) -> f64 {
        let busy = self.total_busy_s();
        if busy <= 0.0 {
            0.0
        } else {
            self.devices.iter().map(|d| d.wait_s).sum::<f64>() / busy
        }
    }

    /// Accounting for the device that ran the given kind, if any.
    pub fn device(&self, kind: DeviceKind) -> Option<&DeviceStats> {
        self.devices.iter().find(|d| d.kind == kind)
    }

    /// Total elements computed per device, in report order — the span
    /// workload an observer needs to turn busy time into throughput.
    pub fn device_elements(&self) -> Vec<(DeviceKind, u64)> {
        self.devices
            .iter()
            .map(|d| {
                let elems = self
                    .records
                    .iter()
                    .filter(|r| r.device == d.kind)
                    .map(|r| r.elements as u64)
                    .sum();
                (d.kind, elems)
            })
            .collect()
    }

    /// Fraction of HLOPs executed per device, in report order.
    pub fn device_shares(&self) -> Vec<(DeviceKind, f64)> {
        let total = self.records.len().max(1) as f64;
        self.devices
            .iter()
            .map(|d| (d.kind, d.hlops as f64 / total))
            .collect()
    }

    /// Renders a textual Gantt chart of the schedule, one row per device,
    /// `width` characters across the makespan. Busy intervals are drawn
    /// with `#`, idle with `.` — handy for eyeballing balance and tails.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn gantt(&self, width: usize) -> Vec<String> {
        assert!(width > 0, "gantt width must be positive");
        let span = self.makespan_s.max(1e-12);
        self.devices
            .iter()
            .map(|d| {
                let mut cells = vec![b'.'; width];
                for r in self.records.iter().filter(|r| r.device == d.kind) {
                    let a = ((r.start_s / span) * width as f64) as usize;
                    let b = ((r.end_s / span) * width as f64).ceil() as usize;
                    for cell in &mut cells[a.min(width - 1)..b.min(width)] {
                        *cell = b'#';
                    }
                }
                format!(
                    "{:<8} |{}| {:>4} HLOPs",
                    d.kind.to_string(),
                    // Cells are only ever b'.' or b'#'; lossy conversion
                    // keeps this infallible without an unwrap.
                    String::from_utf8_lossy(&cells),
                    d.hlops
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hlop::HlopRecord;
    use hetsim::EnergyBreakdown;
    use shmt_tensor::Tensor;

    fn sample_report() -> RunReport {
        RunReport {
            output: Tensor::zeros(2, 2),
            output_shape: (2, 2),
            makespan_s: 1.0,
            scheduling_overhead_s: 0.0,
            devices: vec![
                DeviceStats {
                    kind: DeviceKind::Gpu,
                    busy_s: 0.6,
                    wait_s: 0.0,
                    hlops: 2,
                    max_queue_depth: 2,
                    stolen_away: 0,
                },
                DeviceStats {
                    kind: DeviceKind::EdgeTpu,
                    busy_s: 0.3,
                    wait_s: 0.01,
                    hlops: 1,
                    max_queue_depth: 1,
                    stolen_away: 1,
                },
            ],
            energy: EnergyBreakdown {
                idle_j: 3.0,
                active_j: 1.0,
            },
            bus_bytes: 100,
            records: vec![
                HlopRecord {
                    id: 0,
                    device: DeviceKind::Gpu,
                    start_s: 0.0,
                    end_s: 0.4,
                    stolen: false,
                    elements: 16,
                },
                HlopRecord {
                    id: 1,
                    device: DeviceKind::Gpu,
                    start_s: 0.4,
                    end_s: 0.6,
                    stolen: false,
                    elements: 16,
                },
                HlopRecord {
                    id: 2,
                    device: DeviceKind::EdgeTpu,
                    start_s: 0.0,
                    end_s: 0.3,
                    stolen: true,
                    elements: 8,
                },
            ],
            tpu_fraction: 0.33,
            steals: 1,
            peak_memory_bytes: 1024,
            faults: FaultReport::default(),
            quality: QualityReport::disabled(),
            trace: None,
        }
    }

    #[test]
    fn edp_and_comm_overhead() {
        let r = sample_report();
        assert_eq!(r.edp(), 4.0);
        assert!((r.comm_overhead() - 0.01 / 0.9).abs() < 1e-9);
        assert_eq!(r.device(DeviceKind::Gpu).unwrap().hlops, 2);
        assert!(r.device(DeviceKind::Cpu).is_none());
    }

    #[test]
    fn device_elements_sum_per_device() {
        let r = sample_report();
        assert_eq!(
            r.device_elements(),
            vec![(DeviceKind::Gpu, 32), (DeviceKind::EdgeTpu, 8)]
        );
    }

    #[test]
    fn device_shares_sum_to_one() {
        let r = sample_report();
        let total: f64 = r.device_shares().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gantt_draws_busy_cells() {
        let r = sample_report();
        let rows = r.gantt(10);
        assert_eq!(rows.len(), 2);
        // GPU busy for the first 60%: cells 0..6 filled.
        assert!(rows[0].contains("######"));
        assert!(rows[0].ends_with("2 HLOPs"));
        // TPU busy 30% then idle.
        assert!(rows[1].contains("###"));
        assert!(rows[1].contains('.'));
    }
}

/// The modeled cost of a single-device reference run (GPU baseline or
/// software pipelining). It carries no output; the VOP's exact output is
/// [`crate::baseline::exact_reference`].
#[derive(Debug)]
pub struct BaselineReport {
    /// End-to-end virtual latency.
    pub makespan_s: f64,
    /// Energy totals.
    pub energy: EnergyBreakdown,
    /// Modeled peak memory footprint (bytes).
    pub peak_memory_bytes: u64,
}

impl BaselineReport {
    /// Energy-delay product (J·s).
    pub fn edp(&self) -> f64 {
        self.energy.total_j() * self.makespan_s
    }
}
