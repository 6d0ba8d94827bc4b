use shmt_trace::{NullSink, TraceSink};

use crate::time::Duration;

/// Energy totals for one run, split the way the paper's Fig 10 reports
/// them: the idle platform floor and the per-device active energy on top.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Platform idle power integrated over the makespan (joules).
    pub idle_j: f64,
    /// Active (above-idle) energy of all devices (joules).
    pub active_j: f64,
}

impl EnergyBreakdown {
    /// Total wall-plug energy.
    pub fn total_j(&self) -> f64 {
        self.idle_j + self.active_j
    }
}

/// Integrates platform power over a run, mirroring the paper's wall-plug
/// power meter (§5.5): a constant platform idle floor (3.02 W measured)
/// plus each device's active power over its busy time.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyMeter {
    idle_power_w: f64,
    active_j: f64,
}

impl EnergyMeter {
    /// Creates a meter with the given platform idle power (watts).
    ///
    /// # Panics
    ///
    /// Panics if `idle_power_w` is negative.
    pub fn new(idle_power_w: f64) -> Self {
        assert!(idle_power_w >= 0.0, "idle power must be non-negative");
        EnergyMeter {
            idle_power_w,
            active_j: 0.0,
        }
    }

    /// The prototype's measured 3.02 W idle floor.
    pub fn jetson_prototype() -> Self {
        EnergyMeter::new(3.02)
    }

    /// Platform idle power.
    pub fn idle_power_w(&self) -> f64 {
        self.idle_power_w
    }

    /// Records `busy_s` seconds of activity on a device drawing
    /// `active_power_w` above idle.
    ///
    /// # Panics
    ///
    /// Panics if either argument is negative.
    pub fn record_busy(&mut self, busy_s: Duration, active_power_w: f64) {
        self.record_busy_traced(busy_s, active_power_w, &mut NullSink);
    }

    /// [`EnergyMeter::record_busy`], accumulating the joules into `sink`'s
    /// `energy.active_j` counter as well.
    ///
    /// # Panics
    ///
    /// Panics if either argument is negative.
    pub fn record_busy_traced(
        &mut self,
        busy_s: Duration,
        active_power_w: f64,
        sink: &mut dyn TraceSink,
    ) {
        assert!(
            busy_s >= 0.0 && active_power_w >= 0.0,
            "negative energy record"
        );
        let joules = busy_s * active_power_w;
        self.active_j += joules;
        if sink.enabled() {
            sink.counter("energy.active_j", joules);
        }
    }

    /// Finalizes the run: idle energy is the idle floor integrated over the
    /// whole makespan (devices' active power already excludes it).
    pub fn finish(&self, makespan_s: Duration) -> EnergyBreakdown {
        assert!(makespan_s >= 0.0, "negative makespan");
        EnergyBreakdown {
            idle_j: self.idle_power_w * makespan_s,
            active_j: self.active_j,
        }
    }
}

/// Energy-delay product, the paper's secondary energy metric (Fig 10).
pub fn edp(energy_j: f64, delay_s: Duration) -> f64 {
    energy_j * delay_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_energy_scales_with_makespan() {
        let meter = EnergyMeter::new(3.0);
        let e = meter.finish(10.0);
        assert_eq!(e.idle_j, 30.0);
        assert_eq!(e.active_j, 0.0);
        assert_eq!(e.total_j(), 30.0);
    }

    #[test]
    fn active_energy_accumulates_per_device() {
        let mut meter = EnergyMeter::jetson_prototype();
        meter.record_busy(2.0, 1.65);
        meter.record_busy(1.0, 0.56);
        meter.record_busy(1.0, 1.65);
        let e = meter.finish(3.0);
        assert!((e.active_j - 5.51).abs() < 1e-9);
        assert!((e.idle_j - 9.06).abs() < 1e-9);
    }

    #[test]
    fn edp_is_energy_times_delay() {
        assert_eq!(edp(10.0, 2.0), 20.0);
    }
}
