//! Deterministic fault injection for the virtual platform.
//!
//! A [`FaultPlan`] is a *schedule* of hardware misbehaviour expressed in
//! virtual time: per-device slowdown windows (thermal throttling, a
//! contended accelerator), transient bus-transfer failures (a flaky PCIe
//! link), and device dropout at an instant (a crashed driver, or an Edge
//! TPU that is simply absent at start). The plan is pure data — it never
//! acts on its own. A [`FaultInjector`] wraps a plan and answers the
//! runtime's questions ("how slow is device 2 right now?", "did this
//! transfer fail?", "when does device 0 die?") deterministically: the same
//! plan and seed always produce the same answers in the same order, so a
//! faulted run is exactly reproducible.
//!
//! The empty plan is free: [`FaultPlan::none`] makes
//! [`FaultInjector::active`] false, every slowdown factor exactly `1.0`,
//! and every transfer succeed without consuming randomness, so a runtime
//! threaded through an inactive injector is bit-identical to one without
//! it — the same single-code-path discipline the tracing layer uses for
//! its `NullSink`.

use crate::time::SimTime;
use shmt_trace::DeviceId;

/// A window of degraded throughput on one device: work started inside
/// `[from_s, until_s)` takes `factor` times as long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowdownWindow {
    /// The device that slows down.
    pub device: DeviceId,
    /// Window start, virtual seconds.
    pub from_s: f64,
    /// Window end (exclusive), virtual seconds.
    pub until_s: f64,
    /// Execution-time multiplier, `> 1.0`.
    pub factor: f64,
}

/// A device leaving the platform at a virtual instant. Work already
/// executed stays valid; pending work must be re-dispatched. `at_s == 0.0`
/// models a device that is unavailable from the start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dropout {
    /// The device that dies.
    pub device: DeviceId,
    /// Time of death, virtual seconds.
    pub at_s: f64,
}

/// A persistent affine corruption of every value the Edge TPU produces:
/// a drifted quantization table or failing calibration writes back
/// `gain * v + bias` instead of `v`. Unlike slowdowns and dropouts, this
/// fault degrades *quality*, not *time* — it is what the output-side
/// quality guard exists to catch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpuMiscalibration {
    /// Multiplicative error on every TPU output element.
    pub gain: f32,
    /// Additive error on every TPU output element.
    pub bias: f32,
}

/// A deterministic schedule of faults for one run.
///
/// Build one with the `with_*` methods:
///
/// ```
/// use hetsim::FaultPlan;
///
/// let plan = FaultPlan::none()
///     .with_seed(7)
///     .with_slowdown(0, 0.0, 1.0, 4.0)
///     .with_transfer_failures(0.25)
///     .with_tpu_miscalibration(1.5, 0.1)
///     .with_dropout(2, 0.5);
/// assert!(!plan.is_empty());
/// assert_eq!(FaultPlan::none(), FaultPlan::default());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the transfer-failure draws.
    pub seed: u64,
    /// Slowdown windows, applied by start time of each execution.
    pub slowdowns: Vec<SlowdownWindow>,
    /// Probability in `[0, 1)` that any single bus transfer fails and
    /// must be retried.
    pub transfer_failure_rate: f64,
    /// Retries allowed per transfer before the link is assumed recovered
    /// (the final attempt always succeeds so runs terminate).
    pub max_transfer_retries: usize,
    /// Base backoff charged before the first retry, virtual seconds;
    /// doubles per attempt.
    pub retry_backoff_s: f64,
    /// Ceiling on a single backoff interval, virtual seconds.
    pub retry_backoff_cap_s: f64,
    /// Device dropouts.
    pub dropouts: Vec<Dropout>,
    /// Silent corruption of all TPU output, if scheduled.
    pub tpu_miscalibration: Option<TpuMiscalibration>,
}

impl FaultPlan {
    /// The empty plan: no faults, and a guaranteed-identical run.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            slowdowns: Vec::new(),
            transfer_failure_rate: 0.0,
            max_transfer_retries: 4,
            retry_backoff_s: 100.0e-6,
            retry_backoff_cap_s: 1.6e-3,
            dropouts: Vec::new(),
            tpu_miscalibration: None,
        }
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.slowdowns.is_empty()
            && self.transfer_failure_rate == 0.0
            && self.dropouts.is_empty()
            && self.tpu_miscalibration.is_none()
    }

    /// Sets the seed for transfer-failure draws.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a slowdown window on `device` over `[from_s, until_s)`.
    ///
    /// # Panics
    ///
    /// Panics on a device index ≥ 3, a non-positive window, or a factor
    /// below 1.
    #[must_use]
    pub fn with_slowdown(
        mut self,
        device: DeviceId,
        from_s: f64,
        until_s: f64,
        factor: f64,
    ) -> Self {
        assert!(device < 3, "device index {device} out of range");
        assert!(
            from_s >= 0.0 && until_s > from_s,
            "bad slowdown window {from_s}..{until_s}"
        );
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "slowdown factor must be >= 1, got {factor}"
        );
        self.slowdowns.push(SlowdownWindow {
            device,
            from_s,
            until_s,
            factor,
        });
        self
    }

    /// Sets the transient transfer-failure probability.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1)`.
    #[must_use]
    pub fn with_transfer_failures(mut self, rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "failure rate must be in [0, 1), got {rate}"
        );
        self.transfer_failure_rate = rate;
        self
    }

    /// Schedules `device` to drop out at `at_s` virtual seconds.
    ///
    /// # Panics
    ///
    /// Panics on a device index ≥ 3 or a negative/non-finite time.
    #[must_use]
    pub fn with_dropout(mut self, device: DeviceId, at_s: f64) -> Self {
        assert!(device < 3, "device index {device} out of range");
        assert!(at_s >= 0.0 && at_s.is_finite(), "bad dropout time {at_s}");
        self.dropouts.push(Dropout { device, at_s });
        self
    }

    /// Marks `device` unavailable from the very start of the run
    /// (shorthand for a dropout at time zero).
    #[must_use]
    pub fn with_unavailable(self, device: DeviceId) -> Self {
        self.with_dropout(device, 0.0)
    }

    /// Corrupts every TPU output element to `gain * v + bias` — a drifted
    /// quantization calibration. A gain of 1 with a bias of 0 is the
    /// identity and is rejected; schedule no miscalibration instead.
    ///
    /// # Panics
    ///
    /// Panics on non-finite parameters or the identity transform.
    #[must_use]
    pub fn with_tpu_miscalibration(mut self, gain: f32, bias: f32) -> Self {
        assert!(
            gain.is_finite() && bias.is_finite(),
            "miscalibration must be finite, got gain {gain} bias {bias}"
        );
        assert!(
            gain != 1.0 || bias != 0.0,
            "identity miscalibration is no fault at all"
        );
        self.tpu_miscalibration = Some(TpuMiscalibration { gain, bias });
        self
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Counts of what the injector actually did during one run, carried in
/// the run's report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Faults that fired (failed transfers, slowdown hits, dropouts).
    pub injected: usize,
    /// Transfer retries performed.
    pub retried: usize,
    /// Pending HLOPs moved off dead devices' queues.
    pub redispatched: usize,
    /// Devices that dropped out during the run.
    pub devices_lost: usize,
    /// Whether the run finished in a degraded configuration (at least one
    /// device lost).
    pub degraded: bool,
    /// Which devices (by [`DeviceId`]) dropped out — the per-device
    /// attribution behind `devices_lost`, consumed by serving-layer
    /// health tracking.
    pub lost: [bool; 3],
}

/// Answers the runtime's fault questions for one run, deterministically.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    draws: u64,
}

impl FaultInjector {
    /// Wraps a plan for one run.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            plan: plan.clone(),
            draws: 0,
        }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any fault is scheduled at all. When false, every query
    /// below is a constant and no randomness is consumed.
    pub fn active(&self) -> bool {
        !self.plan.is_empty()
    }

    /// The execution-time multiplier for work starting on `device` at
    /// `at`. Exactly `1.0` outside every window; overlapping windows
    /// compound multiplicatively.
    pub fn slowdown_factor(&self, device: DeviceId, at: SimTime) -> f64 {
        let t = at.as_secs();
        let mut factor = 1.0;
        for w in &self.plan.slowdowns {
            if w.device == device && t >= w.from_s && t < w.until_s {
                factor *= w.factor;
            }
        }
        factor
    }

    /// Draws whether the next bus transfer fails. Each call consumes one
    /// deterministic draw from the seeded sequence.
    pub fn transfer_fails(&mut self) -> bool {
        if self.plan.transfer_failure_rate <= 0.0 {
            return false;
        }
        let h = splitmix64(self.plan.seed ^ self.draws.wrapping_mul(0x2545_F491_4F6C_DD1D));
        self.draws += 1;
        // Top 53 bits -> uniform f64 in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.plan.transfer_failure_rate
    }

    /// The backoff charged before retry number `attempt` (1-based):
    /// exponential, capped by the plan's ceiling.
    pub fn backoff(&self, attempt: usize) -> f64 {
        let doubled = self.plan.retry_backoff_s * (1u64 << (attempt - 1).min(32)) as f64;
        doubled.min(self.plan.retry_backoff_cap_s)
    }

    /// The scheduled TPU output corruption, if any.
    pub fn miscalibration(&self) -> Option<TpuMiscalibration> {
        self.plan.tpu_miscalibration
    }

    /// When `device` drops out, if ever: the earliest scheduled dropout.
    pub fn down_at(&self, device: DeviceId) -> Option<SimTime> {
        self.plan
            .dropouts
            .iter()
            .filter(|d| d.device == device)
            .map(|d| d.at_s)
            .min_by(|a, b| a.partial_cmp(b).expect("dropout times are finite"))
            .map(SimTime::from_secs)
    }
}

/// Finalizer from the splitmix64 generator — a full-avalanche mix, so
/// consecutive draw indices decorrelate completely. Keeping the generator
/// inline keeps this crate dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let mut inj = FaultInjector::new(&plan);
        assert!(!inj.active());
        assert_eq!(inj.slowdown_factor(0, SimTime::from_secs(0.5)), 1.0);
        assert!(!inj.transfer_fails());
        assert_eq!(inj.down_at(2), None);
    }

    #[test]
    fn slowdown_applies_inside_window_only() {
        let plan = FaultPlan::none().with_slowdown(1, 0.2, 0.4, 3.0);
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.slowdown_factor(1, SimTime::from_secs(0.1)), 1.0);
        assert_eq!(inj.slowdown_factor(1, SimTime::from_secs(0.3)), 3.0);
        assert_eq!(
            inj.slowdown_factor(1, SimTime::from_secs(0.4)),
            1.0,
            "end is exclusive"
        );
        assert_eq!(
            inj.slowdown_factor(0, SimTime::from_secs(0.3)),
            1.0,
            "other device"
        );
    }

    #[test]
    fn overlapping_windows_compound() {
        let plan = FaultPlan::none()
            .with_slowdown(0, 0.0, 1.0, 2.0)
            .with_slowdown(0, 0.5, 1.0, 3.0);
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.slowdown_factor(0, SimTime::from_secs(0.75)), 6.0);
    }

    #[test]
    fn transfer_draws_are_deterministic_per_seed() {
        let plan = FaultPlan::none().with_seed(42).with_transfer_failures(0.5);
        let draw = |plan: &FaultPlan| -> Vec<bool> {
            let mut inj = FaultInjector::new(plan);
            (0..64).map(|_| inj.transfer_fails()).collect()
        };
        assert_eq!(draw(&plan), draw(&plan));
        let other = plan.clone().with_seed(43);
        assert_ne!(draw(&plan), draw(&other), "different seeds diverge");
        let fails = draw(&plan).iter().filter(|&&f| f).count();
        assert!(
            (10..=54).contains(&fails),
            "rate 0.5 over 64 draws, got {fails}"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let plan = FaultPlan::none().with_transfer_failures(0.1);
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.backoff(1), 100.0e-6);
        assert_eq!(inj.backoff(2), 200.0e-6);
        assert_eq!(inj.backoff(3), 400.0e-6);
        assert_eq!(inj.backoff(20), plan.retry_backoff_cap_s);
    }

    #[test]
    fn earliest_dropout_wins() {
        let plan = FaultPlan::none().with_dropout(2, 0.9).with_dropout(2, 0.3);
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.down_at(2), Some(SimTime::from_secs(0.3)));
        assert_eq!(inj.down_at(0), None);
    }

    #[test]
    fn unavailable_is_a_dropout_at_zero() {
        let plan = FaultPlan::none().with_unavailable(2);
        assert_eq!(FaultInjector::new(&plan).down_at(2), Some(SimTime::ZERO));
    }

    #[test]
    fn miscalibration_activates_the_plan() {
        let plan = FaultPlan::none().with_tpu_miscalibration(1.5, 0.25);
        assert!(!plan.is_empty());
        let inj = FaultInjector::new(&plan);
        let m = inj.miscalibration().expect("scheduled");
        assert_eq!(m.gain, 1.5);
        assert_eq!(m.bias, 0.25);
        assert_eq!(
            FaultInjector::new(&FaultPlan::none()).miscalibration(),
            None
        );
    }

    #[test]
    #[should_panic(expected = "identity miscalibration")]
    fn rejects_identity_miscalibration() {
        let _ = FaultPlan::none().with_tpu_miscalibration(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "failure rate")]
    fn rejects_certain_failure() {
        let _ = FaultPlan::none().with_transfer_failures(1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_device() {
        let _ = FaultPlan::none().with_dropout(3, 0.0);
    }
}
