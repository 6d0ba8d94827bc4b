//! Per-device health: the server's device-mask adapter over the shared
//! [`Breaker`] state machine, one slot per device.
//!
//! The serving layer watches every completed request for evidence that a
//! modeled device is misbehaving — a dropout recorded in the run's
//! [`shmt::FaultReport`], or approximate output bad enough that the
//! quality guard had to repair it — and strikes that device's breaker
//! slot. Quarantined devices are masked out of subsequent requests'
//! device masks (requests still run, in degraded mode, on the remaining
//! devices); every request a quarantined device sits out ticks its
//! quarantine clock, and a due probe leaves the device in one request's
//! mask.
//!
//! Two rules are the adapter's own: it never masks the last capable
//! device — when every device a request asked for is quarantined, the
//! request runs with its original mask (serving degraded beats not
//! serving) — and a failure no device can be blamed for releases an
//! in-flight probe without a verdict.

use crate::breaker::{Breaker, HealthConfig, HealthDelta, SlotHealth};
use crate::server::DEVICES;

/// What the device breaker decided for one request before execution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MaskDecision {
    /// The device mask the request should actually run with.
    pub mask: [bool; DEVICES],
    /// Devices included as quarantine probes this request.
    pub probed: [bool; DEVICES],
    /// Whether `mask` differs from what the request asked for — the
    /// request is serving in degraded mode if so.
    pub masked_any: bool,
}

/// The server's device-mask adapter over a [`Breaker`] with one slot per
/// device: the state behind the server's health mutex (lock order: health
/// is never held together with `state` or `metrics`).
#[derive(Debug)]
pub(crate) struct DeviceMasks(Breaker);

impl DeviceMasks {
    pub(crate) fn new(config: HealthConfig) -> Self {
        DeviceMasks(Breaker::new(config, DEVICES))
    }

    /// Decides the effective device mask for a request about to execute:
    /// masks quarantined devices (ticking their clocks), releases due
    /// probes, and falls back to the requested mask when quarantine would
    /// leave nothing enabled.
    pub(crate) fn plan(&mut self, requested: [bool; DEVICES]) -> MaskDecision {
        let mut mask = requested;
        let mut probed = [false; DEVICES];
        for d in 0..DEVICES {
            if !requested[d] || self.0.routable(d) {
                continue;
            }
            if self.0.probe_ready(d) {
                self.0.begin_probe(d);
                probed[d] = true; // stays in the mask as a probe
            } else {
                self.0.tick(d);
                mask[d] = false;
            }
        }
        if !mask.iter().any(|&m| m) {
            // Every requested device is quarantined: never mask the last
            // capable device; run the request as asked, degraded.
            mask = requested;
        }
        MaskDecision {
            mask,
            probed,
            masked_any: mask != requested,
        }
    }

    /// Folds one request's outcome back in and returns the counter
    /// increments together with the devices now quarantined — one lock
    /// acquisition covers both. `struck` is the per-device fault
    /// attribution (`None` when the run failed for a reason no device can
    /// be blamed for — probes in flight are released without a verdict).
    pub(crate) fn record(
        &mut self,
        decision: &MaskDecision,
        struck: Option<[bool; DEVICES]>,
    ) -> (HealthDelta, [bool; DEVICES]) {
        let mut delta = HealthDelta::default();
        for d in 0..DEVICES {
            match struck {
                None if decision.probed[d] => self.0.release_probe(d),
                Some(struck) if decision.mask[d] => {
                    delta += self.0.record(d, !struck[d], decision.probed[d]);
                }
                _ => {}
            }
        }
        (delta, self.quarantined())
    }

    /// Which devices are quarantined right now.
    pub(crate) fn quarantined(&self) -> [bool; DEVICES] {
        std::array::from_fn(|d| !self.0.routable(d))
    }

    pub(crate) fn snapshot(&self) -> [SlotHealth; DEVICES] {
        std::array::from_fn(|d| self.0.health(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [bool; DEVICES] = [true; DEVICES];
    const EXACT_ONLY: [bool; DEVICES] = [true, true, false];
    const CLEAN: Option<[bool; DEVICES]> = Some([false; DEVICES]);
    const TPU_STRUCK: Option<[bool; DEVICES]> = Some([false, false, true]);

    fn tracker(quarantine_after: usize, probe_after: usize) -> DeviceMasks {
        DeviceMasks::new(HealthConfig {
            enabled: true,
            quarantine_after,
            probe_after,
        })
    }

    /// One request end to end: plan its mask, record its outcome.
    fn serve(
        t: &mut DeviceMasks,
        requested: [bool; DEVICES],
        struck: Option<[bool; DEVICES]>,
    ) -> (MaskDecision, HealthDelta, [bool; DEVICES]) {
        let dec = t.plan(requested);
        let (delta, quarantined) = t.record(&dec, struck);
        (dec, delta, quarantined)
    }

    #[test]
    fn consecutive_strikes_trip_the_breaker() {
        let mut t = tracker(3, 4);
        for i in 0..3 {
            let (dec, delta, quarantined) = serve(&mut t, ALL, TPU_STRUCK);
            assert!(dec.mask[2], "device still admitted before trip {i}");
            assert_eq!(delta.strikes, 1);
            assert_eq!(quarantined, [false, false, i == 2], "third strike trips");
        }
        let dec = t.plan(ALL);
        assert_eq!(dec.mask, EXACT_ONLY, "quarantined device is masked");
        assert!(dec.masked_any);
        assert!(t.snapshot()[2].quarantined);
    }

    #[test]
    fn clean_runs_reset_the_streak() {
        let mut t = tracker(3, 4);
        serve(&mut t, ALL, TPU_STRUCK);
        serve(&mut t, ALL, TPU_STRUCK);
        // A clean run the device sat out says nothing about it...
        serve(&mut t, EXACT_ONLY, CLEAN);
        assert_eq!(t.snapshot()[2].consecutive_strikes, 2);
        // ...one it took part in resets the streak.
        serve(&mut t, ALL, CLEAN);
        serve(&mut t, ALL, TPU_STRUCK);
        assert!(!t.snapshot()[2].quarantined, "streak must reset on clean");
    }

    #[test]
    fn probe_reintegrates_after_a_clean_run() {
        let mut t = tracker(1, 2);
        serve(&mut t, ALL, TPU_STRUCK);
        // Requests that never asked for the device do not run its clock.
        let (dec, ..) = serve(&mut t, EXACT_ONLY, CLEAN);
        assert!(!dec.masked_any);
        // Quarantined for probe_after requests...
        for _ in 0..2 {
            let (dec, ..) = serve(&mut t, ALL, CLEAN);
            assert!(!dec.mask[2] && !dec.probed[2]);
        }
        // ...then the next request probes.
        let (dec, delta, quarantined) = serve(&mut t, ALL, CLEAN);
        assert!(dec.probed[2] && dec.mask[2], "due probe re-admits device");
        assert_eq!(delta.reintegrations, 1);
        assert_eq!(quarantined, [false; DEVICES]);
        assert_eq!(t.snapshot()[2].reintegrations, 1);
    }

    #[test]
    fn never_masks_the_last_capable_device() {
        let mut t = tracker(1, 100);
        let only_tpu = [false, false, true];
        serve(&mut t, only_tpu, TPU_STRUCK);
        let dec = t.plan(only_tpu);
        assert_eq!(dec.mask, only_tpu, "last device must stay enabled");
        assert!(!dec.masked_any);
    }

    #[test]
    fn unattributable_failure_releases_probe_without_verdict() {
        let mut t = tracker(1, 0);
        serve(&mut t, ALL, TPU_STRUCK);
        let dec = t.plan(ALL);
        assert!(dec.probed[2]);
        assert!(t.snapshot()[2].probe_inflight);
        let (delta, quarantined) = t.record(&dec, None);
        assert_eq!(delta, HealthDelta::default());
        assert!(quarantined[2]);
        let snap = t.snapshot()[2];
        assert!(!snap.probe_inflight);
        assert_eq!(snap.total_strikes, 1, "no verdict, no strike");
    }
}
