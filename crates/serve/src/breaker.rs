//! Health circuit breaker: strike accounting, quarantine, and
//! probe-and-reintegrate — one state machine for every level of the
//! stack.
//!
//! [`Breaker`] tracks a fixed set of indexed slots. Evidence that a slot's
//! unit is misbehaving accumulates as *strikes*; enough **consecutive**
//! strikes trip the breaker and *quarantine* the unit. A quarantine clock
//! ticks while the unit sits out, and when it reaches the probe threshold
//! a single piece of work is let through as a *probe* — a clean outcome
//! reintegrates the unit, a failure keeps the breaker open and restarts
//! the clock. A probe that never reports (its executor died, or the
//! system shut down around it) is declared lost after another
//! probe-threshold's worth of ticks, so a quarantine can stall but never
//! stick.
//!
//! Two callers drive it: the serving layer with one slot per modeled
//! **device** (through the device-mask adapter in `health.rs`), and the
//! cluster router (`shmt-cluster`) with one slot per **node**, where the
//! strikes are availability faults and the clock ticks once per routed
//! request.

/// Circuit-breaker tuning, for [`crate::ServerConfig::health`] and the
/// cluster router's node breaker alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Master switch. Disabled, the breaker observes nothing: every slot
    /// stays routable forever.
    pub enabled: bool,
    /// Consecutive strikes that trip the quarantine breaker.
    pub quarantine_after: usize,
    /// Clock ticks (requests served around the quarantined unit) before
    /// one request is used to probe it.
    pub probe_after: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            enabled: true,
            quarantine_after: 3,
            probe_after: 4,
        }
    }
}

/// Public snapshot of one breaker slot ([`crate::Server::device_health`];
/// the cluster router's `node_health`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotHealth {
    /// Whether the circuit breaker is currently open for this slot.
    pub quarantined: bool,
    /// Strikes since the slot's last clean outcome.
    pub consecutive_strikes: usize,
    /// Strikes over the breaker's lifetime.
    pub total_strikes: usize,
    /// Times the breaker tripped.
    pub quarantines: usize,
    /// Probes dispatched to this slot while quarantined.
    pub probes: usize,
    /// Probes that came back clean and closed the breaker.
    pub reintegrations: usize,
    /// A dispatched probe has not reported back yet. A probe that never
    /// reports is declared lost after `probe_after` further ticks and the
    /// breaker probes again.
    pub probe_inflight: bool,
}

/// Counter increments recorded outcomes produced, for the caller to apply
/// to its metrics registry after the breaker's lock drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthDelta {
    /// Strikes recorded.
    pub strikes: usize,
    /// Breaker trips.
    pub quarantines: usize,
    /// Clean probes that closed a breaker.
    pub reintegrations: usize,
}

impl std::ops::AddAssign for HealthDelta {
    fn add_assign(&mut self, other: Self) {
        self.strikes += other.strikes;
        self.quarantines += other.quarantines;
        self.reintegrations += other.reintegrations;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    quarantined: bool,
    /// A probe is in flight; hold further probes until it lands.
    probe_inflight: bool,
    consecutive: usize,
    /// Ticks since the quarantine began (or since the last probe was
    /// dispatched or failed); reaching `probe_after` releases the next
    /// probe.
    since_quarantine: usize,
    total_strikes: usize,
    quarantines: usize,
    probes: usize,
    reintegrations: usize,
}

/// The strike → quarantine → single-flight probe → reintegrate state
/// machine over a fixed number of indexed slots. Not synchronized:
/// callers keep it behind their own mutex.
#[derive(Debug)]
pub struct Breaker {
    config: HealthConfig,
    slots: Vec<Slot>,
}

impl Breaker {
    /// A breaker over `slots` healthy slots.
    pub fn new(config: HealthConfig, slots: usize) -> Self {
        Breaker {
            config,
            slots: vec![Slot::default(); slots],
        }
    }

    /// Whether the slot may take regular (non-probe) work: `false` exactly
    /// while it is quarantined.
    pub fn routable(&self, id: usize) -> bool {
        !self.slots[id].quarantined
    }

    /// Whether the slot's quarantine clock has earned it a probe.
    pub fn probe_ready(&self, id: usize) -> bool {
        let s = &self.slots[id];
        s.quarantined && !s.probe_inflight && s.since_quarantine >= self.config.probe_after
    }

    /// Marks a probe dispatch to `id` (single-flight: `probe_ready` goes
    /// false until the probe records, is released, or is declared lost).
    pub fn begin_probe(&mut self, id: usize) {
        let s = &mut self.slots[id];
        s.probe_inflight = true;
        s.since_quarantine = 0;
        s.probes += 1;
    }

    /// Clears an in-flight probe without a verdict: the work it rode on
    /// ended in a way that says nothing about the slot.
    pub fn release_probe(&mut self, id: usize) {
        self.slots[id].probe_inflight = false;
    }

    /// Advances a quarantined slot's clock by one, declaring an in-flight
    /// probe lost once it has been out for `probe_after` ticks (see the
    /// module docs). A no-op on healthy slots.
    pub fn tick(&mut self, id: usize) {
        let s = &mut self.slots[id];
        if !s.quarantined {
            return;
        }
        s.since_quarantine += 1;
        if s.probe_inflight && s.since_quarantine >= self.config.probe_after.max(1) {
            s.probe_inflight = false;
        }
    }

    /// Folds one outcome back in. `ok` is whether the slot's unit did its
    /// work cleanly; `was_probe` whether that work was the slot's
    /// quarantine probe.
    pub fn record(&mut self, id: usize, ok: bool, was_probe: bool) -> HealthDelta {
        let mut delta = HealthDelta::default();
        if !self.config.enabled {
            // The one place the master switch is read: with nothing ever
            // recorded no slot is ever struck or quarantined, so every
            // other method is already inert.
            return delta;
        }
        let s = &mut self.slots[id];
        if ok {
            s.consecutive = 0;
            if was_probe {
                s.probe_inflight = false;
                s.quarantined = false;
                s.reintegrations += 1;
                delta.reintegrations = 1;
            }
        } else {
            s.consecutive += 1;
            s.total_strikes += 1;
            delta.strikes = 1;
            if was_probe {
                // Failed probe: the breaker stays open, the probe clock
                // restarts.
                s.probe_inflight = false;
                s.since_quarantine = 0;
            } else if !s.quarantined && s.consecutive >= self.config.quarantine_after {
                s.quarantined = true;
                s.since_quarantine = 0;
                s.quarantines += 1;
                delta.quarantines = 1;
            }
        }
        delta
    }

    /// Strike pressure against a slot, as a fraction of the trip
    /// threshold — a scoring penalty, so a unit one failure away from
    /// quarantine stops attracting work first.
    pub fn pressure(&self, id: usize) -> f64 {
        self.slots[id].consecutive as f64 / self.config.quarantine_after.max(1) as f64
    }

    /// Snapshot of one slot.
    pub fn health(&self, id: usize) -> SlotHealth {
        let s = &self.slots[id];
        SlotHealth {
            quarantined: s.quarantined,
            consecutive_strikes: s.consecutive,
            total_strikes: s.total_strikes,
            quarantines: s.quarantines,
            probes: s.probes,
            reintegrations: s.reintegrations,
            probe_inflight: s.probe_inflight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(quarantine_after: usize, probe_after: usize) -> HealthConfig {
        HealthConfig {
            enabled: true,
            quarantine_after,
            probe_after,
        }
    }

    #[test]
    fn strikes_quarantine_and_a_clean_probe_reintegrates() {
        let mut b = Breaker::new(cfg(2, 3), 2);
        assert_eq!(b.record(0, false, false).strikes, 1);
        assert!(b.routable(0));
        let delta = b.record(0, false, false);
        assert_eq!((delta.strikes, delta.quarantines), (1, 1));
        assert!(!b.routable(0), "two strikes trip the breaker");
        assert!(b.routable(1), "slots are independent");
        for _ in 0..3 {
            assert!(!b.probe_ready(0));
            b.tick(0);
        }
        assert!(b.probe_ready(0), "probe due after the clock runs");
        b.begin_probe(0);
        assert!(!b.probe_ready(0), "single-flight probe");
        assert!(b.health(0).probe_inflight);
        let delta = b.record(0, true, true);
        assert_eq!(delta.reintegrations, 1);
        assert!(b.routable(0));
        let h = b.health(0);
        assert_eq!(
            (h.total_strikes, h.quarantines, h.probes, h.reintegrations),
            (2, 1, 1, 1)
        );
    }

    #[test]
    fn clean_outcome_resets_the_streak_and_the_pressure() {
        let mut b = Breaker::new(cfg(3, 4), 2);
        b.record(0, false, false);
        b.record(0, false, false);
        assert_eq!(b.pressure(0), 2.0 / 3.0, "streak over the trip threshold");
        assert_eq!(b.pressure(1), 0.0);
        b.record(0, true, false);
        assert_eq!(b.pressure(0), 0.0);
        b.record(0, false, false);
        assert!(b.routable(0), "streak must reset on clean");
        assert_eq!(b.health(0).total_strikes, 3);
    }

    #[test]
    fn failed_probe_restarts_the_clock() {
        let mut b = Breaker::new(cfg(1, 2), 1);
        b.record(0, false, false);
        b.tick(0);
        b.tick(0);
        assert!(b.probe_ready(0));
        b.begin_probe(0);
        // Work keeps flowing around the probe while it is in flight; its
        // ticks must not count towards the next probe.
        b.tick(0);
        b.record(0, false, true);
        assert!(!b.routable(0), "struck probe must not close the breaker");
        assert!(!b.probe_ready(0), "clock restarted");
        b.tick(0);
        assert!(!b.probe_ready(0), "a full probe_after, not the remainder");
        b.tick(0);
        assert!(b.probe_ready(0), "and runs again");
    }

    #[test]
    fn lost_probe_is_released_by_the_clock() {
        let mut b = Breaker::new(cfg(1, 2), 1);
        b.record(0, false, false);
        b.tick(0);
        b.tick(0);
        b.begin_probe(0);
        // The probe never records (its dispatcher died): two more ticks
        // declare it lost and the slot probes again.
        b.tick(0);
        assert!(b.health(0).probe_inflight);
        b.tick(0);
        assert!(!b.health(0).probe_inflight, "lost probe must be released");
        assert!(b.probe_ready(0));
        // A clean verdict on the second probe closes the breaker as usual.
        b.begin_probe(0);
        b.record(0, true, true);
        let h = b.health(0);
        assert!(!h.quarantined);
        assert_eq!((h.probes, h.reintegrations), (2, 1));
    }

    #[test]
    fn disabled_breaker_is_inert() {
        let mut b = Breaker::new(
            HealthConfig {
                enabled: false,
                ..HealthConfig::default()
            },
            1,
        );
        for _ in 0..10 {
            assert_eq!(b.record(0, false, false), HealthDelta::default());
            b.tick(0);
        }
        assert!(b.routable(0));
        assert!(!b.probe_ready(0));
        assert_eq!(b.pressure(0), 0.0);
        assert_eq!(b.health(0), SlotHealth::default());
    }
}
