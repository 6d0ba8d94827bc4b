use shmt_trace::{DeviceId, EventKind, TraceSink};

use crate::time::{Duration, SimTime};

/// A completed bus transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Instant the transfer began moving on the bus.
    pub start: SimTime,
    /// Instant the last byte arrived.
    pub end: SimTime,
    /// Bytes moved.
    pub bytes: usize,
}

impl Transfer {
    /// Wall time the transfer occupied the bus.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// The shared system interconnect between main memory and device memories.
///
/// The prototype moves data over the on-board PCIe interface backed by a
/// 25.6 GB/s LPDDR4 main memory (paper §4.1). Transfers serialize on the
/// bus: a transfer issued while another is in flight queues behind it.
///
/// # Examples
///
/// ```
/// use hetsim::{Interconnect, SimTime};
/// use shmt_trace::NullSink;
///
/// let mut bus = Interconnect::jetson_prototype();
/// let t1 = bus.transfer_traced(SimTime::ZERO, 1 << 20, 0, 0, &mut NullSink);
/// let t2 = bus.transfer_traced(SimTime::ZERO, 1 << 20, 1, 0, &mut NullSink);
/// assert!(t2.start >= t1.end, "transfers serialize");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Interconnect {
    bandwidth: f64,
    latency: Duration,
    free_at: SimTime,
    total_bytes: u64,
    total_busy: Duration,
}

impl Interconnect {
    /// Creates a bus with the given bandwidth (bytes/second) and
    /// per-transfer latency (seconds).
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is non-positive or latency is negative.
    pub fn new(bandwidth_bytes_per_s: f64, latency_s: Duration) -> Self {
        assert!(bandwidth_bytes_per_s > 0.0, "bandwidth must be positive");
        assert!(latency_s >= 0.0, "latency must be non-negative");
        Interconnect {
            bandwidth: bandwidth_bytes_per_s,
            latency: latency_s,
            free_at: SimTime::ZERO,
            total_bytes: 0,
            total_busy: 0.0,
        }
    }

    /// The prototype's 25.6 GB/s shared memory with a PCIe-class 10 µs
    /// transfer setup latency.
    pub fn jetson_prototype() -> Self {
        Interconnect::new(25.6e9, 10.0e-6)
    }

    /// Bus bandwidth in bytes per second.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Moves `bytes` across the bus for HLOP `hlop` on `device`, no
    /// earlier than `ready`; returns the transfer's occupancy window.
    /// Zero-byte transfers complete instantly without touching the bus.
    /// Emits a `TransferStart`/`TransferEnd` span for the occupancy window,
    /// a `bus.bytes` counter, and a `bus.busy_s` occupancy gauge into
    /// `sink`.
    pub fn transfer_traced(
        &mut self,
        ready: SimTime,
        bytes: usize,
        hlop: usize,
        device: DeviceId,
        sink: &mut dyn TraceSink,
    ) -> Transfer {
        if bytes == 0 {
            return Transfer {
                start: ready,
                end: ready,
                bytes: 0,
            };
        }
        let start = self.free_at.max(ready);
        let dur = self.latency + bytes as f64 / self.bandwidth;
        let end = start + dur;
        self.free_at = end;
        self.total_bytes += bytes as u64;
        self.total_busy += dur;
        if sink.enabled() {
            sink.record(
                start.as_secs(),
                EventKind::TransferStart {
                    hlop,
                    device,
                    bytes,
                },
            );
            sink.record(
                end.as_secs(),
                EventKind::TransferEnd {
                    hlop,
                    device,
                    bytes,
                },
            );
            sink.counter("bus.bytes", bytes as f64);
            sink.gauge("bus.busy_s", end.as_secs(), self.total_busy);
        }
        Transfer { start, end, bytes }
    }

    /// Total bytes moved so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Resets the bus to idle at the epoch.
    pub fn reset(&mut self) {
        self.free_at = SimTime::ZERO;
        self.total_bytes = 0;
        self.total_busy = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmt_trace::NullSink;

    fn transfer(bus: &mut Interconnect, ready: SimTime, bytes: usize) -> Transfer {
        bus.transfer_traced(ready, bytes, 0, 0, &mut NullSink)
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let t1 = transfer(
            &mut Interconnect::new(1.0e9, 1.0e-6),
            SimTime::ZERO,
            1_000_000,
        );
        let t2 = transfer(
            &mut Interconnect::new(1.0e9, 1.0e-6),
            SimTime::ZERO,
            2_000_000,
        );
        assert!(t2.duration() > t1.duration());
        assert!((t1.duration() - (1.0e-6 + 1.0e-3)).abs() < 1e-12);
    }

    #[test]
    fn transfers_serialize_and_account() {
        let mut bus = Interconnect::new(1.0e9, 0.0);
        let a = transfer(&mut bus, SimTime::ZERO, 500_000_000);
        let b = transfer(&mut bus, SimTime::ZERO, 500_000_000);
        assert_eq!(a.end, b.start);
        assert_eq!(bus.total_bytes(), 1_000_000_000);
        assert!((b.end.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_transfer_is_free() {
        let mut bus = Interconnect::jetson_prototype();
        let t = transfer(&mut bus, SimTime::from_secs(2.0), 0);
        assert_eq!(t.start, t.end);
        assert_eq!(bus.total_bytes(), 0);
    }

    #[test]
    fn late_ready_delays_start() {
        let mut bus = Interconnect::new(1.0e9, 0.0);
        let t = transfer(&mut bus, SimTime::from_secs(1.0), 1000);
        assert_eq!(t.start, SimTime::from_secs(1.0));
    }
}
