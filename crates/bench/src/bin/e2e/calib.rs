//! The in-run yardstick: a fixed piece of work that belongs to the
//! benchmark, not to the system under test, timed between the segments of
//! the measured phase.
//!
//! On this kind of shared host the same binary runs 15-30 % slower for
//! minutes at a time (PR 11's post-mortem, and the README's traces): other
//! tenants take the sibling hyperthreads, the caches and the memory
//! bandwidth, and a workload that saturates its cores slows with them. The
//! yardstick slows too, so host time divided by the slowdown it shows
//! repeats better than raw host time does. Nothing here may call into the
//! stack: a change to the repo must not move the yardstick.

use std::hint::black_box;
use std::time::Instant;

/// Elements of the yardstick's buffer: 32 KB, resident in L1.
const LEN: usize = 8 * 1024;
/// Passes over the buffer per reading.
const PASSES: usize = 96;

/// What one reading takes on this sandbox in its usual state. A constant,
/// not a measurement: it only fixes the scale of the normalised metrics, so
/// that they read as times on such a host.
const NOMINAL_S: f64 = 0.0065;

/// Share of a request's host time that moves with the yardstick. The
/// yardstick is all divisions, square roots and int8 round trips and so
/// feels a busy sibling hyperthread fully; a request also waits on memory
/// and runs serial stretches that do not. Across the host states traced in
/// the README, a request slows by about half of what the yardstick does on
/// all three host-bound workloads, and correcting by half never made a
/// trace less steady than leaving it uncorrected.
const SENSITIVITY: f64 = 0.5;

/// Times the work runs per reading; the faster one is kept, so that a stall
/// of a few milliseconds inside the reading itself does not count as the
/// host's speed.
const REPS: usize = 2;

/// One yardstick thread's work: square roots, divisions and int8 round
/// trips over its buffer, the shape of the transcendental kernels and of
/// the NPU emulation. Each pass feeds the next, and values stay in
/// `[0.25, 0.75]`, so every reading does the same arithmetic.
fn work(values: &mut [f32]) -> f32 {
    let mut acc = 0.0f32;
    for pass in 0..PASSES {
        let bias = 1.0 + pass as f32 * 0.015625;
        for v in values.iter_mut() {
            let q = (*v * 127.0).round().clamp(-127.0, 127.0) as i8;
            let back = f32::from(q) * (1.0 / 127.0);
            let x = (back * back + bias).sqrt() / (bias + back);
            acc += x;
            *v = 0.25 + x * 0.5;
        }
    }
    acc
}

/// The yardstick with its buffers. It works on as many threads as the
/// system under test computes with (`spec::SYSTEM_THREADS`), so that it
/// sees every core the workload sees.
pub struct Yardstick {
    buffers: [Vec<f32>; 2],
}

impl Yardstick {
    /// Fills the buffers with a fixed pattern.
    pub fn new() -> Self {
        const _: () = assert!(crate::spec::SYSTEM_THREADS == 2);
        let fill = || (0..LEN).map(|i| 0.25 + (i % 97) as f32 / 194.0).collect();
        Yardstick {
            buffers: [fill(), fill()],
        }
    }

    /// One reading, about 15 ms: the slowdown a host-bound request sees
    /// right now (1.0 on a host in its usual state, 1.2 when requests take
    /// a fifth longer).
    pub fn read(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let started = Instant::now();
            std::thread::scope(|scope| {
                let [a, b] = &mut self.buffers;
                let other = scope.spawn(move || black_box(work(b)));
                black_box(work(a));
                other.join().expect("yardstick thread panicked");
            });
            best = best.min(started.elapsed().as_secs_f64());
        }
        slowdown(best)
    }
}

/// The slowdown of a request when one reading takes `reading_s` seconds.
fn slowdown(reading_s: f64) -> f64 {
    1.0 - SENSITIVITY + SENSITIVITY * reading_s / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_damped_around_nominal() {
        assert!((slowdown(NOMINAL_S) - 1.0).abs() < 1e-12);
        assert!((slowdown(NOMINAL_S * 1.6) - 1.3).abs() < 1e-12);
        assert!((slowdown(NOMINAL_S * 0.6) - 0.8).abs() < 1e-12);
        // However fast the yardstick runs, a request still takes time.
        assert!(slowdown(0.0) >= 0.5);
    }

    #[test]
    fn readings_are_positive_and_the_work_does_not_drift() {
        let mut yardstick = Yardstick::new();
        for _ in 0..3 {
            let r = yardstick.read();
            assert!(r.is_finite() && r > 0.5, "{r}");
        }
        assert!(yardstick
            .buffers
            .iter()
            .flatten()
            .all(|v| (0.25..=0.75).contains(v)));
    }
}
