//! A minimal wall-clock micro-bench harness.
//!
//! The `benches/` targets are plain binaries (`harness = false`) built on
//! this module, so the workspace benches run with no registry
//! dependencies. Each measurement warms up, sizes an iteration batch to a
//! target duration, then reports the best and mean per-iteration time
//! over several samples — the best is the least noisy estimate on a
//! shared machine.

use std::time::{Duration, Instant};

/// Per-batch target; long enough to dwarf timer overhead, short enough
/// that a full bench suite stays interactive.
const TARGET_BATCH: Duration = Duration::from_millis(200);
/// Samples per measurement; the minimum is reported.
const SAMPLES: usize = 5;

/// A named group of measurements, printed criterion-style as
/// `group/name ... best <t> mean <t>`.
#[derive(Debug)]
pub struct Group {
    name: String,
}

impl Group {
    /// Starts a group with the given name.
    pub fn new(name: &str) -> Self {
        Group {
            name: name.to_owned(),
        }
    }

    /// Measures `f` and prints one result row. The closure's return value
    /// is passed through [`std::hint::black_box`] so the work is not
    /// optimized away.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        // The first call is purely warm-up: it pays for cold caches, page
        // faults, and lazy allocations, and its time is discarded.
        std::hint::black_box(f());
        // A second, warm call sizes the batch; sizing from the cold call
        // would undercount iterations and make batches too short to
        // dwarf timer overhead.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET_BATCH.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;

        let mut best = Duration::MAX;
        let mut total = Duration::ZERO;
        for _ in 0..SAMPLES {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            // Integer division truncates: a batch faster than 1 ns/iter
            // (a trivial closure in release) would report 0 ns and trip
            // every downstream `best_ns > 0` gate. Clamp to the timer's
            // resolution floor instead.
            let per_iter = (start.elapsed() / iters).max(Duration::from_nanos(1));
            best = best.min(per_iter);
            total += per_iter;
        }
        let mean = total / SAMPLES as u32;
        println!(
            "{:<40} best {:>12} mean {:>12}  ({iters} iters x {})",
            format!("{}/{}", self.name, name),
            format_duration(best),
            format_duration(mean),
            SAMPLES,
        );
    }
}

/// Renders a duration with an SI unit chosen by magnitude.
fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_pick_sane_units() {
        assert_eq!(format_duration(Duration::from_nanos(120)), "120 ns");
        assert_eq!(format_duration(Duration::from_micros(250)), "250.00 us");
        assert_eq!(format_duration(Duration::from_millis(15)), "15.00 ms");
        assert_eq!(format_duration(Duration::from_secs(12)), "12.00 s");
    }

    #[test]
    fn bench_runs_the_closure() {
        let mut count = 0u64;
        Group::new("test").bench("noop", || {
            count += 1;
            count
        });
        assert!(count > 0);
    }

    #[test]
    fn warmup_call_does_not_size_the_batch() {
        // The first (cold) call is two orders of magnitude slower than the
        // warm steady state. Sizing from the warm call must still pick a
        // large batch.
        let mut calls = 0u32;
        Group::new("warm").bench("skewed", || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(Duration::from_millis(50));
            }
            calls
        });
        // Two sizing calls, then SAMPLES batches. Cold-call sizing would
        // give 200ms / 50ms -> 4 iterations per batch; warm sizing gives
        // far more.
        let iters = (calls - 2) / SAMPLES as u32;
        assert!(iters > 10, "iters = {iters}");
    }
}
