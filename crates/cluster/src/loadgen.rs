//! Open-loop load generation against a [`crate::ClusterRouter`].
//!
//! Arrival times come from a seeded stochastic process (Poisson, bursty
//! Markov-modulated Poisson, or diurnal) laid out *before* the run —
//! open-loop, so a slow cluster does not slow the offered load down and
//! coordinated omission cannot hide queueing delay: a driver measures
//! every request's latency from its scheduled arrival, not from when a
//! sender got around to sending it.

use shmt::{Platform, Policy, RuntimeConfig, Vop};
use shmt_kernels::Benchmark;
use shmt_serve::Request;
use shmt_tensor::rng::Pcg32;

/// A seeded arrival process. All rates are requests per second; all
/// processes are deterministic given the same seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate.
    Poisson {
        /// Mean arrival rate.
        rate: f64,
    },
    /// Markov-modulated Poisson: the process flips between a quiet state
    /// and a burst state with exponentially distributed dwell times.
    Bursty {
        /// Arrival rate in the quiet state.
        base_rate: f64,
        /// Arrival rate inside a burst.
        burst_rate: f64,
        /// Mean burst duration, seconds.
        mean_on_s: f64,
        /// Mean quiet duration, seconds.
        mean_off_s: f64,
    },
    /// Sinusoidal rate modulation (a compressed day), sampled by
    /// thinning.
    Diurnal {
        /// Mean arrival rate over a full period.
        mean_rate: f64,
        /// Modulation period, seconds.
        period_s: f64,
        /// Modulation depth in `[0, 1)`: rate swings between
        /// `mean * (1 - depth)` and `mean * (1 + depth)`.
        depth: f64,
    },
}

/// Exponential draw via inversion; `1 - u` keeps `ln` away from zero.
fn exp_draw(rng: &mut Pcg32, rate: f64) -> f64 {
    let u = rng.next_f64();
    -(1.0 - u).ln() / rate.max(1e-9)
}

/// Lays out `n` arrival instants (seconds from the run start) for the
/// given process. Monotonically non-decreasing.
pub fn arrival_times(process: ArrivalProcess, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut times = Vec::with_capacity(n);
    let mut t = 0.0f64;
    match process {
        ArrivalProcess::Poisson { rate } => {
            for _ in 0..n {
                t += exp_draw(&mut rng, rate);
                times.push(t);
            }
        }
        ArrivalProcess::Bursty {
            base_rate,
            burst_rate,
            mean_on_s,
            mean_off_s,
        } => {
            let mut bursting = false;
            let mut state_end = exp_draw(&mut rng, 1.0 / mean_off_s.max(1e-9));
            while times.len() < n {
                let rate = if bursting { burst_rate } else { base_rate };
                let next = t + exp_draw(&mut rng, rate);
                if next < state_end {
                    t = next;
                    times.push(t);
                } else {
                    // No arrival before the state flips; restart the
                    // (memoryless) draw under the new rate.
                    t = state_end;
                    bursting = !bursting;
                    let mean = if bursting { mean_on_s } else { mean_off_s };
                    state_end = t + exp_draw(&mut rng, 1.0 / mean.max(1e-9));
                }
            }
        }
        ArrivalProcess::Diurnal {
            mean_rate,
            period_s,
            depth,
        } => {
            let depth = depth.clamp(0.0, 0.99);
            let peak = mean_rate * (1.0 + depth);
            while times.len() < n {
                // Thinning: draw at the peak rate, accept with the
                // instantaneous relative rate.
                t += exp_draw(&mut rng, peak);
                let phase = (t / period_s.max(1e-9)) * std::f64::consts::TAU;
                let rate = mean_rate * (1.0 + depth * phase.sin());
                if rng.next_f64() < rate / peak {
                    times.push(t);
                }
            }
        }
    }
    times
}

/// Recipe for one routed request: the workload payload and its runtime
/// configuration.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpec {
    /// Kernel benchmark the request runs.
    pub benchmark: Benchmark,
    /// Square input size (n x n).
    pub n: usize,
    /// Partition count for the runtime config.
    pub partitions: usize,
    /// Scheduling policy inside each node.
    pub policy: Policy,
    /// Input-generation seed.
    pub seed: u64,
}

impl RequestSpec {
    /// A work-stealing spec with default partitioning.
    pub fn new(benchmark: Benchmark, n: usize, seed: u64) -> Self {
        RequestSpec {
            benchmark,
            n,
            partitions: 4,
            policy: Policy::WorkStealing,
            seed,
        }
    }

    /// Builds one request instance. Called once per dispatch (retries
    /// and hedges each rebuild), deterministic per spec.
    pub fn build(&self) -> Request {
        let b = self.benchmark;
        let vop = Vop::from_benchmark(b, b.generate_inputs(self.n, self.n, self.seed))
            .expect("valid VOP");
        let mut config = RuntimeConfig::new(self.policy);
        config.partitions = self.partitions;
        Request::new(vop, Platform::jetson(b), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_processes_are_seeded_monotone_and_rate_faithful() {
        for process in [
            ArrivalProcess::Poisson { rate: 200.0 },
            ArrivalProcess::Bursty {
                base_rate: 50.0,
                burst_rate: 500.0,
                mean_on_s: 0.05,
                mean_off_s: 0.2,
            },
            ArrivalProcess::Diurnal {
                mean_rate: 200.0,
                period_s: 1.0,
                depth: 0.6,
            },
        ] {
            let a = arrival_times(process, 2000, 7);
            let b = arrival_times(process, 2000, 7);
            let c = arrival_times(process, 2000, 8);
            assert_eq!(a, b, "same seed, same schedule");
            assert_ne!(a, c, "different seed, different schedule");
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "monotone arrivals");
            assert!(a.iter().all(|&t| t >= 0.0));
        }
        // Poisson mean rate within 15% of nominal.
        let times = arrival_times(ArrivalProcess::Poisson { rate: 1000.0 }, 10_000, 3);
        let span = times.last().copied().unwrap_or(0.0);
        let rate = 10_000.0 / span;
        assert!((850.0..1150.0).contains(&rate), "observed rate {rate}");
    }
}
