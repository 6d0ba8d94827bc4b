//! The load generator and the per-request bookkeeping shared by every
//! workload: closed and open loops, wall and process CPU time per phase,
//! output verification, and `/proc` readings.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use shmt::RunReport;
use shmt_cluster::loadgen::{arrival_times, ArrivalProcess};
use shmt_tensor::Tensor;
use shmt_trace::MetricsRegistry;

use crate::stats::Segment;
use crate::trace::{Span, SpanLog};

/// Requests issued before measurement starts, on every workload: a fixed
/// count, so arena, pools and pages are filled by the same deterministic
/// work on both sides of a comparison.
pub const WARMUP_REQUESTS: usize = 64;

/// Nanoseconds since the process epoch (first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// How one request ended. Everything but `Ok` counts against `ok_share`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Response received and its output verified.
    Ok,
    /// Typed error, refusal at admission, or a missed deadline.
    Failed,
    /// Shed by the router before any node saw it.
    Shed,
    /// Response received but its output (or its simulated statistics)
    /// differs from the sequential reference.
    Mismatched,
}

/// What the layers reported about one request; only collected on traced
/// phases. Durations are microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Detail {
    /// Building the request (cloning pre-generated tensors into a payload).
    pub build_us: f64,
    /// Admission-queue wait the serving node reported.
    pub queue_us: f64,
    /// Executor service time the serving node reported.
    pub service_us: f64,
    /// Dispatch attempts the router made (0 when no router is involved).
    pub tries: usize,
    /// Whether the router launched a hedge, and whether the hedge won.
    pub hedged: bool,
    /// See `hedged`.
    pub hedge_won: bool,
}

/// One resolved request.
#[derive(Debug, Clone, Copy)]
pub struct Issued {
    /// How it ended.
    pub verdict: Verdict,
    /// When the call into the system started and when its answer arrived
    /// (before verification), nanoseconds since the process epoch.
    pub call_start_ns: u64,
    /// See `call_start_ns`.
    pub call_end_ns: u64,
    /// Layer-reported split.
    pub detail: Detail,
}

/// A system under test: request `i` is issued and waited for.
pub trait System: Sync {
    /// Issues request number `i` of the workload's fixed rotation, blocks
    /// until it resolves, and verifies the answer. With `spans`, records a
    /// span around each call it makes into a layer.
    fn issue(&self, i: usize, spans: Option<&mut SpanLog>) -> Issued;

    /// Counters and gauges of the serving node(s), merged; `None` when
    /// the workload has no `Server`.
    fn server_metrics(&self) -> Option<MetricsRegistry> {
        None
    }

    /// The router's counters and its per-node dispatch counts; `None`
    /// when the workload has no `ClusterRouter`.
    fn router_facts(&self) -> Option<(MetricsRegistry, Vec<u64>)> {
        None
    }

    /// The workload's live telemetry as an OpenMetrics exposition.
    fn export_openmetrics(&self) -> Option<String> {
        None
    }

    /// One `VopDag::run` of the workload's DAG program under a stage
    /// clock: `(whole run, sum of its stage executes)` in microseconds.
    fn dag_probe(&self) -> Option<(f64, f64)> {
        None
    }
}

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Each of `clients` threads sends its next request when the previous
    /// one has resolved.
    Closed {
        /// Concurrent clients.
        clients: usize,
    },
    /// A seeded Poisson schedule at `rate` requests per second, sent by
    /// `senders` threads regardless of how the system keeps up.
    Open {
        /// Mean arrivals per second.
        rate: f64,
        /// Sender threads.
        senders: usize,
    },
}

impl Load {
    /// Threads that generate the load (and issue the warm-up).
    pub fn threads(&self) -> usize {
        match *self {
            Load::Closed { clients } => clients,
            Load::Open { senders, .. } => senders,
        }
    }
}

/// One resolved request as the harness saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Closed loop: the call's duration. Open loop: answer time minus
    /// *scheduled* arrival, so a stall charges every request it delays.
    pub latency_ms: f64,
    /// How it ended.
    pub verdict: Verdict,
}

/// Everything one phase of load produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall seconds throughput is taken over: the scheduled length of a
    /// timed phase, the time a fixed-count phase took.
    pub seconds: f64,
    /// Every request resolved, in no particular order.
    pub samples: Vec<Sample>,
    /// Layer splits, when collected.
    pub details: Vec<Detail>,
    /// Spans, when collected.
    pub spans: Vec<Span>,
    /// Process CPU seconds (user + system, all threads) from the phase's
    /// start until its last request resolved.
    pub cpu_s: f64,
    /// Open loop: how late each request left the generator, milliseconds.
    pub late_ms: Vec<f64>,
}

impl Phase {
    /// Requests resolved with `verdict`.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.samples.iter().filter(|s| s.verdict == verdict).count()
    }

    /// `sent / ok / failed / shed / mismatched`, for the per-phase line.
    pub fn tally(&self) -> String {
        format!(
            "sent {} ok {} failed {} shed {} mismatched {}",
            self.samples.len(),
            self.count(Verdict::Ok),
            self.count(Verdict::Failed),
            self.count(Verdict::Shed),
            self.count(Verdict::Mismatched)
        )
    }

    /// The phase as one segment of the measured run, during which the
    /// host ran `slowdown` times slower than nominal.
    pub fn segment(&self, slowdown: f64) -> Segment {
        let latencies_ms: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.verdict == Verdict::Ok)
            .map(|s| s.latency_ms)
            .collect();
        let ok = latencies_ms.len();
        Segment {
            seconds: self.seconds,
            ok,
            cpu_s_per_ok: self.cpu_s / ok.max(1) as f64,
            latencies_ms,
            slowdown,
        }
    }
}

/// Runs `load` against `sys` for `seconds`, numbering requests from
/// `first`. `traced` collects spans and layer details.
pub fn run_timed(
    sys: &dyn System,
    load: Load,
    seconds: f64,
    first: usize,
    seed: u64,
    traced: bool,
) -> Phase {
    let arrivals: Vec<f64> = match load {
        Load::Closed { .. } => Vec::new(),
        Load::Open { rate, .. } => {
            let n = (rate * seconds * 1.25) as usize + 64;
            let mut t = arrival_times(ArrivalProcess::Poisson { rate }, n, seed);
            t.retain(|&a| a < seconds);
            t
        }
    };
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let length = Duration::from_secs_f64(seconds);
    let mut phase = Phase {
        seconds,
        ..Phase::default()
    };
    // The phase starts a few milliseconds from now, so that every load
    // thread is up and waiting when the first request is due.
    let lead = Duration::from_millis(5);
    let started = Instant::now() + lead;
    let started_ns = now_ns() + lead.as_nanos() as u64;
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load.threads())
            .map(|tid| {
                let (next, stop, arrivals) = (&next, &stop, &arrivals);
                scope.spawn(move || {
                    let mut local = Phase::default();
                    let mut log = SpanLog::new(tid);
                    std::thread::sleep(started.saturating_duration_since(Instant::now()));
                    loop {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        let scheduled_ns = match load {
                            Load::Closed { .. } => {
                                if stop.load(Ordering::Relaxed) {
                                    break;
                                }
                                None
                            }
                            Load::Open { .. } => {
                                let Some(&at) = arrivals.get(n) else { break };
                                let due = started + Duration::from_secs_f64(at);
                                let now = Instant::now();
                                if due > now {
                                    std::thread::sleep(due - now);
                                }
                                // Every arrival of the schedule is sent,
                                // however late: a stall shows as lateness
                                // and as latency from the scheduled arrival,
                                // never as load that silently went missing.
                                let due_ns = started_ns + (at * 1e9) as u64;
                                local
                                    .late_ms
                                    .push(now_ns().saturating_sub(due_ns) as f64 / 1e6);
                                Some(due_ns)
                            }
                        };
                        let issued = sys.issue(first + n, traced.then_some(&mut log));
                        let from = scheduled_ns.unwrap_or(issued.call_start_ns);
                        local.samples.push(Sample {
                            latency_ms: issued.call_end_ns.saturating_sub(from) as f64 / 1e6,
                            verdict: issued.verdict,
                        });
                        if traced {
                            local.details.push(issued.detail);
                        }
                    }
                    local.spans = log.into_spans();
                    local
                })
            })
            .collect();
        // This thread keeps the clock: CPU time when the phase starts,
        // then the stop flag.
        std::thread::sleep(started.saturating_duration_since(Instant::now()));
        let cpu_before = process_cpu_s();
        std::thread::sleep((started + length).saturating_duration_since(Instant::now()));
        stop.store(true, Ordering::Relaxed);
        let parts = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        phase.cpu_s = process_cpu_s() - cpu_before;
        parts
    });
    for part in parts {
        phase.samples.extend(part.samples);
        phase.details.extend(part.details);
        phase.spans.extend(part.spans);
        phase.late_ms.extend(part.late_ms);
    }
    phase
}

/// Issues exactly `count` requests, numbered from `first`, from `clients`
/// closed-loop threads, and times the lot: the same work every time it is
/// called, so two calls compare without rounding to whole requests.
pub fn run_count(sys: &dyn System, clients: usize, count: usize, first: usize) -> Phase {
    let next = AtomicUsize::new(0);
    let mut phase = Phase::default();
    let started = Instant::now();
    let cpu_before = process_cpu_s();
    let parts: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        if n >= count {
                            break local;
                        }
                        let issued = sys.issue(first + n, None);
                        local.push(Sample {
                            latency_ms: issued.call_end_ns.saturating_sub(issued.call_start_ns)
                                as f64
                                / 1e6,
                            verdict: issued.verdict,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    phase.seconds = started.elapsed().as_secs_f64();
    phase.cpu_s = process_cpu_s() - cpu_before;
    phase.samples = parts.into_iter().flatten().collect();
    phase
}

/// A 64-bit digest of a tensor's exact bit pattern: four independent
/// multiply-rotate lanes, so it runs at memory speed on the 16 MB outputs
/// it is applied to after every response.
pub fn digest(t: &Tensor) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut lanes = [K, K.rotate_left(17), K.rotate_left(31), K.rotate_left(47)];
    let data = t.as_slice();
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        for (l, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from(c[2 * l].to_bits()) | (u64::from(c[2 * l + 1].to_bits()) << 32);
            *lane = (*lane ^ w).wrapping_mul(K).rotate_left(29);
        }
    }
    let mut h = (t.rows() as u64).wrapping_mul(K) ^ t.cols() as u64;
    for v in chunks.remainder() {
        h = (h ^ u64::from(v.to_bits())).wrapping_mul(K).rotate_left(29);
    }
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K).rotate_left(29);
    }
    h
}

/// What a request's answer must equal, computed during set-up from a
/// single-threaded execution of the same request.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Digest of the sequential execution's output.
    pub digest: u64,
    /// Its virtual-time makespan, seconds.
    pub makespan_s: f64,
    /// Its modelled energy, joules.
    pub energy_j: f64,
    /// MAPE of that output against the exact reference.
    pub mape: f64,
    /// Virtual-time makespan of the GPU baseline on the same request.
    pub baseline_s: f64,
}

impl Expect {
    /// Verifies a served report: output bit-identical to the sequential
    /// reference and simulated statistics repeated exactly. By that
    /// identity the response's MAPE against the exact reference is
    /// `self.mape`, which set-up already held to the request's budget.
    pub fn verdict(&self, report: &RunReport) -> Verdict {
        let same = digest(&report.output) == self.digest
            && report.makespan_s.to_bits() == self.makespan_s.to_bits()
            && report.energy.total_j().to_bits() == self.energy_j.to_bits();
        if same {
            Verdict::Ok
        } else {
            Verdict::Mismatched
        }
    }
}

/// Process CPU time, user plus system, all threads, in seconds at
/// nanosecond resolution (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`;
/// `/proc/self/stat` only counts 10 ms ticks, too coarse for a segment that
/// holds 50 ms of CPU).
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    // The layout above is libc's `struct timespec` on 64-bit Linux only.
    const _: () = assert!(cfg!(all(target_os = "linux", target_pointer_width = "64")));
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout the
    // C library expects on this target (asserted above); `clock_gettime`
    // writes it and keeps no reference.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size so far (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status (Linux /proc needed)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_element_and_the_shape() {
        let a = Tensor::from_fn(5, 7, |r, c| (r * 7 + c) as f32);
        assert_eq!(digest(&a), digest(&a.clone()));
        for i in 0..a.len() {
            let mut b = a.clone();
            b.as_mut_slice()[i] += 1.0;
            assert_ne!(digest(&a), digest(&b), "element {i}");
        }
        let flat = Tensor::from_vec(7, 5, a.as_slice().to_vec()).expect("same length");
        assert_ne!(digest(&a), digest(&flat));
        // -0.0 == 0.0 numerically, but the bit pattern differs.
        assert_ne!(
            digest(&Tensor::filled(2, 2, 0.0)),
            digest(&Tensor::filled(2, 2, -0.0))
        );
    }

    #[test]
    fn open_loop_schedule_depends_on_the_seed_only() {
        let p = ArrivalProcess::Poisson { rate: 1000.0 };
        assert_eq!(arrival_times(p, 500, 7), arrival_times(p, 500, 7));
        assert_ne!(arrival_times(p, 500, 7), arrival_times(p, 500, 8));
    }

    #[test]
    fn cpu_clock_and_rss_readings_are_sane() {
        let before = process_cpu_s();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(i | 1));
        }
        let spent = process_cpu_s() - before;
        assert!(spent > 0.0 && spent < 5.0, "{spent}");
        assert!(peak_rss_mb() > 1.0);
    }

    struct Instant0;
    impl System for Instant0 {
        fn issue(&self, i: usize, _spans: Option<&mut SpanLog>) -> Issued {
            let t = now_ns();
            Issued {
                verdict: if i % 5 == 4 {
                    Verdict::Shed
                } else {
                    Verdict::Ok
                },
                call_start_ns: t,
                call_end_ns: t + 1000,
                detail: Detail::default(),
            }
        }
    }

    #[test]
    fn fixed_count_phase_issues_exactly_that_many() {
        let phase = run_count(&Instant0, 2, 25, 0);
        assert_eq!(phase.samples.len(), 25);
        assert_eq!(phase.count(Verdict::Shed), 5);
        assert_eq!(phase.tally(), "sent 25 ok 20 failed 0 shed 5 mismatched 0");
    }
}
