//! The untraced run: set-up (repeated, timed), warm-up, the measured phase
//! in segments with a yardstick reading between them, and the end-to-end
//! metrics.

use std::time::Instant;

use crate::calib::Yardstick;
use crate::harness::{peak_rss_mb, run_count, run_timed, Load, Phase, Verdict, WARMUP_REQUESTS};
use crate::report::{Metric, RunResult};
use crate::spec::{self, WorkloadSpec, END_TO_END};
use crate::stats::{self, host_times, HostTimes, Segment};
use crate::workloads::{build, Built};

/// One full set-up: inputs, references, system, warm-up.
pub struct SetUp {
    /// The ready system.
    pub built: Built,
    /// The warm-up phase.
    pub warm: Phase,
    /// Wall seconds it all took, as measured.
    pub seconds: f64,
    /// How much slower than nominal the host ran meanwhile.
    pub slowdown: f64,
}

/// Sets `workload` up from `seed`, with a yardstick reading on each side.
pub fn set_up(workload: &str, seed: u64, yardstick: &mut Yardstick) -> SetUp {
    let before = yardstick.read();
    let started = Instant::now();
    let built = build(workload, seed);
    let warm = run_count(
        built.system.as_ref(),
        built.load.threads(),
        WARMUP_REQUESTS,
        0,
    );
    let seconds = started.elapsed().as_secs_f64();
    SetUp {
        built,
        warm,
        seconds,
        slowdown: (before + yardstick.read()) / 2.0,
    }
}

/// Open-loop hygiene: a generator that ran late offered a different load
/// than the one the workload names, so the run is void. (Nothing can be
/// left unsent: a segment sends its whole schedule before it ends.)
/// Returns the p95 lateness in milliseconds (0 for a closed loop).
pub fn check_open_loop(phase: &Phase) -> Result<f64, String> {
    if phase.late_ms.is_empty() {
        return Ok(0.0);
    }
    let (late_p95, _) = stats::percentile(&stats::sorted(&phase.late_ms), 95.0);
    if late_p95 > spec::MAX_LATE_MS_P95 {
        return Err(format!(
            "open-loop generator ran late: p95 lateness {late_p95:.3} ms exceeds {} ms; \
             the offered load was not the scheduled one",
            spec::MAX_LATE_MS_P95
        ));
    }
    Ok(late_p95)
}

/// A measured phase: its segments, and everything they sent, merged.
pub struct Measured {
    /// One per segment, in order.
    pub segments: Vec<Segment>,
    /// Every sample and lateness of every segment.
    pub all: Phase,
    /// The yardstick's readings: one before each segment and one at the end.
    pub readings: Vec<f64>,
    /// Host times at nominal host speed (each segment divided by its
    /// slowdown).
    pub normalised: HostTimes,
    /// Host times as measured.
    pub raw: HostTimes,
}

impl Measured {
    /// Median of the yardstick's readings during the phase.
    pub fn host_slowdown(&self) -> f64 {
        stats::median(&self.readings)
    }

    /// Normalised ok responses per second, segment by segment.
    pub fn segment_rps(&self) -> Vec<f64> {
        self.segments
            .iter()
            .filter(|s| s.ok > 0)
            .map(|s| s.ok as f64 / s.seconds * s.slowdown)
            .collect()
    }
}

/// Loads `built` for `seconds`, numbering requests from `first`: segment
/// after segment of the workload's fixed size, a yardstick reading between
/// each two. `Err` when the load offered was not the one the workload names
/// or nothing completed.
pub fn measure(
    built: &Built,
    workload: &WorkloadSpec,
    yardstick: &mut Yardstick,
    seconds: f64,
    mut first: usize,
    seed: u64,
) -> Result<Measured, String> {
    let sys = built.system.as_ref();
    let started = Instant::now();
    let mut readings = vec![yardstick.read()];
    let mut segments = Vec::new();
    let mut all = Phase::default();
    while segments.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let phase = match built.load {
            // The same requests every segment, so segments compare without
            // rounding to whole requests.
            Load::Closed { clients } => run_count(sys, clients, workload.segment_requests, first),
            Load::Open { .. } => run_timed(
                sys,
                built.load,
                spec::OPEN_SEGMENT_SECONDS,
                first,
                seed.wrapping_mul(0x9e37_79b9)
                    .wrapping_add(segments.len() as u64),
                false,
            ),
        };
        first += phase.samples.len();
        let (before, after) = (readings[readings.len() - 1], yardstick.read());
        readings.push(after);
        // A workload that leaves the host mostly idle does not slow with
        // it; its times stand as measured.
        let slowdown = if workload.host_bound {
            (before + after) / 2.0
        } else {
            1.0
        };
        segments.push(phase.segment(slowdown));
        all.seconds += phase.seconds;
        all.cpu_s += phase.cpu_s;
        all.samples.extend(phase.samples);
        all.late_ms.extend(phase.late_ms);
    }
    check_open_loop(&all)?;
    let normalised = host_times(&segments, true).ok_or("no verified-correct response completed")?;
    let raw = host_times(&segments, false).expect("as above");
    Ok(Measured {
        segments,
        all,
        readings,
        normalised,
        raw,
    })
}

/// Prints how the measured phase went, segment by segment.
pub fn print_measured(m: &Measured, workload: &WorkloadSpec) {
    let row = |f: &dyn Fn(&Segment) -> f64, digits: usize| -> String {
        m.segments
            .iter()
            .map(|s| format!("{:.digits$}", f(s)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "{} segments; host-bound: {}; yardstick readings (1 = nominal host speed):",
        m.segments.len(),
        workload.host_bound
    );
    println!(
        "yardstick:  {}",
        m.readings
            .iter()
            .map(|r| format!("{r:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("ok/s:       {}", row(&|s| s.ok as f64 / s.seconds, 1));
    println!(
        "at nominal: {}",
        row(&|s| s.ok as f64 / s.seconds * s.slowdown, 1)
    );
    println!(
        "as measured: throughput {:.3}/s p50 {:.3} ms p95 {:.3} ms cpu {:.3} ms/req; \
         median yardstick reading {:.3}; cv of normalised segment throughput {:.2} %",
        m.raw.throughput_rps,
        m.raw.latency_ms_p50,
        m.raw.latency_ms_p95,
        m.raw.cpu_ms_per_req,
        m.host_slowdown(),
        stats::cv(&m.segment_rps()) * 100.0
    );
    println!(
        "at nominal host speed (per-layer metrics, not bounded): p50 {:.3} ms p95 {:.3} ms \
         ({} samples, {} beyond it) cpu {:.3} ms/req",
        m.normalised.latency_ms_p50,
        m.normalised.latency_ms_p95,
        m.normalised.samples,
        m.normalised.p95_beyond,
        m.normalised.cpu_ms_per_req
    );
    if !stats::supports_percentile(m.normalised.samples, 95.0) {
        println!(
            "WARNING: fewer than {} samples beyond the p95; it is not a p95 to compare",
            stats::MIN_BEYOND
        );
    }
}

/// Runs `workload` for `seconds` with tracing off and reports the
/// end-to-end metrics. `Err` means the run itself is void (not that the
/// system answered wrongly — that is `correct: false`).
pub fn run_end_to_end(workload: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let spec = spec::workload(workload).ok_or(format!("unknown workload {workload}"))?;
    println!("workload {}: {}", spec.name, spec.why);
    let mut yardstick = Yardstick::new();
    let mut setups = Vec::new();
    let mut ready: Option<SetUp> = None;
    let mut spent = 0.0;
    while setups.len() < spec::SETUP_MIN_ROUNDS
        || (spent < spec::SETUP_BUDGET_SECONDS && setups.len() < spec::SETUP_MAX_ROUNDS)
    {
        // The previous round's system is torn down before the next is
        // timed, so rounds do not overlap.
        drop(ready.take());
        let s = set_up(workload, seed, &mut yardstick);
        println!(
            "set-up {}: {:.4} s as measured, slowdown {:.3}, {:.4} s at nominal",
            setups.len(),
            s.seconds,
            s.slowdown,
            s.seconds / s.slowdown
        );
        spent += s.seconds;
        setups.push(s.seconds / s.slowdown);
        ready = Some(s);
    }
    let SetUp { built, warm, .. } = ready.expect("at least one set-up round");
    println!("phase warm-up   {}", warm.tally());

    let m = measure(&built, spec, &mut yardstick, seconds, WARMUP_REQUESTS, seed)?;
    println!("phase measured  {}", m.all.tally());
    println!(
        "load: {:?}; system threads {}; host parallelism {}",
        built.load,
        spec::SYSTEM_THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    print_measured(&m, spec);
    if let Load::Open { .. } = built.load {
        println!("generator lateness p95 {:.3} ms", check_open_loop(&m.all)?);
    }
    built.print_kinds();
    println!("sim_* come from the timing model, which is unvalidated against hardware");

    let attempted = m.all.samples.len();
    let ok = m.all.count(Verdict::Ok);
    let (speedup, makespan_ms, energy_mj, mape_pct) = built.sim_metrics();
    let rss = peak_rss_mb();
    let n = &m.normalised;
    let value = |name: &str| -> (f64, usize) {
        match name {
            "setup_s" => (stats::median(&setups), setups.len()),
            "throughput_rps" => (n.throughput_rps, m.segments.len()),
            "peak_rss_mb" => (rss, 1),
            "ok_share" => (ok as f64 / attempted.max(1) as f64, attempted),
            "sim_speedup" => (speedup, built.rotation.len()),
            "sim_makespan_ms" => (makespan_ms, built.rotation.len()),
            "sim_energy_mj" => (energy_mj, built.rotation.len()),
            "sim_accuracy_pct" => (100.0 - mape_pct, built.rotation.len()),
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|spec| {
            let (value, samples) = value(spec.name);
            Metric {
                name: spec.name,
                unit: spec.unit,
                better: spec.better,
                value: Some(value),
                samples,
            }
        })
        .collect();

    // Outputs are wrong when a response disagrees with its reference. A
    // typed failure (a deadline a host stall made a request miss, a shed)
    // is a failed operation: it counts in `failed` and `ok_share`.
    let mismatched = warm.count(Verdict::Mismatched) + m.all.count(Verdict::Mismatched);
    Ok(RunResult {
        workload: workload.to_owned(),
        seed,
        correct: mismatched == 0,
        attempted,
        failed: attempted - ok,
        metrics,
    })
}
