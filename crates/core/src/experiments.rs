//! The paper's evaluation (§5) as one sweep. [`paper`] regenerates every
//! table and figure — Fig 2, Figs 6–12, Table 3 and the
//! partition-granularity ablation — benchmark by benchmark: it builds one
//! benchmark's VOP, exact reference and GPU baseline, runs each distinct
//! runtime configuration once, reads every figure's cells for that
//! benchmark from those runs, and drops the context before it moves on.
//! The `shmt-bench` `paper` binary prints the result.
//!
//! The sweep is size-parametric: tests run it at
//! [`ExperimentConfig::tiny`], the binary at paper scale.

use std::fmt;

use shmt_kernels::{Benchmark, ALL_BENCHMARKS};
use shmt_tensor::Tensor;

use crate::baseline::{exact_reference, gpu_baseline, software_pipelining};
use crate::calibration::bench_profile;
use crate::error::Result;
use crate::platform::Platform;
use crate::quality::{mape, ssim};
use crate::report::BaselineReport;
use crate::runtime::{RuntimeConfig, ShmtRuntime};
use crate::sampling::SamplingMethod;
use crate::sched::{Policy, QawsAssignment, QualityConfig};
use crate::vop::Vop;

/// Shared experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Dataset edge length (datasets are `size x size`).
    pub size: usize,
    /// Desired HLOP count.
    pub partitions: usize,
    /// QAWS sampling rate.
    pub sampling_rate: f64,
    /// Dataset seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            size: 2048,
            partitions: 64,
            sampling_rate: 2.0f64.powi(-15),
            seed: 0xC0FFEE,
        }
    }
}

impl ExperimentConfig {
    /// A small configuration for fast tests.
    pub fn tiny() -> Self {
        ExperimentConfig {
            size: 128,
            partitions: 8,
            sampling_rate: 0.02,
            seed: 0xC0FFEE,
        }
    }
}

/// Geometric mean.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// QAWS-TS: the policy of Figs 9–12, Table 3 and the ablation.
const QAWS_TS: Policy = Policy::Qaws {
    assignment: QawsAssignment::TopK,
    sampling: SamplingMethod::Striding,
};

/// Fig 9's sampling rates, as powers of two.
const FIG9_LOG2_RATES: std::ops::RangeInclusive<i32> = -21..=-14;

/// The ablation's benchmarks, in print order, and its partition counts.
const ABLATION_BENCHMARKS: [Benchmark; 2] = [Benchmark::Sobel, Benchmark::Fft];
const ABLATION_PARTITIONS: [usize; 4] = [4, 16, 64, 256];

/// Fig 6's SHMT runtime policies in the paper's legend order. The legend's
/// second entry, software pipelining, is a GPU-only executor rather than a
/// runtime policy.
pub fn fig6_policies() -> Vec<Policy> {
    let mut out = vec![
        Policy::IraSampling,
        Policy::EvenDistribution,
        Policy::WorkStealing,
    ];
    out.extend(Policy::qaws_variants());
    out
}

/// Fig 7/8's runtime policies in legend order, after the edgeTPU-only row.
fn quality_policies() -> Vec<Policy> {
    let mut out = vec![Policy::IraSampling, Policy::WorkStealing];
    out.extend(Policy::qaws_variants());
    out.push(Policy::Oracle);
    out
}

/// One printed table: a title, a header of column names and labelled rows
/// whose last value, once the sweep ends, is the row's GMEAN.
#[derive(Debug, Clone, PartialEq)]
struct Table {
    title: String,
    header: Vec<&'static str>,
    rows: Vec<(String, Vec<f64>)>,
    precision: usize,
    /// Factor applied when printing: 100 for a fraction printed in percent.
    scale: f64,
    /// Lower bound on each value inside the GMEAN.
    floor: f64,
}

impl Table {
    /// One row per label; `image_only` keeps Fig 8's six image columns.
    fn new(title: String, labels: Vec<String>, precision: usize, image_only: bool) -> Self {
        let mut header: Vec<&'static str> = ALL_BENCHMARKS
            .iter()
            .filter(|b| b.is_image() || !image_only)
            .map(|b| b.name())
            .collect();
        header.push("GMEAN");
        let rows = labels.into_iter().map(|l| (l, Vec::new())).collect();
        Table {
            title,
            header,
            rows,
            precision,
            scale: 1.0,
            floor: 1e-12,
        }
    }

    /// Appends one benchmark's column, one value per row.
    fn push(&mut self, column: &[f64]) {
        assert_eq!(column.len(), self.rows.len(), "{}", self.title);
        for ((_, values), &v) in self.rows.iter_mut().zip(column) {
            values.push(v);
        }
    }

    fn push_gmeans(&mut self) {
        for (_, values) in &mut self.rows {
            let floored: Vec<f64> = values.iter().map(|v| v.max(self.floor)).collect();
            values.push(gmean(&floored));
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        write!(f, "{:<18}", "")?;
        for h in &self.header {
            write!(f, "{h:>12}")?;
        }
        writeln!(f)?;
        for (label, values) in &self.rows {
            write!(f, "{label:<18}")?;
            for v in values {
                write!(f, "{:>12.*}", self.precision, v * self.scale)?;
            }
            writeln!(f)?;
        }
        writeln!(f)
    }
}

/// The partition-granularity ablation on one benchmark (DESIGN.md §7):
/// QAWS-TS (partitions, speedup, MAPE fraction) per partition count.
#[derive(Debug, Clone, PartialEq)]
struct Ablation {
    benchmark: Benchmark,
    size: usize,
    rows: Vec<(usize, f64, f64)>,
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablations on {} at {1}x{1} (speedup over GPU baseline / MAPE %)\n",
            self.benchmark, self.size
        )?;
        writeln!(f, "-- partition granularity (QAWS-TS) --")?;
        for &(parts, s, m) in &self.rows {
            let m = m * 100.0;
            writeln!(f, "  {parts:>4} partitions: {s:5.2}x  MAPE {m:5.2}%")?;
        }
        Ok(())
    }
}

// Indices of `Paper::tables`, in print order.
const FIG2: usize = 0;
const FIG6: usize = 1;
const FIG7: usize = 2;
const FIG8: usize = 3;
const FIG9A: usize = 4;
const FIG9B: usize = 5;
const FIG10: usize = 6;
const FIG11: usize = 7;
const TABLE3: usize = 8;
const FIG12: usize = 9;

/// Every table and figure of the evaluation: Fig 2, Figs 6–8, Fig 9(a, b),
/// Fig 10, Fig 11, Table 3 and Fig 12, then the ablation on Sobel and on
/// FFT. [`fmt::Display`] prints them in that order and ends with a
/// `digest` line over every value at full precision.
#[derive(Debug, Clone, PartialEq)]
pub struct Paper {
    tables: [Table; 10],
    ablations: Vec<Ablation>,
}

impl fmt::Display for Paper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.tables.iter().try_for_each(|t| write!(f, "{t}"))?;
        self.ablations.iter().try_for_each(|a| write!(f, "{a}"))?;
        writeln!(f, "digest {:016x}", self.digest())
    }
}

impl Paper {
    /// FNV-1a over the `f64` bits of every table cell and ablation value,
    /// in print order. The tables print two to four decimals; the digest
    /// moves with any bit of any value, so a byte diff of the output
    /// catches drift the printed digits hide.
    fn digest(&self) -> u64 {
        let cells = self
            .tables
            .iter()
            .flat_map(|t| t.rows.iter().flat_map(|(_, values)| values.iter().copied()));
        let ablations = self
            .ablations
            .iter()
            .flat_map(|a| a.rows.iter().flat_map(|&(_, s, m)| [s, m]));
        cells
            .chain(ablations)
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    fn new(config: ExperimentConfig) -> Self {
        let n = config.size;
        let sized = |title: &str| format!("{title} ({n}x{n})");
        let strings = |l: &[&str]| l.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let names = |p: Vec<Policy>| p.into_iter().map(|p| p.name().to_string());
        let mut fig6: Vec<String> = names(fig6_policies()).collect();
        fig6.insert(1, "SW pipelining".into());
        let mut quality = strings(&["edgeTPU"]);
        quality.extend(names(quality_policies()));
        let rates: Vec<String> = FIG9_LOG2_RATES.map(|r| format!("rate 2^{r}")).collect();
        let sizes = fig12_edges(n)
            .map(|e| match e * e {
                el if el >= 1 << 20 => format!("{}M", el >> 20),
                el => format!("{}K", el >> 10),
            })
            .collect();
        let t = |title, labels, precision| Table::new(title, labels, precision, false);
        let percent = |t: Table| Table { scale: 100.0, ..t };
        let energy = [
            "base active",
            "base idle",
            "SHMT active",
            "SHMT idle",
            "SHMT energy",
            "SHMT EDP",
        ];
        let tables = [
            t(
                sized("Fig 2: potential speedup over GPU baseline"),
                strings(&["edge TPU", "conventional", "SHMT (theor.)"]),
                2,
            ),
            t(sized("Fig 6: speedup over GPU baseline"), fig6, 2),
            percent(t(
                sized("Fig 7: MAPE %, lower is better"),
                quality.clone(),
                2,
            )),
            Table::new(sized("Fig 8: SSIM, higher is better"), quality, 4, true),
            percent(t(
                sized("Fig 9(a): MAPE % vs QAWS-TS sampling rate"),
                rates.clone(),
                2,
            )),
            t(
                sized("Fig 9(b): speedup vs QAWS-TS sampling rate"),
                rates,
                2,
            ),
            t(
                sized("Fig 10: energy vs GPU baseline, lower is better"),
                strings(&energy),
                3,
            ),
            t(
                sized("Fig 11: memory footprint ratio over GPU baseline"),
                strings(&["memory ratio"]),
                3,
            ),
            Table {
                floor: 1e-9,
                ..percent(t(
                    sized("Table 3: communication overhead percent"),
                    strings(&["comm overhead %"]),
                    2,
                ))
            },
            t("Fig 12: QAWS-TS speedup vs problem size".into(), sizes, 2),
        ];
        let ablations = ABLATION_BENCHMARKS
            .iter()
            .map(|&benchmark| Ablation {
                benchmark,
                size: n,
                rows: Vec::new(),
            })
            .collect();
        Paper { tables, ablations }
    }
}

/// Fig 12's dataset edges: 64 (4K elements), doubling up to `size`.
fn fig12_edges(size: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(64usize), |e| Some(e * 2)).take_while(move |&e| e <= size)
}

/// What the figures read from one run.
#[derive(Debug, Clone, Copy)]
struct Cells {
    speedup: f64,
    mape: f64,
    /// NaN for a non-image benchmark, which Fig 8 leaves out.
    ssim: f64,
    /// Active and idle energy over the baseline's total energy.
    active: f64,
    idle: f64,
    edp: f64,
    memory: f64,
    comm: f64,
}

/// One benchmark at one size: the VOP, its exact output, the GPU baseline
/// every figure normalizes against, and the runs made so far.
struct Context {
    benchmark: Benchmark,
    platform: Platform,
    vop: Vop,
    reference: Tensor,
    baseline: BaselineReport,
    runs: Vec<(RuntimeConfig, Cells)>,
}

impl Context {
    fn new(benchmark: Benchmark, size: usize, config: ExperimentConfig) -> Result<Self> {
        let inputs = benchmark.generate_inputs(size, size, config.seed);
        let vop = Vop::from_benchmark(benchmark, inputs)?;
        let platform = Platform::jetson(benchmark);
        let reference = exact_reference(&vop);
        let baseline = gpu_baseline(&platform, &vop, config.partitions)?;
        Ok(Context {
            benchmark,
            platform,
            vop,
            reference,
            baseline,
            runs: Vec::new(),
        })
    }

    /// The cells of the run under `config`, executing it on first use.
    fn run(&mut self, config: RuntimeConfig) -> Result<Cells> {
        if let Some(&(_, cells)) = self.runs.iter().find(|(c, _)| *c == config) {
            return Ok(cells);
        }
        let r = ShmtRuntime::new(self.platform.clone(), config).execute(&self.vop)?;
        let base = &self.baseline;
        let base_total = base.energy.total_j();
        let cells = Cells {
            speedup: base.makespan_s / r.makespan_s,
            mape: mape(&self.reference, &r.output),
            ssim: if self.benchmark.is_image() {
                ssim(&self.reference, &r.output)
            } else {
                f64::NAN
            },
            active: r.energy.active_j / base_total,
            idle: r.energy.idle_j / base_total,
            edp: r.edp() / base.edp(),
            memory: r.peak_memory_bytes as f64 / base.peak_memory_bytes as f64,
            comm: r.comm_overhead(),
        };
        self.runs.push((config, cells));
        Ok(cells)
    }
}

/// Regenerates every table and figure of the evaluation, one benchmark at
/// a time.
///
/// # Errors
///
/// Propagates VOP validation, partitioning and runtime errors.
pub fn paper(config: ExperimentConfig) -> Result<Paper> {
    let mut p = Paper::new(config);
    let at = |policy, partitions, sampling_rate| RuntimeConfig {
        partitions,
        quality: QualityConfig {
            sampling_rate,
            ..Default::default()
        },
        ..RuntimeConfig::new(policy)
    };
    let run = |policy| at(policy, config.partitions, config.sampling_rate);
    for b in ALL_BENCHMARKS {
        let mut ctx = Context::new(b, config.size, config)?;
        let tpu = ctx.run(run(Policy::WorkStealing).tpu_only())?;
        let profile = bench_profile(b);
        p.tables[FIG2].push(&[
            tpu.speedup,
            profile.tpu_ratio.max(1.0),
            1.0 + profile.cpu_ratio + profile.tpu_ratio,
        ]);

        let mut fig6 = Vec::new();
        for policy in fig6_policies() {
            fig6.push(ctx.run(run(policy))?.speedup);
        }
        let pipelined = software_pipelining(&ctx.platform, &ctx.vop, config.partitions)?;
        fig6.insert(1, ctx.baseline.makespan_s / pipelined.makespan_s);
        p.tables[FIG6].push(&fig6);

        let mut quality = vec![tpu];
        for policy in quality_policies() {
            quality.push(ctx.run(run(policy))?);
        }
        p.tables[FIG7].push(&quality.iter().map(|c| c.mape).collect::<Vec<_>>());
        if b.is_image() {
            p.tables[FIG8].push(&quality.iter().map(|c| c.ssim).collect::<Vec<_>>());
        }

        let mut fig9 = Vec::new();
        for r in FIG9_LOG2_RATES {
            let rate = 2.0f64.powi(r);
            fig9.push(ctx.run(at(QAWS_TS, config.partitions, rate))?);
        }
        p.tables[FIG9A].push(&fig9.iter().map(|c| c.mape).collect::<Vec<_>>());
        p.tables[FIG9B].push(&fig9.iter().map(|c| c.speedup).collect::<Vec<_>>());

        let s = ctx.run(run(QAWS_TS))?;
        let base = &ctx.baseline.energy;
        p.tables[FIG10].push(&[
            base.active_j / base.total_j(),
            base.idle_j / base.total_j(),
            s.active,
            s.idle,
            s.active + s.idle,
            s.edp,
        ]);
        p.tables[FIG11].push(&[s.memory]);
        p.tables[TABLE3].push(&[s.comm]);

        if let Some(a) = p.ablations.iter_mut().find(|a| a.benchmark == b) {
            for parts in ABLATION_PARTITIONS {
                let c = ctx.run(at(QAWS_TS, parts, config.sampling_rate))?;
                a.rows.push((parts, c.speedup, c.mape));
            }
        }
        drop(ctx);

        let mut fig12 = Vec::new();
        for edge in fig12_edges(config.size) {
            fig12.push(if edge == config.size {
                s.speedup
            } else {
                Context::new(b, edge, config)?.run(run(QAWS_TS))?.speedup
            });
        }
        p.tables[FIG12].push(&fig12);
    }
    p.tables.iter_mut().for_each(Table::push_gmeans);
    // Fig 10's energy GMEAN is the sum of the active and idle GMEANs.
    let fig10 = &mut p.tables[FIG10];
    let g = fig10.header.len() - 1;
    fig10.rows[4].1[g] = fig10.rows[2].1[g] + fig10.rows[3].1[g];
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One sweep at the tiny configuration, shared by every shape test.
    fn tiny() -> &'static Paper {
        static PAPER: OnceLock<Paper> = OnceLock::new();
        PAPER.get_or_init(|| paper(ExperimentConfig::tiny()).expect("sweep runs"))
    }

    /// Table `i` of the tiny sweep, after checking that every row has one
    /// value per column and the last column is the GMEAN.
    fn table(i: usize) -> &'static Table {
        let t = &tiny().tables[i];
        for (label, values) in &t.rows {
            assert_eq!(values.len(), t.header.len(), "{}: {label}", t.title);
        }
        assert_eq!(t.header.last(), Some(&"GMEAN"), "{}", t.title);
        t
    }

    fn labels(t: &Table) -> Vec<&str> {
        t.rows.iter().map(|(l, _)| l.as_str()).collect()
    }

    #[test]
    fn digest_ends_the_output_and_moves_with_one_ulp() {
        let p = tiny();
        let text = p.to_string();
        let last = text.lines().last().expect("output has lines");
        assert_eq!(last, format!("digest {:016x}", p.digest()));
        let mut nudged = p.clone();
        let cell = &mut nudged.tables[FIG6].rows[0].1[0];
        *cell = f64::from_bits(cell.to_bits() + 1);
        assert_ne!(nudged.digest(), p.digest());
        let mut nudged = p.clone();
        nudged.ablations[0].rows[0].2 = f64::from_bits(p.ablations[0].rows[0].2.to_bits() + 1);
        assert_ne!(nudged.digest(), p.digest());
    }

    #[test]
    fn gmean_matches_hand_computed() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn fig6_has_ten_policies_in_order() {
        let t = table(FIG6);
        let names = labels(t);
        assert_eq!(names.len(), 10);
        assert_eq!(names[..2], ["IRA-sampling", "SW pipelining"]);
        assert_eq!(names[3..5], ["work-stealing", "QAWS-TS"]);
        assert_eq!(names[9], "QAWS-LR");
        assert_eq!(t.header.len(), 11);
    }

    #[test]
    fn quality_policies_bracket_with_tpu_and_oracle() {
        for t in [table(FIG7), table(FIG8)] {
            let names = labels(t);
            assert_eq!(names.len(), 10);
            assert_eq!((names[0], names[9]), ("edgeTPU", "oracle"));
        }
        assert_eq!(table(FIG8).header.len(), 7);
    }

    #[test]
    fn fig9_sweep_produces_rows_per_rate() {
        for t in [table(FIG9A), table(FIG9B)] {
            let names = labels(t);
            assert_eq!(names.len(), 8);
            assert_eq!((names[0], names[7]), ("rate 2^-21", "rate 2^-14"));
        }
        assert!(table(FIG9A).rows.iter().all(|(_, v)| v[10] >= 0.0));
        assert!(table(FIG9B).rows.iter().all(|(_, v)| v[10] > 0.0));
    }

    #[test]
    fn fig10_energy_rows_are_normalized() {
        let t = table(FIG10);
        let row = |r: usize| &t.rows[r].1;
        assert_eq!(t.rows.len(), 6);
        for b in 0..10 {
            let base_total = row(0)[b] + row(1)[b];
            assert!(
                (base_total - 1.0).abs() < 1e-9,
                "{}: {base_total}",
                t.header[b]
            );
            assert!(row(5)[b] > 0.0);
        }
        // SHMT energy is active + idle, its GMEAN column included.
        for b in 0..11 {
            assert_eq!(row(4)[b], row(2)[b] + row(3)[b]);
        }
    }

    #[test]
    fn fig11_table3_rows_are_positive() {
        let (memory, comm) = (&table(FIG11).rows[0].1, &table(TABLE3).rows[0].1);
        for b in 0..10 {
            assert!(memory[b] > 0.0, "{b}");
            assert!((0.0..1.0).contains(&comm[b]), "{b}");
        }
    }

    #[test]
    fn fig12_sweeps_sizes() {
        let t = table(FIG12);
        assert_eq!(labels(t), ["4K", "16K"]);
        assert!(t.rows.iter().all(|(_, v)| v[10] > 0.0));
        // The full-size row is Fig 6's QAWS-TS row.
        assert_eq!(t.rows[1].1, table(FIG6).rows[4].1);
    }

    #[test]
    fn fig2_rows_cover_all_benchmarks() {
        let t = table(FIG2);
        assert_eq!(t.header.len(), 11);
        for b in 0..10 {
            let (conventional, shmt) = (t.rows[1].1[b], t.rows[2].1[b]);
            assert!(shmt > conventional, "{}: SHMT bound", t.header[b]);
        }
    }

    #[test]
    fn ablation_covers_sobel_then_fft_per_partition_count() {
        let a = &tiny().ablations;
        assert_eq!([a[0].benchmark, a[1].benchmark], ABLATION_BENCHMARKS);
        for ab in a {
            let parts: Vec<usize> = ab.rows.iter().map(|r| r.0).collect();
            assert_eq!(parts, ABLATION_PARTITIONS);
        }
        // Printed last before the digest: title, blank line, heading and
        // one line per count.
        let text = tiny().to_string();
        let fft = text
            .find("Ablations on FFT at 128x128")
            .expect("FFT ablation");
        assert!(text.starts_with("== Fig 2: "));
        assert_eq!(
            text[fft..].lines().count(),
            3 + ABLATION_PARTITIONS.len() + 1
        );
    }
}
