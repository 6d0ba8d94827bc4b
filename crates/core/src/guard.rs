//! Output-side quality control: online verification of approximate HLOP
//! results with exact re-execution repair (paper §3.6, Figure 7).
//!
//! The input half of the paper's IRA quality control — criticality
//! sampling — decides *before* execution which partitions may go to the
//! approximate device. This module closes the loop *after* execution: a
//! [`GuardConfig`]-driven quality guard samples pages of every HLOP the
//! Edge TPU produced, recomputes those pages exactly, estimates the
//! partition's error, and re-executes any partition whose estimate
//! exceeds the [`QualityBudget`] — so a mis-calibrated or faulted TPU can
//! never silently ship garbage into the aggregated result.
//!
//! Everything the guard does is charged in virtual time: page
//! recomputation and tile repair occupy an exact (fp32) device's timeline
//! through [`DeviceTimeline::occupy`], extend the makespan, show up in
//! the energy integral, and are visible in the trace as
//! `GuardVerify*`/`GuardRepair*` spans and `guard.*` counters. Like
//! `NullSink` and the empty `FaultPlan`, the disabled guard is inert: a
//! run with `enabled == false` is bit-identical to one on a build without
//! the guard at all.
//!
//! # Sampling math
//!
//! An HLOP's tile is divided into row-band *pages* of `PAGE_ROWS` (8)
//! rows. The guard recomputes `PAGES_PER_HLOP` (2) pages at evenly
//! strided offsets
//! (page `⌊j·P/k⌋` for `j = 0..k` over `P` pages — deterministic, no
//! randomness) and takes the element-weighted mean of the per-page MAPEs
//! as the partition's error estimate. Pages are *measured*, not modeled:
//! on the sampled fraction the estimate is exact, so the post-repair
//! error over verified pages is structurally ≤ the budget whenever the
//! guard returns `Ok`.

use hetsim::{DeviceTimeline, SimTime};
use shmt_kernels::{Aggregation, Kernel};
use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorView, TensorViewMut};
use shmt_trace::{EventKind, TraceSink};

use crate::error::{Result, ShmtError};
use crate::exec::ComputeTask;
use crate::quality::mape_views;
use crate::sched::{CPU, GPU};

/// The quality contract a guarded run must honour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityBudget {
    /// Maximum tolerated MAPE per approximate partition. A partition
    /// whose estimated error exceeds this is re-executed exactly.
    pub max_mape: f64,
}

impl Default for QualityBudget {
    fn default() -> Self {
        QualityBudget { max_mape: 0.25 }
    }
}

/// Rows per sampled page.
const PAGE_ROWS: usize = 8;

/// Pages recomputed exactly per approximate HLOP (clamped to the HLOP's
/// page count).
const PAGES_PER_HLOP: usize = 2;

/// Configuration of the output-verification quality guard.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GuardConfig {
    /// Whether the guard runs at all. Disabled (the default) is inert:
    /// reports are bit-identical to an unguarded run.
    pub enabled: bool,
    /// The error budget enforced on every approximate partition.
    pub budget: QualityBudget,
}

impl GuardConfig {
    /// An enabled guard enforcing `max_mape`.
    pub fn enforcing(max_mape: f64) -> Self {
        GuardConfig {
            enabled: true,
            budget: QualityBudget { max_mape },
        }
    }

    /// Validates the configuration (only consulted when enabled).
    ///
    /// # Errors
    ///
    /// Returns [`ShmtError::InvalidConfig`] for a budget that is not a
    /// finite non-negative number.
    pub fn validate(&self) -> Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if !(self.budget.max_mape >= 0.0 && self.budget.max_mape.is_finite()) {
            return Err(ShmtError::InvalidConfig(format!(
                "guard budget must be finite and non-negative, got {}",
                self.budget.max_mape
            )));
        }
        Ok(())
    }
}

/// One exact re-execution the guard performed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairRecord {
    /// The repaired HLOP's id.
    pub hlop: usize,
    /// The exact device charged for the re-execution.
    pub device: usize,
    /// The sampled-page error estimate that triggered the repair.
    pub estimated_mape: f64,
    /// The partition's true pre-repair MAPE over its whole tile.
    pub true_mape: f64,
}

/// What the quality guard observed and did during one run, attached to
/// [`crate::RunReport::quality`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QualityReport {
    /// Whether the guard ran. All other fields are zero when it did not.
    pub enabled: bool,
    /// Whether the kernel's aggregation is page-verifiable (`Tile`
    /// aggregation; reduction kernels fold partials and have no
    /// per-partition output region to sample).
    pub page_verifiable: bool,
    /// HLOPs the approximate device produced.
    pub approx_hlops: usize,
    /// Approximate HLOPs the guard verified.
    pub checked_hlops: usize,
    /// Pages recomputed exactly across all checked HLOPs.
    pub sampled_pages: usize,
    /// Element-weighted pre-repair MAPE estimate over all sampled pages.
    pub estimated_mape: f64,
    /// Element-weighted post-repair MAPE over all sampled pages —
    /// repaired partitions contribute zero, so this is ≤ the budget
    /// whenever the guard returned `Ok`.
    pub true_mape: f64,
    /// Exact re-executions performed, in HLOP order.
    pub repairs: Vec<RepairRecord>,
    /// Virtual seconds of exact-device time charged for verification and
    /// repair.
    pub overhead_s: f64,
    /// The budget that was enforced.
    pub budget_mape: f64,
}

impl QualityReport {
    /// The report of a run with the guard disabled.
    pub fn disabled() -> Self {
        QualityReport::default()
    }
}

/// The row-band pages of `tile`, `page_rows` rows each (last clipped).
fn pages_of(tile: Tile, page_rows: usize) -> Vec<Tile> {
    let count = tile.rows.div_ceil(page_rows);
    (0..count)
        .map(|p| {
            let row0 = tile.row0 + p * page_rows;
            Tile {
                index: tile.index,
                row0,
                col0: tile.col0,
                rows: page_rows.min(tile.row0 + tile.rows - row0),
                cols: tile.cols,
            }
        })
        .collect()
}

/// Evenly strided sample of `k` of the `pages` (all of them when
/// `k >= pages.len()`): page `⌊j·P/k⌋` for each `j`, which is strictly
/// increasing, so samples never repeat.
fn sample_pages(pages: &[Tile], k: usize) -> Vec<Tile> {
    let n = pages.len();
    let k = k.min(n);
    (0..k).map(|j| pages[j * n / k]).collect()
}

/// `tile` computed exactly into a buffer of its own size.
fn exact_tile(kernel: &dyn Kernel, inputs: &[&Tensor], tile: Tile) -> Tensor {
    // The kernel assigns every element of its destination: no fill needed.
    let mut exact = Tensor::stale(tile.rows, tile.cols);
    kernel.run_exact_into(
        inputs,
        tile,
        &mut TensorViewMut::over(exact.as_mut_slice(), tile),
    );
    exact
}

/// All of `t`.
fn whole(t: &Tensor) -> TensorView<'_> {
    t.view(0, 0, t.rows(), t.cols())
}

/// `tile`'s window of `t`.
fn window(t: &Tensor, tile: Tile) -> TensorView<'_> {
    t.view(tile.row0, tile.col0, tile.rows, tile.cols)
}

/// The earliest-free alive exact (fp32) device, ties to the lowest index.
fn earliest_exact(timelines: &[DeviceTimeline], alive: &[bool; 3]) -> Option<usize> {
    [GPU, CPU]
        .into_iter()
        .filter(|&d| alive[d])
        .min_by(|&a, &b| {
            timelines[a]
                .free_at()
                .cmp(&timelines[b].free_at())
                .then(a.cmp(&b))
        })
}

/// Runs the guard over a completed run's output.
///
/// `tasks` are the executed compute tasks (tiles plus which path ran
/// them), `output` the aggregated result, `timelines` the per-device
/// virtual timelines (verification is charged here), `alive[d]` whether
/// device `d` is enabled and survived, and `start` the instant all HLOP
/// outputs exist (the run's latest completion). Returns the report and
/// the instant the guard finished — equal to `start` when there was
/// nothing to verify.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_guard(
    config: &GuardConfig,
    kernel: &dyn Kernel,
    inputs: &[&Tensor],
    tasks: &[ComputeTask],
    output: &mut Tensor,
    timelines: &mut [DeviceTimeline],
    alive: &[bool; 3],
    start: SimTime,
    sink: &mut dyn TraceSink,
) -> Result<(QualityReport, SimTime)> {
    let budget = config.budget.max_mape;
    let mut report = QualityReport {
        enabled: true,
        budget_mape: budget,
        ..QualityReport::default()
    };
    let mut guard_end = start;

    report.page_verifiable = matches!(kernel.shape().aggregation, Aggregation::Tile);
    let mut approx: Vec<Tile> = tasks.iter().filter(|t| t.npu).map(|t| t.tile).collect();
    report.approx_hlops = approx.len();
    if !report.page_verifiable || approx.is_empty() {
        return Ok((report, guard_end));
    }
    // Tile index == HLOP id; sorting makes verification order (and thus
    // virtual-time charging) independent of scheduling interleavings.
    approx.sort_by_key(|t| t.index);

    if earliest_exact(timelines, alive).is_none() {
        // Approximate output exists but nothing can check or repair it:
        // the budget is unenforceable, which is an error, not a silent
        // pass — the estimate is unbounded because it was never measured.
        return Err(ShmtError::QualityUnattainable {
            estimated_mape: f64::INFINITY,
            budget_mape: budget,
        });
    }

    let work_per_elem = kernel.work_per_element();
    let (mut est_weighted, mut true_weighted, mut elems_weighed) = (0.0f64, 0.0f64, 0.0f64);

    for tile in approx {
        let pages = sample_pages(&pages_of(tile, PAGE_ROWS), PAGES_PER_HLOP);
        let verify_elems: usize = pages.iter().map(Tile::len).sum();

        // Charge the page recomputation on the earliest-free exact
        // device; `occupy` advances its busy time without counting a
        // completed HLOP, so scheduler invariants hold.
        let d = earliest_exact(timelines, alive).ok_or_else(|| {
            ShmtError::Internal("exact device set changed during guarding".into())
        })?;
        let verify_begin = timelines[d].free_at().max(start);
        let verify_end = timelines[d].occupy(start, verify_elems as f64 * work_per_elem);
        if sink.enabled() {
            sink.record(
                verify_begin.as_secs(),
                EventKind::GuardVerifyStart {
                    hlop: tile.index,
                    device: d,
                },
            );
            sink.record(
                verify_end.as_secs(),
                EventKind::GuardVerifyEnd {
                    hlop: tile.index,
                    device: d,
                },
            );
        }
        report.overhead_s += verify_end.since(verify_begin);
        guard_end = guard_end.max(verify_end);
        report.checked_hlops += 1;
        report.sampled_pages += pages.len();

        let mut page_weighted = 0.0f64;
        let mut page_elems = 0.0f64;
        for page in &pages {
            let exact = exact_tile(kernel, inputs, *page);
            let e = mape_views(whole(&exact), window(output, *page));
            page_weighted += e * page.len() as f64;
            page_elems += page.len() as f64;
        }
        let estimate = page_weighted / page_elems;
        est_weighted += page_weighted;
        elems_weighed += page_elems;

        if estimate > budget {
            // Repair: re-execute the whole partition exactly and splice
            // the result in. The true pre-repair error over the full tile
            // is a free by-product of the recomputation.
            let rd = earliest_exact(timelines, alive).ok_or_else(|| {
                ShmtError::Internal("exact device set changed during guarding".into())
            })?;
            let exact = exact_tile(kernel, inputs, tile);
            let true_pre = mape_views(whole(&exact), window(output, tile));
            output
                .view_mut(tile.row0, tile.col0, tile.rows, tile.cols)
                .copy_from(&whole(&exact))
                .expect("a tile-sized result");
            let repair_begin = timelines[rd].free_at().max(start);
            let repair_end = timelines[rd].occupy(start, tile.len() as f64 * work_per_elem);
            if sink.enabled() {
                sink.record(
                    repair_begin.as_secs(),
                    EventKind::GuardRepairStart {
                        hlop: tile.index,
                        device: rd,
                    },
                );
                sink.record(
                    repair_end.as_secs(),
                    EventKind::GuardRepairEnd {
                        hlop: tile.index,
                        device: rd,
                    },
                );
            }
            report.overhead_s += repair_end.since(repair_begin);
            guard_end = guard_end.max(repair_end);
            report.repairs.push(RepairRecord {
                hlop: tile.index,
                device: rd,
                estimated_mape: estimate,
                true_mape: true_pre,
            });
            // The repaired partition is now exact: its verified pages
            // contribute zero post-repair error.
        } else {
            // Under budget: the measured error ships as-is.
            true_weighted += page_weighted;
        }
    }

    if elems_weighed > 0.0 {
        report.estimated_mape = est_weighted / elems_weighed;
        report.true_mape = true_weighted / elems_weighed;
    }
    if sink.enabled() {
        sink.counter("guard.checked", report.checked_hlops as f64);
        sink.counter("guard.sampled_pages", report.sampled_pages as f64);
        sink.counter("guard.repaired", report.repairs.len() as f64);
        sink.counter("guard.overhead_s", report.overhead_s);
    }
    Ok((report, guard_end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(row0: usize, rows: usize) -> Tile {
        Tile {
            index: 0,
            row0,
            col0: 4,
            rows,
            cols: 12,
        }
    }

    #[test]
    fn pages_cover_the_tile_disjointly() {
        let t = tile(16, 20);
        let pages = pages_of(t, 8);
        assert_eq!(pages.len(), 3);
        assert_eq!(pages.iter().map(Tile::len).sum::<usize>(), t.len());
        assert_eq!(pages[0].row0, 16);
        assert_eq!(pages[2].rows, 4, "last page clips to the tile");
        assert!(pages.iter().all(|p| p.col0 == 4 && p.cols == 12));
    }

    #[test]
    fn sampling_is_strided_and_never_repeats() {
        let pages = pages_of(tile(0, 80), 8);
        assert_eq!(pages.len(), 10);
        let picked = sample_pages(&pages, 3);
        let rows: Vec<usize> = picked.iter().map(|p| p.row0).collect();
        assert_eq!(rows, vec![0, 24, 48]);
        // Oversampling clamps to every page, still unique.
        let all = sample_pages(&pages, 99);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(GuardConfig::default().validate().is_ok(), "disabled is ok");
        assert!(GuardConfig::enforcing(0.1).validate().is_ok());
        let mut c = GuardConfig::enforcing(f64::NAN);
        assert!(c.validate().is_err());
        c.budget.max_mape = -0.5;
        assert!(c.validate().is_err());
    }
}
