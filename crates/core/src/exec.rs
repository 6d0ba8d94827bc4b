//! Parallel execution of HLOP computations on the host.
//!
//! The SHMT runtime's virtual-time scheduler decides *where* each HLOP
//! runs and *when* it completes on the modeled platform; the actual
//! numerical work (exact fp32 for CPU/GPU HLOPs, the int8 NPU path for
//! Edge TPU HLOPs) is host computation. This module fans that computation
//! out over worker threads — the software analogue of the paper's
//! per-device monitor threads (§3.3.1) — while keeping results bit-exact
//! and deterministic:
//!
//! * One claimant loop computes every task: claimants pull task indices
//!   from a shared cursor and run the kernel on the shared inputs, in
//!   place, straight into the task's destination. With more than one
//!   claimant the loop runs on the pool's workers; with one it runs on the
//!   caller's thread, and nothing else differs.
//! * HLOPs are the unit the runtime schedules and charges in virtual time,
//!   not the grain the host computes at. Partitioning, planning,
//!   `charge`, records, the guard and the trace all see the HLOPs as cut;
//!   the claimant loop alone runs a tile-aggregated kernel's exact tiles
//!   as coalesced row bands: every maximal run of exact tiles with the
//!   same `row0` and `rows` whose columns abut is one task. An exact
//!   tile's values do not depend on its bounds (the [`Kernel`] contract),
//!   so a band writes the bits its tiles would, streaming whole rows where
//!   a 256-wide tile of a 2048² output streams a 1 KB slice of each. NPU
//!   tiles never merge: their int8 grid is per tile.
//! * Tile-aggregated kernels write disjoint output tiles, checked in bounds
//!   and pairwise disjoint before any task runs. A claimant's destination
//!   is a view of its tile of the output and nothing more, so aggregation
//!   is the kernels' own writes (paper §3.2.1) and the caller has nothing
//!   left to assemble after the barrier. Tiles that cover the output
//!   exactly also spare it the zero fill: every element is then written
//!   once, by its tile.
//! * Reduction kernels (Histogram, reduce_*) produce one partial buffer per
//!   HLOP, folded in task order at every thread count — inline included —
//!   so float accumulation order never depends on how many workers ran or
//!   which worker ran which task.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use shmt_kernels::{Aggregation, Kernel};
use shmt_tensor::arena::Stash;
use shmt_tensor::tile::Tile;
use shmt_tensor::{Tensor, TensorViewMut};

use crate::pool::ComputePool;

/// Maximum kernel arity the runtime supports — lets per-run input
/// reference lists live in fixed stack arrays instead of heap vectors.
/// Every benchmark kernel takes 1 or 2 inputs; 4 leaves headroom.
pub const MAX_KERNEL_ARITY: usize = 4;

/// Shared write access to the tiles of one output tensor: every claimant
/// gets a view of each tile it claims and computes straight into it.
///
/// Safety contract: the tiles viewed are in bounds of the output and
/// pairwise disjoint ([`check_tiles`] asserts both before any claimant
/// starts); each is viewed only by the claimant that claimed its task
/// (claims come from a shared `fetch_add` cursor, so they are unique); the
/// writer mutably borrows the output, so nothing else reads or writes it
/// while workers hold the pointer; and the pool's batch barrier orders
/// every write before the caller touches the output again.
struct TileWriter<'a> {
    ptr: *mut f32,
    cols: usize,
    _output: PhantomData<&'a mut Tensor>,
}

// SAFETY: views of different tiles touch disjoint elements per the
// contract above; the raw pointer itself is freely sendable.
unsafe impl Sync for TileWriter<'_> {}

impl<'a> TileWriter<'a> {
    fn new(output: &'a mut Tensor) -> Self {
        TileWriter {
            ptr: output.as_mut_slice().as_mut_ptr(),
            cols: output.cols(),
            _output: PhantomData,
        }
    }

    /// The destination of `tile`: its window of the output, in dataset
    /// coordinates.
    ///
    /// # Safety
    ///
    /// `tile` must be one of the checked tiles, claimed by the caller
    /// alone (see the struct contract).
    unsafe fn view(&self, tile: Tile) -> TensorViewMut<'_> {
        // SAFETY: `tile` lies inside the output (checked), so its first
        // element and every element of its window, `cols` apart row to
        // row, are in the output's allocation; it is nobody else's tile,
        // so the view is the only access to those elements while it lives.
        unsafe {
            TensorViewMut::from_raw(
                self.ptr.add(tile.row0 * self.cols + tile.col0),
                self.cols,
                tile,
            )
        }
    }
}

/// Asserts that the tasks' tiles lie inside a `rows x cols` output and that
/// no two overlap — what lets a `Tile` aggregation write them in any order
/// and from any thread — and returns whether they cover the output
/// exactly.
///
/// # Panics
///
/// Panics naming the first tile out of bounds or the first overlapping
/// pair.
fn check_tiles(tasks: &[ComputeTask], rows: usize, cols: usize) -> bool {
    // Half-open ranges `[a0, a0 + an)` and `[b0, b0 + bn)` share nothing.
    let apart = |a0: usize, an: usize, b0: usize, bn: usize| a0.max(b0) >= (a0 + an).min(b0 + bn);
    for (i, task) in tasks.iter().enumerate() {
        let a = task.tile;
        assert!(
            a.row0.saturating_add(a.rows) <= rows && a.col0.saturating_add(a.cols) <= cols,
            "task tile {a:?} lies outside the {rows}x{cols} output"
        );
        // Every earlier tile passed the bounds check, so no sum overflows.
        for b in tasks[..i].iter().map(|t| t.tile) {
            assert!(
                apart(a.row0, a.rows, b.row0, b.rows) || apart(a.col0, a.cols, b.col0, b.cols),
                "task tiles overlap: {b:?} and {a:?}"
            );
        }
    }
    // Disjoint tiles inside the output cover it exactly when their areas
    // add up to it.
    tasks.iter().map(|t| t.tile.len()).sum::<usize>() == rows * cols
}

/// One unit of host compute: which partition, and through which path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeTask {
    /// The partition to compute.
    pub tile: Tile,
    /// `true` for the Edge TPU's int8 NPU path.
    pub npu: bool,
}

/// Number of worker threads to use by default.
///
/// The `SHMT_THREADS` environment variable overrides the detected
/// parallelism (clamped to at least 1); unset or unparsable values fall
/// back to `available_parallelism`, capped at 16.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var("SHMT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(16)
}

/// Computes every task and assembles the results into `output`.
///
/// Up to `threads` claimants compute the tasks: one runs on the calling
/// thread, more run as one batch on the shared [`ComputePool`] —
/// concurrent runs interleave on the same persistent workers. The
/// assembled output is identical either way, at any pool size.
///
/// # Panics
///
/// Panics if the task tiles of a tile-aggregated kernel overlap or leave
/// `output` (before any task runs, whatever the thread count), or if a
/// worker panics (kernel contract violations).
pub fn compute_tasks(
    kernel: &dyn Kernel,
    inputs: &[&Tensor],
    tasks: &[ComputeTask],
    output: &mut Tensor,
    threads: usize,
) {
    if kernel.shape().aggregation == Aggregation::Tile {
        check_tiles(tasks, output.rows(), output.cols());
    }
    run_checked(kernel, inputs, tasks, output, threads);
}

/// [`compute_tasks`] into a fresh `rows x cols` output, as
/// [`shmt_kernels::KernelShape::allocate_output`] shapes it. When the
/// tasks' tiles cover it exactly, the output's page comes from the arena
/// unfilled ([`Tensor::stale`]): the tiles overwrite every element. Any
/// other task list gets the aggregation's identity fill first.
///
/// # Panics
///
/// As [`compute_tasks`].
pub(crate) fn compute_output(
    kernel: &dyn Kernel,
    inputs: &[&Tensor],
    tasks: &[ComputeTask],
    rows: usize,
    cols: usize,
    threads: usize,
) -> Tensor {
    let shape = kernel.shape();
    let mut output = if shape.aggregation == Aggregation::Tile && check_tiles(tasks, rows, cols) {
        Tensor::stale(rows, cols)
    } else {
        shape.allocate_output(rows, cols)
    };
    run_checked(kernel, inputs, tasks, &mut output, threads);
    output
}

/// The claimant loop behind [`compute_tasks`] and [`compute_output`], for
/// tasks whose tiles (for a `Tile` aggregation) passed [`check_tiles`]
/// against `output`.
fn run_checked(
    kernel: &dyn Kernel,
    inputs: &[&Tensor],
    tasks: &[ComputeTask],
    output: &mut Tensor,
    threads: usize,
) {
    if tasks.is_empty() {
        return;
    }
    let shape = kernel.shape();
    let mut bands = Vec::new();
    let tasks = claimed(shape.aggregation, tasks, &mut bands);
    let claimants = threads.clamp(1, tasks.len());
    // An NPU task casts its input footprints into device buffers in its
    // claimant's stash. The stashes are taken here, before any claimant
    // runs, sized for the largest footprint: what a run takes from the
    // page arena is then the same whether its claimants overlap or take
    // turns, which is what lets a warm run promise zero allocations rather
    // than usually deliver them. Exact tasks need no buffers at all.
    let footprint = |tile: Tile| {
        let (rows, cols) = inputs[0].shape();
        let ext = shmt_kernels::npu::extended_region(
            tile,
            shape.halo,
            shape.block_align,
            shape.full_rows,
            rows,
            cols,
        );
        ext.rows * ext.cols
    };
    let stash_len = tasks
        .iter()
        .filter(|t| t.npu)
        .map(|t| footprint(t.tile))
        .max();
    let mut stashes: Vec<Stash> = crate::arena::STASHES.take();
    stashes.resize_with(claimants, || {
        stash_len.map_or_else(Stash::default, |len| Stash::with_pages(inputs.len(), len))
    });
    let stashes = Mutex::new(stashes);
    let next = AtomicUsize::new(0);
    let run = |task: ComputeTask, dst: &mut TensorViewMut<'_>, stash: &mut Stash| {
        if task.npu {
            kernel.run_npu_into(inputs, task.tile, dst, stash);
        } else {
            kernel.run_exact_into(inputs, task.tile, dst);
        }
    };
    match shape.aggregation {
        Aggregation::Tile => {
            let writer = TileWriter::new(output);
            on_claimants(claimants, &|| {
                claim(tasks, &next, &stashes, |_, task, stash| {
                    // SAFETY: `task.tile` passed `check_tiles`, and its index
                    // came from the shared cursor, so this claim is ours alone.
                    let mut dst = unsafe { writer.view(task.tile) };
                    run(task, &mut dst, stash);
                });
            });
        }
        Aggregation::Reduce { op, .. } => {
            // Reduction buffers are tiny: claimants deposit one buffer per
            // *task* into its pre-sized slot, and the fold walks the slots
            // in ascending task order, whoever computed what.
            let (rows, cols) = output.shape();
            let mut slots: Vec<Option<Tensor>> = crate::arena::SLOTS.take();
            slots.resize_with(tasks.len(), || None);
            let slots = Mutex::new(slots);
            on_claimants(claimants, &|| {
                claim(tasks, &next, &stashes, |i, task, stash| {
                    // The kernel assigns the whole partial: no fill needed.
                    let mut partial = Tensor::stale(rows, cols);
                    run(task, &mut partial.view_mut(0, 0, rows, cols), stash);
                    lock(&slots)[i] = Some(partial);
                });
            });
            let mut slots = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
            for slot in slots.iter_mut() {
                let partial = slot.take().expect("claimed task deposited no result");
                for (d, &s) in output.as_mut_slice().iter_mut().zip(partial.as_slice()) {
                    *d = op.combine(*d, s);
                }
            }
            crate::arena::SLOTS.put(slots);
        }
    }
    crate::arena::STASHES.put(stashes.into_inner().unwrap_or_else(PoisonError::into_inner));
    crate::arena::COMPUTE.put(bands);
}

/// The task list the claimants run for `tasks`. A `Tile` kernel's NPU
/// tasks come first, one per tile (their int8 grid is per tile), then its
/// exact tiles as row bands: every maximal run of exact tiles with the
/// same `row0` and `rows` whose columns abut becomes one task, built in
/// `bands` (a `COMPUTE` spine). An exact tile's values do not depend on
/// its bounds, so the bands write the bits the tiles would, in longer
/// row streams. A `Reduce` kernel's tasks are returned as given: its
/// partials fold in task order.
fn claimed<'a>(
    aggregation: Aggregation,
    tasks: &'a [ComputeTask],
    bands: &'a mut Vec<ComputeTask>,
) -> &'a [ComputeTask] {
    if let Aggregation::Reduce { .. } = aggregation {
        return tasks;
    }
    *bands = crate::arena::COMPUTE.take();
    bands.extend(tasks.iter().filter(|t| t.npu));
    let first = bands.len();
    bands.extend(tasks.iter().filter(|t| !t.npu));
    bands[first..].sort_unstable_by_key(|t| (t.tile.row0, t.tile.col0));
    // A band keeps its first tile's index.
    bands.dedup_by(|next, last| {
        let (n, l) = (next.tile, &mut last.tile);
        let abuts = !last.npu && (l.row0, l.rows, l.col0 + l.cols) == (n.row0, n.rows, n.col0);
        if abuts {
            l.cols += n.cols;
        }
        abuts
    });
    bands
}

/// Runs `claimant` `claimants` times: on the calling thread when that is
/// once, otherwise as one batch on the shared [`ComputePool`].
fn on_claimants(claimants: usize, claimant: &(dyn Fn() + Sync)) {
    if claimants == 1 {
        claimant();
    } else {
        ComputePool::global().scope_fn(claimants, claimant);
    }
}

/// Locks `m`. Every update under these locks leaves the data valid, so a
/// claimant that panicked holding one poisons nothing.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One claimant: pulls task indices through the shared cursor `next` — the
/// software analogue of pulling from a shared incoming queue, so each task
/// is computed exactly once, by whichever claimant claims it — and hands
/// each claimed task, with its index, to `each` along with this
/// claimant's stash.
fn claim(
    tasks: &[ComputeTask],
    next: &AtomicUsize,
    stashes: &Mutex<Vec<Stash>>,
    mut each: impl FnMut(usize, ComputeTask, &mut Stash),
) {
    let mut stash = lock(stashes).pop().expect("one stash per claimant");
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&task) = tasks.get(i) else { break };
        each(i, task, &mut stash);
    }
    lock(stashes).push(stash);
}

/// Computes the exact whole-dataset output in parallel — the fast path
/// for reference outputs. A tile-aggregated kernel runs as full-row bands,
/// two per thread; a reduction keeps its grid, whose partials fold in
/// partition order.
pub fn compute_exact_parallel(
    kernel: &dyn Kernel,
    inputs: &[&Tensor],
    rows: usize,
    cols: usize,
    threads: usize,
) -> Tensor {
    let mut shape = kernel.shape();
    shape.full_rows |= shape.aggregation == Aggregation::Tile;
    let bands = crate::partition::partition_tiles(rows, cols, threads.max(1) * 2, &shape);
    let mut tasks: Vec<ComputeTask> = crate::arena::COMPUTE.take();
    tasks.extend(bands.iter().map(|t| ComputeTask {
        tile: *t,
        npu: false,
    }));
    let mut output = compute_output(kernel, inputs, &tasks, rows, cols, threads);
    crate::arena::COMPUTE.put(tasks);
    kernel.finalize(&mut output);
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmt_kernels::{Benchmark, KernelShape};

    fn tasks_for(b: Benchmark, n: usize, npu_every: usize) -> (Vec<ComputeTask>, Vec<Tensor>) {
        let shape = b.kernel().shape();
        let tiles = crate::partition::partition_tiles(n, n, 8, &shape);
        let tasks = tiles
            .iter()
            .map(|t| ComputeTask {
                tile: *t,
                npu: npu_every != 0 && t.index % npu_every == 0,
            })
            .collect();
        (tasks, b.generate_inputs(n, n, 3))
    }

    #[test]
    fn parallel_matches_serial_for_tiles() {
        for b in [Benchmark::Sobel, Benchmark::Dct8x8, Benchmark::Fft] {
            let kernel = b.kernel();
            let (tasks, inputs) = tasks_for(b, 128, 3);
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let mut serial = kernel.shape().allocate_output(128, 128);
            compute_tasks(kernel.as_ref(), &refs, &tasks, &mut serial, 1);
            let mut parallel = kernel.shape().allocate_output(128, 128);
            compute_tasks(kernel.as_ref(), &refs, &tasks, &mut parallel, 4);
            assert_eq!(serial.as_slice(), parallel.as_slice(), "{b}");
        }
    }

    #[test]
    fn parallel_matches_serial_for_sum() {
        let b = Benchmark::Histogram;
        let kernel = b.kernel();
        let (tasks, inputs) = tasks_for(b, 128, 2);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let mut serial = kernel.shape().allocate_output(128, 128);
        compute_tasks(kernel.as_ref(), &refs, &tasks, &mut serial, 1);
        let mut parallel = kernel.shape().allocate_output(128, 128);
        compute_tasks(kernel.as_ref(), &refs, &tasks, &mut parallel, 4);
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn output_is_invariant_under_thread_count() {
        // All ten kernels, an NPU task in every third slot, 1 / 2 / 4
        // compute threads: exact equality. Seed 13 at 96x96 is a
        // Histogram input whose TPU partials are fractional, where
        // accumulating exact tiles in place (one rounding per count) and
        // folding per-task partials (one rounding per tile) part ways.
        // A second input lists only every other tile over an output
        // pre-filled with a sentinel: workers write their own tiles and
        // nothing else.
        const SENTINEL: f32 = -12345.5;
        let n = 96;
        for b in shmt_kernels::ALL_BENCHMARKS {
            let kernel = b.kernel();
            let shape = kernel.shape();
            let tiles = crate::partition::partition_tiles(n, n, 8, &shape);
            let tasks: Vec<ComputeTask> = tiles
                .iter()
                .map(|t| ComputeTask {
                    tile: *t,
                    npu: t.index % 3 == 0,
                })
                .collect();
            let every_other: Vec<ComputeTask> = tasks.iter().copied().step_by(2).collect();
            let listed = |r: usize, c: usize| {
                every_other.iter().any(|t| {
                    let t = t.tile;
                    (t.row0..t.row0 + t.rows).contains(&r) && (t.col0..t.col0 + t.cols).contains(&c)
                })
            };
            for seed in [3, 13] {
                let inputs = b.generate_inputs(n, n, seed);
                let refs: Vec<&Tensor> = inputs.iter().collect();
                let run = |tasks: &[ComputeTask], prefill: Option<f32>, threads: usize| {
                    let mut out = shape.allocate_output(n, n);
                    if let Some(v) = prefill {
                        out.as_mut_slice().fill(v);
                    }
                    compute_tasks(kernel.as_ref(), &refs, tasks, &mut out, threads);
                    out
                };
                let one = run(&tasks, None, 1);
                let sparse_one = run(&every_other, Some(SENTINEL), 1);
                for threads in [1, 2, 4] {
                    assert_eq!(
                        one.as_slice(),
                        run(&tasks, None, threads).as_slice(),
                        "{b} seed {seed}: 1 vs {threads} threads"
                    );
                    let sparse = run(&every_other, Some(SENTINEL), threads);
                    assert_eq!(
                        sparse_one.as_slice(),
                        sparse.as_slice(),
                        "{b} seed {seed}, every other tile: 1 vs {threads} threads"
                    );
                    if shape.aggregation == Aggregation::Tile {
                        for r in 0..n {
                            for (c, &v) in sparse.row(r).iter().enumerate() {
                                assert_eq!(
                                    v == SENTINEL,
                                    !listed(r, c),
                                    "{b} seed {seed}, {threads} threads: ({r}, {c}) = {v}"
                                );
                            }
                        }
                    }
                }
                if b == Benchmark::Histogram && seed == 13 {
                    let mut partial = shape.allocate_output(n, n);
                    kernel.run_npu(&refs, tasks[0].tile, &mut partial);
                    assert!(
                        partial.as_slice().iter().any(|v| v.fract() != 0.0),
                        "seed 13 must keep a fractional TPU partial for this test to bite"
                    );
                }
            }
        }
    }

    #[test]
    fn compute_exact_parallel_matches_single_tile() {
        let b = Benchmark::MeanFilter;
        let kernel = b.kernel();
        let inputs = b.generate_inputs(96, 96, 5);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let fast = compute_exact_parallel(kernel.as_ref(), &refs, 96, 96, 4);
        let mut slow = kernel.shape().allocate_output(96, 96);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 96,
            cols: 96,
        };
        kernel.run_exact(&refs, tile, &mut slow);
        assert_eq!(fast.as_slice(), slow.as_slice());
    }

    #[test]
    fn parallel_matches_serial_for_stencils_with_halo() {
        // Multi-input (Hotspot) and halo-2 (SRAD) kernels read the shared
        // inputs across tile edges; the NPU mix checks that the pool path
        // quantizes over the same halo-extended, block-aligned region as
        // the serial path.
        for b in [Benchmark::Hotspot, Benchmark::Srad, Benchmark::MeanFilter] {
            let kernel = b.kernel();
            let (tasks, inputs) = tasks_for(b, 96, 2);
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let mut serial = kernel.shape().allocate_output(96, 96);
            compute_tasks(kernel.as_ref(), &refs, &tasks, &mut serial, 1);
            let mut parallel = kernel.shape().allocate_output(96, 96);
            compute_tasks(kernel.as_ref(), &refs, &tasks, &mut parallel, 4);
            assert_eq!(serial.as_slice(), parallel.as_slice(), "{b}");
        }
    }

    #[test]
    fn parallel_matches_serial_for_global_inputs_gemm() {
        // GEMM reads all of `A`'s row band and all of `B`, and its NPU
        // path quantizes both operands whole, whichever tile it computes.
        use shmt_kernels::gemm::Gemm;
        let n = 64;
        let a = Tensor::from_fn(n, n, |r, c| (((r * 7 + c * 3) % 11) as f32 - 5.0) * 0.5);
        let b = Tensor::from_fn(n, n, |r, c| (((r * 5 + c * 13) % 9) as f32 - 4.0) * 0.25);
        let refs = [&a, &b];
        let tiles = crate::partition::partition_tiles(n, n, 6, &Gemm.shape());
        let tasks: Vec<ComputeTask> = tiles
            .iter()
            .map(|t| ComputeTask {
                tile: *t,
                npu: t.index % 2 == 0,
            })
            .collect();
        let mut serial = Gemm.shape().allocate_output(n, n);
        compute_tasks(&Gemm, &refs, &tasks, &mut serial, 1);
        let mut parallel = Gemm.shape().allocate_output(n, n);
        compute_tasks(&Gemm, &refs, &tasks, &mut parallel, 4);
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn exact_cover_alone_skips_the_output_fill() {
        // Fed a kernel that writes nothing, the output shows what its page
        // held: a NaN-poisoned page, put where a 320x320 take finds it (no
        // other test here uses that arena bucket).
        #[derive(Debug)]
        struct WritesNothing;
        impl Kernel for WritesNothing {
            fn name(&self) -> &'static str {
                "writes-nothing"
            }
            fn shape(&self) -> KernelShape {
                KernelShape::elementwise()
            }
            fn run_exact_into(&self, _: &[&Tensor], _: Tile, _: &mut TensorViewMut<'_>) {}
            fn work_per_element(&self) -> f64 {
                1.0
            }
        }
        let n = 320;
        let (covering, _) = tasks_for(Benchmark::Blackscholes, n, 0);
        let sparse: Vec<ComputeTask> = covering.iter().copied().step_by(2).collect();
        for (tasks, covers, want) in [(&covering, true, f32::NAN), (&sparse, false, 0.0)] {
            assert_eq!(check_tiles(tasks, n, n), covers);
            for threads in [1, 4] {
                let mut page = crate::arena::take_f32(n * n);
                page.resize(n * n, f32::NAN);
                crate::arena::put_f32(page);
                let out = compute_output(&WritesNothing, &[], tasks, n, n, threads);
                let bits = want.to_bits();
                assert!(
                    out.as_slice().iter().all(|v| v.to_bits() == bits),
                    "cover {covers}, {threads} threads: want every element {want}"
                );
            }
        }
    }

    fn exact(tile: Tile) -> ComputeTask {
        ComputeTask { tile, npu: false }
    }

    fn tile(index: usize, row0: usize, col0: usize, rows: usize, cols: usize) -> Tile {
        Tile {
            index,
            row0,
            col0,
            rows,
            cols,
        }
    }

    /// The list the claimants run for `tasks` of a tile-aggregated kernel.
    fn claimed_tiles(tasks: &[ComputeTask]) -> Vec<ComputeTask> {
        let mut bands = Vec::new();
        claimed(Aggregation::Tile, tasks, &mut bands).to_vec()
    }

    #[test]
    fn npu_tiles_split_a_run_of_exact_tiles_and_never_merge() {
        // One grid row of five tiles, the third and fourth on the NPU,
        // listed out of order: the NPU tiles come first, as listed and
        // apart, the two tiles left of them merge, the one right of them
        // stays a task of its own.
        let t: Vec<Tile> = (0..5).map(|i| tile(i, 16, 16 * i, 16, 16)).collect();
        let npu = |tile| ComputeTask { tile, npu: true };
        let tasks = [exact(t[4]), npu(t[2]), exact(t[1]), npu(t[3]), exact(t[0])];
        assert_eq!(
            claimed_tiles(&tasks),
            [
                npu(t[2]),
                npu(t[3]),
                exact(tile(0, 16, 0, 16, 32)),
                exact(t[4])
            ]
        );
    }

    #[test]
    fn tiles_of_different_heights_never_merge() {
        let tasks = [
            exact(tile(0, 0, 0, 16, 32)),
            exact(tile(1, 0, 32, 8, 32)),
            exact(tile(2, 8, 32, 8, 32)),
        ];
        assert_eq!(claimed_tiles(&tasks), tasks);
    }

    #[test]
    fn merged_tasks_cover_exactly_the_exact_tiles() {
        for (n, partitions) in [(96, 9), (256, 16), (256, 64), (67, 4)] {
            let tiles =
                crate::partition::partition_tiles(n, n, partitions, &KernelShape::stencil(1));
            // Claim order as the runtime lists it: not the partition order.
            let tasks: Vec<ComputeTask> = tiles
                .iter()
                .rev()
                .map(|t| ComputeTask {
                    tile: *t,
                    npu: t.index % 4 == 1,
                })
                .collect();
            let run = claimed_tiles(&tasks);
            let npu: Vec<ComputeTask> = tasks.iter().copied().filter(|t| t.npu).collect();
            assert_eq!(run[..npu.len()], npu, "{n}: NPU tasks first, as listed");
            let bands = &run[npu.len()..];
            assert!(bands.iter().all(|b| !b.npu));
            assert!(
                bands.len() < tasks.len() - npu.len(),
                "{n}/{partitions}: some exact tiles merge"
            );
            // In bounds, pairwise disjoint and covering the whole output,
            // with the NPU tiles: the bands cover the exact tiles exactly.
            assert!(check_tiles(&run, n, n), "{n}/{partitions}");
            for t in tasks.iter().filter(|t| !t.npu).map(|t| t.tile) {
                let within = |b: &Tile| {
                    (b.row0, b.rows) == (t.row0, t.rows)
                        && b.col0 <= t.col0
                        && t.col0 + t.cols <= b.col0 + b.cols
                };
                assert_eq!(bands.iter().filter(|b| within(&b.tile)).count(), 1, "{t:?}");
            }
        }
    }

    #[test]
    fn full_row_bands_and_a_lone_tile_pass_through() {
        let shape = Benchmark::Fft.kernel().shape();
        let bands: Vec<ComputeTask> = crate::partition::partition_tiles(128, 128, 8, &shape)
            .into_iter()
            .map(exact)
            .collect();
        assert!(bands.len() > 1);
        assert_eq!(claimed_tiles(&bands), bands);
        let lone = [exact(tile(0, 0, 0, 96, 96))];
        assert_eq!(claimed_tiles(&lone), lone);
    }

    #[test]
    fn a_reduce_kernels_list_keeps_its_order() {
        let b = Benchmark::Histogram;
        let (mut tasks, _) = tasks_for(b, 128, 3);
        tasks.reverse();
        let mut bands = Vec::new();
        let run = claimed(b.kernel().shape().aggregation, &tasks, &mut bands);
        assert_eq!(run, tasks);
        assert_eq!(bands.capacity(), 0, "no band spine taken");
    }

    /// Asserts that `kernel`'s exact output, computed tile by tile through
    /// [`Kernel::run_exact`], equals the claimant loop's (which runs the
    /// exact tiles as row bands) at 1 and 2 threads, bit for bit — NaN
    /// payloads included unless `nan_payloads` is false — for the tiles of
    /// every grid in `grids`.
    fn assert_tile_invariant(
        name: &str,
        kernel: &dyn Kernel,
        inputs: &[&Tensor],
        grids: &[usize],
        nan_payloads: bool,
    ) {
        let (rows, cols) = inputs[0].shape();
        let shape = kernel.shape();
        let key = |v: &f32| {
            if v.is_nan() && !nan_payloads {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        };
        let bits = |t: &Tensor| t.as_slice().iter().map(key).collect::<Vec<_>>();
        for &partitions in grids {
            let tiles = crate::partition::partition_tiles(rows, cols, partitions, &shape);
            let mut one_by_one = shape.allocate_output(rows, cols);
            for &t in &tiles {
                kernel.run_exact(inputs, t, &mut one_by_one);
            }
            let tasks: Vec<ComputeTask> = tiles.iter().copied().map(exact).collect();
            for threads in [1, 2] {
                let mut banded = shape.allocate_output(rows, cols);
                compute_tasks(kernel, inputs, &tasks, &mut banded, threads);
                assert!(
                    bits(&one_by_one) == bits(&banded),
                    "{name} at {rows}x{cols}, {} tiles, {threads} threads",
                    tiles.len()
                );
            }
        }
    }

    /// Values that reach every branch of the element-wise primitives:
    /// negatives, signed zeros, infinities and a NaN with a payload.
    fn awkward(rows: usize, cols: usize, salt: usize) -> Tensor {
        const SPECIAL: [f32; 5] = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        Tensor::from_fn(rows, cols, |r, c| match (r * 7 + c * 13 + salt) % 29 {
            k @ 0..=3 => SPECIAL[k],
            4 => f32::from_bits(0x7fc0_1234),
            k => (k as f32 - 16.5) * 0.37,
        })
    }

    #[test]
    fn exact_tiles_write_the_same_bits_as_row_bands() {
        use shmt_kernels::gemm::Gemm;
        use shmt_kernels::primitives::{BinaryOp, UnaryOp};
        const GRIDS: [usize; 4] = [4, 9, 16, 64];
        const UNARY: [UnaryOp; 5] = [
            UnaryOp::Log,
            UnaryOp::Relu,
            UnaryOp::Rsqrt,
            UnaryOp::Sqrt,
            UnaryOp::Tanh,
        ];
        const BINARY: [BinaryOp; 5] = [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Multiply,
            BinaryOp::Max,
            BinaryOp::Min,
        ];
        for (rows, cols) in [(67, 101), (96, 96), (256, 256)] {
            for b in shmt_kernels::ALL_BENCHMARKS {
                let kernel = b.kernel();
                if kernel.shape().aggregation != Aggregation::Tile {
                    continue;
                }
                let inputs = b.generate_inputs(rows, cols, 11);
                let refs: Vec<&Tensor> = inputs.iter().collect();
                assert_tile_invariant(b.name(), kernel.as_ref(), &refs, &GRIDS, true);
            }
            let image = Benchmark::Sobel.generate_inputs(rows, cols, 5).remove(0);
            let conv = shmt_kernels::conv::Conv2d::gaussian3x3();
            assert_tile_invariant("conv", &conv, &[&image], &GRIDS, true);
            if rows == cols {
                let a = awkward(rows, cols, 0);
                let b = Tensor::from_fn(rows, cols, |r, c| ((r * 5 + c * 3) % 7) as f32 - 3.0);
                // Which of two different NaNs GEMM's accumulation keeps
                // follows the tile's width: in a release build the
                // vectorised body of its saxpy loop and the scalar
                // remainder order the add's operands differently, and x86
                // returns the first operand's NaN. So its NaNs are
                // compared as NaNs.
                assert_tile_invariant("GEMM", &Gemm, &[&a, &b], &GRIDS, false);
            }
            let (x, y) = (awkward(rows, cols, 0), awkward(rows, cols, 11));
            for op in UNARY {
                let vop = crate::vop::Vop::unary(op, x.clone()).expect("valid VOP");
                assert_tile_invariant(vop.kernel().name(), vop.kernel(), &[&x], &GRIDS, true);
            }
            for op in BINARY {
                let vop = crate::vop::Vop::binary(op, x.clone(), y.clone()).expect("valid VOP");
                assert_tile_invariant(vop.kernel().name(), vop.kernel(), &[&x, &y], &GRIDS, true);
            }
            let fused = crate::dag::FusedElementwise {
                first: UnaryOp::Relu,
                rest: vec![UnaryOp::Sqrt],
            };
            assert_tile_invariant("relu->sqrt", &fused, &[&x], &GRIDS, true);
        }
    }

    /// [`exact_tiles_write_the_same_bits_as_row_bands`] for the stencils
    /// of the end-to-end benchmark at its 2048² size. Minutes in a debug
    /// build: run it with `--release -- --ignored`.
    #[test]
    #[ignore]
    fn exact_stencil_tiles_write_the_same_bits_as_row_bands_at_2048() {
        let n = 2048;
        for b in [
            Benchmark::Sobel,
            Benchmark::MeanFilter,
            Benchmark::Laplacian,
            Benchmark::Hotspot,
        ] {
            let inputs = b.generate_inputs(n, n, 1);
            let refs: Vec<&Tensor> = inputs.iter().collect();
            assert_tile_invariant(b.name(), b.kernel().as_ref(), &refs, &[4, 9, 16, 64], true);
        }
    }

    #[test]
    fn shmt_threads_env_overrides_default() {
        std::env::set_var("SHMT_THREADS", "3");
        assert_eq!(default_threads(), 3);
        // Zero clamps to one worker rather than deadlocking.
        std::env::set_var("SHMT_THREADS", "0");
        assert_eq!(default_threads(), 1);
        // Garbage falls back to detection.
        std::env::set_var("SHMT_THREADS", "not-a-number");
        assert!(default_threads() >= 1);
        std::env::remove_var("SHMT_THREADS");
    }

    #[test]
    fn empty_task_list_is_noop() {
        let b = Benchmark::Sobel;
        let kernel = b.kernel();
        let inputs = b.generate_inputs(32, 32, 1);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let mut out = Tensor::filled(32, 32, 7.0);
        compute_tasks(kernel.as_ref(), &refs, &[], &mut out, 4);
        assert!(out.as_slice().iter().all(|&v| v == 7.0));
    }

    #[test]
    fn overlapping_or_out_of_range_tiles_panic_inline_and_pooled() {
        // Workers write tiles straight into the shared output, so a task
        // list whose tiles overlap or leave the output is rejected before
        // anything runs — on the inline path too, so both reject alike.
        let b = Benchmark::Sobel;
        let kernel = b.kernel();
        let inputs = b.generate_inputs(32, 32, 1);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let task = |index, row0, rows, npu| ComputeTask {
            tile: Tile {
                index,
                row0,
                col0: 0,
                rows,
                cols: 32,
            },
            npu,
        };
        let cases = [
            (
                [task(0, 0, 16, false), task(1, 8, 16, true)],
                ["overlap", "index: 0", "index: 1"],
            ),
            (
                [task(0, 0, 16, false), task(1, 16, 24, true)],
                ["outside", "index: 1", "32x32"],
            ),
        ];
        for (tasks, needles) in &cases {
            for threads in [1, 2, 4] {
                let mut out = Tensor::zeros(32, 32);
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    compute_tasks(kernel.as_ref(), &refs, tasks, &mut out, threads)
                }));
                let payload = caught.expect_err("bad tiles must panic");
                let msg = payload
                    .downcast_ref::<String>()
                    .expect("formatted panic message");
                for needle in needles {
                    assert!(msg.contains(needle), "{threads} threads: {msg}");
                }
            }
        }
    }
}
