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
//! * Tile-aggregated kernels write disjoint output tiles, checked in bounds
//!   and pairwise disjoint before any task runs. Inline, each task writes
//!   its tile straight into the output. On the pool, an exact task runs on
//!   inputs localized to the tile's halo-extended footprint and an NPU task
//!   casts that footprint itself (from the shared inputs, so the
//!   quantization region is the one the inline path derives); either way
//!   the claimant copies the finished tile from its own scratch into the
//!   output, so aggregation is a gather done by the workers themselves
//!   and the caller has nothing left to assemble after the barrier.
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
use shmt_tensor::{Tensor, TensorView};

use crate::pool::ComputePool;

/// Maximum kernel arity the executor supports — lets per-task input
/// reference lists live in fixed stack arrays instead of heap vectors.
/// Every benchmark kernel takes 1 or 2 inputs; 4 leaves headroom.
pub const MAX_KERNEL_ARITY: usize = 4;

/// Pre-sized per-slot collection of a reduction's per-task partials: each
/// claimed task index is written by exactly one worker, so the slots need
/// no lock.
///
/// Safety contract: index `i` is written at most once (claimants obtain
/// indices from a shared `fetch_add` cursor, so claims are unique), the
/// backing `Vec` is pre-sized and never reallocated while workers hold
/// this pointer, and the pool's batch barrier orders every write before
/// the submitting thread reads the slots back.
struct SlotWriter {
    ptr: *mut Option<Tensor>,
    len: usize,
}

// SAFETY: concurrent `write` calls touch disjoint slots per the
// contract above; the raw pointer itself is freely sendable.
unsafe impl Sync for SlotWriter {}

impl SlotWriter {
    /// Deposits `value` into slot `i`.
    ///
    /// # Safety
    ///
    /// `i` must be a unique claim below `len` (see the struct contract).
    unsafe fn write(&self, i: usize, value: Tensor) {
        debug_assert!(i < self.len);
        // The pre-sized slot holds `None` (trivial drop), so a plain
        // store through the pointer is enough.
        unsafe { *self.ptr.add(i) = Some(value) };
    }
}

/// Shared write access to the tiles of one output tensor: every claimant
/// copies each tile it finishes straight into its place in the output.
///
/// Safety contract: the tiles written are in bounds of the output and
/// pairwise disjoint ([`check_tiles`] asserts both before any claimant
/// starts); each is written only by the claimant that claimed its task
/// (claims come from a shared `fetch_add` cursor, so they are unique); the
/// writer mutably borrows the output, so nothing else reads or writes it
/// while workers hold the pointer; and the pool's batch barrier orders
/// every write before the caller touches the output again.
struct TileWriter<'a> {
    ptr: *mut f32,
    cols: usize,
    _output: PhantomData<&'a mut Tensor>,
}

// SAFETY: concurrent `write` calls touch disjoint elements per the
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

    /// Copies `src` to `tile`'s position in the output.
    ///
    /// # Safety
    ///
    /// `tile` must be one of the checked tiles, claimed by the caller
    /// alone (see the struct contract).
    unsafe fn write(&self, tile: Tile, src: TensorView<'_>) {
        assert_eq!(
            (src.rows(), src.cols()),
            (tile.rows, tile.cols),
            "tile result shape"
        );
        for r in 0..tile.rows {
            let row = src.row(r);
            // SAFETY: the destination row segment lies inside `tile`, which
            // is in bounds and nobody else's (the struct contract); `src`
            // borrows a different buffer, so the ranges cannot overlap.
            unsafe {
                let dst = self.ptr.add((tile.row0 + r) * self.cols + tile.col0);
                std::ptr::copy_nonoverlapping(row.as_ptr(), dst, row.len());
            }
        }
    }
}

/// Asserts that the tasks' tiles lie inside a `rows x cols` output and that
/// no two overlap — what lets a `Tile` aggregation write them in any order
/// and from any thread.
///
/// # Panics
///
/// Panics naming the first tile out of bounds or the first overlapping
/// pair.
fn check_tiles(tasks: &[ComputeTask], rows: usize, cols: usize) {
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
/// With `threads <= 1` the tasks run inline; otherwise up to `threads`
/// claimant jobs are submitted to the shared [`ComputePool`] — concurrent
/// runs interleave on the same persistent workers. The assembled output
/// is identical either way, at any pool size.
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
    compute_tasks_on(
        ComputePool::global(),
        kernel,
        inputs,
        tasks,
        output,
        threads,
    );
}

/// [`compute_tasks`] on an explicit pool (dedicated pools are useful in
/// tests and for callers that want isolated capacity).
pub fn compute_tasks_on(
    pool: &ComputePool,
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
    let inline = threads <= 1 || tasks.len() == 1;
    let (out_rows, out_cols) = output.shape();
    if shape.aggregation == Aggregation::Tile {
        check_tiles(tasks, out_rows, out_cols);
    }
    // One reduction partial per task, whoever computes it.
    let partial = |task: &ComputeTask| {
        let mut buf = shape.allocate_output(out_rows, out_cols);
        run_one(kernel, inputs, *task, &mut buf);
        buf
    };
    if inline {
        match shape.aggregation {
            Aggregation::Tile => {
                for task in tasks {
                    run_one(kernel, inputs, *task, output);
                }
            }
            Aggregation::Reduce { op, .. } => {
                for task in tasks {
                    fold_partial(op, output, &partial(task));
                }
            }
        }
        return;
    }

    assert!(
        inputs.len() <= MAX_KERNEL_ARITY,
        "kernel arity {} exceeds executor maximum {MAX_KERNEL_ARITY}",
        inputs.len()
    );

    // Claimant jobs pull task indices through a shared atomic cursor —
    // the software analogue of pulling from a shared incoming queue — so
    // each task is computed exactly once, by whichever worker claims it.
    // All scratch comes from the arena, so a warm call allocates nothing.
    let next = AtomicUsize::new(0);
    let n_claims = threads.min(tasks.len());
    match shape.aggregation {
        Aggregation::Tile => {
            // Scratch memory scales with the tile (plus halo), not the
            // dataset: an exact task localizes its inputs to the tile's
            // halo-extended footprint and runs in local coordinates; an
            // NPU task extracts and casts that footprint from the shared
            // inputs itself and publishes into a tile-sized page. Exact
            // tasks of kernels that read far outside the footprint
            // (`global_inputs`, e.g. GEMM) keep the full inputs and a
            // per-claimant full-shape buffer. Wherever the tile was
            // computed, its claimant copies it straight into the output:
            // tiles are checked disjoint, so the writes commute and the
            // result is exact at any thread count.
            let (in_rows, in_cols) = inputs[0].shape();
            let footprint = |tile: Tile| {
                shmt_kernels::npu::extended_region(
                    tile,
                    shape.halo,
                    shape.block_align,
                    shape.full_rows,
                    in_rows,
                    in_cols,
                )
            };
            // A task's buffers — one per input and one for its local
            // output, exact and NPU alike, plus an NPU task's tile page —
            // come from its claimant's stash. The stashes are taken here,
            // before any claimant runs, sized for the largest footprint:
            // what a run takes from the page arena is then the same
            // whether its claimants overlap or take turns, which is what
            // lets a warm run promise zero allocations rather than usually
            // deliver them.
            let footprint_pages = if shape.global_inputs {
                0
            } else {
                inputs.len() + 1
            };
            let stash_pages = footprint_pages + usize::from(tasks.iter().any(|t| t.npu));
            let stash_len = tasks
                .iter()
                .map(|task| {
                    let ext = footprint(task.tile);
                    ext.rows * ext.cols
                })
                .max()
                .unwrap_or(0);
            let mut stashes: Vec<Stash> = crate::arena::STASHES.take();
            stashes.resize_with(n_claims, || Stash::with_pages(stash_pages, stash_len));
            let stashes = Mutex::new(stashes);
            let lock_stashes = || stashes.lock().unwrap_or_else(PoisonError::into_inner);
            let writer = TileWriter::new(output);
            pool.scope_fn(n_claims, &|| {
                let mut stash = lock_stashes().pop().expect("one stash per claimant");
                let mut full_scratch: Option<Tensor> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    let tile = task.tile;
                    // SAFETY: `tile` passed `check_tiles`, and `i` came from
                    // the shared cursor, so this claim is ours alone.
                    let publish = |src: TensorView<'_>| unsafe { writer.write(tile, src) };
                    if task.npu {
                        let page = stash.take(tile.len());
                        let mut buf = Tensor::zeros_in(tile.rows, tile.cols, page);
                        kernel.run_npu_at(inputs, tile, &mut buf, (0, 0), &mut stash);
                        publish(buf.view(0, 0, tile.rows, tile.cols));
                        stash.put(buf.into_vec());
                    } else if shape.global_inputs {
                        let scratch =
                            full_scratch.get_or_insert_with(|| Tensor::zeros(out_rows, out_cols));
                        kernel.run_exact(inputs, tile, scratch);
                        publish(scratch.view(tile.row0, tile.col0, tile.rows, tile.cols));
                    } else {
                        let ext = footprint(tile);
                        let len = ext.rows * ext.cols;
                        let mut locals: [Option<Tensor>; MAX_KERNEL_ARITY] =
                            [None, None, None, None];
                        let mut local_refs: [&Tensor; MAX_KERNEL_ARITY] =
                            [inputs[0]; MAX_KERNEL_ARITY];
                        for ((local, slot), t) in locals.iter_mut().zip(&mut local_refs).zip(inputs)
                        {
                            let view = t.view(ext.row0, ext.col0, ext.rows, ext.cols);
                            *slot = local.insert(view.to_tensor_in(stash.take(len)));
                        }
                        let local_tile = Tile {
                            index: tile.index,
                            row0: tile.row0 - ext.row0,
                            col0: tile.col0 - ext.col0,
                            rows: tile.rows,
                            cols: tile.cols,
                        };
                        let mut scratch = Tensor::zeros_in(ext.rows, ext.cols, stash.take(len));
                        kernel.run_exact(&local_refs[..inputs.len()], local_tile, &mut scratch);
                        publish(scratch.view(
                            local_tile.row0,
                            local_tile.col0,
                            tile.rows,
                            tile.cols,
                        ));
                        stash.put(scratch.into_vec());
                        for local in locals.into_iter().flatten() {
                            stash.put(local.into_vec());
                        }
                    }
                }
                lock_stashes().push(stash);
            });
            crate::arena::STASHES.put(stashes.into_inner().unwrap_or_else(PoisonError::into_inner));
        }
        Aggregation::Reduce { op, .. } => {
            // Reduction buffers are tiny: claimants deposit one buffer per
            // *task* into its pre-sized slot, and the fold walks the slots
            // in ascending task order, whoever computed what.
            let mut slots: Vec<Option<Tensor>> = crate::arena::SLOTS.take();
            slots.resize_with(tasks.len(), || None);
            let writer = SlotWriter {
                ptr: slots.as_mut_ptr(),
                len: slots.len(),
            };
            pool.scope_fn(n_claims, &|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                // SAFETY: `i` came from the shared cursor, so this claim
                // is unique and in bounds (`tasks.get` checked).
                unsafe { writer.write(i, partial(task)) };
            });
            for slot in slots.iter_mut() {
                let buf = slot.take().expect("claimed task deposited no result");
                fold_partial(op, output, &buf);
            }
            crate::arena::SLOTS.put(slots);
        }
    }
}

/// Folds one task's reduction partial into the output.
fn fold_partial(op: shmt_kernels::ReduceOp, output: &mut Tensor, partial: &Tensor) {
    for r in 0..output.rows() {
        for (d, s) in output.row_mut(r).iter_mut().zip(partial.row(r)) {
            *d = op.combine(*d, *s);
        }
    }
}

fn run_one(kernel: &dyn Kernel, inputs: &[&Tensor], task: ComputeTask, out: &mut Tensor) {
    if task.npu {
        kernel.run_npu(inputs, task.tile, out);
    } else {
        kernel.run_exact(inputs, task.tile, out);
    }
}

/// Computes the exact whole-dataset output in parallel row bands — the
/// fast path for reference outputs and the GPU baseline's real compute.
pub fn compute_exact_parallel(
    kernel: &dyn Kernel,
    inputs: &[&Tensor],
    rows: usize,
    cols: usize,
    threads: usize,
) -> Tensor {
    let shape = kernel.shape();
    let mut output = shape.allocate_output(rows, cols);
    let bands = crate::partition::partition_tiles(rows, cols, threads.max(1) * 2, &shape);
    let mut tasks: Vec<ComputeTask> = crate::arena::COMPUTE.take();
    tasks.extend(bands.iter().map(|t| ComputeTask {
        tile: *t,
        npu: false,
    }));
    compute_tasks(kernel, inputs, &tasks, &mut output, threads);
    crate::arena::COMPUTE.put(tasks);
    kernel.finalize(&mut output);
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmt_kernels::Benchmark;

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
        // Multi-input (Hotspot) and halo-2 (SRAD) kernels exercise the
        // localized input extraction; the NPU mix checks that the pool
        // path quantizes over the same halo-extended, block-aligned region
        // as the serial path.
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
        // GEMM reads all of `A`'s row band and all of `B`: `global_inputs`
        // routes it around the localized-extract path onto per-worker
        // full-shape scratch.
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
