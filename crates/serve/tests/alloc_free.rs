//! Counting-allocator proof of the alloc-free steady state.
//!
//! This binary installs a `#[global_allocator]` that wraps [`System`]
//! and counts every `alloc` / `alloc_zeroed` / `realloc` call. With the
//! buffer arenas warm (tensor pages in `shmt_tensor::arena`, runtime
//! spines in `shmt::arena`, persistent `ComputePool` workers), a
//! `ShmtRuntime::execute` + `recycle_report` cycle must perform **zero**
//! heap allocations, and a full `Server` round trip must stay within a
//! small bounded constant (ticket/channel plumbing only). A cold-start
//! case documents the other side of the contract: the first run after
//! clearing the arena *does* allocate — growth happens once, not per
//! request.
//!
//! Every test serializes on one mutex and keeps allocation-heavy setup
//! outside its measured window. The zero-allocation claims count the
//! threads a run can execute on — the calling thread and the compute
//! pool's workers ([`take_turn`]) — because the process also holds the
//! test harness, which allocates whenever it likes: it spawns the next
//! test's thread, sends and prints a result while another test is inside
//! its window (caught by a backtrace probe: `test::run_test`, the new
//! thread's `thread_info`, the finished thread's channel `send`, the main
//! thread's channel `recv`). The bounded server test keeps counting the
//! whole process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use shmt::arena::recycle_report;
use shmt::pool::ComputePool;
use shmt::{Platform, Policy, RuntimeConfig, ShmtRuntime, Vop};
use shmt_kernels::Benchmark;
use shmt_serve::{Request, Server, ServerConfig};

struct CountingAlloc;

/// Allocator calls by any thread of the process.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Allocator calls by enlisted threads.
static RUN_ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the threads a run executes on. Const-initialized and without
    /// a destructor, so reading it inside the allocator allocates nothing.
    static ENLISTED: Cell<bool> = const { Cell::new(false) };
}

fn count_call() {
    ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
    if ENLISTED.try_with(Cell::get).unwrap_or(false) {
        RUN_ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// One counter, one process: measured windows must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allocator calls so far on the threads a run executes on.
fn allocs() -> u64 {
    RUN_ALLOC_CALLS.load(Ordering::SeqCst)
}

/// Allocator calls so far by the whole process.
fn process_allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::SeqCst)
}

/// A test's turn at the counters: the serialization lock, held with the
/// calling thread and every worker of the global compute pool enlisted.
/// The calling thread is struck off again when the turn ends — it goes on
/// to report its result through the harness's channel, which allocates.
struct Turn(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Turn {
    fn drop(&mut self) {
        ENLISTED.with(|e| e.set(false));
    }
}

/// Waits for the turn and enlists the run threads: one pool job per
/// thread, each held at a barrier until all have arrived, so no thread can
/// take two — which also means every worker has finished starting up
/// before anything is measured.
fn take_turn() -> Turn {
    let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ComputePool::global();
    let threads = pool.workers() + 1;
    let all_arrived = Barrier::new(threads);
    pool.scope_fn(threads, &|| {
        ENLISTED.with(|e| e.set(true));
        all_arrived.wait();
    });
    Turn(serial)
}

fn sobel_vop(n: usize, seed: u64) -> Vop {
    let b = Benchmark::Sobel;
    Vop::from_benchmark(b, b.generate_inputs(n, n, seed)).expect("valid VOP")
}

fn runtime(partitions: usize) -> ShmtRuntime {
    let mut cfg = RuntimeConfig::new(Policy::WorkStealing);
    cfg.partitions = partitions;
    ShmtRuntime::new(Platform::jetson(Benchmark::Sobel), cfg)
}

/// The tentpole claim, verified literally: once the arenas are warm, a
/// `ShmtRuntime::execute` + `recycle_report` cycle allocates nothing.
#[test]
fn warm_execute_performs_zero_heap_allocations() {
    let _turn = take_turn();
    let vop = sobel_vop(128, 3);
    let rt = runtime(8);
    // Warm-up: grows the tensor arena, the spine pools, and the global
    // compute pool's worker threads. All of this is one-time cost.
    for _ in 0..8 {
        recycle_report(rt.execute(&vop).expect("warm-up run succeeds"));
    }
    let before = allocs();
    for _ in 0..5 {
        recycle_report(rt.execute(&vop).expect("warm run succeeds"));
    }
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "warm execute+recycle cycles must be alloc-free, saw {grew} allocations over 5 runs"
    );
}

/// Same claim for the dense transforms, whose kernels keep working state of
/// their own — FFT's complex row and per-length tables, DCT8x8's block
/// buffers, Black-Scholes' ratio memo — on both device paths.
#[test]
fn warm_dense_execute_performs_zero_heap_allocations() {
    let _turn = take_turn();
    for b in [Benchmark::Fft, Benchmark::Dct8x8, Benchmark::Blackscholes] {
        let vop = Vop::from_benchmark(b, b.generate_inputs(128, 128, 7)).expect("valid VOP");
        let mut cfg = RuntimeConfig::new(Policy::WorkStealing);
        cfg.partitions = 8;
        let rt = ShmtRuntime::new(Platform::jetson(b), cfg);
        for _ in 0..8 {
            recycle_report(rt.execute(&vop).expect("warm-up run succeeds"));
        }
        let before = allocs();
        for _ in 0..5 {
            recycle_report(rt.execute(&vop).expect("warm run succeeds"));
        }
        let grew = allocs() - before;
        assert_eq!(
            grew, 0,
            "warm {b} execute+recycle must be alloc-free, saw {grew} allocations over 5 runs"
        );
    }
}

/// Same claim under the QAWS planner: the sampling/assignment path is
/// decision-side arithmetic over pooled spines.
#[test]
fn warm_qaws_execute_performs_zero_heap_allocations() {
    let _turn = take_turn();
    let vop = sobel_vop(128, 5);
    let mut cfg = RuntimeConfig::new(Policy::Qaws {
        assignment: shmt::QawsAssignment::TopK,
        sampling: shmt::sampling::SamplingMethod::Striding,
    });
    cfg.partitions = 8;
    let rt = ShmtRuntime::new(Platform::jetson(Benchmark::Sobel), cfg);
    for _ in 0..8 {
        recycle_report(rt.execute(&vop).expect("warm-up run succeeds"));
    }
    let before = allocs();
    for _ in 0..5 {
        recycle_report(rt.execute(&vop).expect("warm run succeeds"));
    }
    let grew = allocs() - before;
    assert_eq!(
        grew, 0,
        "warm QAWS execute+recycle must be alloc-free, saw {grew} allocations over 5 runs"
    );
}

/// A full server round trip may allocate — tickets, channels, latency
/// samples — but the count must be a small bounded constant, not scale
/// with the dataset (a 128x128 Sobel run touches ~50k elements; pre-
/// arena it cost hundreds of allocations in tensor pages and spines).
#[test]
fn warm_server_request_allocations_are_bounded() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::new(ServerConfig {
        executors: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    });
    let make = |seed: u64| {
        let mut cfg = RuntimeConfig::new(Policy::WorkStealing);
        cfg.partitions = 8;
        Request::new(
            sobel_vop(128, seed),
            Platform::jetson(Benchmark::Sobel),
            cfg,
        )
    };
    for seed in 0..10 {
        let response = server
            .submit_blocking(make(seed))
            .expect("server running")
            .wait()
            .expect("warm-up request succeeds");
        recycle_report(response.report);
    }
    // Request construction (input generation) is client-side work; keep
    // it out of the serving window.
    let requests: Vec<Request> = (10..15).map(make).collect();
    let n = requests.len() as u64;
    let before = process_allocs();
    for request in requests {
        let response = server
            .submit_blocking(request)
            .expect("server running")
            .wait()
            .expect("warm request succeeds");
        recycle_report(response.report);
    }
    let per_request = (process_allocs() - before) / n;
    assert!(
        per_request < 100,
        "warm serve round trips must stay within a small allocation constant, \
         saw {per_request} allocations per request"
    );
}

/// The other side of the contract: after `shmt::arena::clear()` the next
/// run must rebuild the page cache — growth is real, it just happens
/// once instead of per request.
#[test]
fn cold_start_allocates_then_settles() {
    let _turn = take_turn();
    let vop = sobel_vop(128, 9);
    let rt = runtime(8);
    // Make sure the spine pools and compute pool exist so the only cold
    // element is the tensor-page arena we explicitly clear.
    for _ in 0..4 {
        recycle_report(rt.execute(&vop).expect("warm-up run succeeds"));
    }
    shmt::arena::clear();
    let before = allocs();
    recycle_report(rt.execute(&vop).expect("cold run succeeds"));
    let cold = allocs() - before;
    assert!(
        cold > 0,
        "first run after clearing the arena must allocate pages"
    );
    let before = allocs();
    recycle_report(rt.execute(&vop).expect("warm run succeeds"));
    let warm = allocs() - before;
    assert_eq!(
        warm, 0,
        "one run refills the arena; the next is alloc-free again (saw {warm})"
    );
}
