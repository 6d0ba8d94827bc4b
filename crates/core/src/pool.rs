//! A long-lived host compute pool shared by every concurrent run.
//!
//! The seed runtime spawned a fresh `std::thread::scope` per
//! [`crate::exec::compute_tasks`] call, which made every VOP execution pay
//! thread start-up and tear-down and — more importantly — meant two
//! concurrent [`crate::runtime::ShmtRuntime`] executions each spun up
//! their own private workers. The serving layer (`shmt-serve`) multiplexes
//! many VOP requests over one host, so the workers now live in a
//! [`ComputePool`]: a fixed set of threads pulling type-erased jobs from
//! one shared injector queue. Concurrent runs interleave their tile tasks
//! on the same workers, the paper-§3.3.1 "monitor threads" become
//! persistent, and per-run spawn cost disappears.
//!
//! Design constraints, in order:
//!
//! * **std-only** — the workspace is offline; the queue is a
//!   `Mutex<VecDeque>` + `Condvar`, not a lock-free deque.
//! * **Determinism** — the pool never influences *what* is computed, only
//!   *where*; callers assemble results by task index, so output bits do
//!   not depend on worker count or interleaving.
//! * **Borrowed jobs** — kernel, inputs, and output tiles are borrowed
//!   from the caller's stack. [`ComputePool::scope_fn`] erases the job
//!   lifetime to `'static` for the queue and then blocks until every claim
//!   of the batch has finished, which is exactly the guarantee that makes
//!   the erasure sound (the same contract as `std::thread::scope`).

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// One queued claim on a [`ComputePool::scope_fn`] batch: raw pointers to
/// the caller-owned closure and the caller's stack-allocated [`Batch`].
/// A batch enqueues `n` copies of one borrowed closure and so never boxes:
/// the warm queue re-uses its deque capacity and the whole submission is
/// allocation-free.
///
/// Soundness: `scope_fn` does not return (normally or by unwind) until
/// the batch's `remaining` count hits zero, i.e. until every queued
/// claim has been consumed, so both pointees strictly outlive every
/// copy of this struct in the queue or in flight.
#[derive(Clone, Copy)]
struct Task {
    job: *const (dyn Fn() + Sync),
    batch: *const Batch,
}

// SAFETY: the pointees are `Sync` (`dyn Fn() + Sync`; `Batch` holds only
// `Mutex`/`Condvar`) and outlive the task per the contract above, so
// moving the pointers across threads is safe.
unsafe impl Send for Task {}

/// Shared state between the pool handle and its workers.
struct Shared {
    queue: Mutex<VecDeque<Task>>,
    /// Signalled when work arrives or shutdown begins.
    work_ready: Condvar,
    shutdown: AtomicBool,
}

/// Runs one queued claim, catching its panic for the submitter.
fn run_task(t: Task) {
    // SAFETY: see `Task` — both pointers are live until the batch
    // completes, which cannot happen before this claim decrements
    // `remaining` below.
    let (job, batch) = unsafe { (&*t.job, &*t.batch) };
    if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(job)) {
        let mut slot = batch.panic.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(payload);
    }
    let mut remaining = batch
        .remaining
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    *remaining -= 1;
    if *remaining == 0 {
        batch.batch_done.notify_all();
    }
}

/// Completion bookkeeping for one [`ComputePool::scope_fn`] batch.
struct Batch {
    /// Jobs of this batch still running or queued.
    remaining: Mutex<usize>,
    batch_done: Condvar,
    /// First panic payload raised by a job of this batch, if any.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A fixed-size pool of persistent worker threads fed from one shared
/// work queue.
///
/// Independent callers (concurrent runtime executions, the serving
/// layer's request executors) submit batches through
/// [`ComputePool::scope_fn`] and their claims interleave on the same
/// workers.
pub struct ComputePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputePool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ComputePool {
    /// Spawns a pool with `workers` threads (clamped to at least one).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        // A failed spawn (resource exhaustion) degrades to fewer workers
        // instead of panicking: `scope_fn` is correct at any worker count
        // because the submitting thread helps drain the queue.
        let workers = (0..workers.max(1))
            .map_while(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("shmt-compute-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .ok()
            })
            .collect();
        ComputePool { shared, workers }
    }

    /// The process-wide pool shared by every runtime instance.
    ///
    /// Sized by [`crate::exec::default_threads`] (so `SHMT_THREADS` is
    /// honored) but at least 2, so that two concurrent runs keep making
    /// independent progress even on single-core hosts. Created on first
    /// use and kept for the life of the process.
    pub fn global() -> &'static ComputePool {
        static GLOBAL: OnceLock<ComputePool> = OnceLock::new();
        GLOBAL.get_or_init(|| ComputePool::new(crate::exec::default_threads().max(2)))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `claims` invocations of one shared borrowed closure to
    /// completion on the pool.
    ///
    /// The queue holds `claims` lightweight references to the single
    /// closure, so a warm pool performs no heap allocation at all (the
    /// deque re-uses its capacity; the batch bookkeeping lives on this
    /// stack frame). The closure must coordinate its own work division —
    /// the executor does this with an atomic task cursor. Claims from
    /// concurrent calls interleave in the shared queue in FIFO order.
    ///
    /// Blocks until all `claims` invocations have finished, which is
    /// what makes handing borrowed pointers to the queue sound.
    ///
    /// # Panics
    ///
    /// A panicking invocation is caught (the worker thread survives), the
    /// rest of the batch still runs, and the first payload is re-raised
    /// here once the batch has drained.
    pub fn scope_fn(&self, claims: usize, job: &(dyn Fn() + Sync)) {
        if claims == 0 {
            return;
        }
        let batch = Batch {
            remaining: Mutex::new(claims),
            batch_done: Condvar::new(),
            panic: Mutex::new(None),
        };
        // SAFETY: erases the borrow lifetimes to 'static for the queue.
        // `help_until_batch_done` below does not return until every
        // claim has run, so the pointees (the caller's closure and the
        // stack `batch`) outlive every queued copy. Workers touch
        // `batch` for the last time while holding `remaining`'s lock,
        // whose release happens-before the submitter's final wakeup.
        let task = Task {
            job: unsafe {
                std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync)>(job)
            },
            batch: &batch,
        };
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for _ in 0..claims {
                queue.push_back(task);
            }
            self.shared.work_ready.notify_all();
        }
        self.help_until_batch_done(&batch);
    }

    /// Help: run queued tasks on the submitting thread (they may belong
    /// to any batch — work conservation beats fairness) until the queue
    /// drains, then sleep until the workers finish this batch's tail.
    /// Helping keeps the submitter contributing compute instead of
    /// idling, exactly like the joiner of the old `std::thread::scope`.
    /// Re-raises the batch's first captured panic after completion.
    fn help_until_batch_done(&self, batch: &Batch) {
        loop {
            let task = {
                let mut queue = self
                    .shared
                    .queue
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                queue.pop_front()
            };
            match task {
                Some(task) => run_task(task),
                None => break,
            }
        }
        let mut remaining = batch
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *remaining > 0 {
            // This batch's jobs are all either done or running on workers
            // (the queue was drained above and we enqueued them before
            // helping), so the batch-done signal is the only thing left to
            // wait for.
            remaining = batch
                .batch_done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(remaining);

        let payload = batch
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            Some(task) => run_task(task), // panics are caught inside the claim
            None => return,
        }
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_every_job_with_borrows() {
        // Claims divide the work with a cursor and write into slots
        // borrowed from this stack frame, as the executor does.
        let pool = ComputePool::new(3);
        let slots: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
        let cursor = AtomicUsize::new(0);
        pool.scope_fn(slots.len(), &|| {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            slots[i].fetch_add(i + 1, Ordering::Relaxed);
        });
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), i + 1, "slot {i}");
        }
    }

    #[test]
    fn concurrent_scopes_interleave_on_one_pool() {
        // One worker, several submitters: each batch finishes exactly
        // its own claims while the others share the queue.
        let pool = Arc::new(ComputePool::new(1));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let local = AtomicUsize::new(0);
                    let claims = 10 + 5 * t;
                    pool.scope_fn(claims, &|| {
                        local.fetch_add(1, Ordering::Relaxed);
                    });
                    (claims, local.load(Ordering::Relaxed))
                })
            })
            .collect();
        for h in handles {
            let (claims, ran) = h.join().expect("client thread");
            assert_eq!(ran, claims);
        }
    }

    #[test]
    fn job_panic_propagates_to_submitter_and_pool_survives() {
        let pool = ComputePool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_fn(1, &|| panic!("kernel contract violated"));
        }));
        let payload = caught.expect_err("panic must reach the submitting thread");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"kernel contract violated")
        );

        // Workers caught the panic, so the pool still runs later batches.
        let ok = AtomicUsize::new(0);
        pool.scope_fn(4, &|| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = ComputePool::new(1);
        pool.scope_fn(0, &|| unreachable!("zero claims must not run"));
    }

    #[test]
    fn scope_fn_runs_every_claim() {
        let pool = ComputePool::new(3);
        let hits = AtomicUsize::new(0);
        pool.scope_fn(23, &|| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 23);
    }

    #[test]
    fn scope_fn_panic_propagates_and_pool_survives() {
        let pool = ComputePool::new(2);
        let n = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope_fn(4, &|| {
                if n.fetch_add(1, Ordering::Relaxed) == 2 {
                    panic!("shared job failed");
                }
            });
        }));
        assert!(caught.is_err(), "panic must reach the submitting thread");
        let ok = AtomicUsize::new(0);
        pool.scope_fn(4, &|| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn concurrent_scope_fn_batches_share_the_pool() {
        let pool = Arc::new(ComputePool::new(2));
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    let local = AtomicUsize::new(0);
                    pool.scope_fn(25, &|| {
                        local.fetch_add(1, Ordering::Relaxed);
                    });
                    total.fetch_add(local.load(Ordering::Relaxed), Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }
}
