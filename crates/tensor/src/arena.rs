//! Buffer arenas: pooled backing storage for the serve path's steady
//! state.
//!
//! Steady-state serving should not touch the system allocator (ROADMAP
//! item 3): every warm request re-uses pages recycled from earlier
//! requests. This module provides the pooling primitives the workspace
//! builds that on:
//!
//! * A global, size-bucketed pool of `Vec<f32>` pages ([`take_f32`] /
//!   [`put_f32`]). [`crate::Tensor`] is integrated with it — every
//!   tensor takes its backing storage from the pool and returns it on
//!   drop — so *all* tensor traffic (HLOP input/output pages, quantize
//!   scratch, kernel locals) recycles without any call-site changes.
//! * [`Stash`], the NPU device-buffer pages one executor worker holds for
//!   the length of a run, so what a run takes from the pool does not
//!   depend on how its workers overlap.
//! * [`VecPool`], a typed pool of `Vec<T>` spines for the runtime's
//!   per-run bookkeeping vectors (HLOP records, compute tasks, …).
//! * [`ObjPool`], a pool of whole reusable objects (queue pairs, slot
//!   arrays) whose internal capacity should survive across runs.
//!
//! # Ownership and lifetime rules
//!
//! Pages are plain `Vec`s: taking one transfers ownership to the caller
//! and putting one back transfers it to the pool. A put page keeps its
//! length, so its elements stay initialised. [`take_f32`] clears the page
//! it returns (`len == 0`, at least the requested capacity; O(1) for
//! `f32`) and callers fill it; [`take_f32_stale`] returns exactly the
//! requested number of initialised elements holding whatever the page
//! held last, and writes only the part that was never initialised — for
//! a caller that overwrites every element anyway. The pool never hands
//! out aliased storage and never holds borrows — everything is by-value,
//! so the usual Rust ownership rules are the whole safety story.
//!
//! Page capacities are rounded up to powers of two so a page recycles
//! into the same bucket it was served from regardless of the exact
//! length requested. The pool's cached bytes are capped at 256 MiB;
//! beyond the cap, returned pages are simply freed. Pooling never changes
//! values, only where the bytes live.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of power-of-two capacity classes (`2^0 ..= 2^32` elements).
const BUCKETS: usize = 33;

/// Cap on bytes cached across all buckets.
const BYTE_CAP: usize = 256 << 20;

/// Counters describing the global `f32` page pool's behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Pages served from the pool (warm hits).
    pub hits: u64,
    /// Pages that had to be freshly allocated (cold misses).
    pub misses: u64,
    /// Pages returned and cached for re-use.
    pub recycled: u64,
    /// Pages returned but freed because the byte cap was reached.
    pub dropped: u64,
    /// Bytes currently cached in the pool.
    pub cached_bytes: u64,
}

struct PagePool {
    stacks: [Vec<Vec<f32>>; BUCKETS],
    cached_bytes: usize,
}

const EMPTY_STACK: Vec<Vec<f32>> = Vec::new();

static PAGE_POOL: Mutex<PagePool> = Mutex::new(PagePool {
    stacks: [EMPTY_STACK; BUCKETS],
    cached_bytes: 0,
});

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// The bucket a request for `len` elements is served from: the smallest
/// power-of-two capacity holding `len`.
fn take_bucket(len: usize) -> usize {
    (usize::BITS - len.saturating_sub(1).leading_zeros()) as usize
}

/// The bucket a page of `capacity` elements recycles into: the largest
/// power of two not exceeding its capacity (so a re-take from that
/// bucket is always large enough).
fn put_bucket(capacity: usize) -> usize {
    (usize::BITS - 1 - capacity.leading_zeros()) as usize
}

/// Takes an empty `f32` page with capacity for at least `len` elements,
/// recycled from the pool when one is available.
pub fn take_f32(len: usize) -> Vec<f32> {
    let mut page = take_page(len);
    page.clear();
    page
}

/// Takes a page of exactly `len` initialised elements without clearing
/// it: a recycled page keeps whatever it held, and only elements it never
/// held are zeroed (all of them on a fresh page).
pub fn take_f32_stale(len: usize) -> Vec<f32> {
    let mut page = take_page(len);
    page.resize(len, 0.0);
    page
}

/// A page with capacity for at least `len` elements, as the pool holds it.
fn take_page(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let b = take_bucket(len).min(BUCKETS - 1);
    if let Ok(mut pool) = PAGE_POOL.lock() {
        if let Some(page) = pool.stacks[b].pop() {
            pool.cached_bytes -= page.capacity() * std::mem::size_of::<f32>();
            drop(pool);
            HITS.fetch_add(1, Ordering::Relaxed);
            return page;
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    // Allocate the bucket's full power-of-two capacity so this page
    // recycles into the same class it was requested from.
    Vec::with_capacity(1usize << b)
}

/// Returns a page to the pool (or frees it when the byte cap is
/// reached). Its length and capacity are kept.
pub fn put_f32(page: Vec<f32>) {
    let cap = page.capacity();
    if cap == 0 {
        return;
    }
    let bytes = cap * std::mem::size_of::<f32>();
    if let Ok(mut pool) = PAGE_POOL.lock() {
        if pool.cached_bytes + bytes <= BYTE_CAP {
            let b = put_bucket(cap).min(BUCKETS - 1);
            pool.stacks[b].push(page);
            pool.cached_bytes += bytes;
            drop(pool);
            RECYCLED.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    DROPPED.fetch_add(1, Ordering::Relaxed);
}

/// A snapshot of the page pool's counters.
pub fn stats() -> ArenaStats {
    let cached_bytes = PAGE_POOL.lock().map(|p| p.cached_bytes as u64).unwrap_or(0);
    ArenaStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
        cached_bytes,
    }
}

/// Frees every cached page (used by tests to reset the pool).
pub fn clear() {
    if let Ok(mut pool) = PAGE_POOL.lock() {
        for stack in pool.stacks.iter_mut() {
            stack.clear();
        }
        pool.cached_bytes = 0;
    }
}

/// Pages one worker keeps to itself while it computes a run's tasks.
///
/// An NPU task's device buffers — its int8-snapped input footprints —
/// live only while the task is computed. Drawn from the global pool one
/// task at a time, the number a run needs at once depends on how many
/// workers happen to compute at the same moment, so a warm pool can still
/// come up short on a later, more overlapped run. An executor instead
/// takes one stash per worker *before* the workers start
/// ([`Stash::with_pages`]: the same pages every run, whatever the overlap)
/// and every task builds its buffers in its worker's stash.
///
/// [`Stash::default`] holds nothing and forwards to the global pool, for
/// callers that compute a single task. Dropping a stash returns its pages
/// to the global pool.
#[derive(Debug, Default)]
pub struct Stash {
    pages: [Vec<f32>; Stash::PAGES],
}

impl Stash {
    /// Most pages a stash keeps; further ones go back to the global pool.
    pub const PAGES: usize = 8;

    /// A stash of `count` pages with room for `len` elements each, taken
    /// from the global pool.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`Stash::PAGES`].
    pub fn with_pages(count: usize, len: usize) -> Self {
        assert!(
            count <= Self::PAGES,
            "a stash keeps at most {} pages, asked for {count}",
            Self::PAGES
        );
        let mut stash = Stash::default();
        for page in &mut stash.pages[..count] {
            *page = take_f32(len);
        }
        stash
    }

    /// Takes an empty page with room for at least `len` elements: one of
    /// the stash's own when one is large enough, otherwise one from the
    /// global pool.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match self.pages.iter_mut().find(|p| p.capacity() >= len.max(1)) {
            Some(page) => std::mem::take(page),
            None => take_f32(len),
        }
    }

    /// Gives a page (back) to the stash; it is cleared, its capacity kept.
    pub fn put(&mut self, mut page: Vec<f32>) {
        match self.pages.iter_mut().find(|p| p.capacity() == 0) {
            Some(slot) => {
                page.clear();
                *slot = page;
            }
            None => put_f32(page),
        }
    }
}

impl Drop for Stash {
    fn drop(&mut self) {
        for page in &mut self.pages {
            put_f32(std::mem::take(page));
        }
    }
}

/// A pool of `Vec<T>` spines: vectors come back empty with their
/// capacity intact, so per-run bookkeeping (HLOP records, compute
/// tasks, plan queues) stops allocating once warm.
///
/// Const-constructible so it can live in a `static`:
///
/// ```
/// use shmt_tensor::arena::VecPool;
///
/// static POOL: VecPool<u32> = VecPool::new();
/// let mut v = POOL.take();
/// v.extend([1, 2, 3]);
/// POOL.put(v);
/// assert_eq!(POOL.take().capacity() >= 3, true);
/// ```
#[derive(Debug)]
pub struct VecPool<T> {
    stack: Mutex<Vec<Vec<T>>>,
}

impl<T> VecPool<T> {
    /// Upper bound on pooled spines per pool (beyond it, puts free).
    const MAX_POOLED: usize = 64;

    /// Creates an empty pool.
    pub const fn new() -> Self {
        VecPool {
            stack: Mutex::new(Vec::new()),
        }
    }

    /// Takes a pooled vector (empty, capacity preserved) or a fresh one.
    pub fn take(&self) -> Vec<T> {
        self.stack
            .lock()
            .ok()
            .and_then(|mut s| s.pop())
            .unwrap_or_default()
    }

    /// Clears `v` and returns its spine to the pool.
    pub fn put(&self, mut v: Vec<T>) {
        v.clear();
        if v.capacity() == 0 {
            return;
        }
        if let Ok(mut s) = self.stack.lock() {
            if s.len() < Self::MAX_POOLED {
                s.push(v);
            }
        }
    }
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A pool of whole reusable objects whose internal capacity should
/// survive across uses (queue pairs, slot arrays). The caller is
/// responsible for resetting an object's *state* before or after
/// pooling; the pool only stores and hands back values.
#[derive(Debug)]
pub struct ObjPool<T> {
    stack: Mutex<Vec<T>>,
}

impl<T> ObjPool<T> {
    /// Upper bound on pooled objects per pool (beyond it, puts free).
    const MAX_POOLED: usize = 64;

    /// Creates an empty pool.
    pub const fn new() -> Self {
        ObjPool {
            stack: Mutex::new(Vec::new()),
        }
    }

    /// Takes a pooled object, or builds one with `make` on a miss.
    pub fn take_or(&self, make: impl FnOnce() -> T) -> T {
        self.stack
            .lock()
            .ok()
            .and_then(|mut s| s.pop())
            .unwrap_or_else(make)
    }

    /// Returns an object to the pool.
    pub fn put(&self, item: T) {
        if let Ok(mut s) = self.stack.lock() {
            if s.len() < Self::MAX_POOLED {
                s.push(item);
            }
        }
    }
}

impl<T> Default for ObjPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_to_powers_of_two() {
        assert_eq!(take_bucket(1), 0);
        assert_eq!(take_bucket(2), 1);
        assert_eq!(take_bucket(3), 2);
        assert_eq!(take_bucket(1024), 10);
        assert_eq!(take_bucket(1025), 11);
        assert_eq!(put_bucket(1024), 10);
        assert_eq!(put_bucket(1536), 10);
        assert_eq!(put_bucket(2048), 11);
    }

    #[test]
    fn put_then_take_recycles_the_page() {
        let mut page = take_f32(100);
        page.resize(100, 1.0);
        let cap = page.capacity();
        assert!(cap >= 100);
        put_f32(page);
        let again = take_f32(cap);
        // Same bucket: the recycled page satisfies a same-class request.
        assert!(again.capacity() >= 100);
        assert!(again.is_empty());
    }

    #[test]
    fn stale_take_keeps_what_a_recycled_page_held() {
        // A bucket (2^19 elements) no other test in this binary uses; a
        // plain take of a page put back with elements in it is covered
        // above, a stash take by the stash test.
        let cap = 1 << 19;
        let mut page = take_f32(cap);
        page.resize(300_000, 7.0);
        put_f32(page);
        let stale = take_f32_stale(cap);
        assert_eq!(stale.len(), cap);
        assert!(stale[..300_000].iter().all(|&v| v == 7.0), "not refilled");
        assert!(stale[300_000..].iter().all(|&v| v == 0.0), "never held");
    }

    #[test]
    fn take_serves_requests_up_to_the_bucket_capacity() {
        let page = take_f32(700);
        let cap = page.capacity();
        assert!(cap >= 1024, "power-of-two rounding, got {cap}");
        put_f32(page);
        // A 1024-element request maps to the same bucket and must be
        // satisfiable by the recycled 700-element-request page.
        let again = take_f32(1024);
        assert!(again.capacity() >= 1024);
    }

    #[test]
    fn zero_len_take_is_free() {
        let v = take_f32(0);
        assert_eq!(v.capacity(), 0);
        put_f32(v); // no-op, must not panic
    }

    #[test]
    fn stats_move() {
        let before = stats();
        let page = take_f32(64);
        put_f32(page);
        let after = stats();
        assert!(after.hits + after.misses > before.hits + before.misses);
        assert!(after.recycled + after.dropped > before.recycled + before.dropped);
    }

    #[test]
    fn stash_serves_its_own_pages_and_keeps_what_it_is_given() {
        let mut stash = Stash::with_pages(2, 1000);
        let a = stash.take(900);
        let b = stash.take(1000);
        assert!(a.capacity() >= 1000 && b.capacity() >= 1000);
        assert!(a.is_empty() && b.is_empty());
        // Both pages are out: a third take falls through to the pool.
        let c = stash.take(10);
        assert!(c.capacity() >= 10);
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut a = a;
        a.extend([1.0, 2.0]);
        stash.put(a);
        stash.put(b);
        stash.put(c);
        // The same storage comes back, cleared; a page too small for the
        // request is passed over.
        let again = stash.take(1000);
        assert!(again.is_empty());
        assert!(again.as_ptr() == pa || again.as_ptr() == pb);
        assert!(stash.take(1 << 20).capacity() >= 1 << 20);
    }

    #[test]
    fn empty_stash_forwards_to_the_pool_and_overflow_goes_back_to_it() {
        let mut stash = Stash::default();
        let page = stash.take(64);
        assert!(page.capacity() >= 64);
        assert_eq!(stash.take(0).capacity(), 0);
        stash.put(page);
        for _ in 0..2 * Stash::PAGES {
            stash.put(Vec::with_capacity(64)); // beyond PAGES: must not panic
        }
    }

    #[test]
    fn vec_pool_preserves_capacity() {
        static POOL: VecPool<usize> = VecPool::new();
        let mut v = POOL.take();
        v.extend(0..100);
        POOL.put(v);
        let v2 = POOL.take();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= 100);
    }

    #[test]
    fn obj_pool_round_trips() {
        static POOL: ObjPool<String> = ObjPool::new();
        POOL.put(String::with_capacity(32));
        let s = POOL.take_or(String::new);
        assert!(s.capacity() >= 32);
        let fresh = POOL.take_or(|| String::from("made"));
        assert_eq!(fresh, "made");
    }
}
