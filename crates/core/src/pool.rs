//! Size-classed buffer pool backing the zero-allocation stem sweep.
//!
//! Every tensor in a qubit network holds `2^rank` amplitudes, so buffers
//! fall into a small number of exact size classes and recycling is trivial:
//! a freed buffer of length `L` serves any later request for length `L`.
//! [`BufferPool`] keeps one free list per class, in a `Vec` indexed by the
//! class's rank (`L.trailing_zeros()`), so finding a list is one index
//! rather than a search; the pooled executor
//! acquires every stem-loop buffer (sliced leaves and contraction outputs —
//! contraction reads its operands in place, so there is no scratch) from it
//! and releases them when their statically known lifetime ends. After the
//! first slice subtask warms the free lists, the loop allocates nothing:
//! the plan-time count of live buffers per size class
//! ([`qtn_tensornet::analyze_memory`]) proves the working set, and the
//! pool realises it.
//!
//! Pools are **per worker** — each worker thread owns one, so no
//! synchronisation happens inside the subtask loop — and persist across
//! executions on the plan they belong to (like the plan-lifetime branch
//! cache): a [`SharedWorkerPools`] hands each worker its pool at execution
//! start and takes it back at the end, so a compiled circuit's second
//! execution starts with warm free lists and allocates nothing at all.
//! Batched multi-amplitude executions ride the same pools: the StemPure
//! keep set of a subtask simply stays checked out across the whole
//! bitstring batch (the buffers the size classes serve are identical, so a
//! pool warmed by single executions also serves batched ones and vice
//! versa), and the plan's `batched_stem` walk predicts that traffic
//! exactly.
//!
//! [`PoolCounters`] are per-execution observability: how many buffers were
//! freshly allocated vs recycled, and the exact high-water mark of bytes
//! checked out (`peak_in_flight_bytes`) that executions report as
//! `peak_bytes_in_flight` and tests compare against the plan's predicted
//! peak.

use qtn_tensor::Complex64;
use qtn_tensornet::BYTES_PER_AMPLITUDE;
use std::sync::Mutex;

/// Per-execution counters of one worker's pool traffic.
///
/// Counters live outside the pool so a pool persisted across executions
/// still yields per-execution numbers: each execution starts from zeroed
/// counters, and a steady-state execution on a warm pool reports
/// `allocated == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Buffers that had to be freshly allocated (no free buffer of the
    /// right size class existed).
    pub allocated: u64,
    /// Buffers served from a free list without touching the allocator.
    pub reused: u64,
    /// Bytes currently checked out of the pool.
    pub in_flight_bytes: u64,
    /// High-water mark of `in_flight_bytes` over the execution.
    pub peak_in_flight_bytes: u64,
}

impl PoolCounters {
    /// Fold another worker's counters into an execution-wide aggregate:
    /// allocation counts add up, peaks take the maximum (workers sweep
    /// subtasks concurrently but each worker's peak is what bounds its own
    /// footprint).
    pub fn merge(&mut self, other: &PoolCounters) {
        self.allocated += other.allocated;
        self.reused += other.reused;
        self.in_flight_bytes += other.in_flight_bytes;
        self.peak_in_flight_bytes = self.peak_in_flight_bytes.max(other.peak_in_flight_bytes);
    }
}

/// A size-classed free-list pool of amplitude buffers.
#[derive(Debug, Default)]
pub struct BufferPool {
    /// Free buffers of `2^rank` elements at index `rank`.
    free: Vec<Vec<Vec<Complex64>>>,
}

/// The free-list index of a buffer of `len` elements: its rank.
fn size_class(len: usize) -> usize {
    debug_assert!(len.is_power_of_two(), "pooled buffers hold 2^rank elements, not {len}");
    len.trailing_zeros() as usize
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check a buffer of exactly `len` elements out of the pool, recycling
    /// a free one when possible. Recycled buffers contain stale amplitudes;
    /// every consumer fully overwrites them ([`qtn_tensor::DenseTensor::slice_into`]
    /// and the contraction kernels write every element).
    pub fn acquire(&mut self, len: usize, counters: &mut PoolCounters) -> Vec<Complex64> {
        // Chaos hook: a simulated allocation failure panics here and is
        // caught at the execution boundary like any other worker panic.
        if crate::fault::fire(crate::fault::FaultPoint::PoolAlloc) {
            panic!("injected fault: buffer pool allocation failure ({len} elements)");
        }
        let buf = match self.free.get_mut(size_class(len)).and_then(Vec::pop) {
            Some(buf) => {
                counters.reused += 1;
                buf
            }
            None => {
                counters.allocated += 1;
                vec![Complex64::ZERO; len]
            }
        };
        counters.in_flight_bytes += len as u64 * BYTES_PER_AMPLITUDE;
        counters.peak_in_flight_bytes = counters.peak_in_flight_bytes.max(counters.in_flight_bytes);
        buf
    }

    /// Return a buffer to its size class's free list.
    pub fn release(&mut self, buf: Vec<Complex64>, counters: &mut PoolCounters) {
        counters.in_flight_bytes -= buf.len() as u64 * BYTES_PER_AMPLITUDE;
        self.free_list(size_class(buf.len())).push(buf);
    }

    /// The free list of size class `class`, created empty on first use.
    fn free_list(&mut self, class: usize) -> &mut Vec<Vec<Complex64>> {
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        &mut self.free[class]
    }

    /// Number of buffers currently sitting on free lists.
    fn free_buffers(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }

    /// Absorb another pool's free buffers (used when two concurrent
    /// executions checked out pools for the same worker slot).
    fn absorb(&mut self, other: BufferPool) {
        for (class, mut bufs) in other.free.into_iter().enumerate() {
            self.free_list(class).append(&mut bufs);
        }
    }
}

/// The per-worker pools of one plan, shared by every execution (and clone)
/// of that plan — the executor analogue of the plan-lifetime branch cache.
#[derive(Debug, Default)]
pub struct SharedWorkerPools {
    pools: Mutex<Vec<Option<BufferPool>>>,
}

impl SharedWorkerPools {
    /// Take worker `worker`'s pool for the duration of one execution. A
    /// fresh (cold) pool is handed out if none was ever checked in for this
    /// slot or a concurrent execution currently holds it.
    pub fn checkout(&self, worker: usize) -> BufferPool {
        let mut pools = self.pools.lock().unwrap_or_else(|e| e.into_inner());
        if pools.len() <= worker {
            pools.resize_with(worker + 1, || None);
        }
        pools[worker].take().unwrap_or_default()
    }

    /// Return worker `worker`'s pool so the next execution starts warm. If a
    /// concurrent execution already returned a pool for this slot, the free
    /// lists are merged.
    pub fn checkin(&self, worker: usize, pool: BufferPool) {
        let mut pools = self.pools.lock().unwrap_or_else(|e| e.into_inner());
        if pools.len() <= worker {
            pools.resize_with(worker + 1, || None);
        }
        match &mut pools[worker] {
            Some(existing) => existing.absorb(pool),
            slot @ None => *slot = Some(pool),
        }
    }

    /// Buffers held across executions, summed over all worker slots.
    pub fn retained_buffers(&self) -> usize {
        let pools = self.pools.lock().unwrap_or_else(|e| e.into_inner());
        pools.iter().flatten().map(BufferPool::free_buffers).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_allocates_cold_and_reuses_warm() {
        let mut pool = BufferPool::new();
        let mut counters = PoolCounters::default();
        let a = pool.acquire(8, &mut counters);
        let b = pool.acquire(8, &mut counters);
        assert_eq!(counters.allocated, 2);
        assert_eq!(counters.reused, 0);
        assert_eq!(counters.in_flight_bytes, 2 * 8 * 16);
        pool.release(a, &mut counters);
        pool.release(b, &mut counters);
        assert_eq!(counters.in_flight_bytes, 0);
        assert_eq!(counters.peak_in_flight_bytes, 2 * 8 * 16);
        let _c = pool.acquire(8, &mut counters);
        assert_eq!(counters.allocated, 2, "warm acquire must not allocate");
        assert_eq!(counters.reused, 1);
    }

    #[test]
    fn size_classes_do_not_mix() {
        let mut pool = BufferPool::new();
        let mut counters = PoolCounters::default();
        let a = pool.acquire(4, &mut counters);
        pool.release(a, &mut counters);
        let b = pool.acquire(8, &mut counters);
        assert_eq!(b.len(), 8);
        assert_eq!(counters.allocated, 2, "a length-4 buffer cannot serve a length-8 request");
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn peak_tracks_high_water_not_current() {
        let mut pool = BufferPool::new();
        let mut counters = PoolCounters::default();
        let a = pool.acquire(16, &mut counters);
        pool.release(a, &mut counters);
        let b = pool.acquire(2, &mut counters);
        pool.release(b, &mut counters);
        assert_eq!(counters.peak_in_flight_bytes, 16 * 16);
    }

    #[test]
    fn shared_pools_persist_across_checkouts() {
        let shared = SharedWorkerPools::default();
        let mut counters = PoolCounters::default();
        let mut pool = shared.checkout(0);
        let buf = pool.acquire(32, &mut counters);
        pool.release(buf, &mut counters);
        shared.checkin(0, pool);
        assert_eq!(shared.retained_buffers(), 1);
        // The next checkout of the same slot sees the warm free list.
        let mut pool = shared.checkout(0);
        let mut counters2 = PoolCounters::default();
        let _buf = pool.acquire(32, &mut counters2);
        assert_eq!(counters2.allocated, 0);
        assert_eq!(counters2.reused, 1);
    }

    #[test]
    fn concurrent_checkins_merge_free_lists() {
        let shared = SharedWorkerPools::default();
        let mut c = PoolCounters::default();
        let mut first = shared.checkout(1);
        let mut second = shared.checkout(1); // concurrent execution, same slot
        let a = first.acquire(4, &mut c);
        first.release(a, &mut c);
        let b = second.acquire(4, &mut c);
        second.release(b, &mut c);
        shared.checkin(1, first);
        shared.checkin(1, second);
        assert_eq!(shared.retained_buffers(), 2);
    }

    #[test]
    fn counters_merge_adds_counts_and_maxes_peaks() {
        let mut a =
            PoolCounters { allocated: 2, reused: 5, in_flight_bytes: 0, peak_in_flight_bytes: 100 };
        let b =
            PoolCounters { allocated: 1, reused: 3, in_flight_bytes: 0, peak_in_flight_bytes: 250 };
        a.merge(&b);
        assert_eq!(a.allocated, 3);
        assert_eq!(a.reused, 8);
        assert_eq!(a.peak_in_flight_bytes, 250);
    }
}
