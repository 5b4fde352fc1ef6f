//! Lock-free counters and gauges.
//!
//! All handles are `Arc`-backed and cheap to clone; increments are relaxed
//! atomics with no fences. [`ShardedCounter`] gives each worker its own
//! cache-padded shard so concurrent increments never bounce a line — the
//! same discipline the native pool uses for its per-node statistics.

use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
///
/// One cache-padded atomic; suitable for single-writer or low-contention
/// sites (the dispatcher, the server's admission loop). For per-worker
/// hot paths use [`ShardedCounter`].
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<CachePadded<AtomicU64>>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (phase occupancy, active tenants).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<CachePadded<AtomicI64>>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A counter split into per-worker cache-padded shards.
///
/// Worker `i` increments shard `i % shards`; readers sum all shards. With
/// one shard per worker an increment is a relaxed RMW on a line no other
/// core writes — the cost of an uncontended addition.
#[derive(Clone, Debug)]
pub struct ShardedCounter {
    shards: Arc<[CachePadded<AtomicU64>]>,
}

impl ShardedCounter {
    /// A counter with `shards` shards (at least one).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1);
        ShardedCounter {
            shards: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Adds `n` on `shard` (wrapped into range, so any worker index is safe).
    #[inline]
    pub fn add(&self, shard: usize, n: u64) {
        self.shards[shard % self.shards.len()].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one on `shard`.
    #[inline]
    pub fn inc(&self, shard: usize) {
        self.add(shard, 1);
    }

    /// The sum over all shards.
    ///
    /// Relaxed per-shard loads: concurrent increments may or may not be
    /// visible, but every increment that happened-before the call is.
    pub fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_clones_share() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(7);
        g.add(3);
        g.sub(12);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn sharded_counter_sums_across_shards() {
        let s = ShardedCounter::new(4);
        for worker in 0..9 {
            s.inc(worker); // indices beyond the shard count wrap
        }
        s.add(2, 10);
        assert_eq!(s.sum(), 19);
        assert_eq!(s.shards(), 4);
    }

    #[test]
    fn sharded_counter_concurrent_increments_all_land() {
        let s = ShardedCounter::new(8);
        std::thread::scope(|scope| {
            for w in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        s.inc(w);
                    }
                });
            }
        });
        assert_eq!(s.sum(), 80_000);
    }
}
