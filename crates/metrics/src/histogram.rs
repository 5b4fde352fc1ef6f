//! Log-linear (HDR-style) histograms with deterministic bucket boundaries.
//!
//! The value range `0..=u64::MAX` is covered by [`NUM_BUCKETS`] buckets:
//! values below `2^SUB_BITS` get exact unit buckets, and every octave above
//! that is split into `2^SUB_BITS` equal linear sub-buckets, bounding the
//! relative quantization error by `2^-SUB_BITS` (6.25% with the default 4
//! sub-bucket bits) at any magnitude. Boundaries are a pure function of the
//! index — no configuration — so snapshots taken by different workers,
//! lanes, or whole runs merge bucket-for-bucket and quantiles stay
//! comparable everywhere.
//!
//! Recording is three relaxed `fetch_add`s (bucket, sum, count): lock-free,
//! allocation-free, wait-free. Reads ([`Histogram::snapshot`],
//! [`Histogram::live_quantile`]) are relaxed sweeps — a snapshot racing
//! concurrent writers is a consistent *lower bound* per bucket, exact once
//! writers are quiescent (the pool reads only from the dispatcher after the
//! exit latch closes the release edge).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 4;
const SUB_COUNT: usize = 1 << SUB_BITS; // 16

/// Total bucket count covering all of `u64`.
///
/// Indices `0..16` are the unit buckets, then 60 octaves of 16 sub-buckets
/// reach `u64::MAX`.
pub const NUM_BUCKETS: usize = SUB_COUNT * (64 - SUB_BITS as usize + 1);

/// The bucket index holding `v`. Monotone in `v`; total over `u64`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // floor(log2 v) >= SUB_BITS
    let octave = (exp - SUB_BITS + 1) as usize;
    let sub = ((v >> (exp - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
    (octave << SUB_BITS) + sub
}

/// The inclusive `[lower, upper]` value range of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    let lower = bucket_lower(index);
    let upper = if index + 1 == NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(index + 1) - 1
    };
    (lower, upper)
}

fn bucket_lower(index: usize) -> u64 {
    if index < SUB_COUNT {
        return index as u64;
    }
    let octave = (index >> SUB_BITS) as u32;
    let sub = (index & (SUB_COUNT - 1)) as u64;
    (1u64 << (octave + SUB_BITS - 1)) + (sub << (octave - 1))
}

/// A concurrent log-linear histogram. `Arc`-backed; clones share state.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

#[derive(Debug)]
struct HistInner {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(HistInner {
                buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v`.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        let i = &self.inner;
        i.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        i.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        i.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`) read directly off the live
    /// buckets, without allocating — the anomaly check on the dispatch path
    /// uses this. Returns the upper bound of the quantile's bucket (so the
    /// true value is `<=` the result), or 0 when empty.
    pub fn live_quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = quantile_rank(q, count);
        let mut cum = 0u64;
        for (idx, b) in self.inner.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_bounds(idx).1;
            }
        }
        u64::MAX // racing writers bumped `count` after our loads
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<(u16, u64)> = self
            .inner
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u16, n))
            })
            .collect();
        // Derive count/sum from the swept buckets where possible so the
        // snapshot is internally consistent even when racing writers.
        let count = buckets.iter().map(|&(_, n)| n).sum();
        HistSnapshot {
            buckets,
            sum: self.inner.sum.load(Ordering::Relaxed),
            count,
        }
    }
}

fn quantile_rank(q: f64, count: u64) -> u64 {
    let rank = (q.clamp(0.0, 1.0) * count as f64).ceil() as u64;
    rank.clamp(1, count)
}

/// An immutable, mergeable copy of a [`Histogram`]'s state.
///
/// Buckets are sparse `(index, count)` pairs in ascending index order.
/// Because boundaries are global constants, snapshots merge and subtract
/// bucket-wise with no renormalization.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Non-empty buckets as `(bucket index, count)`, ascending by index.
    pub buckets: Vec<(u16, u64)>,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl HistSnapshot {
    /// The merged distribution of `self` and `other`.
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        let mut buckets = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia < ib {
                        buckets.push((ia, na));
                        a.next();
                    } else if ib < ia {
                        buckets.push((ib, nb));
                        b.next();
                    } else {
                        buckets.push((ia, na + nb));
                        a.next();
                        b.next();
                    }
                }
                (Some(_), None) => {
                    buckets.extend(a.by_ref().copied());
                }
                (None, Some(_)) => {
                    buckets.extend(b.by_ref().copied());
                }
                (None, None) => break,
            }
        }
        HistSnapshot {
            buckets,
            sum: self.sum.saturating_add(other.sum),
            count: self.count + other.count,
        }
    }

    /// The distribution recorded *after* `earlier` was taken: bucket-wise
    /// saturating subtraction. `later.delta(&earlier)` isolates one run.
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut prior: std::collections::BTreeMap<u16, u64> =
            earlier.buckets.iter().copied().collect();
        let buckets: Vec<(u16, u64)> = self
            .buckets
            .iter()
            .filter_map(|&(i, n)| {
                let d = n.saturating_sub(prior.remove(&i).unwrap_or(0));
                (d > 0).then_some((i, d))
            })
            .collect();
        HistSnapshot {
            buckets,
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
        }
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket holding the rank, or 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = quantile_rank(q, self.count);
        let mut cum = 0u64;
        for &(i, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                return bucket_bounds(i as usize).1;
            }
        }
        // Unreachable when counts are consistent; defensive for deltas.
        self.buckets
            .last()
            .map_or(0, |&(i, _)| bucket_bounds(i as usize).1)
    }

    /// Mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_contiguous_and_monotone_at_boundaries() {
        // Every octave boundary continues the previous bucket run.
        let mut last = bucket_index(0);
        assert_eq!(last, 0);
        for v in 1..4096u64 {
            let i = bucket_index(v);
            assert!(i == last || i == last + 1, "gap at v={v}: {last} -> {i}");
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bounds_partition_the_value_space() {
        let mut next = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, next, "bucket {i} lower bound");
            assert!(hi >= lo);
            if i + 1 < NUM_BUCKETS {
                next = hi + 1;
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 1_000, 123_456, 5_000_000_000] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!((lo..=hi).contains(&v));
            assert!(
                (hi - lo) as f64 <= v as f64 / 16.0 + 1.0,
                "bucket too wide at {v}"
            );
        }
    }

    #[test]
    fn quantiles_nearest_rank() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 of 1..=100 is 50; the bucket holding 50 is [48, 51].
        let p50 = s.quantile(0.5);
        assert!((48..=55).contains(&p50), "p50={p50}");
        assert_eq!(s.quantile(1.0), bucket_bounds(bucket_index(100)).1);
        assert_eq!(h.live_quantile(0.5), p50);
    }

    #[test]
    fn merge_and_delta_are_inverse_on_disjoint_runs() {
        let h = Histogram::new();
        h.record_n(10, 3);
        let first = h.snapshot();
        h.record_n(99, 2);
        h.record(10);
        let second = h.snapshot();
        let delta = second.delta(&first);
        assert_eq!(delta.count, 3);
        assert_eq!(first.merge(&delta), second);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.live_quantile(0.5), 0);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
