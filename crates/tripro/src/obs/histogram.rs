//! Log-linear (HDR-style) latency histograms.
//!
//! A [`Histogram`] buckets non-negative integer samples (nanoseconds by
//! convention) into *octaves* of 16 linear sub-buckets each: values below
//! 16 get one bucket per value, and every power-of-two range above that is
//! split 16 ways, bounding the relative quantile error at 1/16 ≈ 6.25%.
//! All state is atomic, so recording is wait-free and concurrent readers
//! see a merely-consistent (never torn per-bucket) view — exactly the
//! guarantee a metrics scrape needs.
//!
//! Unlike sampled quantile sketches, bucket counts **merge exactly**: the
//! sum of two histograms' buckets is the histogram of the combined stream,
//! so per-shard or per-thread instances can be aggregated without losing
//! tail fidelity ([`Histogram::merge_from`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the number of linear sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave (16).
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: one linear region of `SUB` values plus
/// `(64 - SUB_BITS)` octaves of `SUB` sub-buckets — covers all of `u64`.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// Index of the bucket holding `v`. Total order preserving: for
/// `a <= b`, `bucket_of(a) <= bucket_of(b)`.
#[inline]
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let octave = (msb - SUB_BITS + 1) as usize;
    (octave << SUB_BITS) + ((v >> shift) as usize - SUB)
}

/// Inclusive upper bound of bucket `i` (the largest value it can hold).
#[must_use]
pub fn bucket_upper(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let octave = (i >> SUB_BITS) as u32;
    let sub = (i & (SUB - 1)) as u64;
    let upper = ((sub + SUB as u64 + 1) as u128) << (octave - 1);
    (upper - 1).min(u64::MAX as u128) as u64
}

/// A fixed-shape log-linear histogram with atomic buckets.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample (wait-free; relaxed atomics — per-sample ordering
    /// does not matter for aggregate statistics).
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(b) = self.buckets.get(bucket_of(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] as nanoseconds (saturating at
    /// `u64::MAX` ≈ 584 years).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, or 0 if empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Largest recorded sample, or 0 if empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Fold another histogram into this one. Bucket-count addition is an
    /// *exact* merge: quantiles of the result equal quantiles of the
    /// concatenated sample streams (up to the shared bucket resolution).
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Capture the full bucket state as plain data. The image is exact:
    /// feeding it back through [`Histogram::merge_snapshot`] is equivalent
    /// to [`Histogram::merge_from`] on the original histogram, which is
    /// what lets a coordinator merge shard histograms **losslessly** across
    /// a process boundary (the buckets travel, not a coarsened ladder).
    /// Buckets are sparse `(index, count)` pairs in ascending index order.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n != 0).then_some((i as u32, n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Fold a snapshot into this histogram — the cross-process form of
    /// [`Histogram::merge_from`], with the same exactness guarantee.
    /// Out-of-range bucket indices (a newer peer with a different shape)
    /// are ignored rather than trusted.
    pub fn merge_snapshot(&self, s: &HistogramSnapshot) {
        for &(i, n) in &s.buckets {
            if let Some(b) = self.buckets.get(i as usize) {
                if n != 0 {
                    b.fetch_add(n, Ordering::Relaxed);
                }
            }
        }
        self.count.fetch_add(s.count, Ordering::Relaxed);
        self.sum.fetch_add(s.sum, Ordering::Relaxed);
        self.min.fetch_min(s.min, Ordering::Relaxed);
        self.max.fetch_max(s.max, Ordering::Relaxed);
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the sample of rank `ceil(q * count)`, clamped to the
    /// recorded max. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil without float equality: rank in [1, total].
        let mut rank = (q * total as f64).ceil() as u64;
        rank = rank.clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b.load(Ordering::Relaxed));
            if seen >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Number of samples `<= bound` (resolved at bucket granularity: a
    /// bucket counts iff its whole range fits under `bound`, so the result
    /// is a lower bound within one sub-bucket of the true count). Used for
    /// Prometheus cumulative `le` buckets.
    #[must_use]
    pub fn count_le(&self, bound: u64) -> u64 {
        let mut acc = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            if bucket_upper(i) > bound {
                break;
            }
            acc = acc.saturating_add(b.load(Ordering::Relaxed));
        }
        acc
    }
}

/// Plain-data image of a [`Histogram`] (see [`Histogram::snapshot`]).
/// `min` carries the raw internal sentinel (`u64::MAX` when empty) so
/// round-tripping through a snapshot never corrupts min tracking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Sparse `(bucket_index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }
}

impl HistogramSnapshot {
    /// Materialise the snapshot as a standalone histogram.
    #[must_use]
    pub fn to_histogram(&self) -> Histogram {
        let h = Histogram::new();
        h.merge_snapshot(self);
        h
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("min", &self.min())
            .field("max", &self.max())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Exhaustive over the low range, spot-checked above.
        let mut prev = bucket_of(0);
        for v in 1u64..100_000 {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of not monotone at {v}");
            assert!(b - prev <= 1, "bucket_of skipped an index at {v}");
            prev = b;
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(15), 15);
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(31), 31);
        assert_eq!(bucket_of(32), 32);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_inverts_bucket_of() {
        for i in 0..BUCKETS {
            let hi = bucket_upper(i);
            assert_eq!(bucket_of(hi), i, "upper bound of bucket {i} maps back");
            if hi < u64::MAX {
                assert_eq!(bucket_of(hi + 1), i + 1, "bucket {i} boundary");
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let h = Histogram::new();
        for v in [1u64, 100, 10_000, 1_000_000, 123_456_789] {
            let b = bucket_upper(bucket_of(v));
            let err = (b - v) as f64 / v as f64;
            assert!(err <= 1.0 / 16.0 + 1e-9, "relative error {err} at {v}");
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 123_456_789);
    }

    #[test]
    fn quantiles_of_uniform_stream() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms in µs steps
        }
        let p50 = h.p50();
        let p99 = h.p99();
        assert!(
            (470_000..=531_250).contains(&p50),
            "p50 {p50} out of tolerance"
        );
        assert!(
            (985_000..=1_047_000).contains(&p99),
            "p99 {p99} out of tolerance"
        );
        assert_eq!(h.quantile(0.0), h.quantile(0.001));
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.count_le(u64::MAX), 0);
    }

    #[test]
    fn merge_is_exact_on_buckets() {
        let a = Histogram::new();
        let b = Histogram::new();
        let c = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 7 + 3);
            c.record(v * 7 + 3);
        }
        for v in 0..500u64 {
            b.record(v * 13 + 1);
            c.record(v * 13 + 1);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.sum(), c.sum());
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile(q), c.quantile(q), "merged quantile {q}");
        }
    }

    #[test]
    fn snapshot_roundtrip_is_an_exact_merge() {
        let a = Histogram::new();
        for v in [3u64, 70, 70, 12_345, 9_999_999] {
            a.record(v);
        }
        let snap = a.snapshot();
        // Sparse, sorted, and exact on totals.
        assert!(snap.buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 5);
        let b = snap.to_histogram();
        assert_eq!(b.count(), a.count());
        assert_eq!(b.sum(), a.sum());
        assert_eq!(b.min(), a.min());
        assert_eq!(b.max(), a.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(b.quantile(q), a.quantile(q));
        }
        // merge_snapshot == merge_from across a "process boundary".
        let via_snapshot = Histogram::new();
        via_snapshot.merge_snapshot(&snap);
        let via_merge = Histogram::new();
        via_merge.merge_from(&a);
        assert_eq!(via_snapshot.count(), via_merge.count());
        assert_eq!(via_snapshot.count_le(100), via_merge.count_le(100));
        // Empty snapshot keeps the min sentinel intact.
        let empty = Histogram::new().snapshot();
        assert_eq!(empty, HistogramSnapshot::default());
        let c = empty.to_histogram();
        c.record(9);
        assert_eq!(c.min(), 9, "sentinel min survives the roundtrip");
        // Foreign out-of-range indices are ignored, not trusted.
        let hostile = HistogramSnapshot {
            count: 1,
            sum: 1,
            min: 1,
            max: 1,
            buckets: vec![(u32::MAX, 7)],
        };
        let d = hostile.to_histogram();
        assert_eq!(d.count_le(u64::MAX), 0);
    }

    #[test]
    fn count_le_matches_cumulative_walk() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 1000, 2000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count_le(0), 0);
        assert_eq!(h.count_le(10), 1);
        assert_eq!(h.count_le(35), 3);
        assert_eq!(h.count_le(u64::MAX), 6);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i + t * 13);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }
}
