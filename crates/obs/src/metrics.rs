//! Atomic instruments: [`Counter`], [`Gauge`], and the log2 [`Histogram`].
//!
//! The histogram generalizes what used to be a private detail of
//! `epfis-server::metrics::CommandStats`: values land in power-of-two
//! buckets (bucket `i` holds values of bit length `i`, i.e.
//! `[2^(i-1), 2^i)`, with zero in bucket 0), so recording is a handful of
//! relaxed atomic increments and quantiles are read back as bucket upper
//! bounds — the HdrHistogram-style trade-off production servers make, not
//! per-request sample retention.
//!
//! All instruments are `Sync` and lock-free; they are shared via `Arc`
//! from the [`Registry`](crate::registry::Registry) that renders them.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of log2 histogram buckets: covers up to ~2^27 ≈ 1.3×10^8
/// (134 s when recording microseconds).
pub const BUCKETS: usize = 28;

/// A monotonically non-decreasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (set/add/sub).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-shape log2 histogram of `u64` samples with count/sum/max.
#[derive(Debug, Default)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index a value lands in: its bit length, clamped to the
    /// last bucket (zero lands in bucket 0).
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// The *quantile* upper bound of bucket `i`: `2^i` (1 for bucket 0),
    /// i.e. the exclusive upper edge of the value range the bucket holds.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            1
        } else {
            1u64 << i
        }
    }

    /// The *Prometheus* `le` bound of bucket `i`: the largest value the
    /// bucket can hold, `2^i − 1`, making cumulative counts exact; `None`
    /// for the last bucket, which is unbounded (`+Inf`).
    pub fn bucket_le(i: usize) -> Option<u64> {
        if i + 1 >= BUCKETS {
            None
        } else {
            Some((1u64 << i) - 1)
        }
    }

    /// Records one sample: a few relaxed atomic RMWs, no locks.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Merges a locally pre-aggregated run of samples in one pass: three
    /// RMWs plus one per *touched* bucket, instead of four per sample —
    /// the hot-path escape hatch for callers that see many samples per
    /// wakeup (a pipelined request batch) and can sum them privately
    /// first. `buckets` pairs are `(index from [`Histogram::bucket_index`],
    /// samples)`; indices are clamped to the last bucket. No-op when
    /// `count` is 0.
    pub fn record_aggregated(&self, count: u64, sum: u64, max: u64, buckets: &[(usize, u64)]) {
        if count == 0 {
            return;
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
        for &(i, n) in buckets {
            if n > 0 {
                self.buckets[i.min(BUCKETS - 1)].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wraps only after 2^64).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample (integer division; 0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// A point-in-time copy of the raw (non-cumulative) bucket counts.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Approximate quantile (`q` clamped to `[0, 1]`): the upper bound of
    /// the histogram bucket containing rank `max(ceil(q·count), 1)`,
    /// clamped to the observed maximum. Returns 0 when empty.
    ///
    /// Edge semantics, pinned by tests: because the rank is floored at 1,
    /// `q = 0.0` returns the **smallest occupied bucket's upper bound**
    /// (the best available approximation of the minimum), and `q = 1.0`
    /// returns the observed maximum exactly (the last bucket's upper bound
    /// clamps to it).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_bound(i).min(self.max().max(1));
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_aggregated_matches_per_sample_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let samples = [0u64, 1, 1, 7, 900, 900, 900, u64::MAX];
        for &s in &samples {
            a.record(s);
        }
        // The same samples, pre-aggregated the way a batch-local
        // accumulator would: count/sum/max plus touched-bucket pairs.
        let mut touched: Vec<(usize, u64)> = Vec::new();
        for &s in &samples {
            let i = Histogram::bucket_index(s);
            match touched.iter_mut().find(|(j, _)| *j == i) {
                Some((_, n)) => *n += 1,
                None => touched.push((i, 1)),
            }
        }
        let sum = samples.iter().fold(0u64, |acc, &s| acc.wrapping_add(s));
        b.record_aggregated(samples.len() as u64, sum, u64::MAX, &touched);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.max(), b.max());
        assert_eq!(a.bucket_counts(), b.bucket_counts());
        // Empty batches are free and change nothing.
        b.record_aggregated(0, 123, 456, &[(0, 9)]);
        assert_eq!(a.bucket_counts(), b.bucket_counts());
        // Out-of-range indices clamp to the last bucket instead of
        // panicking (the caller's bucketing may outlive a BUCKETS change).
        b.record_aggregated(1, 0, 0, &[(BUCKETS + 5, 1)]);
        assert_eq!(
            b.bucket_counts()[BUCKETS - 1],
            a.bucket_counts()[BUCKETS - 1] + 1
        );
    }

    #[test]
    fn bucket_index_matches_bit_length() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn le_bounds_are_exact_bucket_maxima() {
        assert_eq!(Histogram::bucket_le(0), Some(0));
        assert_eq!(Histogram::bucket_le(1), Some(1));
        assert_eq!(Histogram::bucket_le(2), Some(3));
        assert_eq!(Histogram::bucket_le(3), Some(7));
        assert_eq!(Histogram::bucket_le(BUCKETS - 1), None);
        // Every value in bucket i is ≤ its le bound and > the previous one.
        for v in [0u64, 1, 2, 3, 4, 100, 1023, 1024] {
            let i = Histogram::bucket_index(v);
            if let Some(le) = Histogram::bucket_le(i) {
                assert!(v <= le, "{v} > le {le} of its bucket {i}");
            }
            if i > 0 {
                let prev = Histogram::bucket_le(i - 1).unwrap();
                assert!(v > prev, "{v} ≤ le {prev} of bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn count_sum_max_mean() {
        let h = Histogram::new();
        for v in [10, 20, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 343);
    }

    /// Pins the quantile contract on a known distribution:
    /// 90 samples of 10 µs (bucket 4, upper bound 16), 9 of 100 µs
    /// (bucket 7, upper bound 128), 1 of 1000 µs (bucket 10, upper 1024,
    /// clamped to the 1000 max).
    #[test]
    fn quantile_pinned_on_known_distribution() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..9 {
            h.record(100);
        }
        h.record(1000);
        assert_eq!(h.quantile(0.50), 16); // rank 50 → bucket of the 10s
        assert_eq!(h.quantile(0.90), 16); // rank 90 → still the 10s
        assert_eq!(h.quantile(0.99), 128); // rank 99 → bucket of the 100s
        assert_eq!(h.quantile(1.00), 1000); // p100 clamps to observed max
    }

    /// q = 0.0 ranks at 1, i.e. the smallest occupied bucket's upper bound.
    #[test]
    fn quantile_zero_returns_smallest_occupied_bucket() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.0), 0); // empty → 0
        h.record(100); // bucket 7, upper bound 128, clamped to max 100
        assert_eq!(h.quantile(0.0), 100);
        h.record(1000);
        assert_eq!(h.quantile(0.0), 128); // smallest occupied bucket: the 100
        h.record(0); // bucket 0, upper bound 1
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(3);
        g.add(2);
        g.sub(4);
        assert_eq!(g.get(), 1);
    }
}
