//! Mergeable log2-bucket histograms.
//!
//! Two flavours share one bucket layout:
//!
//! * [`Histogram`] — a plain value type used for snapshots and merging
//!   (a cross-shard latency summary merges one per shard).
//! * [`AtomicHistogram`] — the live instrument handed out by the
//!   [`Registry`](crate::Registry): lock-free `fetch_add`s on the hot path,
//!   snapshot into a [`Histogram`] at export time.
//!
//! Buckets are powers of two: bucket `i` covers `[2^(i-1), 2^i)` nanoseconds
//! (bucket 0 is `0..1`), 64 buckets total, so any `u64` duration lands
//! somewhere and merging two histograms is a plain element-wise add.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets; covers the full `u64` range.
pub const BUCKETS: usize = 64;

/// Geometric midpoint factor used by the quantile estimator: a sample in
/// bucket `[lo, 2*lo)` is reported as `lo * sqrt(2)`.
const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Index of the log2 bucket for a duration in nanoseconds.
#[inline]
fn bucket_of(ns: u64) -> usize {
    ((64 - ns.leading_zeros()).min(63)) as usize
}

/// A fixed-size log2 histogram of durations in nanoseconds.
///
/// Plain value type: recording is a single array increment, merging is an
/// element-wise add (associative and commutative), and `parts` exposes the
/// raw state to the exporters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration in nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Approximate quantile in nanoseconds using the geometric midpoint of
    /// the bucket containing the `q`-th sample (0.0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lo = (1u64 << (i - 1)) as f64;
                return lo * SQRT_2; // geometric midpoint of [2^(i-1), 2^i)
            }
        }
        unreachable!("rank is bounded by count")
    }

    /// Approximate quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1_000.0
    }

    /// Fold another histogram into this one (element-wise add).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Raw state `(buckets, count, sum_ns)`.
    pub fn parts(&self) -> (&[u64; BUCKETS], u64, u64) {
        (&self.buckets, self.count, self.sum_ns)
    }
}

/// Lock-free histogram instrument: shared via `Arc`, recorded into from any
/// thread with relaxed atomics, snapshotted into a [`Histogram`] for export.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty instrument.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Record one duration in nanoseconds. Allocation-free and wait-free.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state into a plain [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        Histogram {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_buckets() {
        let mut h = Histogram::new();
        h.record_ns(0);
        h.record_ns(1);
        h.record_ns(1000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ns(), 1001);
    }

    #[test]
    fn quantiles_are_log_bucket_accurate() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record_ns(1_000); // bucket [512, 1024): ~724 ns midpoint
        }
        for _ in 0..10 {
            h.record_ns(100_000);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.50);
        assert!((512.0..2048.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 > 60_000.0, "p99 {p99}");
        assert_eq!(h.sum_ns(), 90 * 1_000 + 10 * 100_000);
    }

    #[test]
    fn empty_zero_and_top_bucket_edges() {
        let mut a = Histogram::new();
        assert_eq!(a.quantile_ns(0.5), 0.0);
        a.record_ns(0);
        assert_eq!(a.quantile_ns(0.5), 0.0);
        let mut b = Histogram::new();
        b.record_ns(u64::MAX); // lands in the top bucket, no overflow
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile_ns(1.0) > 0.0);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new();
        for i in 0..1000u64 {
            h.record_ns(i * 100);
        }
        let p50 = h.quantile_ns(0.5);
        let p99 = h.quantile_ns(0.99);
        assert!(p50 <= p99);
        assert!(p50 > 0.0);
    }

    #[test]
    fn merge_adds() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_ns(10);
        b.record_ns(10_000);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 2);
        assert_eq!(m.sum_ns(), 10_010);
    }

    #[test]
    fn atomic_snapshot_matches_plain() {
        let atomic = AtomicHistogram::new();
        let mut plain = Histogram::new();
        for ns in [0u64, 1, 7, 1024, 1 << 60] {
            atomic.record_ns(ns);
            plain.record_ns(ns);
        }
        assert_eq!(atomic.snapshot(), plain);
    }
}
