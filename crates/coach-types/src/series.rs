//! Utilization time series sampled at 5-minute ticks, with the percentile
//! and per-window aggregation helpers used across the system.
//!
//! A [`UtilSeries`] stores *fractions of the allocated resource* in `[0, 1]`
//! (the paper reports max utilization per 5-minute interval; §2 methodology).
//! [`ResourceSeries`] bundles one series per [`ResourceKind`].

use crate::resource::{ResourceKind, ResourceVec};
use crate::time::{TimeWindows, Timestamp, TICKS_PER_DAY};

/// A percentile in `[0, 100]`, e.g. `Percentile::P95`.
///
/// # Example
///
/// ```
/// use coach_types::Percentile;
/// let p = Percentile::new(95.0);
/// assert_eq!(p.value(), 95.0);
/// assert_eq!(p, Percentile::P95);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Percentile(f64);

impl Percentile {
    /// The 50th percentile (median) — AggrCoach's operating point.
    pub const P50: Percentile = Percentile(50.0);
    /// The 80th percentile.
    pub const P80: Percentile = Percentile(80.0);
    /// The 95th percentile — Coach's default operating point (§3.3).
    pub const P95: Percentile = Percentile(95.0);
    /// The maximum (100th percentile).
    pub const MAX: Percentile = Percentile(100.0);

    /// Construct a percentile.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside `[0, 100]` or not finite.
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite() && (0.0..=100.0).contains(&value));
        Percentile(value)
    }

    /// The percentile value in `[0, 100]`.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// As a fraction in `[0, 1]`.
    pub const fn fraction(self) -> f64 {
        self.0 / 100.0
    }
}

impl std::fmt::Display for Percentile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Compute the `p`th percentile of a slice by linear interpolation
/// (the "linear" / type-7 estimator). Returns 0.0 for an empty slice.
///
/// ```
/// use coach_types::{series::percentile_of, Percentile};
/// let v = [0.0f32, 1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile_of(&v, Percentile::new(50.0)), 2.0);
/// assert_eq!(percentile_of(&v, Percentile::MAX), 4.0);
/// ```
pub fn percentile_of(values: &[f32], p: Percentile) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f32> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    percentile_of_sorted(&sorted, p)
}

/// Where a percentile sits among `n` ascending-sorted values under the
/// linear (type-7) estimator: the two adjacent order statistics it
/// interpolates between and the weight of the upper one.
///
/// This is the single definition of that rank. [`percentile_of_sorted`]
/// reads it, and so does any producer that wants the percentile without
/// the sorted column — it only has to get the largest
/// [`PercentileRank::top_k`] values right (see
/// [`crate::stats::UtilizationSource::window_peaks`]).
///
/// ```
/// use coach_types::{series::PercentileRank, Percentile};
/// // P95 of 14 values interpolates between the 2nd and the 1st largest.
/// let r = PercentileRank::of(14, Percentile::P95);
/// assert_eq!((r.lo, r.hi, r.top_k(14)), (12, 13, 2));
/// assert_eq!(PercentileRank::of(14, Percentile::MAX).top_k(14), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentileRank {
    /// Ascending index of the lower order statistic.
    pub lo: usize,
    /// Ascending index of the upper one: `lo` or `lo + 1`.
    pub hi: usize,
    /// Weight of `sorted[hi]`; unused when `lo == hi`.
    pub weight: f32,
}

impl PercentileRank {
    /// The rank of percentile `p` among `n` values.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (an empty column has no order statistics).
    pub fn of(n: usize, p: Percentile) -> Self {
        assert!(n > 0, "percentile rank of an empty column");
        let rank = p.fraction() * (n - 1) as f64;
        let lo = rank.floor() as usize;
        PercentileRank {
            lo,
            hi: rank.ceil() as usize,
            weight: (rank - lo as f64) as f32,
        }
    }

    /// How many of the *largest* of the `n` values the percentile (and the
    /// maximum) can depend on: `sorted[lo]` is the `n − lo`-th largest.
    pub fn top_k(&self, n: usize) -> usize {
        n - self.lo
    }

    /// The percentile given the two order statistics `sorted[lo]` and
    /// `sorted[hi]`.
    pub fn interpolate(&self, at_lo: f32, at_hi: f32) -> f32 {
        if self.lo == self.hi {
            at_lo
        } else {
            at_lo * (1.0 - self.weight) + at_hi * self.weight
        }
    }
}

/// Percentile of an already-sorted slice (ascending). See [`percentile_of`].
pub fn percentile_of_sorted(sorted: &[f32], p: Percentile) -> f32 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = PercentileRank::of(sorted.len(), p);
    rank.interpolate(sorted[rank.lo], sorted[rank.hi])
}

/// A utilization time series: one `f32` fraction per 5-minute tick, starting
/// at `start`.
///
/// # Example
///
/// ```
/// use coach_types::{Timestamp, UtilSeries, Percentile};
/// let s = UtilSeries::from_samples(Timestamp::ZERO, vec![0.1, 0.5, 0.3]);
/// assert_eq!(s.max(), 0.5);
/// assert!(s.mean() > 0.29 && s.mean() < 0.31);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UtilSeries {
    start: Timestamp,
    samples: Vec<f32>,
}

impl UtilSeries {
    /// Build from raw samples. Values are clamped to `[0, 1]`.
    pub fn from_samples(start: Timestamp, samples: Vec<f32>) -> Self {
        let samples = samples
            .into_iter()
            .map(|v| {
                if v.is_finite() {
                    v.clamp(0.0, 1.0)
                } else {
                    0.0
                }
            })
            .collect();
        UtilSeries { start, samples }
    }

    /// An empty series starting at `start`.
    pub fn empty(start: Timestamp) -> Self {
        UtilSeries {
            start,
            samples: Vec::new(),
        }
    }

    /// First sample's timestamp.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// Timestamp one past the last sample.
    pub fn end(&self) -> Timestamp {
        Timestamp::from_ticks(self.start.ticks() + self.samples.len() as u64)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// Append one sample (clamped to `[0, 1]`).
    pub fn push(&mut self, value: f32) {
        let v = if value.is_finite() {
            value.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.samples.push(v);
    }

    /// Sample at an absolute timestamp, or `None` if out of range.
    pub fn at(&self, t: Timestamp) -> Option<f32> {
        if t < self.start {
            return None;
        }
        self.samples
            .get((t.ticks() - self.start.ticks()) as usize)
            .copied()
    }

    /// Maximum over the whole series (0.0 if empty) — the "lifetime max"
    /// allocation a pattern-oblivious oversubscription scheme would use.
    pub fn max(&self) -> f32 {
        self.samples.iter().copied().fold(0.0, f32::max)
    }

    /// Minimum over the whole series (0.0 if empty).
    pub fn min(&self) -> f32 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(1.0, f32::min)
        }
    }

    /// Arithmetic mean (0.0 if empty).
    pub fn mean(&self) -> f32 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f32>() / self.samples.len() as f32
        }
    }

    /// Percentile over the whole series.
    pub fn percentile(&self, p: Percentile) -> f32 {
        percentile_of(&self.samples, p)
    }

    /// The P95 − P5 utilization *range* (§2.3's variability metric).
    pub fn range_p95_p5(&self) -> f32 {
        self.percentile(Percentile::new(95.0)) - self.percentile(Percentile::new(5.0))
    }

    /// Per-window statistics (per-day maxima, lifetime maxima, percentiles
    /// of per-day maxima) computed in one pass over the samples into a flat
    /// buffer — the reference implementation lazy
    /// [`crate::stats::UtilizationSource`] producers are validated against.
    pub fn window_stats(&self, tw: TimeWindows) -> crate::stats::WindowStats {
        crate::stats::WindowStats::from_series(self, tw)
    }

    /// Percentile of the samples falling in window `w` (across all days).
    pub fn window_percentile(&self, tw: TimeWindows, w: usize, p: Percentile) -> f32 {
        let mut vals = Vec::new();
        for (i, &v) in self.samples.iter().enumerate() {
            let t = Timestamp::from_ticks(self.start.ticks() + i as u64);
            if tw.window_of(t) == w {
                vals.push(v);
            }
        }
        percentile_of(&vals, p)
    }

    /// Iterate per-day chunks of the series (aligned to day boundaries) as
    /// `(day start, samples)` pairs. Borrows the sample buffer — no clones.
    pub fn days(&self) -> impl Iterator<Item = (Timestamp, &[f32])> + '_ {
        let mut idx = 0usize;
        let mut t = self.start;
        std::iter::from_fn(move || {
            if idx >= self.samples.len() {
                return None;
            }
            let day_end = (t.day() + 1) * TICKS_PER_DAY;
            let take = ((day_end - t.ticks()) as usize).min(self.samples.len() - idx);
            let chunk = (t, &self.samples[idx..idx + take]);
            idx += take;
            t = Timestamp::from_ticks(day_end);
            Some(chunk)
        })
    }
}

/// One [`UtilSeries`] per resource kind, sharing a common start.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSeries {
    per_resource: [UtilSeries; ResourceKind::COUNT],
}

impl ResourceSeries {
    /// Build from four per-resource series (canonical order).
    ///
    /// # Panics
    ///
    /// Panics if the series do not share start and length.
    pub fn new(series: [UtilSeries; ResourceKind::COUNT]) -> Self {
        let start = series[0].start();
        let len = series[0].len();
        assert!(
            series.iter().all(|s| s.start() == start && s.len() == len),
            "resource series must be aligned"
        );
        ResourceSeries {
            per_resource: series,
        }
    }

    /// An empty bundle starting at `start`.
    pub fn empty(start: Timestamp) -> Self {
        ResourceSeries {
            per_resource: [
                UtilSeries::empty(start),
                UtilSeries::empty(start),
                UtilSeries::empty(start),
                UtilSeries::empty(start),
            ],
        }
    }

    /// The series for one resource.
    pub fn get(&self, kind: ResourceKind) -> &UtilSeries {
        &self.per_resource[kind.index()]
    }

    /// Push one utilization sample per resource (fractions in `[0, 1]`).
    pub fn push(&mut self, fractions: ResourceVec) {
        for kind in ResourceKind::ALL {
            self.per_resource[kind.index()].push(fractions[kind] as f32);
        }
    }

    /// Number of ticks recorded.
    pub fn len(&self) -> usize {
        self.per_resource[0].len()
    }

    /// True if no ticks recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Start timestamp.
    pub fn start(&self) -> Timestamp {
        self.per_resource[0].start()
    }

    /// End timestamp (one past last sample).
    pub fn end(&self) -> Timestamp {
        self.per_resource[0].end()
    }

    /// Utilization fractions of all resources at `t` (zeros if out of range).
    pub fn at(&self, t: Timestamp) -> ResourceVec {
        let mut v = ResourceVec::ZERO;
        for kind in ResourceKind::ALL {
            v[kind] = f64::from(self.get(kind).at(t).unwrap_or(0.0));
        }
        v
    }

    /// Lifetime maximum utilization per resource.
    pub fn max(&self) -> ResourceVec {
        let mut v = ResourceVec::ZERO;
        for kind in ResourceKind::ALL {
            v[kind] = f64::from(self.get(kind).max());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn percentile_interpolation() {
        let v = [10.0f32, 20.0, 30.0, 40.0];
        assert_eq!(percentile_of(&v, Percentile::new(0.0)), 10.0);
        assert_eq!(percentile_of(&v, Percentile::MAX), 40.0);
        assert_eq!(percentile_of(&v, Percentile::P50), 25.0);
        assert_eq!(percentile_of(&[], Percentile::P95), 0.0);
        assert_eq!(percentile_of(&[7.0], Percentile::P50), 7.0);
    }

    /// The rank helper against the closed form `percentile_of_sorted` had
    /// before it was rewritten to call the helper (kept here as the spec),
    /// and its top-k claim: replacing everything below the k-th largest
    /// value with that value leaves the percentile's bits alone.
    #[test]
    fn percentile_rank_reproduces_the_type7_estimator() {
        fn spec(sorted: &[f32], p: Percentile) -> f32 {
            let n = sorted.len();
            if n == 1 {
                return sorted[0];
            }
            let rank = p.fraction() * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                let w = (rank - lo as f64) as f32;
                sorted[lo] * (1.0 - w) + sorted[hi] * w
            }
        }
        for n in 1..=70usize {
            // Ascending, irregularly spaced, with a tie.
            let mut sorted: Vec<f32> = (0..n)
                .map(|i| (i * i % 17) as f32 / 40.0 + i as f32 / 97.0)
                .collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            if n > 3 {
                sorted[n - 2] = sorted[n - 3];
            }
            for p in [0.0, 50.0, 80.0, 95.0, 99.0, 100.0].map(Percentile::new) {
                let rank = PercentileRank::of(n, p);
                let want = spec(&sorted, p);
                assert_eq!(
                    rank.interpolate(sorted[rank.lo], sorted[rank.hi]).to_bits(),
                    want.to_bits(),
                    "n {n} {p}"
                );
                assert_eq!(percentile_of_sorted(&sorted, p).to_bits(), want.to_bits());

                let k = rank.top_k(n);
                assert!((1..=n).contains(&k) && rank.hi >= rank.lo && rank.hi < n);
                let mut floored = sorted.clone();
                let kth = sorted[n - k];
                for v in &mut floored[..n - k] {
                    *v = kth;
                }
                assert_eq!(
                    percentile_of_sorted(&floored, p).to_bits(),
                    want.to_bits(),
                    "n {n} {p}: below the top {k}"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn percentile_out_of_range_rejected() {
        let _ = Percentile::new(101.0);
    }

    #[test]
    fn series_clamps_and_aggregates() {
        let s = UtilSeries::from_samples(Timestamp::ZERO, vec![-0.5, 0.5, 1.5, f32::NAN]);
        assert_eq!(s.samples(), &[0.0, 0.5, 1.0, 0.0]);
        assert_eq!(s.max(), 1.0);
        assert_eq!(s.min(), 0.0);
    }

    #[test]
    fn at_respects_start_offset() {
        let start = Timestamp::from_hours(2);
        let s = UtilSeries::from_samples(start, vec![0.1, 0.2]);
        assert_eq!(s.at(Timestamp::ZERO), None);
        assert_eq!(s.at(start), Some(0.1));
        assert_eq!(s.at(start + SimDuration::from_ticks(1)), Some(0.2));
        assert_eq!(s.at(start + SimDuration::from_ticks(2)), None);
    }

    #[test]
    fn window_stats_shapes() {
        let tw = TimeWindows::new(3); // 8-hour windows
                                      // Two full days of samples: value = window index / 10 on day 0,
                                      // (window index + 1) / 10 on day 1.
        let mut samples = Vec::new();
        for day in 0..2 {
            for tick in 0..TICKS_PER_DAY {
                let w = (tick / tw.window_ticks()) as f32;
                samples.push((w + day as f32) / 10.0);
            }
        }
        let s = UtilSeries::from_samples(Timestamp::ZERO, samples);
        let ws = s.window_stats(tw);
        assert_eq!(ws.days(), 2);
        for (w, (d0, d1)) in [(0.0, 0.1), (0.1, 0.2), (0.2, 0.3)].into_iter().enumerate() {
            assert_eq!(ws.day_max(0, w), Some(d0));
            assert_eq!(ws.day_max(1, w), Some(d1));
        }
        assert_eq!(ws.lifetime_maxima(), &[0.1, 0.2, 0.3]);
    }

    #[test]
    fn window_stats_handle_partial_coverage() {
        let tw = TimeWindows::paper_default();
        // Only 1 hour of samples: windows 1.. are uncovered.
        let s = UtilSeries::from_samples(Timestamp::ZERO, vec![0.4; 12]);
        let ws = s.window_stats(tw);
        assert_eq!(ws.days(), 1);
        assert_eq!(ws.day_max(0, 0), Some(0.4));
        assert!((1..tw.count()).all(|w| ws.day_max(0, w).is_none()));
    }

    #[test]
    fn days_split_alignment() {
        // Start mid-day, run for 1.5 days.
        let start = Timestamp::from_hours(12);
        let n = (TICKS_PER_DAY + TICKS_PER_DAY / 2) as usize;
        let s = UtilSeries::from_samples(start, vec![0.3; n]);
        let days: Vec<_> = s.days().collect();
        assert_eq!(days.len(), 2);
        assert_eq!(days[0].1.len(), (TICKS_PER_DAY / 2) as usize);
        assert_eq!(days[1].1.len(), TICKS_PER_DAY as usize);
        assert_eq!(days[1].0.tick_of_day(), 0);
        assert!(UtilSeries::empty(start).days().next().is_none());
    }

    #[test]
    fn resource_series_roundtrip() {
        let mut rs = ResourceSeries::empty(Timestamp::ZERO);
        rs.push(ResourceVec::new(0.5, 0.25, 0.1, 0.0));
        rs.push(ResourceVec::new(0.7, 0.30, 0.1, 0.0));
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.get(ResourceKind::Cpu).max(), 0.7);
        let at0 = rs.at(Timestamp::ZERO);
        assert_eq!(at0[ResourceKind::Memory], 0.25);
        assert!((rs.max()[ResourceKind::Cpu] - 0.7).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_resource_series_rejected() {
        let a = UtilSeries::from_samples(Timestamp::ZERO, vec![0.1]);
        let b = UtilSeries::from_samples(Timestamp::ZERO, vec![0.1, 0.2]);
        let _ = ResourceSeries::new([a.clone(), b, a.clone(), a]);
    }

    proptest! {
        #[test]
        fn prop_percentile_monotone(mut v in prop::collection::vec(0.0f32..1.0, 1..200),
                                    p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = percentile_of_sorted(&v, Percentile::new(lo));
            let b = percentile_of_sorted(&v, Percentile::new(hi));
            prop_assert!(a <= b + 1e-6);
        }

        #[test]
        fn prop_percentile_bounded(v in prop::collection::vec(0.0f32..1.0, 1..200),
                                   p in 0.0f64..100.0) {
            let x = percentile_of(&v, Percentile::new(p));
            let min = v.iter().copied().fold(1.0f32, f32::min);
            let max = v.iter().copied().fold(0.0f32, f32::max);
            prop_assert!(x >= min - 1e-6 && x <= max + 1e-6);
        }

        #[test]
        fn prop_lifetime_window_max_dominates_percentile(
            v in prop::collection::vec(0.0f32..1.0, 288..576), w in 0usize..6) {
            let tw = TimeWindows::paper_default();
            let s = UtilSeries::from_samples(Timestamp::ZERO, v);
            let lt = s.window_stats(tw);
            let p = s.window_percentile(tw, w, Percentile::P95);
            prop_assert!(lt.lifetime_max(w) >= p - 1e-6);
        }

        #[test]
        fn prop_mean_between_min_max(v in prop::collection::vec(0.0f32..1.0, 1..100)) {
            let s = UtilSeries::from_samples(Timestamp::ZERO, v);
            prop_assert!(s.mean() >= s.min() - 1e-6);
            prop_assert!(s.mean() <= s.max() + 1e-6);
        }
    }
}
