//! Windowed utilization statistics and the lazy demand-derivation contract.
//!
//! The demand pipeline (oracle derivation, model training, accuracy
//! experiments) never needs a VM's full 5-minute utilization series — it
//! needs the *per-window* structure: the maximum inside each time window of
//! each day, the lifetime per-window maximum, and a percentile of the
//! per-day maxima (Formulas 1–2). [`WindowStats`] captures exactly that, in
//! one flat buffer built in one pass, and [`UtilizationSource`] is the
//! interface through which consumers ask for it **without** forcing the
//! producer to materialize ~4k samples per resource first: an analytic
//! profile can derive the statistics directly from its closed form, while a
//! recorded series walks its samples once ([`WindowStats::from_series`], the
//! reference implementation).

use crate::bucket::bucket_up;
use crate::resource::{ResourceKind, ResourceVec};
use crate::series::{percentile_of, percentile_of_sorted, Percentile, ResourceSeries, UtilSeries};
use crate::time::{TimeWindows, Timestamp, TICKS_PER_DAY};
use crate::winvec::WindowVec;

/// Per-window utilization statistics of one resource over a `[start, end)`
/// span: the maximum utilization inside each `(day, window)` cell plus the
/// per-window lifetime maximum.
///
/// This is the *exact* product: every `day_max` is the true maximum of its
/// cell, which is what training targets and the `fig*` analytics read. A
/// consumer that only wants Formulas 1–2's two numbers per window asks for
/// [`WindowPeaks`] instead, which a producer may derive without resolving
/// every cell.
///
/// Built either from recorded samples ([`WindowStats::from_series`] /
/// [`WindowStats::from_samples`], the eager reference) or analytically by a
/// profile-backed [`UtilizationSource`] via [`WindowStats::from_parts`].
///
/// # Example
///
/// ```
/// use coach_types::{Percentile, TimeWindows, Timestamp, UtilSeries};
/// use coach_types::stats::WindowStats;
///
/// let s = UtilSeries::from_samples(Timestamp::ZERO, vec![0.2; 288]);
/// let ws = WindowStats::from_series(&s, TimeWindows::paper_default());
/// assert_eq!(ws.days(), 1);
/// assert_eq!(ws.day_max(0, 3), Some(0.2));
/// assert_eq!(ws.lifetime_max(3), 0.2);
/// assert_eq!(ws.maxima_percentile(3, Percentile::P95), 0.2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    tw: TimeWindows,
    first_day: u64,
    days: usize,
    /// Flat per-day window maxima, `[day * tw.count() + window]`;
    /// [`WindowStats::UNCOVERED`] marks cells no sample fell into.
    per_day_max: Vec<f32>,
    /// Maximum per window across all covered days (0.0 if never covered).
    lifetime_max: Vec<f32>,
}

impl WindowStats {
    /// Sentinel marking a `(day, window)` cell no sample ever covered.
    /// Utilization fractions live in `[0, 1]`, so any negative value is
    /// unambiguous.
    pub const UNCOVERED: f32 = -1.0;

    /// Statistics with no covered days.
    pub fn empty(tw: TimeWindows, first_day: u64) -> Self {
        WindowStats {
            tw,
            first_day,
            days: 0,
            per_day_max: Vec::new(),
            lifetime_max: vec![0.0; tw.count()],
        }
    }

    /// Build from raw 5-minute samples starting at `start` — the eager
    /// reference implementation every lazy producer is validated against.
    /// One pass, no intermediate allocation.
    pub fn from_samples(tw: TimeWindows, start: Timestamp, samples: &[f32]) -> Self {
        let wcount = tw.count();
        if samples.is_empty() {
            return WindowStats::empty(tw, start.day());
        }
        let first_day = start.day();
        let end_tick = start.ticks() + samples.len() as u64;
        let last_day = (end_tick - 1) / TICKS_PER_DAY;
        let days = (last_day - first_day + 1) as usize;
        let mut per_day_max = vec![Self::UNCOVERED; days * wcount];

        let wticks = tw.window_ticks();
        let mut tod = start.ticks() % TICKS_PER_DAY;
        let mut day = 0usize;
        let mut w = (tod / wticks) as usize;
        let mut to_boundary = wticks - (tod % wticks);
        for &v in samples {
            let slot = &mut per_day_max[day * wcount + w];
            if v > *slot {
                *slot = v;
            }
            tod += 1;
            to_boundary -= 1;
            if to_boundary == 0 {
                to_boundary = wticks;
                w += 1;
                if tod == TICKS_PER_DAY {
                    tod = 0;
                    w = 0;
                    day += 1;
                }
            }
        }
        WindowStats::from_parts(tw, first_day, days, per_day_max)
    }

    /// Build from one resource of a recorded series.
    pub fn from_series(s: &UtilSeries, tw: TimeWindows) -> Self {
        WindowStats::from_samples(tw, s.start(), s.samples())
    }

    /// Assemble from an externally computed flat per-day-maxima buffer
    /// (`[day * tw.count() + window]`, [`WindowStats::UNCOVERED`] for cells
    /// without samples). This is the constructor analytic
    /// [`UtilizationSource`] implementations use; the lifetime maxima are
    /// derived here so they can never disagree with the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `per_day_max.len() != days * tw.count()`.
    pub fn from_parts(tw: TimeWindows, first_day: u64, days: usize, per_day_max: Vec<f32>) -> Self {
        let wcount = tw.count();
        assert_eq!(
            per_day_max.len(),
            days * wcount,
            "per-day maxima buffer must be days x windows"
        );
        let mut lifetime_max = vec![0.0f32; wcount];
        for day in per_day_max.chunks_exact(wcount.max(1)) {
            for (slot, &v) in lifetime_max.iter_mut().zip(day) {
                if v > *slot {
                    *slot = v;
                }
            }
        }
        WindowStats {
            tw,
            first_day,
            days,
            per_day_max,
            lifetime_max,
        }
    }

    /// The window partition the statistics are expressed over.
    pub fn tw(&self) -> TimeWindows {
        self.tw
    }

    /// Absolute day index of row 0.
    pub fn first_day(&self) -> u64 {
        self.first_day
    }

    /// Number of day rows (days spanned by the source range).
    pub fn days(&self) -> usize {
        self.days
    }

    /// Maximum utilization in window `w` of day row `day`, or `None` if no
    /// sample covered that cell (partial first/last days).
    pub fn day_max(&self, day: usize, w: usize) -> Option<f32> {
        let v = self.per_day_max[day * self.tw.count() + w];
        (v >= 0.0).then_some(v)
    }

    /// Like [`WindowStats::day_max`] but uncovered cells read as 0.0 — the
    /// convention the prediction stack uses for partial days.
    pub fn day_max_or_zero(&self, day: usize, w: usize) -> f32 {
        self.per_day_max[day * self.tw.count() + w].max(0.0)
    }

    /// Maximum utilization of window `w` across all covered days ("lifetime
    /// time window max", Fig 7); 0.0 if the window was never covered.
    pub fn lifetime_max(&self, w: usize) -> f32 {
        self.lifetime_max[w]
    }

    /// All per-window lifetime maxima.
    pub fn lifetime_maxima(&self) -> &[f32] {
        &self.lifetime_max
    }

    /// Maximum across every window and day — equals the source series' max.
    pub fn overall_max(&self) -> f32 {
        self.lifetime_max.iter().copied().fold(0.0, f32::max)
    }

    /// Percentile of window `w`'s per-day maxima (`PX_t` of Formula 1),
    /// with uncovered cells counting as 0.0. Allocation-free for spans up
    /// to 64 days (sorting a stack copy is bit-identical to
    /// [`percentile_of`] on the collected column).
    pub fn maxima_percentile(&self, w: usize, p: Percentile) -> f32 {
        if self.days == 0 {
            return 0.0;
        }
        if self.days <= 64 {
            let mut buf = [0.0f32; 64];
            let buf = &mut buf[..self.days];
            for (d, slot) in buf.iter_mut().enumerate() {
                *slot = self.day_max_or_zero(d, w);
            }
            buf.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            percentile_of_sorted(buf, p)
        } else {
            let vals: Vec<f32> = (0..self.days).map(|d| self.day_max_or_zero(d, w)).collect();
            percentile_of(&vals, p)
        }
    }
}

/// One [`WindowStats`] per resource kind, sharing the partition and day
/// range (the windowed analogue of [`ResourceSeries`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceWindowStats {
    per_resource: [WindowStats; ResourceKind::COUNT],
}

impl ResourceWindowStats {
    /// Bundle four per-resource statistics (canonical order).
    ///
    /// # Panics
    ///
    /// Panics if they disagree on partition, first day, or day count.
    pub fn new(per_resource: [WindowStats; ResourceKind::COUNT]) -> Self {
        let (tw, first, days) = (
            per_resource[0].tw(),
            per_resource[0].first_day(),
            per_resource[0].days(),
        );
        assert!(
            per_resource
                .iter()
                .all(|s| s.tw() == tw && s.first_day() == first && s.days() == days),
            "resource window stats must be aligned"
        );
        ResourceWindowStats { per_resource }
    }

    /// Eager reference: one pass per resource over a recorded series.
    pub fn from_series(rs: &ResourceSeries, tw: TimeWindows) -> Self {
        ResourceWindowStats::new(
            ResourceKind::ALL.map(|kind| WindowStats::from_series(rs.get(kind), tw)),
        )
    }

    /// The statistics of one resource.
    pub fn get(&self, kind: ResourceKind) -> &WindowStats {
        &self.per_resource[kind.index()]
    }

    /// The window partition.
    pub fn tw(&self) -> TimeWindows {
        self.per_resource[0].tw()
    }

    /// Number of day rows.
    pub fn days(&self) -> usize {
        self.per_resource[0].days()
    }

    /// Absolute day index of row 0.
    pub fn first_day(&self) -> u64 {
        self.per_resource[0].first_day()
    }

    /// Per-resource maxima of one `(day, window)` cell, uncovered cells as
    /// 0.0.
    pub fn day_window_max(&self, day: usize, w: usize) -> ResourceVec {
        let mut v = ResourceVec::ZERO;
        for kind in ResourceKind::ALL {
            v[kind] = f64::from(self.get(kind).day_max_or_zero(day, w));
        }
        v
    }

    /// Per-resource lifetime maximum of window `w` (`Pmax_t` of Formula 2).
    pub fn lifetime_window_max(&self, w: usize) -> ResourceVec {
        let mut v = ResourceVec::ZERO;
        for kind in ResourceKind::ALL {
            v[kind] = f64::from(self.get(kind).lifetime_max(w));
        }
        v
    }

    /// Per-resource percentile of window `w`'s per-day maxima (`PX_t` of
    /// Formula 1).
    pub fn maxima_percentile(&self, w: usize, p: Percentile) -> ResourceVec {
        let mut v = ResourceVec::ZERO;
        for kind in ResourceKind::ALL {
            v[kind] = f64::from(self.get(kind).maxima_percentile(w, p));
        }
        v
    }
}

/// What Formulas 1–2 read of a `[start, end)` span, per window and
/// resource: the lifetime window maximum (`Pmax_t`) and one percentile of
/// the per-day window maxima (`PX_t`) — and nothing else. Unlike
/// [`WindowStats`] it carries no per-day cells, so a producer is free to
/// leave most of them unresolved ([`UtilizationSource::window_peaks`]).
///
/// Both vectors hold one [`ResourceVec`] per window and stay inline (no
/// heap allocation) for every shipped partition.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPeaks {
    /// `Pmax_t`: per-resource maximum of window `t` across all days (0.0
    /// where never covered) — [`ResourceWindowStats::lifetime_window_max`].
    pub lifetime_max: WindowVec,
    /// `PX_t`: per-resource percentile of window `t`'s per-day maxima,
    /// uncovered cells counting as 0.0 —
    /// [`ResourceWindowStats::maxima_percentile`].
    pub percentile: WindowVec,
}

impl WindowPeaks {
    /// Read the peaks off exact statistics — the reference every cheaper
    /// derivation must equal.
    pub fn from_stats(stats: &ResourceWindowStats, p: Percentile) -> Self {
        let tw = stats.tw();
        WindowPeaks {
            lifetime_max: tw.indices().map(|w| stats.lifetime_window_max(w)).collect(),
            percentile: tw
                .indices()
                .map(|w| stats.maxima_percentile(w, p))
                .collect(),
        }
    }

    /// Every value rounded up to its 5 % bucket ([`bucket_up`]), as an
    /// oracle prediction keeps them.
    pub fn bucket_up(mut self) -> Self {
        for v in self
            .lifetime_max
            .iter_mut()
            .chain(self.percentile.iter_mut())
        {
            for kind in ResourceKind::ALL {
                v[kind] = bucket_up(v[kind]);
            }
        }
        self
    }

    /// The *decision form*: what Formulas 1–2 decide from the peaks and
    /// nothing more. Per resource, with `PA` the largest `PX_t` (Formula
    /// 1), every window's `PX_t` becomes `PA` and its `Pmax_t` becomes
    /// `max(Pmax_t, PA)`. The guarantee and each window's maximum above it
    /// (Formula 2) are unchanged; what is dropped is where, below `PA`, a
    /// window's own `PX_t` and `Pmax_t` lay. Idempotent.
    pub fn decision_form(mut self) -> Self {
        for kind in ResourceKind::ALL {
            self.decide(kind);
        }
        self
    }

    /// [`WindowPeaks::decision_form`] of one resource, in place.
    pub fn decide(&mut self, kind: ResourceKind) {
        let pa = self
            .percentile
            .iter()
            .fold(0.0, |pa: f64, v| pa.max(v[kind]));
        for (max, px) in self.lifetime_max.iter_mut().zip(self.percentile.iter_mut()) {
            max[kind] = max[kind].max(pa);
            px[kind] = pa;
        }
    }
}

/// Anything that can answer utilization queries for a VM: a recorded series
/// (eager) or a behavior profile (analytic, lazy).
///
/// The key method is [`UtilizationSource::window_stats`]: consumers that
/// only need windowed statistics — model training, accuracy experiments —
/// ask for them directly, and the producer is free to derive them far
/// cheaper than materializing every 5-minute sample. The oracle needs less
/// still: unbucketed, [`UtilizationSource::window_peaks`]; as the serving
/// oracle keeps it, rounded up to 5 % buckets and in decision form,
/// [`UtilizationSource::window_decision_buckets`]. Point queries stay
/// available for consumers that genuinely sample the timeline (the
/// violation sweep).
///
/// # Two stopping rules
///
/// A producer that derives the peaks from per-day cells may stop resolving
/// a window's cells early under either of two rules, and the answer does
/// not change by a bit:
///
/// * *top-k exact* ([`UtilizationSource::window_peaks`]): once no further
///   cell can enter the `k` largest day maxima the maximum and percentile
///   read;
/// * *decision-decided* ([`UtilizationSource::window_decision_buckets`]):
///   per resource, a window is not resolved at all once an upper bound on
///   its cells rounds up to a bucket at or below the `PA` that windows
///   already decided have fixed, and its peaks are written as that `PA`.
///   Sound because a window's `Pmax_t` is at or below that bound and its
///   `PX_t` at or below its `Pmax_t`, so it can neither raise `PA` nor lift
///   `max(Pmax_t, PA)` above `PA`; the order in which windows are visited
///   decides only which of them get resolved, never a value. A window that
///   is resolved stops once bounds on its order statistics round up to the
///   same bucket at both ends. Sound because (i) a lower bound is a
///   realized value and an upper bound a padded screen, cast to `f32` by
///   monotone rounding; (ii) a cell reported as `max(floor, true)` with
///   `floor` at most the final `k`-th largest leaves the top-`k` multiset
///   unchanged, so reports for resolved cells mixed with bounds for the
///   rest still sandwich each top-`k` order statistic; (iii)
///   [`crate::series::PercentileRank::interpolate`] is monotone (`f32` ops
///   with non-negative weights); (iv) [`crate::Bucket::round_up`] is
///   non-decreasing over non-NaN inputs.
pub trait UtilizationSource {
    /// Utilization fractions of all resources at `t` (zeros outside
    /// coverage).
    fn util_at(&self, t: Timestamp) -> ResourceVec;

    /// Windowed statistics for every resource over `[start, end)`, in one
    /// pass and without materializing the full series.
    fn window_stats(
        &self,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> ResourceWindowStats;

    /// Only what Formulas 1–2 read of [`UtilizationSource::window_stats`]:
    /// per window, the lifetime maximum and percentile `p` of the per-day
    /// maxima. Always equal to `WindowPeaks::from_stats(&self.window_stats(
    /// tw, start, end), p)` — which is what the default does, so recorded
    /// series need nothing more.
    ///
    /// A producer overrides it when it can get there cheaper. The percentile
    /// interpolates between two adjacent order statistics
    /// ([`crate::series::PercentileRank`]), so of a window's `n` day maxima
    /// only the `k = PercentileRank::top_k(n)` largest matter (2 at P95 over
    /// 14 days): any cell that provably cannot enter that top-`k` may be
    /// reported as the current `k`-th largest value instead of being
    /// resolved, and the result does not change by a bit.
    fn window_peaks(
        &self,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
        p: Percentile,
    ) -> WindowPeaks {
        WindowPeaks::from_stats(&self.window_stats(tw, start, end), p)
    }

    /// [`UtilizationSource::window_peaks`] with every value rounded up to
    /// its 5 % bucket, in decision form ([`WindowPeaks::decision_form`]) —
    /// always equal to `self.window_peaks(tw, start, end,
    /// p).bucket_up().decision_form()`, which is what the default does. A
    /// producer overrides it when the decision-decided rule lets it resolve
    /// less.
    fn window_decision_buckets(
        &self,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
        p: Percentile,
    ) -> WindowPeaks {
        self.window_peaks(tw, start, end, p)
            .bucket_up()
            .decision_form()
    }
}

impl UtilizationSource for ResourceSeries {
    fn util_at(&self, t: Timestamp) -> ResourceVec {
        self.at(t)
    }

    /// The eager reference: clip `[start, end)` to the recorded range and
    /// walk the samples once per resource.
    fn window_stats(
        &self,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> ResourceWindowStats {
        let lo = start.max(self.start());
        let hi = end.min(self.end());
        if lo >= hi {
            return ResourceWindowStats::new(
                ResourceKind::ALL.map(|_| WindowStats::empty(tw, lo.day())),
            );
        }
        let skip = (lo.ticks() - self.start().ticks()) as usize;
        let take = (hi.ticks() - lo.ticks()) as usize;
        ResourceWindowStats::new(ResourceKind::ALL.map(|kind| {
            let samples = &self.get(kind).samples()[skip..skip + take];
            WindowStats::from_samples(tw, lo, samples)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    /// The original eager algorithm (PR 2 era `window_max_per_day`), kept
    /// in-test as the specification `from_samples` must match.
    fn reference_window_max_per_day(s: &UtilSeries, tw: TimeWindows) -> Vec<Vec<Option<f32>>> {
        if s.is_empty() {
            return Vec::new();
        }
        let first_day = s.start().day();
        let last_day = Timestamp::from_ticks(s.end().ticks().saturating_sub(1)).day();
        let days = (last_day - first_day + 1) as usize;
        let mut out = vec![vec![None; tw.count()]; days];
        for (i, &v) in s.samples().iter().enumerate() {
            let t = Timestamp::from_ticks(s.start().ticks() + i as u64);
            let d = (t.day() - first_day) as usize;
            let w = tw.window_of(t);
            let slot = &mut out[d][w];
            *slot = Some(slot.map_or(v, |prev: f32| prev.max(v)));
        }
        out
    }

    #[test]
    fn empty_stats() {
        let tw = TimeWindows::paper_default();
        let ws = WindowStats::from_samples(tw, Timestamp::from_days(3), &[]);
        assert_eq!(ws.days(), 0);
        assert_eq!(ws.first_day(), 3);
        assert_eq!(ws.lifetime_max(0), 0.0);
        assert_eq!(ws.maxima_percentile(0, Percentile::P95), 0.0);
        assert_eq!(ws.overall_max(), 0.0);
    }

    #[test]
    fn partial_day_coverage() {
        let tw = TimeWindows::paper_default();
        // One hour of samples starting at 05:00: only window 1 (04-08h)
        // covered.
        let s = UtilSeries::from_samples(Timestamp::from_hours(5), vec![0.4; 12]);
        let ws = s.window_stats(tw);
        assert_eq!(ws.days(), 1);
        assert_eq!(ws.day_max(0, 1), Some(0.4));
        assert_eq!(ws.day_max(0, 0), None);
        assert_eq!(ws.day_max_or_zero(0, 0), 0.0);
        assert_eq!(ws.lifetime_max(1), 0.4);
        assert_eq!(ws.overall_max(), 0.4);
    }

    #[test]
    fn percentile_of_per_day_maxima() {
        let tw = TimeWindows::single();
        // Three full days with daily maxima 0.1, 0.2, 0.3.
        let mut samples = Vec::new();
        for d in 0..3 {
            samples.extend(std::iter::repeat_n(
                (d + 1) as f32 / 10.0,
                TICKS_PER_DAY as usize,
            ));
        }
        let ws = WindowStats::from_samples(tw, Timestamp::ZERO, &samples);
        assert_eq!(ws.days(), 3);
        assert_eq!(ws.lifetime_max(0), 0.3);
        assert_eq!(ws.maxima_percentile(0, Percentile::MAX), 0.3);
        assert_eq!(ws.maxima_percentile(0, Percentile::P50), 0.2);
    }

    #[test]
    fn from_parts_derives_lifetime() {
        let tw = TimeWindows::new(2);
        let buf = vec![0.5, WindowStats::UNCOVERED, 0.2, 0.7];
        let ws = WindowStats::from_parts(tw, 4, 2, buf);
        assert_eq!(ws.lifetime_max(0), 0.5);
        assert_eq!(ws.lifetime_max(1), 0.7);
        assert_eq!(ws.day_max(0, 1), None);
        assert_eq!(ws.day_max(1, 0), Some(0.2));
    }

    #[test]
    #[should_panic(expected = "days x windows")]
    fn from_parts_rejects_bad_shape() {
        let _ = WindowStats::from_parts(TimeWindows::new(2), 0, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_bundle_rejected() {
        let tw = TimeWindows::new(2);
        let a = WindowStats::empty(tw, 0);
        let b = WindowStats::from_parts(tw, 0, 1, vec![0.1, 0.2]);
        let _ = ResourceWindowStats::new([a.clone(), b, a.clone(), a]);
    }

    #[test]
    fn resource_series_source_clips_range() {
        let mut rs = ResourceSeries::empty(Timestamp::from_hours(1));
        for _ in 0..24 {
            rs.push(ResourceVec::new(0.5, 0.25, 0.1, 0.0));
        }
        let tw = TimeWindows::paper_default();
        // Query a superset of the coverage: clipped to the recorded range.
        let stats = rs.window_stats(tw, Timestamp::ZERO, Timestamp::from_days(2));
        assert_eq!(stats.days(), 1);
        assert_eq!(stats.get(ResourceKind::Cpu).day_max(0, 0), Some(0.5));
        let v = stats.day_window_max(0, 0);
        assert_eq!(v[ResourceKind::Memory], 0.25);
        // Disjoint query: empty.
        let empty = rs.window_stats(tw, Timestamp::from_days(5), Timestamp::from_days(6));
        assert_eq!(empty.days(), 0);
        // Point query passthrough.
        assert_eq!(
            UtilizationSource::util_at(&rs, Timestamp::from_hours(1))[ResourceKind::Cpu],
            0.5
        );
    }

    proptest! {
        #[test]
        fn prop_from_samples_matches_reference(
            v in prop::collection::vec(0.0f32..1.0, 1..900),
            start in 0u64..600,
            wpd_idx in 0usize..5,
        ) {
            let tw = TimeWindows::new([1u32, 2, 3, 6, 24][wpd_idx]);
            let s = UtilSeries::from_samples(Timestamp::from_ticks(start), v);
            let ws = WindowStats::from_series(&s, tw);
            let reference = reference_window_max_per_day(&s, tw);
            prop_assert_eq!(ws.days(), reference.len());
            for (d, day) in reference.iter().enumerate() {
                for (w, &expect) in day.iter().enumerate() {
                    prop_assert_eq!(ws.day_max(d, w), expect);
                }
            }
            // Lifetime maxima dominate every day and equal the fold.
            for w in tw.indices() {
                let expect = reference
                    .iter()
                    .filter_map(|day| day[w])
                    .fold(0.0f32, f32::max);
                prop_assert_eq!(ws.lifetime_max(w), expect);
            }
        }

        #[test]
        fn prop_percentile_below_lifetime_max(
            v in prop::collection::vec(0.0f32..1.0, 288..900),
            p in 0.0f64..100.0,
        ) {
            let tw = TimeWindows::paper_default();
            let ws = WindowStats::from_samples(tw, Timestamp::ZERO, &v);
            for w in tw.indices() {
                let px = ws.maxima_percentile(w, Percentile::new(p));
                prop_assert!(px <= ws.lifetime_max(w) + 1e-6);
            }
        }
    }

    #[test]
    fn overall_max_equals_series_max() {
        let s = UtilSeries::from_samples(
            Timestamp::from_hours(7),
            (0..500).map(|i| (i % 97) as f32 / 100.0).collect(),
        );
        let ws = s.window_stats(TimeWindows::paper_default());
        assert_eq!(ws.overall_max(), s.max());
        let _ = SimDuration::ZERO; // keep the import exercised
    }
}
