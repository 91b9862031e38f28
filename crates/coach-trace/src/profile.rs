//! Per-VM temporal behavior profiles.
//!
//! The paper's §2.3 characterization found that VM utilization is driven by
//! stable, subscription-specific temporal patterns: daily peaks/valleys in
//! consistent 4-hour windows, narrow memory ranges, wide CPU ranges, and
//! strong similarity between VMs of the same subscription × configuration
//! group (Fig 12). We encode that structure as a [`VmProfile`]: a compact set
//! of parameters from which the full 5-minute utilization series is
//! *deterministically* materialized on demand (storing 2 weeks × 4 resources
//! of samples for a million VMs would be ~1 TB; parameters are ~100 bytes).
//!
//! Profiles are sampled per *subscription behavior* (shared across a
//! subscription's VMs, with small per-VM jitter), which is exactly what makes
//! group-history features predictive (§3.3).

use coach_types::prelude::*;
use coach_types::series::PercentileRank;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;

/// High-level temporal pattern class (prior work's taxonomy cited in §2.3:
/// periodic, constant, or unpredictable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Clear diurnal cycle with a consistent peak window.
    Periodic,
    /// Flat utilization with only noise.
    Constant,
    /// Large, weakly-structured fluctuations.
    Unpredictable,
}

/// Per-resource pattern parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceProfile {
    /// Baseline utilization fraction.
    pub base: f64,
    /// Diurnal amplitude added on top of `base` at the peak.
    pub amplitude: f64,
    /// Hour of day (fractional) at which the diurnal bump peaks.
    pub peak_hour: f64,
    /// Width of the diurnal bump (hours of full-width half-maximum-ish).
    pub peak_width_hours: f64,
    /// Per-sample noise magnitude.
    pub noise: f64,
    /// Multiplier applied on weekends (most workloads quiet down).
    pub weekend_factor: f64,
    /// Magnitude of day-to-day drift of the peak amplitude.
    pub daily_drift: f64,
}

impl ResourceProfile {
    /// A completely idle resource.
    pub fn idle() -> Self {
        ResourceProfile {
            base: 0.0,
            amplitude: 0.0,
            peak_hour: 0.0,
            peak_width_hours: 4.0,
            noise: 0.0,
            weekend_factor: 1.0,
            daily_drift: 0.0,
        }
    }

    /// The deterministic "shape" component at hour-of-day `h` (no noise):
    /// a smooth bump centered on `peak_hour`, in `[0, 1]`.
    fn diurnal_shape(&self, hour: f64) -> f64 {
        // Circular distance in hours to the peak. `fmod 24` is the identity
        // for distances already below 24 (the common case: both operands
        // live in [0, 24)), so the slow fmod only runs off that fast path.
        let mut d = (hour - self.peak_hour).abs();
        if d >= 24.0 {
            d %= 24.0;
        }
        if d > 12.0 {
            d = 24.0 - d;
        }
        self.shape_at_distance(d)
    }

    /// The raised-cosine bump as a function of the circular distance `d`
    /// (hours) to the peak; beyond the width the shape is 0 (the valley).
    /// Monotone non-increasing in `d` — the analytic window scan leans on
    /// this to bound whole segments by their distance-minimal edge.
    fn shape_at_distance(&self, d: f64) -> f64 {
        let half = self.peak_width_hours.max(0.5);
        if d >= half {
            0.0
        } else {
            0.5 * (1.0 + (TAU / 2.0 * d / half).cos())
        }
    }
}

/// Envelope screening granularity: the day splits into `SEG_TICKS`-tick
/// segments screened by a cosine-free envelope bound at their
/// distance-minimal edge, so whole off-peak runs are pruned (or
/// integer-max-reduced when flat) without touching their cells.
const SEG_TICKS: u64 = 8;

/// Soundness pad for the cosine-free envelope screens. The screens bound a
/// cell's envelope by a polynomial majorant of the raised cosine at the
/// segment's distance-minimal edge; the bound's float evaluation, the
/// tick→hour conversions on both sides, and libm's ≤1-ulp `cos` can each
/// be off by at most ~1e-14 absolute (values live in [0, 2]). Adding 1e-12
/// on top makes the screen bound provably ≥ the evaluated envelope of
/// every screened cell, while loosening the screens by an amount that is
/// negligible against the ≥1e-2-scale noise terms they compare against.
const ENV_PAD: f64 = 1e-12;

/// The bump geometry of one [`ResourceProfile`]'s deterministic diurnal
/// envelope, computed at the top of each analytic scan: a handful of
/// arithmetic ops that let the scan split every window into exactly-flat
/// spans (one integer hash-max each) and bump spans (segment-screened cell
/// checks). Envelope *values* are deliberately not tabulated: the screens
/// are cosine-free (a padded polynomial majorant of the raised cosine) and
/// the few cells that survive them resolve through the scan's own
/// per-tick-of-day memo.
struct BumpGeometry {
    /// Exact off-bump level `base + amplitude · 0`.
    flat: f64,
    /// Bump center in (fractional) ticks-of-day.
    center: f64,
    /// Inclusive tick-of-day intervals covering the (conservatively
    /// widened) bump; every other cell sits at exactly `flat`. One circular
    /// interval folds into at most two linear runs over the day.
    bump_spans: [(u32, u32); 2],
    nspans: u8,
}

impl BumpGeometry {
    /// Outside the raised-cosine bump the shape is exactly 0, so those
    /// cells sit at the exact constant `base + amplitude · 0`; the
    /// (conservatively widened) bump range is derived by interval
    /// arithmetic, not by scanning the 288 cells.
    fn of(p: &ResourceProfile) -> Self {
        let flat = p.base + p.amplitude * 0.0;
        let half_ticks = p.peak_width_hours.max(0.5) * TICKS_PER_HOUR as f64;
        let center = p.peak_hour.rem_euclid(24.0) * TICKS_PER_HOUR as f64;
        let (bump_lo, bump_hi) = if 2.0 * half_ticks + 3.0 >= TICKS_PER_DAY as f64 {
            (0i64, TICKS_PER_DAY as i64 - 1)
        } else {
            // ±1 tick of margin swallows every rounding edge.
            (
                (center - half_ticks - 1.0).floor() as i64,
                (center + half_ticks + 1.0).ceil() as i64,
            )
        };

        // The bump cells form one circular interval, i.e. at most two
        // linear runs over the day.
        let last = TICKS_PER_DAY as u32 - 1;
        let (bump_spans, nspans) = if bump_hi - bump_lo + 1 >= TICKS_PER_DAY as i64 {
            ([(0u32, last), (0, 0)], 1u8)
        } else {
            let lo = bump_lo.rem_euclid(TICKS_PER_DAY as i64) as u32;
            let hi = bump_hi.rem_euclid(TICKS_PER_DAY as i64) as u32;
            if lo <= hi {
                ([(lo, hi), (0, 0)], 1)
            } else {
                ([(0, hi), (lo, last)], 2)
            }
        };

        BumpGeometry {
            flat,
            center,
            bump_spans,
            nspans,
        }
    }
}

/// One resource's utilization fraction at `t` — the arithmetic behind
/// [`VmProfile::util_at`] and [`UtilSampler`], in one place so the two
/// agree bit for bit.
fn resource_util_at(
    p: &ResourceProfile,
    kind: PatternKind,
    noise_seed: u64,
    resource: ResourceKind,
    t: Timestamp,
) -> f64 {
    let hour = t.tick_of_day() as f64 / TICKS_PER_HOUR as f64;
    let day = t.day();

    let mut level = p.base + p.amplitude * p.diurnal_shape(hour);
    if t.is_weekend() {
        level *= p.weekend_factor;
    }

    // Day-to-day drift: deterministic pseudo-random walk bounded by
    // daily_drift. Uses a hash of (seed, resource, day) so that the same
    // day always drifts identically.
    let drift_u = hash_unit(noise_seed, resource.index() as u64, day, 0);
    level += p.daily_drift * (2.0 * drift_u - 1.0);

    // Per-tick noise. Unpredictable VMs get slow random-walk-ish noise
    // (correlated across 1 hour) on top of white noise.
    let tick = t.ticks();
    let white = 2.0 * hash_unit(noise_seed, resource.index() as u64, tick, 1) - 1.0;
    level += p.noise * white;
    if kind == PatternKind::Unpredictable {
        let hour_block = tick / TICKS_PER_HOUR;
        let walk = 2.0 * hash_unit(noise_seed, resource.index() as u64, hour_block, 2) - 1.0;
        level += 3.0 * p.noise * walk;
    }

    level.clamp(0.0, 1.0)
}

/// An upper bound on [`resource_util_at`] over every `t`, with no hash and
/// no cosine: the same operation tree with each time-dependent factor at
/// its maximum — the shape at 1, the weekend factor at `max(wf, 1)` (a
/// weekday multiplies by nothing), each hashed `2u − 1` draw at `±1`
/// (whichever sign maximizes its product), then the same clamp.
///
/// No padding is needed: IEEE round-to-nearest addition and multiplication
/// are monotone in every operand, so replacing each operand by one at
/// least as large, in the same order of operations, rounds to a result at
/// least as large — the ceiling is `>=` `resource_util_at(t)` bit for bit.
/// That argument needs `amplitude`, `noise` and `weekend_factor`
/// non-negative (the products' signs); a profile that fails
/// `VmProfile::needs_eager_fallback`'s condition, or whose ceiling is not
/// a number, gets the trivial ceiling `1.0`.
fn resource_util_ceiling(p: &ResourceProfile, kind: PatternKind) -> f64 {
    if VmProfile::needs_eager_fallback(p) {
        return 1.0;
    }
    // `(base + amplitude)⁺`, spelled so that a NaN stays NaN.
    let peak = p.base + p.amplitude;
    let peak = if peak < 0.0 { 0.0 } else { peak };
    let mut level = peak * p.weekend_factor.max(1.0) + p.daily_drift.abs() + p.noise;
    if kind == PatternKind::Unpredictable {
        level += 3.0 * p.noise;
    }
    if level.is_nan() {
        1.0
    } else {
        level.min(1.0)
    }
}

/// What sampling a VM's CPU and memory utilization reads of its
/// [`VmProfile`], and nothing else: two [`ResourceProfile`]s, the pattern
/// class and the noise seed (128 bytes against the profile's 240). It
/// splits into a per-template [`SamplerShape`] (72 bytes) and a per-VM
/// [`SamplerVm`] (56 bytes): the serving path's violation accountant keeps
/// each distinct shape once and the per-VM half in every tracked VM's
/// entry, joins the two to sample, and reads [`UtilSampler::ceilings`]
/// before it hashes anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilSampler {
    pub(crate) cpu: ResourceProfile,
    pub(crate) memory: ResourceProfile,
    pub(crate) noise_seed: u64,
    pub(crate) kind: PatternKind,
}

/// The half of a [`UtilSampler`] that [`BehaviorTemplate::instantiate`]
/// leaves as the template drew it: the pattern class and, for CPU and
/// memory, `[peak_width_hours, noise, weekend_factor, daily_drift]`. VMs
/// of one template share it bit for bit. Shapes compare by
/// [`SamplerShape::bits`], not as floats.
#[derive(Debug, Clone, Copy)]
pub struct SamplerShape {
    kind: PatternKind,
    cpu: [f64; 4],
    memory: [f64; 4],
}

impl SamplerShape {
    /// Every field's bits: two shapes are one shape exactly when these
    /// are equal (a `-0.0` or a NaN payload is a shape of its own).
    pub fn bits(&self) -> [u64; 9] {
        let mut bits = [self.kind as u64; 9];
        for (bit, v) in bits[1..]
            .iter_mut()
            .zip(self.cpu.iter().chain(&self.memory))
        {
            *bit = v.to_bits();
        }
        bits
    }
}

/// The half of a [`UtilSampler`] that is the VM's own: for CPU and memory
/// `[base, amplitude, peak_hour]` (which `instantiate` jitters), and the
/// noise seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerVm {
    cpu: [f64; 3],
    memory: [f64; 3],
    noise_seed: u64,
}

impl ResourceProfile {
    /// `([peak_width_hours, noise, weekend_factor, daily_drift], [base,
    /// amplitude, peak_hour])`.
    fn split(&self) -> ([f64; 4], [f64; 3]) {
        (
            [
                self.peak_width_hours,
                self.noise,
                self.weekend_factor,
                self.daily_drift,
            ],
            [self.base, self.amplitude, self.peak_hour],
        )
    }

    /// The inverse of [`Self::split`].
    fn join(
        [peak_width_hours, noise, weekend_factor, daily_drift]: [f64; 4],
        [base, amplitude, peak_hour]: [f64; 3],
    ) -> Self {
        ResourceProfile {
            base,
            amplitude,
            peak_hour,
            peak_width_hours,
            noise,
            weekend_factor,
            daily_drift,
        }
    }
}

impl UtilSampler {
    /// The per-template and the per-VM halves; [`Self::join`] puts them
    /// back together bit for bit.
    pub fn split(&self) -> (SamplerShape, SamplerVm) {
        let (cpu_shape, cpu) = self.cpu.split();
        let (memory_shape, memory) = self.memory.split();
        (
            SamplerShape {
                kind: self.kind,
                cpu: cpu_shape,
                memory: memory_shape,
            },
            SamplerVm {
                cpu,
                memory,
                noise_seed: self.noise_seed,
            },
        )
    }

    /// The sampler `split` cut into `shape` and `vm`.
    pub fn join(shape: &SamplerShape, vm: &SamplerVm) -> Self {
        UtilSampler {
            cpu: ResourceProfile::join(shape.cpu, vm.cpu),
            memory: ResourceProfile::join(shape.memory, vm.memory),
            noise_seed: vm.noise_seed,
            kind: shape.kind,
        }
    }

    /// CPU utilization fraction at `t`: `VmProfile::util_at(Cpu, t)`.
    pub fn cpu_at(&self, t: Timestamp) -> f64 {
        resource_util_at(&self.cpu, self.kind, self.noise_seed, ResourceKind::Cpu, t)
    }

    /// Memory utilization fraction at `t`: `VmProfile::util_at(Memory, t)`.
    pub fn memory_at(&self, t: Timestamp) -> f64 {
        resource_util_at(
            &self.memory,
            self.kind,
            self.noise_seed,
            ResourceKind::Memory,
            t,
        )
    }

    /// `(cpu, memory)` upper bounds on [`Self::cpu_at`] and
    /// [`Self::memory_at`] over every `t`, in `[0, 1]` and computed with no
    /// hash and no cosine: a sum of `req · ceiling` terms bounds the sum of
    /// `req · util` terms taken in the same order, so a server whose
    /// ceiling sum cannot cross a threshold needs no sample evaluated.
    pub fn ceilings(&self) -> (f64, f64) {
        (
            resource_util_ceiling(&self.cpu, self.kind),
            resource_util_ceiling(&self.memory, self.kind),
        )
    }
}

/// The full temporal behavior of one VM: one [`ResourceProfile`] per
/// resource plus the pattern class and the RNG stream for noise.
///
/// Materialization is deterministic: the same profile always yields the same
/// series, which keeps every experiment reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct VmProfile {
    /// Pattern class (affects noise structure).
    pub kind: PatternKind,
    /// Per-resource parameters in canonical resource order.
    pub per_resource: [ResourceProfile; ResourceKind::COUNT],
    /// Seed for the noise stream (derived from VM id).
    pub noise_seed: u64,
}

impl VmProfile {
    /// Utilization fraction of `kind` at absolute time `t`, deterministic in
    /// `(profile, t)`.
    ///
    /// The construction mirrors §2.3's findings:
    /// * a raised-cosine diurnal bump at a subscription-specific peak window;
    /// * weekday/weekend modulation;
    /// * slowly-drifting daily amplitude (AR-style, bounded — Fig 9);
    /// * high-frequency noise whose magnitude depends on the pattern class.
    pub fn util_at(&self, resource: ResourceKind, t: Timestamp) -> f64 {
        let p = &self.per_resource[resource.index()];
        resource_util_at(p, self.kind, self.noise_seed, resource, t)
    }

    /// The CPU and memory halves of this profile as one small `Copy` value.
    pub fn sampler(&self) -> UtilSampler {
        UtilSampler {
            cpu: self.per_resource[ResourceKind::Cpu.index()],
            memory: self.per_resource[ResourceKind::Memory.index()],
            noise_seed: self.noise_seed,
            kind: self.kind,
        }
    }

    /// All four resources at `t`, as utilization fractions.
    pub fn util_vec_at(&self, t: Timestamp) -> ResourceVec {
        let mut v = ResourceVec::ZERO;
        for kind in ResourceKind::ALL {
            v[kind] = self.util_at(kind, t);
        }
        v
    }

    /// Materialize the series for the VM's lifetime `[start, end)`.
    ///
    /// This is the explicit *eager* path: it allocates `4 × lifetime_ticks`
    /// floats. Consumers that only need windowed statistics should call
    /// [`VmProfile::window_stats`] instead, which derives them analytically
    /// from the closed-form profile without building the series.
    pub fn materialize(&self, start: Timestamp, end: Timestamp) -> ResourceSeries {
        let mut rs = ResourceSeries::empty(start);
        let mut t = start;
        while t < end {
            rs.push(self.util_vec_at(t));
            t += SimDuration::from_ticks(1);
        }
        rs
    }

    /// Windowed statistics of one resource over `[start, end)`, derived
    /// analytically — **exactly** equal to
    /// `WindowStats::from_series(materialize(start, end).get(resource), tw)`
    /// (proven by `prop_analytic_window_stats_match_reference`) but far
    /// cheaper:
    ///
    /// * the deterministic diurnal envelope `base + amplitude · shape(hour)`
    ///   is periodic per day: off the bump it is one exact constant, and a
    ///   bump cell's cosine resolves at most once per scan (a per-scan
    ///   tick-of-day memo) instead of once per tick per day;
    /// * weekend factor and day drift are per-day constants, the
    ///   unpredictable-pattern walk a per-hour-block constant — hashed once
    ///   per day/block instead of per tick;
    /// * the per-tick noise hash is *skipped* whenever even maximal noise
    ///   (`level + noise`, an upper bound that floating-point monotonicity
    ///   makes safe) cannot beat the window's running maximum — for diurnal
    ///   VMs that prunes most off-peak ticks;
    /// * nothing is materialized: maxima accumulate into the flat
    ///   [`WindowStats`] buffer directly.
    ///
    /// This is the *exact* visiting policy over the scan's cell kernel
    /// (`CellScan::cell`): day-major, every covered cell resolved with no
    /// floor. [`VmProfile::window_peaks`] is the other one.
    pub fn window_stats_for(
        &self,
        resource: ResourceKind,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> WindowStats {
        if start >= end {
            return WindowStats::empty(tw, start.day());
        }
        let p = &self.per_resource[resource.index()];
        if Self::needs_eager_fallback(p) {
            return self.eager_window_stats(resource, tw, start, end);
        }
        let mut scan = CellScan::new(self, resource, tw);
        let wcount = tw.count();
        let wticks = scan.wticks;

        let (first_day, days) = day_rows(start, end);
        let mut per_day_max = vec![WindowStats::UNCOVERED; days * wcount];

        for day in first_day..first_day + days as u64 {
            let terms = scan.day_terms(day);
            let day_start = terms.day_start;
            let lo = start.ticks().max(day_start);
            let hi = end.ticks().min(day_start + TICKS_PER_DAY);
            let row = (day - first_day) as usize * wcount;

            let w_lo = ((lo - day_start) / wticks) as usize;
            let w_hi = ((hi - 1 - day_start) / wticks) as usize;
            for w in w_lo..=w_hi {
                let wstart = day_start + w as u64 * wticks;
                let t_lo = lo.max(wstart);
                let t_hi = hi.min(wstart + wticks);
                per_day_max[row + w] = scan.cell(terms, w, t_lo, t_hi, WindowStats::UNCOVERED);
            }
        }
        WindowStats::from_parts(tw, first_day, days, per_day_max)
    }

    /// Every pruning bound and the integer hash-max reduction in the
    /// analytic scan rely on `noise`, `amplitude`, and `weekend_factor`
    /// being non-negative (the monotonicity arguments flip sign otherwise).
    /// Generated profiles always satisfy that, but the fields are pub and
    /// unvalidated — degenerate hand-built parameters take a plain per-tick
    /// eager walk instead, keeping the exactness contract unconditional.
    /// (`!(x >= 0)` also catches NaN.)
    fn needs_eager_fallback(p: &ResourceProfile) -> bool {
        !(p.noise >= 0.0 && p.amplitude >= 0.0 && p.weekend_factor >= 0.0)
    }

    fn eager_window_stats(
        &self,
        resource: ResourceKind,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> WindowStats {
        let ticks = (end.ticks() - start.ticks()) as usize;
        let mut samples = Vec::with_capacity(ticks);
        let mut t = start;
        while t < end {
            samples.push(self.util_at(resource, t) as f32);
            t += SimDuration::from_ticks(1);
        }
        WindowStats::from_samples(tw, start, &samples)
    }

    /// Analytic windowed statistics for all four resources over
    /// `[start, end)` — the lazy replacement for
    /// `materialize(start, end)` + per-resource sample walks.
    pub fn window_stats(
        &self,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> ResourceWindowStats {
        ResourceWindowStats::new(
            ResourceKind::ALL.map(|kind| self.window_stats_for(kind, tw, start, end)),
        )
    }

    /// What Formulas 1–2 read of [`VmProfile::window_stats`] — per window
    /// the lifetime maximum and percentile `p` of the per-day maxima —
    /// bit-identical to `WindowPeaks::from_stats(&self.window_stats(tw,
    /// start, end), p)` and cheaper, because most `(day, window)` cells are
    /// never resolved.
    ///
    /// The percentile interpolates between two adjacent order statistics,
    /// so of a window's `n` day maxima only the `k` largest are read
    /// ([`PercentileRank::top_k`]: 2 at P95 over 14 days). This is the
    /// *order-statistic* visiting policy over the same cell kernel as
    /// [`VmProfile::window_stats_for`]: each window's days are walked in
    /// descending order of a cheap upper bound on their cell, and once `k`
    /// days are in, every further cell is *floored* at the `k`-th largest
    /// value reported so far — skipped outright when its upper bound cannot
    /// beat the floor, otherwise scanned with its running max seeded at the
    /// floor, so the kernel's own screens prune against a near-final
    /// maximum from the first tick. A floored cell reports `max(true,
    /// floor)`. That never changes the top-`k` multiset (a true value at or
    /// below the `k`-th largest was not in it; one above is reported
    /// exactly), so by induction over the visited days — in *any* order;
    /// the order only decides how much is pruned — the maximum and both
    /// interpolated order statistics are those of the exact column.
    ///
    /// That is the loop's *top-k exact* stopping rule: a window is done
    /// once no further cell can enter its top-`k`.
    /// [`VmProfile::window_decision_buckets`] runs the same loop under a
    /// second rule, *decision-decided*.
    ///
    /// Spans of more than 64 day-rows (the scratch lives on the stack),
    /// empty ranges and the degenerate parameters of the eager fallback
    /// derive from the exact statistics instead.
    pub fn window_peaks(
        &self,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
        p: Percentile,
    ) -> WindowPeaks {
        let mut out = zero_peaks(tw);
        for kind in ResourceKind::ALL {
            self.window_peaks_into(kind, tw, start, end, p, &mut out);
        }
        out
    }

    /// [`VmProfile::window_peaks`] rounded up to 5 % buckets and put in
    /// decision form ([`WindowPeaks::decision_form`]) — bit for bit
    /// `bucket_up` of each value, then the decision form — derived only as
    /// far as Formulas 1–2 read it. The same order-statistic loop runs under
    /// a second stopping rule, *decision-decided*: it leaves whole windows
    /// unresolved, and stops resolving the cells of any other window as
    /// soon as both of its [`Bucket`]s are fixed.
    ///
    /// Per resource, every window first gets a *cap*: the bucket of the
    /// largest upper end `hi_d` (below) of its covered days (the clamped
    /// `f32` of the pre-screen's `(bound_d + noise) + walk_max`; 0.0 when
    /// no day is covered), or of that end's interpolated percentile if `f32`
    /// rounding puts it one ulp higher. Windows are visited in descending
    /// order of their caps, ties to the lower index. A window whose cap is
    /// above the running `PA` — the largest percentile bucket among the
    /// windows decided so far, starting at 0 — is resolved as below; the
    /// first whose cap is not is *dismissed*, with every window after it.
    /// Every window is then written in decision form, a dismissed one as
    /// `PA` for both values.
    ///
    /// Sound because a dismissed window's maximum is at or below its cap's
    /// end and its percentile at or below that end's interpolation, so
    /// neither bucket exceeds `PA` ([`Bucket::round_up`] is monotone): the
    /// window cannot raise `PA`, and `max(Pmax_t, PA)` is `PA`. The visiting
    /// order decides only which windows are resolved, never a value.
    ///
    /// Per window and resource, each covered day's cell maximum lies in an
    /// interval `[lo_d, hi_d]`. `hi_d` is the `f32` of the pre-screen's
    /// bound `(bound_d + noise) + walk_max`, clamped. `lo_d` is the value
    /// of the cell's seed tick, the tick the kernel evaluates first. An
    /// uncovered day is exactly 0.0. Only days that can still reach the
    /// top-`k` of the lower ends pay for a seed; every other day counts as
    /// 0.0, which is sound because every value is clamped at 0. The maximum
    /// lies between the largest lower and the largest upper end, the
    /// percentile between `interpolate` of the two ends' top-`k`. When
    /// [`Bucket::round_up`] agrees at both ends of both, the window is
    /// written without resolving another cell. Otherwise cells resolve in
    /// the exact rule's order, under its floors; each resolved day collapses
    /// to its reported value, and the test repeats. The exact rule's
    /// pre-screen stays the last stopping point, so this rule never
    /// resolves a cell the exact one skips. It is sound because:
    ///
    /// 1. lower ends are realized tick values, and upper ends are the
    ///    kernel's own padded screens, cast by monotone rounding;
    /// 2. a floored report `max(floor, true)` has `floor` at most the final
    ///    `k`-th largest, so it leaves the top-`k` multiset unchanged (the
    ///    exact rule's argument), and reports for resolved days mixed with
    ///    intervals for the rest still sandwich each top-`k` order
    ///    statistic;
    /// 3. [`PercentileRank::interpolate`] is monotone in both arguments:
    ///    `f32` ops with non-negative weights;
    /// 4. [`Bucket::round_up`] is non-decreasing over non-NaN inputs, ±∞
    ///    included.
    ///
    /// The exact rule's fallbacks, and hand-built parameters whose tick
    /// values could overflow or be NaN, put the buckets of the exact
    /// statistics in decision form.
    pub fn window_decision_buckets(
        &self,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
        p: Percentile,
    ) -> WindowPeaks {
        let mut out = zero_peaks(tw);
        for kind in ResourceKind::ALL {
            self.window_decision_buckets_into(kind, tw, start, end, p, &mut out);
        }
        out
    }

    /// One resource of [`VmProfile::window_peaks`], written into its slots
    /// of `out`. Returns how many cells were handed to the kernel — the
    /// pruning guard in the tests reads it; cells skipped by the pre-screen
    /// and the fallback paths count as none.
    fn window_peaks_into(
        &self,
        resource: ResourceKind,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
        p: Percentile,
        out: &mut WindowPeaks,
    ) -> usize {
        self.order_statistics_into::<false>(resource, tw, start, end, p, out)
    }

    /// [`VmProfile::window_peaks_into`] for
    /// [`VmProfile::window_decision_buckets`].
    fn window_decision_buckets_into(
        &self,
        resource: ResourceKind,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
        p: Percentile,
        out: &mut WindowPeaks,
    ) -> usize {
        let evaluated = self.order_statistics_into::<true>(resource, tw, start, end, p, out);
        out.decide(resource);
        evaluated
    }

    /// What the decision-decided rule needs on top of the eager fallback's
    /// conditions: its intervals order realized tick values against the
    /// screens' bounds, so every level, noise and walk term must be a
    /// finite number, far enough from overflow that no `∞ − ∞` or `∞ · 0`
    /// arises. Generated profiles are O(1); parameters that fail this are
    /// degenerate for the rule.
    fn levels_are_numbers(p: &ResourceProfile) -> bool {
        let scale = (p.base.abs() + p.amplitude + 4.0 * p.noise + p.daily_drift.abs())
            * p.weekend_factor.max(1.0);
        scale < 1e300 && p.peak_hour.is_finite()
    }

    /// The order-statistic loop behind every peak derivation, under the
    /// top-k exact stopping rule, which writes the values themselves, or
    /// with `DECIDE` under the decision-decided one, which writes their
    /// bucket fractions and 0.0 for the windows it dismisses (its caller
    /// puts them in decision form).
    fn order_statistics_into<const DECIDE: bool>(
        &self,
        resource: ResourceKind,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
        p: Percentile,
        out: &mut WindowPeaks,
    ) -> usize {
        let profile = &self.per_resource[resource.index()];
        let (first_day, days) = day_rows(start, end);
        if days == 0
            || days > MAX_ORDERED_DAYS
            || Self::needs_eager_fallback(profile)
            || (DECIDE && !Self::levels_are_numbers(profile))
        {
            let exact = self.window_stats_for(resource, tw, start, end);
            for w in tw.indices() {
                let (max, px) = (exact.lifetime_max(w), exact.maxima_percentile(w, p));
                write_peaks::<DECIDE>(out, w, resource, max, px);
            }
            return 0;
        }

        let rank = PercentileRank::of(days, p);
        let k = rank.top_k(days);
        // The percentile's two order statistics, counted from the largest.
        let (nth_lo, nth_hi) = (days - rank.lo, days - rank.hi);
        let mut scan = CellScan::new(self, resource, tw);
        let wticks = scan.wticks;
        let mut terms = [DayTerms::default(); MAX_ORDERED_DAYS];
        for (i, slot) in terms[..days].iter_mut().enumerate() {
            *slot = scan.day_terms(first_day + i as u64);
        }
        let terms = &terms[..days];
        // The most any tick's noise and walk terms can add to its level:
        // `white < 1` and `walk < 1`, scaled by non-negative factors.
        let noise = profile.noise;
        let walk_max = if scan.unpredictable { 3.0 * noise } else { 0.0 };
        // Day `i`'s cell of window `w`: its covered ticks (an empty range
        // when the span misses the window that day).
        let cover = |w: usize, i: usize| {
            let wstart = terms[i].day_start + w as u64 * wticks;
            (start.ticks().max(wstart), end.ticks().min(wstart + wticks))
        };
        // The pre-screen's bound on every tick value of a cell whose level
        // is at most `level`, with the value's own association `(level +
        // noise·white) + walk_term` so every step is a monotone IEEE op;
        // and the upper end of the cell's maximum the decision rule reads.
        let screen = |level: f64| (level + noise) + walk_max;
        let upper = |level: f64| screen(level).clamp(0.0, 1.0) as f32;
        let mut bound = [0.0f64; MAX_ORDERED_DAYS];

        // Windows in visiting order. Under the decision-decided rule each
        // gets its cap and the order is by cap, descending; otherwise every
        // cap is the top bucket and the order stays the index order.
        let n = tw.count();
        let mut cap = [Bucket::MAX; MAX_WINDOWS];
        let mut visit = [0u16; MAX_WINDOWS];
        for w in 0..n {
            if DECIDE {
                scan.level_bounds(w, terms, &mut bound);
                let hi = (0..days)
                    .filter(|&i| {
                        let (t_lo, t_hi) = cover(w, i);
                        t_lo < t_hi
                    })
                    .fold(0.0f32, |hi, i| hi.max(upper(bound[i])));
                cap[w] = Bucket::round_up(f64::from(hi.max(rank.interpolate(hi, hi))));
            }
            let mut j = w;
            while j > 0 && cap[usize::from(visit[j - 1])] < cap[w] {
                visit[j] = visit[j - 1];
                j -= 1;
            }
            visit[j] = w as u16;
        }
        // The running `PA`, from bucket 0: every value is clamped at 0.
        let mut pa = Bucket::default();
        let mut brackets = Brackets::new(k);

        let mut evaluated = 0;
        for (at, &w) in visit[..n].iter().enumerate() {
            let w = usize::from(w);
            if DECIDE && cap[w] <= pa {
                // Caps only fall from here on: no later window can move
                // the decision either.
                for &w in &visit[at..n] {
                    write_peaks::<DECIDE>(out, usize::from(w), resource, 0.0, 0.0);
                }
                break;
            }
            // Days in descending order of their cell's level bound.
            scan.level_bounds(w, terms, &mut bound);
            let mut order = [0u8; MAX_ORDERED_DAYS];
            for i in 0..days {
                let mut j = i;
                while j > 0 && bound[usize::from(order[j - 1])] < bound[i] {
                    order[j] = order[j - 1];
                    j -= 1;
                }
                order[j] = i as u8;
            }

            let mut top = TopK::new(k);
            let mut decided = None;
            if DECIDE {
                brackets.clear();
                for &i in &order[..days] {
                    let i = usize::from(i);
                    let (t_lo, t_hi) = cover(w, i);
                    if t_lo >= t_hi {
                        brackets.push_uncovered();
                    } else {
                        brackets.push_covered(upper(bound[i]), || {
                            scan.seed_value(terms[i], w, t_lo, t_hi)
                        });
                    }
                }
                decided = brackets.decide(&top, rank, nth_lo, nth_hi);
            }
            if decided.is_none() {
                for (pos, &i) in order[..days].iter().enumerate() {
                    let i = usize::from(i);
                    let (t_lo, t_hi) = cover(w, i);
                    if t_lo >= t_hi {
                        // Uncovered cells count as 0.0, as `day_max_or_zero`
                        // reads them.
                        top.offer(0.0);
                        continue;
                    }
                    let floor = top.floor();
                    // Pre-screen: no tick of the cell can beat the floor,
                    // the cell reports the floor, the top-k does not move.
                    // Only once the top-k is full — every reported value is
                    // ≥ 0, so the clamp cannot lift a skipped tick above the
                    // floor.
                    if floor >= 0.0 && screen(bound[i]) <= f64::from(floor) {
                        if DECIDE {
                            brackets.skip();
                        }
                        continue;
                    }
                    evaluated += 1;
                    let reported = scan.cell(terms[i], w, t_lo, t_hi, floor);
                    top.offer(reported);
                    if DECIDE {
                        brackets.collapse(pos, reported);
                        decided = brackets.decide(&top, rank, nth_lo, nth_hi);
                        if decided.is_some() {
                            break;
                        }
                    }
                }
            }
            let (max, px) = decided.unwrap_or_else(|| {
                let at = |n| top.nth_largest(n);
                (at(1), rank.interpolate(at(nth_lo), at(nth_hi)))
            });
            write_peaks::<DECIDE>(out, w, resource, max, px);
            pa = pa.max(Bucket::round_up(f64::from(px)));
        }
        evaluated
    }
}

/// The most windows a partition has ([`TimeWindows::ideal`]): the loop's
/// visiting order lives in stack arrays of this size.
const MAX_WINDOWS: usize = TICKS_PER_DAY as usize;

/// All-zero peaks over `tw`, for the per-resource passes to fill in.
fn zero_peaks(tw: TimeWindows) -> WindowPeaks {
    let zeros = WindowVec::from_elem(ResourceVec::ZERO, tw.count());
    WindowPeaks {
        lifetime_max: zeros.clone(),
        percentile: zeros,
    }
}

/// Write window `w`'s maximum and percentile into `resource`'s slots: as
/// they are under the top-k exact rule, rounded up to their buckets under
/// the decision-decided one (`DECIDE`).
fn write_peaks<const DECIDE: bool>(
    out: &mut WindowPeaks,
    w: usize,
    resource: ResourceKind,
    max: f32,
    px: f32,
) {
    let (max, px) = (f64::from(max), f64::from(px));
    out.lifetime_max[w][resource] = if DECIDE { bucket_up(max) } else { max };
    out.percentile[w][resource] = if DECIDE { bucket_up(px) } else { px };
}

/// First day and number of day-rows `[start, end)` touches (0 when empty).
fn day_rows(start: Timestamp, end: Timestamp) -> (u64, usize) {
    let first_day = start.day();
    if start >= end {
        return (first_day, 0);
    }
    let last_day = Timestamp::from_ticks(end.ticks() - 1).day();
    (first_day, (last_day - first_day + 1) as usize)
}

/// Longest span, in day-rows, the order-statistic policy walks: its
/// per-window visiting order and top-k live in stack arrays of this size
/// (the same bound under which [`WindowStats::maxima_percentile`] sorts on
/// the stack). Longer spans derive from the exact statistics.
const MAX_ORDERED_DAYS: usize = 64;

/// The `k` largest values offered so far, descending.
struct TopK {
    vals: [f32; MAX_ORDERED_DAYS],
    len: usize,
    k: usize,
}

impl TopK {
    fn new(k: usize) -> Self {
        debug_assert!((1..=MAX_ORDERED_DAYS).contains(&k));
        TopK {
            vals: [0.0; MAX_ORDERED_DAYS],
            len: 0,
            k,
        }
    }

    /// The `k`-th largest value so far; `UNCOVERED` (the exact kernel's own
    /// starting point) until `k` values are in.
    fn floor(&self) -> f32 {
        if self.len == self.k {
            self.vals[self.k - 1]
        } else {
            WindowStats::UNCOVERED
        }
    }

    fn offer(&mut self, v: f32) {
        if self.len == self.k {
            if v <= self.vals[self.k - 1] {
                return;
            }
            self.len -= 1;
        }
        let mut i = self.len;
        while i > 0 && self.vals[i - 1] < v {
            self.vals[i] = self.vals[i - 1];
            i -= 1;
        }
        self.vals[i] = v;
        self.len += 1;
    }

    /// The `n`-th largest value offered (1-based, `n ≤ k`).
    fn nth_largest(&self, n: usize) -> f32 {
        self.vals[..self.len][n - 1]
    }

    /// The values held, descending.
    fn held(&self) -> &[f32] {
        &self.vals[..self.len]
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Raise one value offered earlier from `old` to `new ≥ old`. The top-k
    /// is a multiset, so the value needs no identity: if `old` is held, any
    /// held copy of it is replaced and moved up; if not, it lies below the
    /// `k`-th largest and `new` enters like a fresh offer.
    fn raise(&mut self, old: f32, new: f32) {
        match self.held().iter().rposition(|&v| v == old) {
            Some(mut i) => {
                while i > 0 && self.vals[i - 1] < new {
                    self.vals[i] = self.vals[i - 1];
                    i -= 1;
                }
                self.vals[i] = new;
            }
            None => self.offer(new),
        }
    }
}

/// The decision-decided rule's view of one window it resolves
/// ([`VmProfile::window_decision_buckets`]): an interval per day, kept as what
/// the order statistics of its two ends need. Built once per scan and
/// cleared per window.
struct Brackets {
    /// Upper ends of the covered days in visiting order — non-increasing,
    /// since the order sorts by the bound they are cast from. The first
    /// `passed` belong to days the loop has resolved or pre-screened.
    hi: [f32; MAX_ORDERED_DAYS],
    covered: usize,
    passed: usize,
    /// Lower ends of the first `seeded` visiting positions; every later
    /// day's is 0.0.
    lo: [f32; MAX_ORDERED_DAYS],
    seeded: usize,
    seeding: bool,
    /// Top-k of the lower ends, a resolved day's being its reported value.
    /// Always full once the window is pushed.
    lo_top: TopK,
}

impl Brackets {
    fn new(k: usize) -> Self {
        Brackets {
            hi: [0.0; MAX_ORDERED_DAYS],
            covered: 0,
            passed: 0,
            lo: [0.0; MAX_ORDERED_DAYS],
            seeded: 0,
            seeding: true,
            lo_top: TopK::new(k),
        }
    }

    fn clear(&mut self) {
        self.covered = 0;
        self.passed = 0;
        self.seeded = 0;
        self.seeding = true;
        self.lo_top.clear();
    }

    /// The next visiting position's day misses the span: 0.0 at both ends.
    fn push_uncovered(&mut self) {
        if self.seeding {
            self.seed(0.0);
        }
    }

    /// The next visiting position's day is covered, with upper end `hi`.
    /// `seed` realizes its lower end, and runs only while the day can still
    /// reach the lower ends' top-k: once that is full, a day whose upper
    /// end does not beat its floor cannot, and neither can any later day.
    fn push_covered(&mut self, hi: f32, seed: impl FnOnce() -> f32) {
        self.hi[self.covered] = hi;
        self.covered += 1;
        // `floor` is −1 until the top-k is full.
        if self.seeding && hi <= self.lo_top.floor() {
            self.seeding = false;
        }
        if self.seeding {
            self.seed(seed());
        }
    }

    fn seed(&mut self, lo: f32) {
        self.lo[self.seeded] = lo;
        self.seeded += 1;
        self.lo_top.offer(lo);
    }

    /// The loop pre-screened the next covered day. It keeps its interval:
    /// the reported top-k is full and every value in it is at or above the
    /// day's upper end, so leaving that end out changes no order statistic
    /// of the upper ends.
    fn skip(&mut self) {
        self.passed += 1;
    }

    /// The loop resolved the day at visiting position `pos` and reported
    /// `reported`: its interval collapses to that value. The lower end
    /// rises to it; the upper end leaves `hi`, the report being in the
    /// loop's top-k or below its floor.
    fn collapse(&mut self, pos: usize, reported: f32) {
        self.passed += 1;
        let lo = if pos < self.seeded { self.lo[pos] } else { 0.0 };
        self.lo_top.raise(lo, reported);
    }

    /// The lower ends of the maximum and of the percentile, once
    /// [`Bucket::round_up`] agrees at both ends of both; `top` is the
    /// loop's top-k of reported values.
    fn decide(
        &self,
        top: &TopK,
        rank: PercentileRank,
        nth_lo: usize,
        nth_hi: usize,
    ) -> Option<(f32, f32)> {
        let bucket = |v: f32| Bucket::round_up(f64::from(v));
        let lower = |n| self.lo_top.nth_largest(n);
        // Upper ends: the reported values, then the unresolved days' own
        // upper ends, then 0.0 for the uncovered days still to come.
        let upper = |n| nth_of_two(top.held(), &self.hi[self.passed..self.covered], n);
        let max = lower(1);
        if bucket(max) != bucket(upper(1)) {
            return None;
        }
        let px = rank.interpolate(lower(nth_lo), lower(nth_hi));
        let px_hi = rank.interpolate(upper(nth_lo), upper(nth_hi));
        (bucket(px) == bucket(px_hi)).then_some((max, px))
    }
}

/// The `n`-th largest (1-based) of two descending runs taken together; 0.0
/// past the end of both.
fn nth_of_two(a: &[f32], b: &[f32], n: usize) -> f32 {
    let (mut i, mut j) = (0, 0);
    let mut v = 0.0;
    for _ in 0..n {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x >= y => (v, i) = (x, i + 1),
            (_, Some(&y)) => (v, j) = (y, j + 1),
            (Some(&x), None) => (v, i) = (x, i + 1),
            (None, None) => return 0.0,
        }
    }
    v
}

/// The per-day constants of the scan: multiplying by 1.0 on weekdays is
/// exact, so the weekend branch hoists out of the tick loop, and the drift
/// is hashed once per day.
#[derive(Clone, Copy, Default)]
struct DayTerms {
    day_start: u64,
    wf: f64,
    drift: f64,
}

#[inline]
fn circ_ticks(a: f64, b: f64) -> f64 {
    let d = (a - b).abs();
    d.min(TICKS_PER_DAY as f64 - d)
}

/// One analytic scan of one resource of one profile: the loop constants,
/// the per-scan envelope memo, and the `(day, window)` cell kernel both
/// visiting policies ([`VmProfile::window_stats_for`],
/// [`VmProfile::window_peaks`]) run.
struct CellScan<'a> {
    p: &'a ResourceProfile,
    geom: BumpGeometry,
    unpredictable: bool,
    wticks: u64,
    // The (seed, resource, channel) prefixes of the noise hashes are loop
    // constants — hoisted via `hash_prefix` (bit-identical to `hash_unit`,
    // see its doc).
    white_pre: u64,
    walk_pre: u64,
    drift_pre: u64,
    half_ticks_f: f64,
    rad_per_tick: f64,
    // Per-scan envelope memo: a cell's envelope value resolves on first
    // touch with exactly `util_at`'s arithmetic (off the bump the shape is
    // exactly 0, so the uniform expression reproduces `flat` bit-for-bit
    // there too) and is reused across every later day and window of the
    // scan — a cosine is paid once per *distinct* tick-of-day that survives
    // the screens, not once per day it is inspected.
    env_seen: [bool; TICKS_PER_DAY as usize],
    env_val: [f64; TICKS_PER_DAY as usize],
}

impl<'a> CellScan<'a> {
    fn new(profile: &'a VmProfile, resource: ResourceKind, tw: TimeWindows) -> Self {
        let p = &profile.per_resource[resource.index()];
        let r = resource.index() as u64;
        let half_ticks_f = p.peak_width_hours.max(0.5) * TICKS_PER_HOUR as f64;
        CellScan {
            p,
            geom: BumpGeometry::of(p),
            unpredictable: profile.kind == PatternKind::Unpredictable,
            wticks: tw.window_ticks(),
            white_pre: hash_prefix(profile.noise_seed, r, 1),
            walk_pre: hash_prefix(profile.noise_seed, r, 2),
            drift_pre: hash_prefix(profile.noise_seed, r, 0),
            half_ticks_f,
            rad_per_tick: TAU / 2.0 / half_ticks_f,
            env_seen: [false; TICKS_PER_DAY as usize],
            env_val: [0.0; TICKS_PER_DAY as usize],
        }
    }

    fn day_terms(&self, day: u64) -> DayTerms {
        let day_start = day * TICKS_PER_DAY;
        let wf = if Timestamp::from_ticks(day_start).is_weekend() {
            self.p.weekend_factor
        } else {
            1.0
        };
        let drift_u = hash_unit_pre(self.drift_pre, day);
        DayTerms {
            day_start,
            wf,
            drift: self.p.daily_drift * (2.0 * drift_u - 1.0),
        }
    }

    #[inline]
    fn env_at(&mut self, tod: usize) -> f64 {
        if !self.env_seen[tod] {
            let hour = tod as f64 / TICKS_PER_HOUR as f64;
            self.env_val[tod] = self.p.base + self.p.amplitude * self.p.diurnal_shape(hour);
            self.env_seen[tod] = true;
        }
        self.env_val[tod]
    }

    /// Cosine-free envelope upper bound for the cells at circular distance
    /// ≥ `d_min_ticks` from the bump center: the degree-4 Taylor majorant
    /// `cos x ≤ 1 − x²/2 + x⁴/24` (tight near the peak) intersected with
    /// the reflection bound `cos x ≤ (π−x)²/2 − 1`, i.e. `cos(π−x) ≥ 1 −
    /// (π−x)²/2` (tight toward the valley). Each dominates the real cosine
    /// for every `x ≥ 0`, so their min does too, and both are monotone
    /// bounds in `d`. The argument uses a precomputed radians-per-tick
    /// factor and folded reciprocals rather than `shape_at_distance`'s
    /// exact expression — every rounding discrepancy that opens (≈1e-15
    /// absolute at worst, including the tick→hour conversion and libm's
    /// ≤1-ulp cosine on the resolved side) is swallowed by `ENV_PAD`, which
    /// only ever *loosens* the screen.
    #[inline]
    fn env_ub_at(&self, d_min_ticks: f64) -> f64 {
        let flat = self.geom.flat;
        if d_min_ticks >= self.half_ticks_f {
            flat + ENV_PAD
        } else {
            let x = d_min_ticks * self.rad_per_tick;
            let x2 = x * x;
            let taylor = 1.0 - x2 * 0.5 + x2 * x2 * (1.0 / 24.0);
            let y = TAU / 2.0 - x;
            let refl = y * y * 0.5 - 1.0;
            (flat + self.p.amplitude * (0.5 * (1.0 + taylor.min(refl)))) + ENV_PAD
        }
    }

    /// Upper bound of each day's cell level in window `w`: the cosine-free
    /// envelope majorant at the window's distance-minimal tick (valid for a
    /// partial edge cell too — its ticks are a subset), through the day's
    /// own weekend factor and drift.
    fn level_bounds(&self, w: usize, terms: &[DayTerms], bound: &mut [f64]) {
        let tod_lo = w as u64 * self.wticks;
        let env_ub = self.env_ub_at(self.d_min(tod_lo as f64, (tod_lo + self.wticks - 1) as f64));
        for (b, day) in bound.iter_mut().zip(terms) {
            *b = env_ub * day.wf + day.drift;
        }
    }

    /// Smallest circular distance (ticks) from the bump center to any cell
    /// of the inclusive tick-of-day run `[sa, sb]` — where
    /// [`CellScan::env_ub_at`] bounds the whole run.
    #[inline]
    fn d_min(&self, sa: f64, sb: f64) -> f64 {
        let center = self.geom.center;
        if center >= sa && center <= sb {
            0.0
        } else {
            circ_ticks(sa, center).min(circ_ticks(sb, center))
        }
    }

    /// Seed tick of each window: the in-window tod circularly closest to
    /// the bump center maximizes the shape (raised cosine decreases with
    /// distance), so evaluating it first drives the running max near the
    /// top before the scan. Any choice is correct; this one prunes best.
    fn seed_of(&self, w: u64) -> u64 {
        let center = self.geom.center;
        let (a, b) = (w * self.wticks, (w + 1) * self.wticks - 1);
        if center >= a as f64 && center <= b as f64 {
            (center.round() as u64).clamp(a, b)
        } else if circ_ticks(a as f64, center) <= circ_ticks(b as f64, center) {
            a
        } else {
            b
        }
    }

    /// The value of the cell's *seed tick*, the one tick
    /// [`CellScan::cell`] evaluates before any screen: the first covered
    /// tick for unpredictable profiles, and for diurnal ones the covered
    /// tick nearest the bump center ([`CellScan::seed_of`], clamped so
    /// partial edge cells are seeded too). A realized value, so a lower
    /// bound on the cell max. The range must be non-empty.
    #[inline]
    fn seed_value(&mut self, day: DayTerms, w: usize, t_lo: u64, t_hi: u64) -> f32 {
        let (t, walk_term) = if self.unpredictable {
            let walk = 2.0 * hash_unit_pre(self.walk_pre, t_lo / TICKS_PER_HOUR) - 1.0;
            (t_lo, 3.0 * self.p.noise * walk)
        } else {
            let t0 = (day.day_start + self.seed_of(w as u64)).clamp(t_lo, t_hi - 1);
            (t0, 0.0)
        };
        // The same term order as `util_at`: level, white noise, then the
        // unpredictable walk.
        let level = self.env_at((t - day.day_start) as usize) * day.wf + day.drift;
        let white = 2.0 * hash_unit_pre(self.white_pre, t) - 1.0;
        ((level + self.p.noise * white) + walk_term).clamp(0.0, 1.0) as f32
    }

    /// The cell kernel: the maximum of window `w`'s ticks `[t_lo, t_hi)` on
    /// one day, as `f32`, with the running max seeded from `floor` — so the
    /// result is `max(floor, true cell max)`, and it is the true max for
    /// `floor = UNCOVERED`. The range must be non-empty and lie inside the
    /// window.
    #[inline]
    fn cell(&mut self, day: DayTerms, w: usize, t_lo: u64, t_hi: u64, floor: f32) -> f32 {
        let DayTerms {
            day_start,
            wf: wf_day,
            drift,
        } = day;
        let noise = self.p.noise;
        let flat = self.geom.flat;
        let (white_pre, walk_pre) = (self.white_pre, self.walk_pre);
        // Running max, shadowed in f64 for the per-tick bound compare. The
        // exact policy starts it at −1 (UNCOVERED) so the first candidate
        // tick always evaluates — coverage is never skipped; a higher floor
        // only makes every screen below prune more, and the result is
        // `max(floor, true cell max)`.
        let mut m = floor;
        let mut m64 = f64::from(m);

        // The seed tick, unconditionally: coverage never rests on a screen
        // (with pathological hand-built parameters the pruning bounds could
        // sit at or below the −1 UNCOVERED sentinel and skip a window
        // entirely), and for diurnal profiles it drives the running max
        // near the top before the scan, so the bounds below prune the
        // white-noise hash (and the cosine) for every clearly sub-peak
        // tick. Its re-evaluation inside the scan yields the same value and
        // cannot change the max.
        let seed = self.seed_value(day, w, t_lo, t_hi);
        if seed > m {
            m = seed;
            m64 = f64::from(m);
        }

        // Evaluate a tick: the same term order as `util_at` (white
        // noise, then the unpredictable walk).
        macro_rules! eval_tick {
            ($t:expr, $level:expr, $extra:expr) => {{
                let white = 2.0 * hash_unit_pre(white_pre, $t) - 1.0;
                let value = (($level + noise * white) + $extra).clamp(0.0, 1.0) as f32;
                if value > m {
                    m = value;
                    m64 = f64::from(m);
                }
            }};
        }

        // Day-constant levels/bounds for the exact off-bump cells
        // and the unresolved-bump upper bound (identical arithmetic
        // to the per-tick expressions, so hoisting is exact).
        let flat_level = flat * wf_day + drift;
        let flat_bound = flat_level + noise;

        if self.unpredictable {
            // The hourly walk is constant within each block, so the
            // scan advances block by block, and each block splits by
            // the bump intervals: a flat run (constant level
            // + constant walk) reduces to one integer hash max —
            // monotone in the white draw, identical to per-tick
            // evaluation — while a bump run is screened first by its
            // envelope bound and then by the bound with the run's
            // *actual* maximal white draw before any cell evaluates
            // (the same two-screen structure as the periodic arm).
            let spans = self.geom.bump_spans;
            let nspans = self.geom.nspans as usize;
            let mut t = t_lo;
            while t < t_hi {
                let block = t / TICKS_PER_HOUR;
                let block_end = ((block + 1) * TICKS_PER_HOUR).min(t_hi);
                let walk = 2.0 * hash_unit_pre(walk_pre, block) - 1.0;
                let walk_term = 3.0 * noise * walk;
                let c0 = (t - day_start) as u32;
                let d0 = (block_end - day_start) as u32;
                macro_rules! flat_run {
                    ($s:expr, $e:expr) => {{
                        let (s, e): (u32, u32) = ($s, $e);
                        if s < e && flat_bound + walk_term > m64 {
                            let best = max_hash_in(
                                white_pre,
                                day_start + u64::from(s),
                                day_start + u64::from(e),
                            );
                            let white = 2.0 * unit_from_hash(best) - 1.0;
                            let value =
                                ((flat_level + noise * white) + walk_term).clamp(0.0, 1.0) as f32;
                            if value > m {
                                m = value;
                                m64 = f64::from(m);
                            }
                        }
                    }};
                }
                let mut cursor = c0;
                for (ls, hs) in spans[..nspans].iter().copied() {
                    let bs = ls.max(c0);
                    let be = (hs + 1).min(d0);
                    if be <= bs {
                        continue;
                    }
                    flat_run!(cursor, bs);
                    cursor = be;
                    // Bump run [bs, be): bounded by the cosine-free
                    // envelope majorant at the run's
                    // distance-minimal cell, then screened again
                    // with the run's actual maximal white draw, then
                    // cell by cell with each cell's own draw — a
                    // cosine only resolves for a cell whose draw
                    // could beat the running max. Bounds reuse the
                    // value's own association, `(level +
                    // noise·white) + walk_term`, so each comparison
                    // step is a monotone IEEE op — reassociating
                    // here could dip an ulp below the evaluated
                    // value and unsoundly skip.
                    let (ra, rb) = (day_start + u64::from(bs), day_start + u64::from(be));
                    let (sa, sb) = (f64::from(bs), f64::from(be - 1));
                    let run_env = self.env_ub_at(self.d_min(sa, sb)) * wf_day + drift;
                    if (run_env + noise) + walk_term <= m64 {
                        continue;
                    }
                    let white_max = 2.0 * unit_from_hash(max_hash_in(white_pre, ra, rb)) - 1.0;
                    if (run_env + noise * white_max) + walk_term <= m64 {
                        continue;
                    }
                    for t2 in ra..rb {
                        let white = 2.0 * hash_unit_pre(white_pre, t2) - 1.0;
                        if (run_env + noise * white) + walk_term > m64 {
                            let level = self.env_at((t2 - day_start) as usize) * wf_day + drift;
                            eval_tick!(t2, level, walk_term);
                        }
                    }
                }
                flat_run!(cursor, d0);
                t = block_end;
            }
        } else {
            // Split the window's tick-of-day range into exactly-flat
            // spans (the complement of the bump intervals)
            // and bump spans. A flat span's maximum value is the
            // value at its maximum noise draw — `unit_from_hash` is
            // monotone in the mixed hash, so one pure integer max
            // over the *whole span*, converted once, matches
            // per-tick evaluation exactly (`flat_bound` is constant
            // and `m64` only grows, so one check prunes the span).
            // This is the cold-path workhorse: an off-peak window is
            // one branch plus one long `max_hash_in`, with no
            // per-8-tick segmentation overhead.
            let a0 = (t_lo - day_start) as u32;
            let b0 = (t_hi - day_start) as u32;
            macro_rules! flat_span {
                ($s:expr, $e:expr) => {{
                    let (s, e): (u32, u32) = ($s, $e);
                    // The seed's hash may re-enter the max (window
                    // misses the bump): harmless, the max cannot
                    // change.
                    if s < e && flat_bound > m64 {
                        let best = max_hash_in(
                            white_pre,
                            day_start + u64::from(s),
                            day_start + u64::from(e),
                        );
                        let white = 2.0 * unit_from_hash(best) - 1.0;
                        let value = ((flat_level + noise * white) + 0.0).clamp(0.0, 1.0) as f32;
                        if value > m {
                            m = value;
                            m64 = f64::from(m);
                        }
                    }
                }};
            }

            // Pass 1 — every flat span first: cheap, ILP-friendly
            // integer hashing drives the running max to (or near)
            // its final value before any bump cell is touched.
            // Evaluation order within a window cannot change its
            // max, so the reorder is bit-exact; it exists purely so
            // the bump screens below face the strongest possible
            // `m64`.
            let spans = self.geom.bump_spans;
            {
                let mut cursor = a0;
                for (ls, hs) in spans[..self.geom.nspans as usize].iter().copied() {
                    let bs = ls.max(a0);
                    let be = (hs + 1).min(b0);
                    if be <= bs {
                        continue;
                    }
                    flat_span!(cursor, bs);
                    cursor = be;
                }
                flat_span!(cursor, b0);
            }

            // Pass 2 — bump spans, 8-tick segment by segment,
            // behind two screens: first the cosine-free envelope
            // majorant
            // at the segment's distance-minimal cell (a few flops),
            // then the same bound with the segment's *actual*
            // maximal white draw (one short `max_hash_in`) in place
            // of the worst-case +1 — `unit_from_hash` is monotone
            // in the mixed hash and all factors are non-negative,
            // so the product bounds every cell's value. A surviving
            // segment is then screened cell by cell with each
            // cell's own draw, so a cosine only ever resolves for a
            // cell whose draw could actually beat the running max.
            for (ls, hs) in spans[..self.geom.nspans as usize].iter().copied() {
                let bs = ls.max(a0);
                let be = (hs + 1).min(b0);
                if be <= bs {
                    continue;
                }
                let seg_lo = bs as usize / SEG_TICKS as usize;
                let seg_hi = (be as usize - 1) / SEG_TICKS as usize;
                for seg in seg_lo..=seg_hi {
                    let sa = u64::from(bs).max(seg as u64 * SEG_TICKS);
                    let sb = u64::from(be).min((seg as u64 + 1) * SEG_TICKS);
                    let (a, b) = (day_start + sa, day_start + sb);
                    let d_min = self.d_min(sa as f64, (sb - 1) as f64);
                    let seg_env = self.env_ub_at(d_min) * wf_day + drift;
                    if seg_env + noise > m64 {
                        // One hashing pass fills the segment's
                        // mixed draws; their max drives the
                        // white-max screen, bit-identical to
                        // `max_hash_in` over the same range.
                        let mut hbuf = [0u64; SEG_TICKS as usize];
                        let n = (b - a) as usize;
                        let mut best = 0u64;
                        for (i, slot) in hbuf[..n].iter_mut().enumerate() {
                            let h = hash_mix(white_pre, a + i as u64);
                            *slot = h;
                            best = best.max(h);
                        }
                        let white_max = 2.0 * unit_from_hash(best) - 1.0;
                        if seg_env + noise * white_max <= m64 {
                            continue;
                        }
                        // Per-cell screening in *integer hash
                        // space*: the float screen `seg_env +
                        // noise·white > m64` is monotone in the
                        // cell's mixed hash, so a conservative
                        // threshold on the hash's 53-bit payload
                        // rejects sub-threshold cells with one
                        // integer compare. The threshold white
                        // `(m64 − seg_env)/noise` is lowered by
                        // 1e-6 before converting — for noise >
                        // 1e-6 that slack exceeds every rounding
                        // term in the conversion by three orders
                        // of magnitude (each term is ≤ ~2e-15),
                        // so no cell the float screen would pass
                        // is ever rejected; survivors re-run the
                        // exact float screen, keeping the result
                        // bit-identical. The float→u64 cast
                        // saturates (NaN→0), so degenerate
                        // thresholds fall back to screening every
                        // cell. A skipped cell provably cannot
                        // exceed `m64` (≥ 0 after the
                        // unconditional seed, so the clamp cannot
                        // resurrect it).
                        let h_thresh = if noise > 1e-6 {
                            let w_lo = (m64 - seg_env) / noise - 1e-6;
                            ((w_lo + 1.0) * (0.5 * (1u64 << 53) as f64)) as u64
                        } else {
                            0
                        };
                        for (i, &h) in hbuf[..n].iter().enumerate() {
                            if (h >> 11) > h_thresh {
                                let white = 2.0 * unit_from_hash(h) - 1.0;
                                if seg_env + noise * white > m64 {
                                    let t = a + i as u64;
                                    let level =
                                        self.env_at((t - day_start) as usize) * wf_day + drift;
                                    eval_tick!(t, level, 0.0);
                                }
                            }
                        }
                    }
                }
            }
        }
        m
    }
}

/// Deterministic hash → uniform `[0, 1)`. SplitMix64-style mixing over the
/// tuple `(seed, a, b, c)`. This is the reference form `util_at` (and hence
/// the eager materializing path) uses; the analytic scan uses the
/// bit-identical split [`hash_prefix`] + [`hash_unit_pre`] pair (asserted
/// equal by `hash_split_is_bit_identical`).
fn hash_unit(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(c.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The `(seed, a, c)` part of [`hash_unit`]'s input combination — a loop
/// constant in the analytic window-statistics scan, where only `b` (the
/// tick/day/block) varies. Wrapping addition is associative and commutative
/// mod 2^64, so splitting the sum is bit-identical.
#[inline]
fn hash_prefix(seed: u64, a: u64, c: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Finish [`hash_unit`] from a precomputed prefix — mix, then convert.
#[inline]
fn hash_unit_pre(pre: u64, b: u64) -> f64 {
    unit_from_hash(hash_mix(pre, b))
}

/// The integer mixing stage of [`hash_unit`]. Exposed separately because
/// [`unit_from_hash`] is monotone in this value, so a *maximum over mixed
/// hashes* (a pure integer reduction) yields the maximum noise draw of a
/// run without converting every tick.
#[inline]
fn hash_mix(pre: u64, b: u64) -> u64 {
    let mut x = pre.wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Convert a mixed hash to uniform `[0, 1)`. Multiplies by 2⁻⁵³ instead of
/// dividing by 2⁵³: both are exact power-of-two exponent shifts on a 53-bit
/// integer, so the result is bit-identical to [`hash_unit`]'s divide while
/// skipping the hardware divider.
#[inline]
fn unit_from_hash(x: u64) -> f64 {
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    (x >> 11) as f64 * SCALE
}

/// Maximum mixed hash over ticks `[a, b)` — the integer reduction behind
/// the constant-level fast paths, 4-way unrolled so the independent mixing
/// chains pipeline instead of serializing behind one accumulator.
#[inline]
fn max_hash_in(pre: u64, a: u64, b: u64) -> u64 {
    let (mut b0, mut b1, mut b2, mut b3) = (0u64, 0u64, 0u64, 0u64);
    let mut t = a;
    while t + 4 <= b {
        b0 = b0.max(hash_mix(pre, t));
        b1 = b1.max(hash_mix(pre, t + 1));
        b2 = b2.max(hash_mix(pre, t + 2));
        b3 = b3.max(hash_mix(pre, t + 3));
        t += 4;
    }
    let mut best = b0.max(b1).max(b2.max(b3));
    while t < b {
        best = best.max(hash_mix(pre, t));
        t += 1;
    }
    best
}

/// The behavior shared by all VMs of one subscription × configuration group.
///
/// Group members draw their [`VmProfile`]s from this template with small
/// jitter, so their peak utilizations cluster (Fig 12: sub+config groups have
/// the smallest range).
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorTemplate {
    /// Pattern class for the group.
    pub kind: PatternKind,
    /// Template per-resource profiles.
    pub per_resource: [ResourceProfile; ResourceKind::COUNT],
    /// Jitter fraction applied to base/amplitude per VM.
    pub jitter: f64,
}

impl BehaviorTemplate {
    /// Sample the template for a subscription+config group.
    ///
    /// Calibration targets (all from §2.3):
    /// * most VMs' mean CPU < 50 %, CPU P95-P5 range often up to 60 %;
    /// * memory base diverse but range < 30 % (half of VMs < 10 %);
    /// * CPU peaks/valleys spread uniformly over the day; < 10 % of VMs
    ///   pattern-free; ~70 % of VMs have memory peaks ≥ 5 %;
    /// * network behaves like CPU on average but with a narrow range;
    ///   SSD resembles memory.
    pub fn sample(rng: &mut SmallRng) -> Self {
        let kind = match rng.gen_range(0..100) {
            0..=69 => PatternKind::Periodic,
            70..=89 => PatternKind::Constant,
            _ => PatternKind::Unpredictable,
        };

        let peak_hour = rng.gen_range(0.0..24.0);
        let weekend_factor = rng.gen_range(0.35..1.0);

        // CPU: low base, wide diurnal swing.
        let cpu_base = rng.gen_range(0.03..0.35);
        let cpu_amp = match kind {
            PatternKind::Periodic => rng.gen_range(0.15..0.55),
            PatternKind::Constant => rng.gen_range(0.0..0.04),
            PatternKind::Unpredictable => rng.gen_range(0.05..0.30),
        };
        let cpu = ResourceProfile {
            base: cpu_base,
            amplitude: cpu_amp,
            peak_hour,
            peak_width_hours: rng.gen_range(3.0..8.0),
            noise: match kind {
                PatternKind::Unpredictable => rng.gen_range(0.04..0.10),
                _ => rng.gen_range(0.01..0.04),
            },
            weekend_factor,
            daily_drift: rng.gen_range(0.01..0.06),
        };

        // Memory: diverse base, narrow swing, tiny noise/drift.
        let mem_base = rng.gen_range(0.10..0.85);
        let mem_has_peak = rng.gen_bool(0.72);
        let mem = ResourceProfile {
            base: mem_base,
            amplitude: if mem_has_peak {
                rng.gen_range(0.05..0.16)
            } else {
                rng.gen_range(0.0..0.035)
            },
            peak_hour: peak_hour + rng.gen_range(-2.0..2.0),
            peak_width_hours: rng.gen_range(4.0..10.0),
            noise: rng.gen_range(0.004..0.018),
            weekend_factor: 1.0 - (1.0 - weekend_factor) * 0.2,
            daily_drift: rng.gen_range(0.005..0.035),
        };

        // Network: average tracks CPU, range narrow like memory.
        let net = ResourceProfile {
            base: (cpu_base * rng.gen_range(0.6..1.1)).min(0.9),
            amplitude: cpu_amp * rng.gen_range(0.2..0.45),
            peak_hour,
            peak_width_hours: cpu.peak_width_hours,
            noise: rng.gen_range(0.005..0.02),
            weekend_factor,
            daily_drift: rng.gen_range(0.005..0.02),
        };

        // SSD space: slow-moving like memory, generally lower.
        let ssd = ResourceProfile {
            base: rng.gen_range(0.05..0.6),
            amplitude: rng.gen_range(0.0..0.08),
            peak_hour: rng.gen_range(0.0..24.0),
            peak_width_hours: rng.gen_range(4.0..12.0),
            noise: rng.gen_range(0.001..0.008),
            weekend_factor: 1.0,
            daily_drift: rng.gen_range(0.001..0.01),
        };

        BehaviorTemplate {
            kind,
            per_resource: [cpu, mem, net, ssd],
            jitter: rng.gen_range(0.02..0.10),
        }
    }

    /// Instantiate a per-VM profile with the group's jitter.
    pub fn instantiate(&self, vm_seed: u64) -> VmProfile {
        let mut rng = SmallRng::seed_from_u64(vm_seed ^ 0xC0AC_4A11);
        let mut per_resource = self.per_resource;
        for p in per_resource.iter_mut() {
            let j = |rng: &mut SmallRng| 1.0 + rng.gen_range(-self.jitter..=self.jitter);
            p.base = (p.base * j(&mut rng)).clamp(0.0, 1.0);
            p.amplitude = (p.amplitude * j(&mut rng)).clamp(0.0, 1.0);
            p.peak_hour = (p.peak_hour + rng.gen_range(-0.5..0.5)).rem_euclid(24.0);
        }
        VmProfile {
            kind: self.kind,
            per_resource,
            noise_seed: vm_seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_profile(seed: u64) -> VmProfile {
        let mut rng = SmallRng::seed_from_u64(seed);
        BehaviorTemplate::sample(&mut rng).instantiate(seed)
    }

    #[test]
    fn util_is_deterministic() {
        let p = sample_profile(7);
        let t = Timestamp::from_hours(31);
        assert_eq!(
            p.util_at(ResourceKind::Cpu, t),
            p.util_at(ResourceKind::Cpu, t)
        );
        let q = sample_profile(7);
        assert_eq!(
            p.util_at(ResourceKind::Memory, t),
            q.util_at(ResourceKind::Memory, t)
        );
    }

    #[test]
    fn util_always_in_unit_range() {
        for seed in 0..50 {
            let p = sample_profile(seed);
            for h in 0..48 {
                let v = p.util_vec_at(Timestamp::from_hours(h));
                assert!(v.is_valid());
                assert!(v.max_element() <= 1.0);
            }
        }
    }

    #[test]
    fn materialize_covers_lifetime() {
        let p = sample_profile(3);
        let s = p.materialize(Timestamp::from_hours(1), Timestamp::from_hours(3));
        assert_eq!(s.len(), 2 * TICKS_PER_HOUR as usize);
        assert_eq!(s.start(), Timestamp::from_hours(1));
    }

    #[test]
    fn periodic_vms_have_diurnal_peak() {
        // A periodic template must put its daily max near peak_hour.
        let mut found = 0;
        for seed in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let t = BehaviorTemplate::sample(&mut rng);
            if t.kind != PatternKind::Periodic {
                continue;
            }
            let p = t.instantiate(seed);
            let cpu = &p.per_resource[0];
            if cpu.amplitude < 0.2 {
                continue;
            }
            // Scan day 2 (Wednesday) hourly.
            let mut best_h = 0f64;
            let mut best_v = -1f64;
            for hh in 0..24 {
                let v = p.util_at(
                    ResourceKind::Cpu,
                    Timestamp::from_days(2) + SimDuration::from_hours(hh),
                );
                if v > best_v {
                    best_v = v;
                    best_h = hh as f64;
                }
            }
            let mut d = (best_h - cpu.peak_hour).abs();
            if d > 12.0 {
                d = 24.0 - d;
            }
            assert!(
                d <= 3.0,
                "peak at {best_h} but expected near {}",
                cpu.peak_hour
            );
            found += 1;
        }
        assert!(found > 20, "not enough periodic templates sampled: {found}");
    }

    #[test]
    fn memory_range_is_narrow_cpu_wide() {
        // §2.3: memory range < 30% for most VMs; CPU range can reach 60%.
        let mut mem_ranges = Vec::new();
        let mut cpu_ranges = Vec::new();
        for seed in 0..60u64 {
            let p = sample_profile(seed);
            let s = p.materialize(Timestamp::ZERO, Timestamp::from_days(3));
            mem_ranges.push(s.get(ResourceKind::Memory).range_p95_p5());
            cpu_ranges.push(s.get(ResourceKind::Cpu).range_p95_p5());
        }
        let med = |v: &mut Vec<f32>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let mem_med = med(&mut mem_ranges);
        let cpu_med = med(&mut cpu_ranges);
        assert!(mem_med < 0.30, "median memory range too wide: {mem_med}");
        assert!(cpu_med > mem_med, "CPU should fluctuate more than memory");
    }

    #[test]
    fn same_group_vms_cluster() {
        // Two instantiations of the same template have close lifetime peaks;
        // two different templates usually differ more.
        let mut rng = SmallRng::seed_from_u64(42);
        let t1 = BehaviorTemplate::sample(&mut rng);
        let a = t1.instantiate(100);
        let b = t1.instantiate(101);
        let end = Timestamp::from_days(2);
        let pa = a
            .materialize(Timestamp::ZERO, end)
            .get(ResourceKind::Memory)
            .max();
        let pb = b
            .materialize(Timestamp::ZERO, end)
            .get(ResourceKind::Memory)
            .max();
        assert!(
            (pa - pb).abs() < 0.25,
            "same-group peaks too far: {pa} vs {pb}"
        );
    }

    #[test]
    fn weekend_is_quieter_for_low_weekend_factor() {
        let mut p = sample_profile(11);
        p.per_resource[0].weekend_factor = 0.4;
        p.per_resource[0].noise = 0.0;
        p.per_resource[0].daily_drift = 0.0;
        p.kind = PatternKind::Periodic;
        let weekday_peak = p.util_at(
            ResourceKind::Cpu,
            Timestamp::from_days(2)
                + SimDuration::from_ticks((p.per_resource[0].peak_hour * 12.0) as u64),
        );
        let weekend_peak = p.util_at(
            ResourceKind::Cpu,
            Timestamp::from_days(5)
                + SimDuration::from_ticks((p.per_resource[0].peak_hour * 12.0) as u64),
        );
        assert!(weekend_peak < weekday_peak);
    }

    #[test]
    fn hash_split_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..2000 {
            let (s, a, b, c) = (
                rng.gen::<u64>(),
                rng.gen_range(0..4u64),
                rng.gen::<u64>(),
                rng.gen_range(0..3u64),
            );
            assert_eq!(
                hash_unit(s, a, b, c).to_bits(),
                hash_unit_pre(hash_prefix(s, a, c), b).to_bits()
            );
        }
    }

    #[test]
    fn hash_unit_is_uniformish() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| hash_unit(9, 1, i, 3)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "hash_unit mean {mean}");
    }

    /// Eager reference for the analytic path: materialize and walk samples.
    fn reference_stats(
        p: &VmProfile,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> ResourceWindowStats {
        ResourceWindowStats::from_series(&p.materialize(start, end), tw)
    }

    fn assert_stats_equal(analytic: &ResourceWindowStats, reference: &ResourceWindowStats) {
        assert_eq!(analytic.days(), reference.days());
        assert_eq!(analytic.first_day(), reference.first_day());
        for kind in ResourceKind::ALL {
            let (a, e) = (analytic.get(kind), reference.get(kind));
            for w in a.tw().indices() {
                assert_eq!(a.lifetime_max(w), e.lifetime_max(w), "{kind} window {w}");
                assert_eq!(
                    a.maxima_percentile(w, Percentile::P95),
                    e.maxima_percentile(w, Percentile::P95),
                    "{kind} window {w} percentile"
                );
                for d in 0..a.days() {
                    assert_eq!(
                        a.day_max(d, w),
                        e.day_max(d, w),
                        "{kind} day {d} window {w}"
                    );
                }
            }
        }
    }

    const SWEPT_PERCENTILES: [f64; 6] = [0.0, 50.0, 80.0, 95.0, 99.0, 100.0];

    /// The order-statistic policy against the exact one, bit for bit: every
    /// window's `lifetime_max` and `maxima_percentile` of `window_stats_for`
    /// at each swept percentile. Returns the cells the policy handed to the
    /// kernel, summed over resources and percentiles.
    fn assert_peaks_bit_identical(
        p: &VmProfile,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> usize {
        let exact = p.window_stats(tw, start, end);
        let mut evaluated = 0;
        for pct in SWEPT_PERCENTILES.map(Percentile::new) {
            let peaks = p.window_peaks(tw, start, end, pct);
            assert_eq!(peaks.lifetime_max.len(), tw.count());
            assert_eq!(peaks.percentile.len(), tw.count());
            for kind in ResourceKind::ALL {
                let ws = exact.get(kind);
                for w in tw.indices() {
                    assert_eq!(
                        peaks.lifetime_max[w][kind].to_bits(),
                        f64::from(ws.lifetime_max(w)).to_bits(),
                        "{kind} window {w} lifetime max"
                    );
                    assert_eq!(
                        peaks.percentile[w][kind].to_bits(),
                        f64::from(ws.maxima_percentile(w, pct)).to_bits(),
                        "{kind} window {w} {pct}"
                    );
                }
                let mut sink = peaks.clone();
                evaluated += p.window_peaks_into(kind, tw, start, end, pct, &mut sink);
                assert_eq!(sink, peaks, "{kind}: per-resource pass rewrote its slots");
            }
        }
        evaluated
    }

    /// The decision-decided rule against the decision form of `bucket_up`
    /// of the exact policy's statistics, bit for bit, at each swept
    /// percentile — and, per resource and percentile, resolving no more
    /// cells than the top-k exact rule. Returns the cells each rule handed
    /// to the kernel, summed: `(decision, exact)`. On one window the
    /// decision form is lossless (`PA` is the window's percentile bucket and
    /// `max(Pmax, PA)` its maximum's), so there both buckets are checked.
    fn assert_decision_bit_identical(
        p: &VmProfile,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> (usize, usize) {
        let exact = p.window_stats(tw, start, end);
        let (mut decision, mut exhaustive) = (0, 0);
        for pct in SWEPT_PERCENTILES.map(Percentile::new) {
            let got = p.window_decision_buckets(tw, start, end, pct);
            let want = WindowPeaks::from_stats(&exact, pct)
                .bucket_up()
                .decision_form();
            for kind in ResourceKind::ALL {
                for w in tw.indices() {
                    assert_eq!(
                        got.lifetime_max[w][kind].to_bits(),
                        want.lifetime_max[w][kind].to_bits(),
                        "{kind} window {w} lifetime max decision at {pct}"
                    );
                    assert_eq!(
                        got.percentile[w][kind].to_bits(),
                        want.percentile[w][kind].to_bits(),
                        "{kind} window {w} {pct} decision"
                    );
                }
                let mut sink = got.clone();
                let cells = p.window_decision_buckets_into(kind, tw, start, end, pct, &mut sink);
                assert_eq!(sink, got, "{kind}: per-resource pass rewrote its slots");
                let exact_cells = p.window_peaks_into(kind, tw, start, end, pct, &mut sink);
                assert!(
                    cells <= exact_cells,
                    "{kind} {pct}: decision rule resolved {cells} cells, exact {exact_cells}"
                );
                decision += cells;
                exhaustive += exact_cells;
            }
        }
        (decision, exhaustive)
    }

    #[test]
    fn analytic_stats_match_reference_for_unpredictable_weekend_span() {
        // Force the noisiest pattern class across a weekend boundary, where
        // the walk-block cache, weekend factor, and partial days all engage.
        let mut p = sample_profile(17);
        p.kind = PatternKind::Unpredictable;
        p.per_resource[0].noise = 0.09;
        let start = Timestamp::from_days(4) + SimDuration::from_hours(13);
        let end = Timestamp::from_days(7) + SimDuration::from_ticks(5);
        for tw in [
            TimeWindows::single(),
            TimeWindows::paper_default(),
            TimeWindows::ideal(),
        ] {
            assert_stats_equal(
                &p.window_stats(tw, start, end),
                &reference_stats(&p, tw, start, end),
            );
            assert_peaks_bit_identical(&p, tw, start, end);
        }
    }

    #[test]
    fn pathological_profiles_stay_covered_and_exact() {
        // Adversarial hand-built parameters (the fields are pub and
        // unvalidated) must not break the analytic == materialized
        // contract — in particular window *coverage* when the level sinks
        // far below zero (clamped to 0.0 by the reference), where lazy
        // pruning bounds could otherwise dip under the −1 UNCOVERED
        // sentinel.
        let tw = TimeWindows::paper_default();
        let start = Timestamp::ZERO;
        let end = Timestamp::from_days(10);
        for kind in [
            PatternKind::Unpredictable,
            PatternKind::Periodic,
            PatternKind::Constant,
        ] {
            let mut p = sample_profile(3);
            p.kind = kind;
            for r in p.per_resource.iter_mut() {
                r.base = 0.0;
                r.amplitude = 0.0;
                r.noise = 0.0;
                r.daily_drift = 2.0; // drift draws in [-2, 2]: deep negatives
            }
            assert_stats_equal(
                &p.window_stats(tw, start, end),
                &reference_stats(&p, tw, start, end),
            );
            // Every day clamps to 0.0 or sits at its drift: floors tie with
            // true values all the way down.
            assert_peaks_bit_identical(&p, tw, start, end);
            // Negative noise/amplitude/weekend factor invert the pruning
            // monotonicity — those parameters must route through the eager
            // fallback and still match exactly.
            let mut q = sample_profile(5);
            q.kind = kind;
            q.per_resource[0].noise = -0.05;
            q.per_resource[1].amplitude = -0.3;
            q.per_resource[2].weekend_factor = -0.5;
            assert_stats_equal(
                &q.window_stats(tw, start, end),
                &reference_stats(&q, tw, start, end),
            );
            assert_peaks_bit_identical(&q, tw, start, end);
        }
    }

    #[test]
    fn analytic_stats_empty_range() {
        let p = sample_profile(5);
        let t = Timestamp::from_hours(30);
        let stats = p.window_stats(TimeWindows::paper_default(), t, t);
        assert_eq!(stats.days(), 0);
        assert_eq!(stats.lifetime_window_max(0), ResourceVec::ZERO);
    }

    #[test]
    fn window_peaks_empty_range() {
        let p = sample_profile(5);
        let t = Timestamp::from_hours(30);
        let tw = TimeWindows::paper_default();
        assert_eq!(assert_peaks_bit_identical(&p, tw, t, t), 0);
        let peaks = p.window_peaks(tw, t, t, Percentile::P95);
        assert!(peaks
            .lifetime_max
            .iter()
            .chain(peaks.percentile.iter())
            .all(|v| *v == ResourceVec::ZERO));
    }

    /// P95 reads the two largest day maxima up to 21 day-rows and the three
    /// largest from 22 on; 65 rows is past the stack scratch and derives
    /// from the exact statistics.
    #[test]
    fn window_peaks_across_the_k_step_and_the_long_span_fallback() {
        let tw = TimeWindows::paper_default();
        let start = Timestamp::from_days(1) + SimDuration::from_hours(7);
        for (rows, k) in [(21usize, 2usize), (22, 3), (23, 3)] {
            assert_eq!(PercentileRank::of(rows, Percentile::P95).top_k(rows), k);
            let end = Timestamp::from_days(rows as u64) + SimDuration::from_hours(3);
            for seed in [2u64, 17, 40] {
                let p = sample_profile(seed);
                assert_eq!(
                    p.window_stats_for(ResourceKind::Cpu, tw, start, end).days(),
                    rows
                );
                assert!(assert_peaks_bit_identical(&p, tw, start, end) > 0);
            }
        }
        for rows in [MAX_ORDERED_DAYS, MAX_ORDERED_DAYS + 1] {
            let end = Timestamp::from_days(rows as u64) + SimDuration::from_hours(3);
            let p = sample_profile(23);
            let evaluated = assert_peaks_bit_identical(&p, tw, start, end);
            assert_eq!(evaluated > 0, rows <= MAX_ORDERED_DAYS, "{rows} day-rows");
        }
    }

    /// A refactor that silently stops pruning must fail here, not in a
    /// benchmark: at P95 over 14 days only the two largest day maxima per
    /// window matter, and on a diurnal profile whose day-to-day drift
    /// dominates its noise the upper-bound order finds them first — so the
    /// policy resolves fewer than half of the covered cells.
    #[test]
    fn order_statistic_policy_prunes_most_cells() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut template = BehaviorTemplate::sample(&mut rng);
        template.kind = PatternKind::Periodic;
        let mut p = template.instantiate(12);
        for r in p.per_resource.iter_mut() {
            r.noise = 0.01;
            r.daily_drift = 0.05;
        }
        let tw = TimeWindows::paper_default();
        let (start, end) = (Timestamp::ZERO, Timestamp::from_days(14));
        let mut out = p.window_peaks(tw, start, end, Percentile::P95);
        let covered = 14 * tw.count() * ResourceKind::COUNT;
        let evaluated: usize = ResourceKind::ALL
            .iter()
            .map(|&kind| p.window_peaks_into(kind, tw, start, end, Percentile::P95, &mut out))
            .sum();
        // Two cells per window are always resolved (the top-k has to fill).
        assert!(evaluated >= 2 * tw.count() * ResourceKind::COUNT);
        assert!(
            2 * evaluated < covered,
            "resolved {evaluated} of {covered} covered cells"
        );
        // At P0 every day is in the top-k: nothing may be pruned.
        let all: usize = ResourceKind::ALL
            .iter()
            .map(|&kind| p.window_peaks_into(kind, tw, start, end, Percentile::new(0.0), &mut out))
            .sum();
        assert_eq!(all, covered);
    }

    /// Flat hand-built profiles whose every cell sits on a bucket edge, or
    /// within 1e-9 or one `f32` ulp of one. `0.15` itself is such a value:
    /// as `f32` it reads 0.150000006, in the 20 % bucket. With noise and
    /// drift of about an ulp the two ends of a window straddle the edge,
    /// so the rule must resolve those windows, not decide them, and still
    /// read what the exact statistics round to — on one window, where the
    /// decision form keeps both buckets, and on the paper's six.
    #[test]
    fn bucket_edges_resolve_exactly() {
        let start = Timestamp::from_hours(5);
        let end = Timestamp::from_days(3) + SimDuration::from_hours(7);
        for tw in [TimeWindows::new(1), TimeWindows::paper_default()] {
            let mut resolved = 0;
            for k in 1..20u64 {
                let edge = k as f64 * 0.05;
                let e32 = edge as f32;
                let near = [
                    edge,
                    edge - 1e-9,
                    edge + 1e-9,
                    f64::from(e32),
                    f64::from(f32::from_bits(e32.to_bits() - 1)),
                    f64::from(f32::from_bits(e32.to_bits() + 1)),
                ];
                for base in near {
                    for (kind, noise, drift) in [
                        (PatternKind::Constant, 0.0, 0.0),
                        (PatternKind::Periodic, 1e-9, 0.0),
                        (PatternKind::Periodic, 3e-8, 0.0),
                        (PatternKind::Unpredictable, 1e-8, 1e-9),
                        (PatternKind::Constant, 0.0, 3e-8),
                    ] {
                        let flat = ResourceProfile {
                            base,
                            noise,
                            daily_drift: drift,
                            ..ResourceProfile::idle()
                        };
                        let p = VmProfile {
                            kind,
                            per_resource: [flat; ResourceKind::COUNT],
                            noise_seed: k,
                        };
                        resolved += assert_decision_bit_identical(&p, tw, start, end).0;
                    }
                }
            }
            assert!(resolved > 0, "{tw:?}: no window's bounds straddled an edge");
        }
    }

    /// Hand-built parameters whose levels can be NaN or infinite — where
    /// a tick value need not lie between the interval ends — bucket the
    /// exact statistics instead of deciding on bounds.
    #[test]
    fn non_numeric_levels_bucket_the_exact_statistics() {
        let tw = TimeWindows::paper_default();
        let (start, end) = (Timestamp::from_hours(3), Timestamp::from_days(4));
        type Break = fn(&mut ResourceProfile);
        let breaks: [Break; 4] = [
            |r| r.base = f64::NAN,
            |r| r.daily_drift = f64::INFINITY,
            |r| r.peak_hour = f64::INFINITY,
            |r| {
                (r.base, r.amplitude, r.weekend_factor) = (1e308, 1e308, 0.0);
            },
        ];
        for (seed, broken) in breaks.into_iter().enumerate() {
            let mut p = sample_profile(seed as u64);
            for r in p.per_resource.iter_mut() {
                broken(r);
                assert!(!VmProfile::levels_are_numbers(r));
            }
            assert_eq!(assert_decision_bit_identical(&p, tw, start, end).0, 0);
        }
    }

    /// `order_statistic_policy_prunes_most_cells`' profile.
    fn pruning_profile() -> VmProfile {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut template = BehaviorTemplate::sample(&mut rng);
        template.kind = PatternKind::Periodic;
        let mut p = template.instantiate(12);
        for r in p.per_resource.iter_mut() {
            r.noise = 0.01;
            r.daily_drift = 0.05;
        }
        p
    }

    /// Per profile, resource and percentile the decision-decided rule
    /// resolves no more cells than the top-k exact rule — the same order
    /// and floors, with whole windows dismissed and an earlier stop in the
    /// rest (`assert_decision_bit_identical` asserts it) — and on
    /// `order_statistic_policy_prunes_most_cells`' profile exactly as many
    /// as pinned here.
    #[test]
    fn decision_rule_never_resolves_more_cells() {
        let tw = TimeWindows::paper_default();
        for seed in 0..40u64 {
            let start = Timestamp::from_ticks(seed * 37);
            let end = start + SimDuration::from_days(1 + seed % 20);
            assert_decision_bit_identical(&sample_profile(seed), tw, start, end);
        }

        let p = pruning_profile();
        let (start, end) = (Timestamp::ZERO, Timestamp::from_days(14));
        let mut out = p.window_peaks(tw, start, end, Percentile::P95);
        let cells = |pct: Percentile, out: &mut WindowPeaks| {
            ResourceKind::ALL.map(|kind| {
                (
                    p.window_decision_buckets_into(kind, tw, start, end, pct, out),
                    p.window_peaks_into(kind, tw, start, end, pct, out),
                )
            })
        };
        // (decision, exact) per resource, CPU first: 4 of 56 cells at P95,
        // 10 of 208 at P50.
        assert_eq!(
            cells(Percentile::P95, &mut out),
            [(2, 20), (0, 12), (0, 12), (2, 12)]
        );
        assert_eq!(
            cells(Percentile::P50, &mut out),
            [(2, 51), (0, 54), (0, 51), (8, 52)]
        );
    }

    /// Each fallback — an empty span, more day-rows than the stack scratch
    /// holds, parameters that need the eager path, levels that are not
    /// numbers — returns, under the decision-decided rule, the decision
    /// form of the exact statistics' buckets without resolving a cell. The
    /// exact rule shares the first three fallbacks; it resolves the
    /// non-numeric levels' cells itself.
    #[test]
    fn decision_fallbacks_are_the_decision_form_of_the_exact_statistics() {
        let tw = TimeWindows::paper_default();
        let t = Timestamp::from_hours(30);
        assert_eq!(
            assert_decision_bit_identical(&sample_profile(5), tw, t, t),
            (0, 0)
        );

        let start = Timestamp::from_days(1) + SimDuration::from_hours(7);
        let end = Timestamp::from_days(MAX_ORDERED_DAYS as u64 + 1) + SimDuration::from_hours(3);
        assert_eq!(
            assert_decision_bit_identical(&sample_profile(23), tw, start, end),
            (0, 0)
        );

        let (start, end) = (Timestamp::from_hours(3), Timestamp::from_days(4));
        let mut eager = sample_profile(5);
        eager.per_resource[0].noise = -0.05;
        eager.per_resource[1].amplitude = -0.3;
        eager.per_resource[2].weekend_factor = -0.5;
        eager.per_resource[3].noise = f64::NAN;
        for r in &eager.per_resource {
            assert!(VmProfile::needs_eager_fallback(r));
        }
        assert_eq!(
            assert_decision_bit_identical(&eager, tw, start, end),
            (0, 0)
        );

        let mut broken = sample_profile(6);
        for r in broken.per_resource.iter_mut() {
            r.daily_drift = f64::INFINITY;
            assert!(!VmProfile::needs_eager_fallback(r));
            assert!(!VmProfile::levels_are_numbers(r));
        }
        assert_eq!(assert_decision_bit_identical(&broken, tw, start, end).0, 0);
    }

    const KINDS: [PatternKind; 3] = [
        PatternKind::Periodic,
        PatternKind::Constant,
        PatternKind::Unpredictable,
    ];

    /// Every tick of 28 days sits at or below the ceilings.
    fn assert_ceilings_dominate(p: &VmProfile) {
        let s = p.sampler();
        let (cpu, mem) = s.ceilings();
        assert!((0.0..=1.0).contains(&cpu) && (0.0..=1.0).contains(&mem));
        for t in (0..28 * TICKS_PER_DAY).map(Timestamp::from_ticks) {
            assert!(s.cpu_at(t) <= cpu, "{p:?} cpu at {t:?}");
            assert!(s.memory_at(t) <= mem, "{p:?} memory at {t:?}");
        }
    }

    /// The ceilings hold where a term vanishes, where the weekend factor
    /// scales up or zeroes the level, and where the base is negative or
    /// past saturation; parameters the monotonicity argument does not
    /// cover get the trivial ceiling.
    #[test]
    fn util_ceiling_edge_cases() {
        type Edit = fn(&mut ResourceProfile);
        let edits: [Edit; 7] = [
            |r| r.amplitude = 0.0,
            |r| r.weekend_factor = 0.0,
            |r| r.weekend_factor = 1.7,
            |r| r.base = -0.2,
            |r| r.daily_drift = -0.05,
            |r| r.noise = 0.0,
            |r| r.base = 1.0,
        ];
        for (seed, kind) in KINDS.into_iter().enumerate() {
            for edit in edits {
                let mut p = sample_profile(seed as u64);
                p.kind = kind;
                p.per_resource.iter_mut().for_each(edit);
                assert_ceilings_dominate(&p);
            }
        }

        let mut saturated = sample_profile(4);
        saturated.per_resource.iter_mut().for_each(|r| r.base = 1.3);
        assert_eq!(saturated.sampler().ceilings(), (1.0, 1.0));
        for amplitude in [-0.1, f64::NAN] {
            let mut p = sample_profile(5);
            p.per_resource
                .iter_mut()
                .for_each(|r| r.amplitude = amplitude);
            assert_eq!(p.sampler().ceilings(), (1.0, 1.0), "amplitude {amplitude}");
        }
    }

    /// VMs of one template share a shape, and `join` puts back what
    /// `split` cut bit for bit — a `-0.0` and a NaN payload included.
    #[test]
    fn a_sampler_splits_into_a_shared_shape_and_joins_back() {
        let template = BehaviorTemplate::sample(&mut SmallRng::seed_from_u64(3));
        let (a, b) = (template.instantiate(1), template.instantiate(2));
        let ((shape_a, vm_a), (shape_b, vm_b)) = (a.sampler().split(), b.sampler().split());
        assert_eq!(shape_a.bits(), shape_b.bits());
        assert_ne!(vm_a, vm_b);

        let mut hostile = a.clone();
        hostile.per_resource[0].base = -0.0;
        hostile.per_resource[0].noise = f64::from_bits(f64::NAN.to_bits() | 7);
        hostile.per_resource[1].daily_drift = -0.0;
        for p in [&a, &b, &hostile] {
            let sampler = p.sampler();
            let (shape, vm) = sampler.split();
            let joined = UtilSampler::join(&shape, &vm);
            assert_eq!(
                coach_wire::seal_frame(&joined),
                coach_wire::seal_frame(&sampler)
            );
        }
        assert_ne!(hostile.sampler().split().0.bits(), shape_a.bits());
    }

    /// `sample_profile(seed)` with, for `edge_case` 0–3 of 16, one term
    /// the screens and the bounds lean on zeroed or shrunk in every
    /// resource.
    fn edge_profile(seed: u64, edge_case: u64) -> VmProfile {
        let mut p = sample_profile(seed);
        for r in p.per_resource.iter_mut() {
            match edge_case {
                0 => r.noise = 0.0,
                1 => r.noise *= 1e-5,
                2 => r.daily_drift = 0.0,
                3 => r.amplitude = 0.0,
                _ => {}
            }
        }
        p
    }

    proptest! {
        /// A generated profile of any pattern class never samples above
        /// its ceilings, at random ticks over four weeks (weekends, every
        /// day's drift and every hour's walk included).
        #[test]
        fn prop_util_ceiling_dominates_every_tick(
            seed in 0u64..64,
            kind in 0usize..3,
            ticks in prop::collection::vec(0u64..(28 * TICKS_PER_DAY), 1..256),
        ) {
            let mut p = sample_profile(seed);
            p.kind = KINDS[kind];
            let s = p.sampler();
            let (cpu, mem) = s.ceilings();
            for t in ticks.into_iter().map(Timestamp::from_ticks) {
                prop_assert!(s.cpu_at(t) <= cpu);
                prop_assert!(s.memory_at(t) <= mem);
            }
        }

        /// The order-statistic policy reports, bit for bit, what the exact
        /// policy's statistics say — across random templates, per-VM seeds,
        /// spans from one tick to 40 days, and partitions; every case
        /// sweeps P0/P50/P80/P95/P99/P100.
        #[test]
        fn prop_window_peaks_match_exact_stats(
            seed in 0u64..10_000,
            start_ticks in 0u64..(3 * TICKS_PER_DAY),
            len in 1u64..(40 * TICKS_PER_DAY),
            short in 0u64..4,
            wpd_idx in 0usize..5,
        ) {
            let tw = TimeWindows::new([1u32, 2, 6, 24, 288][wpd_idx]);
            let p = sample_profile(seed);
            // A quarter of the cases stay under two days, where partial
            // cells and `k = n` dominate.
            let len = if short == 0 { 1 + len % (2 * TICKS_PER_DAY) } else { len };
            let start = Timestamp::from_ticks(start_ticks);
            let end = Timestamp::from_ticks(start_ticks + len);
            assert_peaks_bit_identical(&p, tw, start, end);
        }

        /// On one window, where the decision form keeps both buckets, the
        /// decision-decided rule reports, bit for bit, `bucket_up` of what
        /// the exact policy's statistics say, over
        /// `prop_window_peaks_match_exact_stats`' span generators. A quarter
        /// of the cases zero or shrink a term the screens and the bounds
        /// lean on: noise 0 or ≤ 1e-6 (below the kernel's hash-space
        /// screen), no drift, or no amplitude.
        #[test]
        fn prop_bucketed_peaks_match_exact(
            seed in 0u64..10_000,
            start_ticks in 0u64..(3 * TICKS_PER_DAY),
            len in 1u64..(40 * TICKS_PER_DAY),
            short in 0u64..4,
            edge_case in 0u64..16,
        ) {
            let p = edge_profile(seed, edge_case);
            let len = if short == 0 { 1 + len % (2 * TICKS_PER_DAY) } else { len };
            let start = Timestamp::from_ticks(start_ticks);
            let end = Timestamp::from_ticks(start_ticks + len);
            assert_decision_bit_identical(&p, TimeWindows::new(1), start, end);
        }

        /// The decision-decided rule reports, bit for bit, the decision
        /// form of `bucket_up` of the exact policy's statistics, over
        /// `prop_bucketed_peaks_match_exact`' generators with one window up
        /// to one window per tick.
        #[test]
        fn prop_decision_buckets_match_exact(
            seed in 0u64..10_000,
            start_ticks in 0u64..(3 * TICKS_PER_DAY),
            len in 1u64..(40 * TICKS_PER_DAY),
            short in 0u64..4,
            wpd_idx in 0usize..5,
            edge_case in 0u64..16,
        ) {
            let tw = TimeWindows::new([1u32, 2, 6, 24, 288][wpd_idx]);
            let p = edge_profile(seed, edge_case);
            let len = if short == 0 { 1 + len % (2 * TICKS_PER_DAY) } else { len };
            let start = Timestamp::from_ticks(start_ticks);
            let end = Timestamp::from_ticks(start_ticks + len);
            assert_decision_bit_identical(&p, tw, start, end);
        }

        /// The tentpole equivalence: analytic window statistics are
        /// *exactly* the statistics of the materialized series, across
        /// random templates, per-VM seeds, lifetimes, and partitions.
        #[test]
        fn prop_analytic_window_stats_match_reference(
            seed in 0u64..10_000,
            start_ticks in 0u64..(3 * TICKS_PER_DAY),
            len in 1u64..(4 * TICKS_PER_DAY),
            wpd_idx in 0usize..5,
        ) {
            let tw = TimeWindows::new([1u32, 2, 6, 24, 288][wpd_idx]);
            let p = sample_profile(seed);
            let start = Timestamp::from_ticks(start_ticks);
            let end = Timestamp::from_ticks(start_ticks + len);
            assert_stats_equal(&p.window_stats(tw, start, end), &reference_stats(&p, tw, start, end));
        }

        #[test]
        fn prop_shape_bounded(h in 0.0f64..24.0, peak in 0.0f64..24.0, w in 0.5f64..12.0) {
            let p = ResourceProfile {
                peak_hour: peak,
                peak_width_hours: w,
                ..ResourceProfile::idle()
            };
            let s = p.diurnal_shape(h);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn prop_shape_peaks_at_peak_hour(peak in 0.0f64..24.0, w in 1.0f64..12.0) {
            let p = ResourceProfile {
                peak_hour: peak,
                peak_width_hours: w,
                ..ResourceProfile::idle()
            };
            prop_assert!(p.diurnal_shape(peak) > 0.99);
        }
    }
}
