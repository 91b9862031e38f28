//! Resource quantities on the scheduler's integer grid.
//!
//! Every demand the scheduler packs is a whole number of grid units: a
//! prediction is a 5 % bucket `k / 20`, and every catalog VM asks for whole
//! cores, whole GB and a multiple of 0.25 Gbps, so request × `k / 20` lands
//! on 1/20 core, 1/20 GB (memory and SSD) and 1/80 Gbps. [`Units`] holds a
//! vector of such counts, and its sums, differences, minima, maxima and
//! comparisons are exact: no epsilon, and no dependence on the order in
//! which a sum was accumulated.
//!
//! Quantities enter the grid once: [`Units::round_up`] for what is asked
//! (a request the catalog did not put on the grid costs its next unit),
//! [`Units::round_down`] for what is offered (a capacity never grows), and
//! [`Units::scale_bucket`] for request × bucket, computed from integers.
//! [`Units::to_resources`] reads them back as absolute quantities.

use crate::resource::{ResourceKind, ResourceVec};
use std::ops::{Add, AddAssign, Index, Sub, SubAssign};

/// Grid units per core, per GB of memory, per Gbps and per GB of SSD.
pub const UNITS_PER: [u32; ResourceKind::COUNT] = [20, 20, 80, 20];

/// The bucket index of 100 %: a fraction `k / BUCKETS` for `k` in
/// `0..=BUCKETS`.
const BUCKETS: u64 = 20;

/// A quantity per resource kind in grid units ([`UNITS_PER`]):
/// `[cpu, memory, network, ssd]`.
///
/// # Example
///
/// ```
/// use coach_types::{ResourceVec, Units};
///
/// let request = Units::round_up(&ResourceVec::new(4.0, 16.0, 1.0, 64.0));
/// // 4 cores at the 35 % bucket: exactly 1.4 cores, where 4 × the
/// // bucket's fraction (7 × 0.05) reads 1.4000000000000001.
/// let demand = request.scale_bucket([7, 7, 7, 7]);
/// assert_eq!(demand.0[0], 28);
/// assert_eq!(demand.to_resources().cpu(), 1.4);
/// assert!(demand.fits(&request));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Units(pub [u32; ResourceKind::COUNT]);

/// `v` in units of `1 / per`, rounded up (`up`) or down onto the grid. A
/// value within a relative 1e-12 of a grid point is that point, as
/// [`crate::Bucket::round_up`] snaps a fraction: `0.7 * 20` reads
/// `14.000000000000002` and is 14 units. NaN and negative values are zero;
/// values past `u32::MAX` units saturate.
fn to_grid(v: f64, per: u32, up: bool) -> u32 {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let scaled = v * f64::from(per);
    let snapped = scaled.round();
    let grid = if (scaled - snapped).abs() <= 1e-12 * scaled.max(1.0) {
        snapped
    } else if up {
        scaled.ceil()
    } else {
        scaled.floor()
    };
    grid as u32
}

impl Units {
    /// The zero vector.
    pub const ZERO: Units = Units([0; ResourceKind::COUNT]);

    /// A vector with the same count in every slot.
    pub const fn splat(v: u32) -> Units {
        Units([v; ResourceKind::COUNT])
    }

    /// An absolute quantity on the grid, each slot rounded up to its next
    /// unit: what a request costs.
    pub fn round_up(v: &ResourceVec) -> Units {
        Units(std::array::from_fn(|i| to_grid(v.0[i], UNITS_PER[i], true)))
    }

    /// An absolute quantity on the grid, each slot rounded down: what a
    /// capacity offers.
    pub fn round_down(v: &ResourceVec) -> Units {
        Units(std::array::from_fn(|i| {
            to_grid(v.0[i], UNITS_PER[i], false)
        }))
    }

    /// `self × k[i] / 20` per slot, rounded up, from integers: a request
    /// scaled by 5 % bucket indices. An index above 20 reads as 20, so the
    /// result never exceeds `self`.
    pub fn scale_bucket(&self, k: [usize; ResourceKind::COUNT]) -> Units {
        Units(std::array::from_fn(|i| {
            let k = (k[i] as u64).min(BUCKETS);
            // `self.0[i] × k / 20 ≤ self.0[i]`, so the result fits a u32.
            (u64::from(self.0[i]) * k).div_ceil(BUCKETS) as u32
        }))
    }

    /// The absolute quantities (cores, GB, Gbps, GB): each count divided
    /// by its [`UNITS_PER`], the nearest `f64` to the exact quotient.
    pub fn to_resources(&self) -> ResourceVec {
        ResourceVec(std::array::from_fn(|i| {
            f64::from(self.0[i]) / f64::from(UNITS_PER[i])
        }))
    }

    /// The memory slot in GB: `to_resources().memory()` alone.
    #[inline]
    pub fn memory_gb(&self) -> f64 {
        let i = ResourceKind::Memory.index();
        f64::from(self.0[i]) / f64::from(UNITS_PER[i])
    }

    /// Elementwise `self ≤ bound`, exactly.
    #[inline]
    pub fn fits(&self, bound: &Units) -> bool {
        // Every slot compared, the results and-ed without a branch per
        // slot.
        self.0
            .iter()
            .zip(&bound.0)
            .fold(true, |fits, (a, b)| fits & (a <= b))
    }

    /// Elementwise `self + more ≤ bound`, exactly: the sum is taken in
    /// `u64`, so no slot can wrap.
    #[inline]
    pub fn fits_with(&self, more: &Units, bound: &Units) -> bool {
        (0..ResourceKind::COUNT).fold(true, |fits, i| {
            fits & (u64::from(self.0[i]) + u64::from(more.0[i]) <= u64::from(bound.0[i]))
        })
    }

    /// Elementwise maximum.
    #[inline]
    pub fn max(&self, other: &Units) -> Units {
        Units(std::array::from_fn(|i| self.0[i].max(other.0[i])))
    }

    /// Elementwise minimum.
    #[inline]
    pub fn min(&self, other: &Units) -> Units {
        Units(std::array::from_fn(|i| self.0[i].min(other.0[i])))
    }

    /// Elementwise `max(0, self - other)`.
    #[inline]
    pub fn saturating_sub(&self, other: &Units) -> Units {
        Units(std::array::from_fn(|i| {
            self.0[i].saturating_sub(other.0[i])
        }))
    }

    /// True iff every slot is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&v| v == 0)
    }
}

impl Index<ResourceKind> for Units {
    type Output = u32;
    #[inline]
    fn index(&self, kind: ResourceKind) -> &u32 {
        &self.0[kind.index()]
    }
}

/// Exact addition. A sum past `u32::MAX` is a broken invariant (the
/// scheduler adds only what [`Units::fits_with`] its capacity) and panics
/// in debug builds.
impl Add for Units {
    type Output = Units;
    #[inline]
    fn add(self, rhs: Units) -> Units {
        Units(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }
}

impl AddAssign for Units {
    #[inline]
    fn add_assign(&mut self, rhs: Units) {
        *self = *self + rhs;
    }
}

/// Exact subtraction. A difference below zero is a broken invariant (the
/// scheduler subtracts only what it added) and panics in debug builds; use
/// [`Units::saturating_sub`] where it may be negative.
impl Sub for Units {
    type Output = Units;
    #[inline]
    fn sub(self, rhs: Units) -> Units {
        Units(std::array::from_fn(|i| self.0[i] - rhs.0[i]))
    }
}

impl SubAssign for Units {
    #[inline]
    fn sub_assign(&mut self, rhs: Units) {
        *self = *self - rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn catalog_requests_land_on_the_grid() {
        // 1 core at 0.25 Gbps is the finest catalog VM: every bucket of it
        // is a whole number of units.
        let one = Units::round_up(&ResourceVec::new(1.0, 2.0, 0.25, 16.0));
        assert_eq!(one, Units([20, 40, 20, 320]));
        for k in 0..=20 {
            let exact = one.scale_bucket([k; 4]);
            assert_eq!(exact.0, [k as u32, 2 * k as u32, k as u32, 16 * k as u32]);
        }
    }

    #[test]
    fn rounding_snaps_dust_and_otherwise_goes_its_way() {
        let dusty = ResourceVec::new(0.7, 4.0 * (7.0 * 0.05), 0.1 + 0.2, 1.0);
        assert_eq!(Units::round_up(&dusty), Units([14, 28, 24, 20]));
        assert_eq!(Units::round_down(&dusty), Units([14, 28, 24, 20]));
        let off = ResourceVec::new(0.51, 1.01, 0.001, 0.0);
        assert_eq!(Units::round_up(&off), Units([11, 21, 1, 0]));
        assert_eq!(Units::round_down(&off), Units([10, 20, 0, 0]));
        let odd = ResourceVec::new(f64::NAN, -1.0, f64::INFINITY, 1e300);
        assert_eq!(Units::round_up(&odd), Units([0, 0, u32::MAX, u32::MAX]));
    }

    #[test]
    fn an_off_grid_product_rounds_up() {
        // 3 units at the 5 % bucket: 0.15 of a unit costs a whole one.
        assert_eq!(Units([3, 0, 0, 0]).scale_bucket([1, 0, 0, 0]).0[0], 1);
        // Indices past 100 % read as 100 %.
        assert_eq!(Units::splat(7).scale_bucket([25; 4]), Units::splat(7));
    }

    #[test]
    fn fits_with_cannot_wrap() {
        let full = Units::splat(u32::MAX);
        assert!(!full.fits_with(&Units::splat(1), &full));
        assert!(full.fits_with(&Units::ZERO, &full));
    }

    proptest! {
        /// Units read back to the nearest float of the exact quotient, and
        /// that float goes back onto the grid where it came from.
        #[test]
        fn prop_grid_roundtrips(raw in prop::array::uniform4(0u32..10_000_000)) {
            let units = Units(raw);
            let back = units.to_resources();
            prop_assert_eq!(Units::round_up(&back), units);
            prop_assert_eq!(Units::round_down(&back), units);
        }

        /// Addition and subtraction are exact, so a sum does not depend on
        /// the order its terms came in.
        #[test]
        fn prop_sums_are_order_free(
            terms in prop::collection::vec(prop::array::uniform4(0u32..100_000), 1..40),
        ) {
            let forward = terms.iter().fold(Units::ZERO, |acc, t| acc + Units(*t));
            let backward = terms.iter().rev().fold(Units::ZERO, |acc, t| acc + Units(*t));
            prop_assert_eq!(forward, backward);
            let emptied = terms.iter().fold(forward, |acc, t| acc - Units(*t));
            prop_assert_eq!(emptied, Units::ZERO);
        }
    }
}
