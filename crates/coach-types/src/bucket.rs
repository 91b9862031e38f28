//! 5 %-bucket rounding used throughout the prediction and allocation paths.
//!
//! The paper predicts utilization in **5 % buckets** (e.g. 17.3 % → 20 %) and
//! conservatively rounds allocations *up* to the bucket boundary (§3.3,
//! "Coach configuration"). Rounding up is what makes the scheduling policy
//! robust: actual VA accesses stay well below the prediction percentile
//! (Fig 17a, `Worst` vs. measured).

/// Bucket width as a fraction (5 %).
pub const BUCKET_WIDTH: f64 = 0.05;

/// A utilization bucket: a fraction snapped to a multiple of 5 %.
///
/// # Example
///
/// ```
/// use coach_types::Bucket;
/// let b = Bucket::round_up(0.173);
/// assert_eq!(b.fraction(), 0.20);
/// assert_eq!(b.index(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Bucket(u8);

impl Bucket {
    /// The largest bucket (100 %).
    pub const MAX: Bucket = Bucket(20);

    /// Snap a fraction up to the next bucket boundary, clamped to `[0, 1]`.
    pub fn round_up(fraction: f64) -> Bucket {
        Bucket(to_index(fraction))
    }

    /// Build from a bucket index (`0..=20`), clamping out-of-range values.
    pub fn from_index(index: usize) -> Bucket {
        Bucket(index.min(20) as u8)
    }

    /// The bucket's fraction value in `[0, 1]`.
    pub fn fraction(self) -> f64 {
        f64::from(self.0) * BUCKET_WIDTH
    }

    /// Index `0..=20`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Percentage value `0..=100`.
    pub const fn percent(self) -> u32 {
        self.0 as u32 * 5
    }
}

impl std::fmt::Display for Bucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}%", self.percent())
    }
}

/// Rounding up is non-decreasing over the non-NaN inputs, ±∞ included:
/// an overflowed fraction clamps to 100 % like any other fraction above 1
/// (rounding *up* is the conservative direction), and only NaN, which has
/// no place in the order, maps to bucket 0.
fn to_index(fraction: f64) -> u8 {
    if fraction.is_nan() {
        return 0;
    }
    let f = fraction.clamp(0.0, 1.0);
    // Tolerate fp dust: 0.6000000000000001 / 0.05 = 12.000000000000002 must
    // round *up* to 12, not 13.
    let scaled = f / BUCKET_WIDTH;
    let snapped = scaled.round();
    let idx = if (scaled - snapped).abs() < 1e-9 {
        snapped
    } else {
        scaled.ceil()
    };
    (idx as u8).min(20)
}

/// Round a fraction up to the next 5 % boundary (free function convenience).
///
/// ```
/// assert_eq!(coach_types::bucket_up(0.173), 0.2);
/// ```
pub fn bucket_up(fraction: f64) -> f64 {
    Bucket::round_up(fraction).fraction()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example() {
        // §2.3: "rounded to 5% buckets (e.g., 17.3 → 20.0%)"
        assert_eq!(Bucket::round_up(0.173).percent(), 20);
    }

    #[test]
    fn exact_boundaries_stay_put() {
        for i in 0..=20 {
            let f = i as f64 * 0.05;
            assert_eq!(Bucket::round_up(f).index(), i, "up at {f}");
        }
    }

    #[test]
    fn fp_dust_does_not_bump_bucket() {
        // 0.05 * 12 computed the hard way.
        let f = 0.1 + 0.2 + 0.3; // 0.6000000000000001
        assert_eq!(Bucket::round_up(f).index(), 12);
    }

    #[test]
    fn clamping() {
        assert_eq!(Bucket::round_up(-0.3).index(), 0);
        assert_eq!(Bucket::round_up(1.7).index(), 20);
        assert_eq!(Bucket::round_up(f64::NAN).index(), 0);
        assert_eq!(Bucket::round_up(f64::INFINITY), Bucket::MAX);
        assert_eq!(Bucket::round_up(f64::NEG_INFINITY).index(), 0);
        assert_eq!(Bucket::from_index(99), Bucket::MAX);
    }

    /// The bucket edges `k · 0.05` and their neighbours on both sides: the
    /// fp-dust tolerance (1e-9 in scaled units, so 5e-11 here), just inside
    /// and outside it, and the nearest `f32` to the edge one ulp either way
    /// — where a monotonicity slip would hide.
    fn edge_values() -> Vec<f64> {
        let mut v = vec![f64::NEG_INFINITY, f64::INFINITY, -1.0, 2.0];
        for k in 0..=20 {
            let edge = k as f64 * BUCKET_WIDTH;
            for d in [0.0, 1e-12, 1e-9, 2e-9] {
                v.extend([edge - d, edge + d]);
            }
            let e32 = edge as f32;
            v.extend([e32, f32::from_bits(e32.to_bits() + 1)].map(f64::from));
            if e32 > 0.0 {
                v.push(f64::from(f32::from_bits(e32.to_bits() - 1)));
            }
        }
        v
    }

    #[test]
    fn display() {
        assert_eq!(Bucket::round_up(0.42).to_string(), "45%");
    }

    proptest! {
        #[test]
        fn prop_round_up_dominates(f in 0.0f64..1.0) {
            prop_assert!(bucket_up(f) >= f - 1e-9);
        }

        #[test]
        fn prop_up_down_within_one_bucket(f in 0.0f64..1.0) {
            prop_assert!(bucket_up(f) - f <= BUCKET_WIDTH + 1e-9);
        }

        #[test]
        fn prop_idempotent(f in 0.0f64..1.0) {
            let b = bucket_up(f);
            prop_assert_eq!(bucket_up(b), b);
        }

        /// `x ≤ y ⇒ round_up(x) ≤ round_up(y)`: two random values and one
        /// drawn edge value, each paired with every edge value. The
        /// analytic scan's decision-decided rule brackets a statistic
        /// between two bounds and stops once both round up alike, which
        /// is sound only if rounding up is non-decreasing.
        #[test]
        fn prop_round_up_is_monotone(a in -0.5f64..1.5, b in -0.5f64..1.5, i in 0usize..1024) {
            let edges = edge_values();
            let e = edges[i % edges.len()];
            let pairs = [(a, b)]
                .into_iter()
                .chain(edges.iter().flat_map(|&f| [(a, f), (b, f), (e, f)]));
            for (x, y) in pairs {
                let (x, y) = if x <= y { (x, y) } else { (y, x) };
                prop_assert!(
                    Bucket::round_up(x) <= Bucket::round_up(y),
                    "round_up({}) = {} > round_up({}) = {}",
                    x,
                    Bucket::round_up(x),
                    y,
                    Bucket::round_up(y)
                );
            }
        }
    }
}
