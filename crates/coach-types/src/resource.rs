//! Resource kinds, resource vectors, and fungibility (paper Table 1).
//!
//! Coach manages **all** resources holistically. The scheduler and the
//! characterization analytics operate on [`ResourceVec`]: a fixed-size vector
//! with one slot per [`ResourceKind`] (CPU cores, memory GB, network Gbps,
//! SSD GB). The units are absolute quantities, not fractions; utilization
//! fractions live in [`crate::series`].

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Sub, SubAssign};

/// The four first-class resources Coach schedules and oversubscribes.
///
/// The paper's trace records CPU, memory, network, and storage utilization
/// per VM at 5-minute granularity (§2); the scheduler packs all four.
///
/// # Example
///
/// ```
/// use coach_types::ResourceKind;
/// assert_eq!(ResourceKind::ALL.len(), 4);
/// assert_eq!(ResourceKind::Cpu.to_string(), "CPU");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// CPU cores (hyper-threaded vCPUs normalized to cores, as in §2.1).
    Cpu,
    /// Memory space in GB. Non-fungible: pages must be re-assigned explicitly.
    Memory,
    /// Network bandwidth in Gbps.
    Network,
    /// Local SSD space in GB.
    Ssd,
}

impl ResourceKind {
    /// All resource kinds, in canonical vector order.
    pub const ALL: [ResourceKind; 4] = [
        ResourceKind::Cpu,
        ResourceKind::Memory,
        ResourceKind::Network,
        ResourceKind::Ssd,
    ];

    /// The number of resource kinds.
    pub const COUNT: usize = 4;

    /// Index of this kind inside a [`ResourceVec`].
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::Memory => 1,
            ResourceKind::Network => 2,
            ResourceKind::Ssd => 3,
        }
    }

    /// Inverse of [`ResourceKind::index`]. Returns `None` for out-of-range.
    ///
    /// ```
    /// use coach_types::ResourceKind;
    /// assert_eq!(ResourceKind::from_index(1), Some(ResourceKind::Memory));
    /// assert_eq!(ResourceKind::from_index(9), None);
    /// ```
    pub const fn from_index(i: usize) -> Option<ResourceKind> {
        match i {
            0 => Some(ResourceKind::Cpu),
            1 => Some(ResourceKind::Memory),
            2 => Some(ResourceKind::Network),
            3 => Some(ResourceKind::Ssd),
            _ => None,
        }
    }

    /// Whether the hypervisor can quickly reassign this resource between VMs
    /// (paper Table 1). Memory *space* and local-SSD *space* are
    /// non-fungible; CPU time and the bandwidth resources are fungible.
    pub const fn fungibility(self) -> Fungibility {
        match self {
            ResourceKind::Cpu => Fungibility::Fungible,
            ResourceKind::Memory => Fungibility::NonFungible,
            ResourceKind::Network => Fungibility::Fungible,
            ResourceKind::Ssd => Fungibility::NonFungible,
        }
    }

    /// The mechanism Coach uses to share this resource across CoachVMs
    /// (paper Table 1).
    pub const fn sharing_mechanism(self) -> SharingMechanism {
        match self {
            ResourceKind::Cpu => SharingMechanism::CpuGroups,
            ResourceKind::Memory => SharingMechanism::PaVaPortions,
            ResourceKind::Network => SharingMechanism::SharesReservationsCaps,
            ResourceKind::Ssd => SharingMechanism::DiskPartitions,
        }
    }

    /// Unit label used in reports ("cores", "GB", "Gbps", "GB").
    pub const fn unit(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cores",
            ResourceKind::Memory => "GB",
            ResourceKind::Network => "Gbps",
            ResourceKind::Ssd => "GB",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Cpu => "CPU",
            ResourceKind::Memory => "Memory",
            ResourceKind::Network => "Network",
            ResourceKind::Ssd => "SSD",
        };
        f.write_str(s)
    }
}

/// Whether a resource can be rapidly reassigned between VMs (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fungibility {
    /// Quickly reassignable (CPU time, bandwidths): the hypervisor multiplexes
    /// several VMs onto the same capacity.
    Fungible,
    /// Requires explicit, slow reassignment (memory pages must be paged out
    /// before the physical page can move; disk partitions are static).
    NonFungible,
}

/// Mechanism used to split a resource into guaranteed/oversubscribed portions
/// (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingMechanism {
    /// Static CPU groups for the guaranteed cores; the rest is oversubscribed.
    CpuGroups,
    /// PA-backed guaranteed portion + VA-backed oversubscribed portion mapped
    /// behind a zNUMA node.
    PaVaPortions,
    /// Hypervisor shares / reservations / caps (bandwidth resources).
    SharesReservationsCaps,
    /// Disk partitions / DDA / SR-IOV for local storage space.
    DiskPartitions,
}

impl fmt::Display for SharingMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SharingMechanism::CpuGroups => "CPU groups",
            SharingMechanism::PaVaPortions => "PA/VA portions, VA-backing",
            SharingMechanism::SharesReservationsCaps => "shares, reservations, caps",
            SharingMechanism::DiskPartitions => "disk partitions, DDA, SR-IOV",
        };
        f.write_str(s)
    }
}

/// A quantity per resource kind: `[cpu cores, memory GB, network Gbps, SSD GB]`.
///
/// `ResourceVec` is the lingua franca of the scheduler: VM demands, server
/// capacities, and per-time-window predicted utilizations are all resource
/// vectors, compared elementwise (`fits_within`) during bin packing.
///
/// # Example
///
/// ```
/// use coach_types::{ResourceKind, ResourceVec};
///
/// let demand = ResourceVec::new(4.0, 16.0, 2.0, 64.0);
/// let free = ResourceVec::new(8.0, 24.0, 10.0, 500.0);
/// assert!(demand.fits_within(&free));
/// assert_eq!((free - demand)[ResourceKind::Memory], 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVec(pub [f64; ResourceKind::COUNT]);

impl ResourceVec {
    /// The zero vector.
    pub const ZERO: ResourceVec = ResourceVec([0.0; ResourceKind::COUNT]);

    /// Create from explicit per-resource quantities.
    pub const fn new(cpu: f64, memory_gb: f64, network_gbps: f64, ssd_gb: f64) -> Self {
        ResourceVec([cpu, memory_gb, network_gbps, ssd_gb])
    }

    /// A vector with the same value in every slot.
    pub const fn splat(v: f64) -> Self {
        ResourceVec([v; ResourceKind::COUNT])
    }

    /// CPU cores.
    #[inline]
    pub const fn cpu(&self) -> f64 {
        self.0[0]
    }

    /// Memory in GB.
    #[inline]
    pub const fn memory(&self) -> f64 {
        self.0[1]
    }

    /// Network bandwidth in Gbps.
    #[inline]
    pub const fn network(&self) -> f64 {
        self.0[2]
    }

    /// Local SSD space in GB.
    #[inline]
    pub const fn ssd(&self) -> f64 {
        self.0[3]
    }

    /// Elementwise `self <= other` within `eps` slack on every resource.
    ///
    /// This is the feasibility check of the vector bin-packing scheduler
    /// (§3.3): a demand vector fits a free-capacity vector iff it fits on
    /// every dimension. A small epsilon absorbs floating-point dust from
    /// repeated add/subtract of allocations.
    #[inline]
    pub fn fits_within(&self, other: &ResourceVec) -> bool {
        const EPS: f64 = 1e-9;
        // Every slot compared, the results and-ed without a branch per
        // slot: the answer of a short-circuiting `all`, at one branch.
        self.0
            .iter()
            .zip(other.0.iter())
            .fold(true, |fits, (a, b)| fits & (*a <= *b + EPS))
    }

    /// Elementwise maximum.
    #[inline]
    pub fn max(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = *self;
        for i in 0..ResourceKind::COUNT {
            out.0[i] = out.0[i].max(other.0[i]);
        }
        out
    }

    /// Elementwise minimum.
    #[inline]
    pub fn min(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = *self;
        for i in 0..ResourceKind::COUNT {
            out.0[i] = out.0[i].min(other.0[i]);
        }
        out
    }

    /// Elementwise `max(0, self - other)` — saturating subtraction.
    #[inline]
    pub fn saturating_sub(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = ResourceVec::ZERO;
        for i in 0..ResourceKind::COUNT {
            out.0[i] = (self.0[i] - other.0[i]).max(0.0);
        }
        out
    }

    /// Elementwise multiplication (e.g. capacity × utilization fractions).
    #[inline]
    pub fn scale_by(&self, fractions: &ResourceVec) -> ResourceVec {
        let mut out = *self;
        for i in 0..ResourceKind::COUNT {
            out.0[i] *= fractions.0[i];
        }
        out
    }

    /// Elementwise division; slots where `other` is zero produce zero
    /// (a server with no SSD has zero utilization of it, not NaN).
    pub fn fraction_of(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = ResourceVec::ZERO;
        for i in 0..ResourceKind::COUNT {
            if other.0[i] > 0.0 {
                out.0[i] = self.0[i] / other.0[i];
            }
        }
        out
    }

    /// Elementwise clamp of every slot to `[lo, hi]`.
    pub fn clamp(&self, lo: f64, hi: f64) -> ResourceVec {
        let mut out = *self;
        for v in out.0.iter_mut() {
            *v = v.clamp(lo, hi);
        }
        out
    }

    /// True iff every slot is ≥ 0 and finite.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.0.iter().all(|v| v.is_finite() && *v >= 0.0)
    }

    /// True iff every slot is exactly zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|v| *v == 0.0)
    }

    /// The largest slot value.
    #[inline]
    pub fn max_element(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Iterate `(kind, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, f64)> + '_ {
        ResourceKind::ALL
            .into_iter()
            .map(|k| (k, self.0[k.index()]))
    }
}

impl Index<ResourceKind> for ResourceVec {
    type Output = f64;
    #[inline]
    fn index(&self, kind: ResourceKind) -> &f64 {
        &self.0[kind.index()]
    }
}

impl IndexMut<ResourceKind> for ResourceVec {
    #[inline]
    fn index_mut(&mut self, kind: ResourceKind) -> &mut f64 {
        &mut self.0[kind.index()]
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    #[inline]
    fn add(mut self, rhs: ResourceVec) -> ResourceVec {
        self += rhs;
        self
    }
}

impl AddAssign for ResourceVec {
    #[inline]
    fn add_assign(&mut self, rhs: ResourceVec) {
        for i in 0..ResourceKind::COUNT {
            self.0[i] += rhs.0[i];
        }
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    #[inline]
    fn sub(mut self, rhs: ResourceVec) -> ResourceVec {
        self -= rhs;
        self
    }
}

impl SubAssign for ResourceVec {
    #[inline]
    fn sub_assign(&mut self, rhs: ResourceVec) {
        for i in 0..ResourceKind::COUNT {
            self.0[i] -= rhs.0[i];
        }
    }
}

impl Mul<f64> for ResourceVec {
    type Output = ResourceVec;
    #[inline]
    fn mul(mut self, rhs: f64) -> ResourceVec {
        for v in self.0.iter_mut() {
            *v *= rhs;
        }
        self
    }
}

impl Div<f64> for ResourceVec {
    type Output = ResourceVec;
    #[inline]
    fn div(mut self, rhs: f64) -> ResourceVec {
        for v in self.0.iter_mut() {
            *v /= rhs;
        }
        self
    }
}

impl std::iter::Sum for ResourceVec {
    fn sum<I: Iterator<Item = ResourceVec>>(iter: I) -> ResourceVec {
        iter.fold(ResourceVec::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{{:.1} cores, {:.1} GB, {:.1} Gbps, {:.0} GB SSD}}",
            self.cpu(),
            self.memory(),
            self.network(),
            self.ssd()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kind_index_roundtrip() {
        for kind in ResourceKind::ALL {
            assert_eq!(ResourceKind::from_index(kind.index()), Some(kind));
        }
        assert_eq!(ResourceKind::from_index(4), None);
    }

    #[test]
    fn fungibility_matches_table1() {
        assert_eq!(ResourceKind::Cpu.fungibility(), Fungibility::Fungible);
        assert_eq!(ResourceKind::Memory.fungibility(), Fungibility::NonFungible);
        assert_eq!(ResourceKind::Network.fungibility(), Fungibility::Fungible);
        assert_eq!(ResourceKind::Ssd.fungibility(), Fungibility::NonFungible);
    }

    #[test]
    fn sharing_mechanisms_match_table1() {
        assert_eq!(
            ResourceKind::Memory.sharing_mechanism().to_string(),
            "PA/VA portions, VA-backing"
        );
        assert_eq!(
            ResourceKind::Cpu.sharing_mechanism(),
            SharingMechanism::CpuGroups
        );
    }

    #[test]
    fn arithmetic_basics() {
        let a = ResourceVec::new(2.0, 8.0, 1.0, 10.0);
        let b = ResourceVec::new(1.0, 4.0, 0.5, 5.0);
        assert_eq!(a + b, ResourceVec::new(3.0, 12.0, 1.5, 15.0));
        assert_eq!(a - b, b);
        assert_eq!(a * 0.5, b);
        assert_eq!(a / 2.0, b);
        assert_eq!(a.max(&b), a);
        assert_eq!(a.min(&b), b);
    }

    #[test]
    fn fits_within_is_elementwise() {
        let cap = ResourceVec::new(8.0, 32.0, 10.0, 100.0);
        assert!(ResourceVec::new(8.0, 32.0, 10.0, 100.0).fits_within(&cap));
        assert!(!ResourceVec::new(8.1, 1.0, 1.0, 1.0).fits_within(&cap));
        // One overflowing dimension is enough to fail.
        assert!(!ResourceVec::new(1.0, 33.0, 1.0, 1.0).fits_within(&cap));
    }

    #[test]
    fn fits_within_tolerates_fp_dust() {
        let cap = ResourceVec::splat(1.0);
        let dusty = ResourceVec::splat(1.0 + 1e-12);
        assert!(dusty.fits_within(&cap));
    }

    #[test]
    fn saturating_sub_never_negative() {
        let a = ResourceVec::new(1.0, 2.0, 3.0, 4.0);
        let b = ResourceVec::new(2.0, 1.0, 5.0, 4.0);
        let d = a.saturating_sub(&b);
        assert_eq!(d, ResourceVec::new(0.0, 1.0, 0.0, 0.0));
    }

    #[test]
    fn fraction_of_handles_zero_capacity() {
        let used = ResourceVec::new(1.0, 1.0, 1.0, 1.0);
        let cap = ResourceVec::new(2.0, 4.0, 0.0, 8.0);
        let f = used.fraction_of(&cap);
        assert_eq!(f, ResourceVec::new(0.5, 0.25, 0.0, 0.125));
    }

    #[test]
    fn sum_of_vecs() {
        let vs = vec![ResourceVec::splat(1.0), ResourceVec::splat(2.0)];
        let s: ResourceVec = vs.into_iter().sum();
        assert_eq!(s, ResourceVec::splat(3.0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", ResourceVec::ZERO).is_empty());
        assert!(!format!("{:?}", ResourceVec::ZERO).is_empty());
    }

    fn arb_vec() -> impl Strategy<Value = ResourceVec> {
        prop::array::uniform4(0.0f64..1000.0).prop_map(ResourceVec)
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_vec(), b in arb_vec()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_sub_add_roundtrip(a in arb_vec(), b in arb_vec()) {
            let r = (a + b) - b;
            for i in 0..4 {
                prop_assert!((r.0[i] - a.0[i]).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_max_is_upper_bound(a in arb_vec(), b in arb_vec()) {
            let m = a.max(&b);
            prop_assert!(a.fits_within(&m));
            prop_assert!(b.fits_within(&m));
        }

        #[test]
        fn prop_min_fits_both(a in arb_vec(), b in arb_vec()) {
            let m = a.min(&b);
            prop_assert!(m.fits_within(&a));
            prop_assert!(m.fits_within(&b));
        }

        #[test]
        fn prop_saturating_sub_valid(a in arb_vec(), b in arb_vec()) {
            prop_assert!(a.saturating_sub(&b).is_valid());
        }

        #[test]
        fn prop_fits_within_transitive(a in arb_vec(), b in arb_vec(), c in arb_vec()) {
            if a.fits_within(&b) && b.fits_within(&c) {
                // transitivity with epsilon slack: widen c slightly
                let widened = c + ResourceVec::splat(1e-8);
                prop_assert!(a.fits_within(&widened));
            }
        }
    }
}
