//! VM demand under an oversubscription policy: the quantities the scheduler
//! packs (§3.3, Formulas 1–4).

use coach_predict::DemandPrediction;
use coach_types::prelude::*;

/// The oversubscription policies evaluated in §4.3 (Fig 20).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// No oversubscription: allocate the full request for the VM lifetime.
    None,
    /// A single static oversubscription rate per VM (state-of-the-art
    /// baseline, e.g. Resource Central): allocate the predicted lifetime
    /// peak.
    Single,
    /// Coach: time-window-based demand with guaranteed/oversubscribed split
    /// (the paper runs it at P95; `AggrCoach` is the same policy at P50 —
    /// choose via the prediction percentile fed to the model).
    Coach,
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Policy::None => "None",
            Policy::Single => "Single",
            Policy::Coach => "Coach",
        })
    }
}

/// A VM's absolute resource demand as seen by the scheduler, on the
/// integer grid of [`Units`].
///
/// **Quantization.** A demand is quantized once, here, and the scheduler
/// only adds, subtracts and compares the result. The request goes onto the
/// grid first, rounded up ([`Units::round_up`]: a catalog request is on it
/// already). A prediction carries each value as its 5 % bucket index `k`
/// already, and the demand is `request units × k / 20`, ceil-divided from
/// integers ([`Units::scale_bucket`]) — never quantized from the `f64`
/// product, in which 4 cores × the 35 % bucket's fraction (`7 × 0.05`)
/// reads `1.4000000000000001`. No index is derived again here. For a
/// catalog VM the
/// product is whole: cores and GB are whole and network a multiple of
/// 0.25 Gbps, so the grid's 1/20 core, 1/20 GB and 1/80 Gbps divide it.
#[derive(Debug, Clone, PartialEq)]
pub struct VmDemand {
    /// The VM.
    pub vm: VmId,
    /// What the customer asked for.
    pub requested: ResourceVec,
    /// Guaranteed portion (Formula 1 × request): always allocated.
    pub guaranteed: Units,
    /// Predicted maximum demand per time window (PA+VA working set).
    ///
    /// An inline-capable [`WindowVec`]: for the shipped window partitions
    /// (≤ 6 windows per day) building a demand and offering it to servers
    /// allocates nothing. That holds for the demand in flight, not for
    /// what a server keeps of one it hosts: [`crate::HostedDemand`] stores
    /// one window inline and boxes six.
    pub window_max: WindowVec<Units>,
}

impl VmDemand {
    /// Build the demand for a policy from a prediction.
    ///
    /// * `None` ignores the prediction: guaranteed = requested everywhere.
    /// * `Single` allocates the predicted lifetime peak (max over windows)
    ///   as a static, fully-guaranteed allocation.
    /// * `Coach` applies Formulas 1–2: guaranteed = max over windows of the
    ///   PX prediction; per-window max = predicted window maximum.
    ///
    /// A `None` prediction (no group history) falls back to the full
    /// request — the paper's conservative no-oversubscription default.
    pub fn from_prediction(
        vm: VmId,
        requested: ResourceVec,
        policy: Policy,
        prediction: Option<&DemandPrediction>,
    ) -> VmDemand {
        let Some(p) = prediction else {
            return VmDemand::unpredicted(vm, requested);
        };
        let request = Units::round_up(&requested);
        match policy {
            Policy::None => VmDemand::unpredicted(vm, requested),
            Policy::Single => {
                let peak = p
                    .pmax
                    .iter()
                    .fold(ResourceBuckets::default(), |acc, v| acc.max(v));
                let alloc = request.scale_bucket(peak.indices());
                VmDemand {
                    vm,
                    requested,
                    guaranteed: alloc,
                    window_max: WindowVec::from_elem(alloc, 1),
                }
            }
            Policy::Coach => {
                let pa = p.pa();
                let guaranteed = request.scale_bucket(pa.indices());
                let window_max = p
                    .pmax
                    .iter()
                    .map(|max| request.scale_bucket(max.max(&pa).indices()))
                    .collect();
                VmDemand {
                    vm,
                    requested,
                    guaranteed,
                    window_max,
                }
            }
        }
    }

    /// Demand for a VM without prediction history: fully guaranteed.
    pub fn unpredicted(vm: VmId, requested: ResourceVec) -> VmDemand {
        let request = Units::round_up(&requested);
        VmDemand {
            vm,
            requested,
            guaranteed: request,
            window_max: WindowVec::from_elem(request, 1),
        }
    }

    /// Number of time windows this demand is expressed over.
    pub fn window_count(&self) -> usize {
        self.window_max.len()
    }

    /// Elementwise maximum over the per-window maxima: the worst single
    /// window this demand presents to any server. The scheduler's quick
    /// check accepts candidates with it, without a per-window scan.
    #[inline]
    pub fn window_peak(&self) -> Units {
        self.window_max
            .iter()
            .fold(Units::ZERO, |acc, v| acc.max(v))
    }

    /// Elementwise minimum over the per-window maxima: the mildest window.
    /// The scheduler's quick check rejects candidates with it, without a
    /// per-window scan.
    #[inline]
    pub fn window_trough(&self) -> Units {
        let mut it = self.window_max.iter();
        let first = *it.next().expect("demand has at least one window");
        it.fold(first, |acc, v| acc.min(v))
    }

    /// Formula (2): the oversubscribed (VA) portion in window `w`,
    /// subtracted on the grid and read as absolute quantities.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.window_count()`.
    pub fn va_demand(&self, w: usize) -> ResourceVec {
        self.va_units(w).to_resources()
    }

    /// Formula (2) on the grid: what the Formula 4 pools sum.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.window_count()`.
    pub fn va_units(&self, w: usize) -> Units {
        self.window_max[w].saturating_sub(&self.guaranteed)
    }

    /// Resources saved versus a full-request allocation, using the peak
    /// (window-max) footprint.
    pub fn savings(&self) -> ResourceVec {
        self.requested
            .saturating_sub(&self.window_peak().to_resources())
    }

    /// Internal consistency: guaranteed ≤ every window max ≤ requested (on
    /// the grid).
    pub fn is_well_formed(&self) -> bool {
        let request = Units::round_up(&self.requested);
        !self.window_max.is_empty()
            && self.requested.is_valid()
            && self.guaranteed.fits(&request)
            && self
                .window_max
                .iter()
                .all(|w| self.guaranteed.fits(w) && w.fits(&request))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_types::{Bucket, TimeWindows};
    use proptest::prelude::*;

    /// Buckets from indices: `k` is `k × 5 %`.
    fn buckets(idx: [usize; 4]) -> ResourceBuckets {
        ResourceBuckets(idx.map(Bucket::from_index))
    }

    fn prediction() -> DemandPrediction {
        let tw = TimeWindows::new(3);
        DemandPrediction {
            tw,
            // CPU per window: 25 / 75 / 50 %; memory 50 / 50 / 75 %.
            pmax: [
                buckets([5, 10, 2, 2]),
                buckets([15, 10, 2, 2]),
                buckets([10, 15, 2, 2]),
            ]
            .into(),
            // CPU 20 / 60 / 40 %; memory 45 / 45 / 70 %.
            px: [
                buckets([4, 9, 2, 2]),
                buckets([12, 9, 2, 2]),
                buckets([8, 14, 2, 2]),
            ]
            .into(),
        }
    }

    fn request() -> ResourceVec {
        ResourceVec::new(8.0, 32.0, 4.0, 128.0)
    }

    #[test]
    fn none_policy_allocates_request() {
        let d =
            VmDemand::from_prediction(VmId::new(1), request(), Policy::None, Some(&prediction()));
        assert_eq!(d.guaranteed, Units::round_up(&request()));
        assert_eq!(d.window_max, WindowVec::from_elem(d.guaranteed, 1));
        assert!(d.is_well_formed());
        assert!(d.savings().is_zero());
    }

    #[test]
    fn single_policy_allocates_lifetime_peak() {
        let d =
            VmDemand::from_prediction(VmId::new(1), request(), Policy::Single, Some(&prediction()));
        // Peak fractions: cpu 0.75, mem 0.75.
        assert_eq!(d.guaranteed.to_resources().cpu(), 6.0);
        assert_eq!(d.guaranteed.memory_gb(), 24.0);
        assert_eq!(d.window_count(), 1);
        assert!(d.is_well_formed());
        // Saves 25% of CPU and memory.
        assert_eq!(d.savings().cpu(), 2.0);
    }

    #[test]
    fn coach_policy_formulas() {
        let d =
            VmDemand::from_prediction(VmId::new(1), request(), Policy::Coach, Some(&prediction()));
        // Formula 1: PA fraction = max(px) = cpu 0.6, mem 0.7 — exactly
        // 96 and 448 units, read back as the nearest floats.
        assert_eq!(d.guaranteed.0[..2], [96, 448]);
        assert_eq!(d.guaranteed.to_resources().cpu(), 4.8);
        assert_eq!(d.guaranteed.memory_gb(), 22.4);
        assert_eq!(d.window_count(), 3);
        assert!(d.is_well_formed());
        // Formula 2: VA in window 1 (cpu window max 6.0 > PA 4.8).
        assert_eq!(d.va_demand(1).cpu(), 1.2);
        assert_eq!(d.va_demand(0).cpu(), 0.0);
    }

    /// Request × bucket is computed from integers: 4 cores at the 35 %
    /// bucket is 28 units, read back as 1.4 cores, where 4 × the bucket's
    /// fraction reads 1.4000000000000001 and would have cost a 29th unit
    /// had the float product been rounded up.
    #[test]
    fn a_bucket_product_is_exact_on_the_grid() {
        let b = Bucket::from_index(7);
        assert_eq!(4.0 * b.fraction(), 1.4000000000000001);
        let tw = TimeWindows::new(1);
        let prediction = DemandPrediction {
            tw,
            pmax: [ResourceBuckets::splat(b)].into(),
            px: [ResourceBuckets::splat(b)].into(),
        };
        let request = ResourceVec::new(4.0, 16.0, 1.0, 64.0);
        for policy in [Policy::Single, Policy::Coach] {
            let d = VmDemand::from_prediction(VmId::new(1), request, policy, Some(&prediction));
            assert_eq!(d.guaranteed, Units([28, 112, 28, 448]), "{policy}");
            assert_eq!(d.guaranteed.to_resources().cpu(), 1.4);
        }
    }

    #[test]
    fn missing_prediction_falls_back_to_request() {
        let d = VmDemand::from_prediction(VmId::new(2), request(), Policy::Coach, None);
        assert_eq!(d.guaranteed.to_resources(), request());
        assert!(d.is_well_formed());
    }

    #[test]
    fn window_max_never_below_guaranteed() {
        // Even if pmax < px in a window (possible with separate forests),
        // from_prediction clamps window_max up to the PA.
        let mut p = prediction();
        p.pmax[0] = buckets([2, 2, 0, 0]);
        let d = VmDemand::from_prediction(VmId::new(3), request(), Policy::Coach, Some(&p));
        assert!(d.is_well_formed());
    }

    /// A bucketed prediction over the first `windows` of `pairs`, each
    /// window's `(Pmax_t, PX_t)` bucket indices per resource; with
    /// `oracle_shaped` every `PX_t` is lowered to its window's `Pmax_t`.
    fn bucketed_prediction(
        pairs: &[([usize; 4], [usize; 4])],
        windows: usize,
        oracle_shaped: bool,
    ) -> DemandPrediction {
        let (mut pmax, mut px) = (WindowVec::new(), WindowVec::new());
        for (max, mut pct) in pairs[..windows].iter().copied() {
            if oracle_shaped {
                for (p, m) in pct.iter_mut().zip(max) {
                    *p = (*p).min(m);
                }
            }
            pmax.push(buckets(max));
            px.push(buckets(pct));
        }
        DemandPrediction {
            tw: TimeWindows::new(windows as u32),
            pmax,
            px,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// A demand reads nothing of a prediction but its decision form:
        /// under `None` and `Coach` always, under `Single` whenever every
        /// window's `Pmax_t` is at or above its `PX_t` (an oracle's shape);
        /// `pa_fraction` and every `va_fraction` are unchanged to the bit.
        #[test]
        fn from_prediction_reads_only_the_decision_form(
            windows_idx in 0usize..3,
            pairs in prop::collection::vec(
                (prop::array::uniform4(0usize..21), prop::array::uniform4(0usize..21)),
                24,
            ),
            oracle_shaped in 0u8..2,
            request in prop::array::uniform4(0.0f64..256.0),
            zeroed in prop::array::uniform4(0u8..3),
        ) {
            let windows = [1usize, 6, 24][windows_idx];
            let oracle_shaped = oracle_shaped == 1;
            let p = bucketed_prediction(&pairs, windows, oracle_shaped);
            let decided = p.clone().decision_form();
            let z = |i: usize| if zeroed[i] == 0 { 0.0 } else { request[i] };
            let requested = ResourceVec::new(z(0), z(1), z(2), z(3));

            for kind in ResourceKind::ALL {
                prop_assert_eq!(
                    p.pa_fraction()[kind].to_bits(),
                    decided.pa_fraction()[kind].to_bits()
                );
                for w in 0..windows {
                    prop_assert_eq!(
                        p.va_fraction(w)[kind].to_bits(),
                        decided.va_fraction(w)[kind].to_bits()
                    );
                }
            }
            for policy in [Policy::None, Policy::Single, Policy::Coach] {
                if policy == Policy::Single && !oracle_shaped {
                    continue;
                }
                let demand = |p: &DemandPrediction| {
                    VmDemand::from_prediction(VmId::new(9), requested, policy, Some(p))
                };
                prop_assert!(
                    demand(&p) == demand(&decided),
                    "{} over {} windows: {:?} != {:?}",
                    policy,
                    windows,
                    demand(&p),
                    demand(&decided)
                );
            }
        }
    }
}
