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

/// A VM's absolute resource demand as seen by the scheduler.
///
/// All vectors are absolute quantities (cores, GB, …), obtained by scaling
/// the VM's request by predicted utilization fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct VmDemand {
    /// The VM.
    pub vm: VmId,
    /// What the customer asked for.
    pub requested: ResourceVec,
    /// Guaranteed portion (Formula 1 × request): always allocated.
    pub guaranteed: ResourceVec,
    /// Predicted maximum demand per time window (PA+VA working set).
    ///
    /// An inline-capable [`WindowVec`]: for the shipped window partitions
    /// (≤ 6 windows per day) building a demand and offering it to servers
    /// allocates nothing. That holds for the demand in flight, not for
    /// what a server keeps of one it hosts: [`crate::HostedDemand`] stores
    /// one window inline and boxes six.
    pub window_max: WindowVec,
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
        match policy {
            Policy::None => VmDemand::unpredicted(vm, requested),
            Policy::Single => {
                let peak_fraction = p.pmax.iter().fold(ResourceVec::ZERO, |acc, v| acc.max(v));
                let alloc = requested.scale_by(&peak_fraction).min(&requested);
                VmDemand {
                    vm,
                    requested,
                    guaranteed: alloc,
                    window_max: WindowVec::from_elem(alloc, 1),
                }
            }
            Policy::Coach => {
                let pa = requested.scale_by(&p.pa_fraction()).min(&requested);
                let window_max = p
                    .pmax
                    .iter()
                    .map(|f| requested.scale_by(f).min(&requested).max(&pa))
                    .collect();
                VmDemand {
                    vm,
                    requested,
                    guaranteed: pa,
                    window_max,
                }
            }
        }
    }

    /// Demand for a VM without prediction history: fully guaranteed.
    pub fn unpredicted(vm: VmId, requested: ResourceVec) -> VmDemand {
        VmDemand {
            vm,
            requested,
            guaranteed: requested,
            window_max: WindowVec::from_elem(requested, 1),
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
    pub fn window_peak(&self) -> ResourceVec {
        self.window_max
            .iter()
            .fold(ResourceVec::ZERO, |acc, v| acc.max(v))
    }

    /// Elementwise minimum over the per-window maxima: the mildest window.
    /// The scheduler's quick check rejects candidates with it, without a
    /// per-window scan.
    #[inline]
    pub fn window_trough(&self) -> ResourceVec {
        let mut it = self.window_max.iter();
        let first = *it.next().expect("demand has at least one window");
        it.fold(first, |acc, v| acc.min(v))
    }

    /// Formula (2): the oversubscribed (VA) portion in window `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.window_count()`.
    pub fn va_demand(&self, w: usize) -> ResourceVec {
        self.window_max[w].saturating_sub(&self.guaranteed)
    }

    /// The peak VA demand across windows (what a non-multiplexing allocator
    /// would reserve — the ablation baseline for Formula 4).
    pub fn va_peak(&self) -> ResourceVec {
        (0..self.window_count())
            .map(|w| self.va_demand(w))
            .fold(ResourceVec::ZERO, |acc, v| acc.max(&v))
    }

    /// Resources saved versus a full-request allocation, using the peak
    /// (window-max) footprint.
    pub fn savings(&self) -> ResourceVec {
        self.requested.saturating_sub(&self.window_peak())
    }

    /// Internal consistency: guaranteed ≤ every window max ≤ requested.
    pub fn is_well_formed(&self) -> bool {
        !self.window_max.is_empty()
            && self.guaranteed.is_valid()
            && self.guaranteed.fits_within(&self.requested)
            && self.window_max.iter().all(|w| {
                w.is_valid() && self.guaranteed.fits_within(w) && w.fits_within(&self.requested)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_types::{Bucket, TimeWindows};
    use proptest::prelude::*;

    fn prediction() -> DemandPrediction {
        let tw = TimeWindows::new(3);
        DemandPrediction {
            tw,
            // CPU fractions per window: 0.25 / 0.75 / 0.5; memory 0.5/0.5/0.75.
            pmax: [
                ResourceVec::new(0.25, 0.50, 0.1, 0.1),
                ResourceVec::new(0.75, 0.50, 0.1, 0.1),
                ResourceVec::new(0.50, 0.75, 0.1, 0.1),
            ]
            .into(),
            px: [
                ResourceVec::new(0.20, 0.45, 0.1, 0.1),
                ResourceVec::new(0.60, 0.45, 0.1, 0.1),
                ResourceVec::new(0.40, 0.70, 0.1, 0.1),
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
        assert_eq!(d.guaranteed, request());
        assert_eq!(d.window_max, WindowVec::from_elem(request(), 1));
        assert!(d.is_well_formed());
        assert!(d.savings().is_zero());
    }

    #[test]
    fn single_policy_allocates_lifetime_peak() {
        let d =
            VmDemand::from_prediction(VmId::new(1), request(), Policy::Single, Some(&prediction()));
        // Peak fractions: cpu 0.75, mem 0.75.
        assert_eq!(d.guaranteed.cpu(), 6.0);
        assert_eq!(d.guaranteed.memory(), 24.0);
        assert_eq!(d.window_count(), 1);
        assert!(d.is_well_formed());
        // Saves 25% of CPU and memory.
        assert_eq!(d.savings().cpu(), 2.0);
    }

    #[test]
    fn coach_policy_formulas() {
        let d =
            VmDemand::from_prediction(VmId::new(1), request(), Policy::Coach, Some(&prediction()));
        // Formula 1: PA fraction = max(px) = cpu 0.6, mem 0.7.
        assert_eq!(d.guaranteed.cpu(), 4.8);
        assert!((d.guaranteed.memory() - 22.4).abs() < 1e-9);
        assert_eq!(d.window_count(), 3);
        assert!(d.is_well_formed());
        // Formula 2: VA in window 1 (cpu window max 6.0 > PA 4.8).
        assert!((d.va_demand(1).cpu() - 1.2).abs() < 1e-9);
        assert_eq!(d.va_demand(0).cpu(), 0.0);
        // va_peak is the elementwise max.
        assert!((d.va_peak().cpu() - 1.2).abs() < 1e-9);
        assert!((d.va_peak().memory() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn missing_prediction_falls_back_to_request() {
        let d = VmDemand::from_prediction(VmId::new(2), request(), Policy::Coach, None);
        assert_eq!(d.guaranteed, request());
        assert!(d.is_well_formed());
    }

    #[test]
    fn window_max_never_below_guaranteed() {
        // Even if pmax < px in a window (possible with separate forests),
        // from_prediction clamps window_max up to the PA.
        let mut p = prediction();
        p.pmax[0] = ResourceVec::new(0.1, 0.1, 0.0, 0.0);
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
        let fractions = |idx: [usize; 4]| {
            let f = idx.map(|i| Bucket::from_index(i).fraction());
            ResourceVec::new(f[0], f[1], f[2], f[3])
        };
        let (mut pmax, mut px) = (WindowVec::new(), WindowVec::new());
        for (max, mut pct) in pairs[..windows].iter().copied() {
            if oracle_shaped {
                for (p, m) in pct.iter_mut().zip(max) {
                    *p = (*p).min(m);
                }
            }
            pmax.push(fractions(max));
            px.push(fractions(pct));
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
