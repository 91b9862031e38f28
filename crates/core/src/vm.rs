//! The CoachVM: a general-purpose VM whose every resource is split into a
//! guaranteed and an oversubscribed portion (§3.2).

use coach_node::memory::VmMemoryConfig;
use coach_predict::{DemandPrediction, VmMeta};
use coach_sched::{Policy, VmDemand};
use coach_types::prelude::*;

/// A VM creation request, as the cluster manager receives it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmRequest {
    /// The VM id the platform assigned.
    pub id: VmId,
    /// Requested size.
    pub config: VmConfig,
    /// Customer subscription.
    pub subscription: SubscriptionId,
    /// Subscription type.
    pub subscription_type: SubscriptionType,
    /// Offering.
    pub offering: Offering,
    /// Request time.
    pub arrival: Timestamp,
    /// Whether the customer opted into oversubscription (§3.5 — CoachVMs
    /// "can be opt-in and discounted"). Opted-out VMs get full guarantees.
    pub opted_in: bool,
}

impl VmRequest {
    /// Prediction-model metadata for this request.
    pub fn meta(&self) -> VmMeta {
        VmMeta {
            config: self.config,
            subscription: self.subscription,
            subscription_type: self.subscription_type,
            offering: self.offering,
            arrival: self.arrival,
        }
    }
}

/// A provisioned CoachVM: the request plus the guaranteed/oversubscribed
/// split of every resource and the memory shape the host applies.
///
/// # Example
///
/// ```
/// use coach_core::{CoachVm, VmRequest};
/// use coach_types::prelude::*;
///
/// let request = VmRequest {
///     id: VmId::new(1),
///     config: VmConfig::general_purpose(4),
///     subscription: SubscriptionId::new(7),
///     subscription_type: SubscriptionType::External,
///     offering: Offering::Iaas,
///     arrival: Timestamp::ZERO,
///     opted_in: true,
/// };
/// // Without a prediction the VM is fully guaranteed (conservative).
/// let vm = CoachVm::provision(request, None);
/// assert_eq!(vm.guaranteed, request.config.demand());
/// assert!(vm.oversubscribed.is_zero());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoachVm {
    /// The original request.
    pub request: VmRequest,
    /// Guaranteed portion per resource (always allocated; Formula 1).
    pub guaranteed: ResourceVec,
    /// Oversubscribed portion per resource (peak demand − guaranteed).
    pub oversubscribed: ResourceVec,
    /// The scheduler demand (per-window vectors).
    pub demand: VmDemand,
    /// The host memory shape (PA/VA split, 1 GB granularity).
    pub memory: VmMemoryConfig,
}

impl CoachVm {
    /// Build a CoachVM from a request and an optional demand prediction.
    ///
    /// * No prediction, or an opted-out request ⇒ fully guaranteed
    ///   (equivalent to a classic general-purpose VM).
    /// * With a prediction ⇒ Formulas 1–2 via
    ///   [`VmDemand::from_prediction`], and the memory PA portion rounded
    ///   *up* to the platform's 1 GB granularity (§3.3).
    pub fn provision(request: VmRequest, prediction: Option<&DemandPrediction>) -> CoachVm {
        let effective = if request.opted_in { prediction } else { None };
        let demand = VmDemand::from_prediction(
            request.id,
            request.config.demand(),
            Policy::Coach,
            effective,
        );
        let guaranteed = demand.guaranteed.to_resources();
        let oversubscribed = demand
            .window_peak()
            .saturating_sub(&demand.guaranteed)
            .to_resources();

        // Memory shape: PA at 1 GB granularity, VA the remainder.
        let size_gb = request.config.memory_gb;
        let pa_gb = guaranteed.memory().ceil().min(size_gb);
        let memory = VmMemoryConfig::split(size_gb, pa_gb);

        CoachVm {
            request,
            guaranteed,
            oversubscribed,
            demand,
            memory,
        }
    }

    /// The VM id.
    pub fn id(&self) -> VmId {
        self.request.id
    }

    /// Resources saved versus a fully-guaranteed allocation (peak basis).
    pub fn savings(&self) -> ResourceVec {
        self.demand.savings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_predict::DemandPrediction;

    fn request(opted_in: bool) -> VmRequest {
        VmRequest {
            id: VmId::new(9),
            config: VmConfig::new(8, 32.0, 2.0, 128.0),
            subscription: SubscriptionId::new(3),
            subscription_type: SubscriptionType::External,
            offering: Offering::Iaas,
            arrival: Timestamp::from_hours(30),
            opted_in,
        }
    }

    fn prediction() -> DemandPrediction {
        let tw = TimeWindows::new(3);
        DemandPrediction {
            tw,
            pmax: [
                ResourceVec::splat(0.50),
                ResourceVec::splat(0.80),
                ResourceVec::splat(0.60),
            ]
            .into(),
            px: [
                ResourceVec::splat(0.45),
                ResourceVec::splat(0.70),
                ResourceVec::splat(0.55),
            ]
            .into(),
        }
    }

    #[test]
    fn provision_with_prediction_splits_resources() {
        let vm = CoachVm::provision(request(true), Some(&prediction()));
        // Guaranteed = max px = 0.7 of request.
        assert!((vm.guaranteed.memory() - 22.4).abs() < 1e-9);
        assert!((vm.guaranteed.cpu() - 5.6).abs() < 1e-9);
        // Oversubscribed = peak (0.8) - guaranteed (0.7) = 0.1 of request.
        assert!((vm.oversubscribed.memory() - 3.2).abs() < 1e-9);
        // Memory PA rounded up to 1 GB.
        assert_eq!(vm.memory.pa_gb, 23.0);
        assert_eq!(vm.memory.va_gb, 9.0);
        assert!(vm.demand.is_well_formed());
    }

    #[test]
    fn opted_out_requests_get_full_guarantees() {
        let vm = CoachVm::provision(request(false), Some(&prediction()));
        assert_eq!(vm.guaranteed, request(false).config.demand());
        assert!(vm.oversubscribed.is_zero());
        assert_eq!(vm.memory.va_gb, 0.0);
        assert!(vm.savings().is_zero());
    }

    #[test]
    fn no_prediction_means_no_oversubscription() {
        let vm = CoachVm::provision(request(true), None);
        assert_eq!(vm.guaranteed, request(true).config.demand());
    }

    #[test]
    fn savings_positive_under_prediction() {
        let vm = CoachVm::provision(request(true), Some(&prediction()));
        // Peak is 0.8 of request: 20% saved on every resource.
        assert!((vm.savings().memory() - 6.4).abs() < 1e-9);
        assert!((vm.savings().cpu() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn meta_roundtrip() {
        let r = request(true);
        let m = r.meta();
        assert_eq!(m.config, r.config);
        assert_eq!(m.subscription, r.subscription);
        assert_eq!(m.arrival, r.arrival);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use coach_predict::DemandPrediction;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Provisioning invariants hold for arbitrary (valid) predictions:
        /// guaranteed ≤ peak ≤ request on the grid, and memory PA+VA
        /// partitions the size.
        #[test]
        fn prop_provision_invariants(
            px in prop::collection::vec(0.0f64..1.0, 6),
            headroom in prop::collection::vec(0.0f64..0.5, 6),
            cores in 1u32..40,
            gb_per_core in 1.0f64..16.0,
        ) {
            let tw = TimeWindows::paper_default();
            let pmax: Vec<ResourceVec> = px
                .iter()
                .zip(&headroom)
                .map(|(p, h)| ResourceVec::splat((p + h).min(1.0)))
                .collect();
            let prediction = DemandPrediction {
                tw,
                pmax: pmax.into(),
                px: px.iter().map(|p| ResourceVec::splat(*p)).collect(),
            };
            let request = VmRequest {
                id: VmId::new(1),
                config: VmConfig::new(cores, f64::from(cores) * gb_per_core, 1.0, 64.0),
                subscription: SubscriptionId::new(1),
                subscription_type: SubscriptionType::External,
                offering: Offering::Iaas,
                arrival: Timestamp::ZERO,
                opted_in: true,
            };
            let vm = CoachVm::provision(request, Some(&prediction));

            // A request off the grid (`gb_per_core` is any float here)
            // costs its next grid unit: the bounds are the grid request.
            let grid_request = Units::round_up(&request.config.demand()).to_resources();
            prop_assert!(vm.demand.is_well_formed());
            prop_assert!(vm.guaranteed.fits_within(&grid_request));
            prop_assert!(vm.oversubscribed.is_valid());
            prop_assert!((vm.guaranteed + vm.oversubscribed)
                .fits_within(&(grid_request + ResourceVec::splat(1e-9))));
            // Memory shape partitions the VM size at >= 0 granularity, and
            // PA backs the guarantee up to the VM's size.
            let size_gb = request.config.memory_gb;
            prop_assert!((vm.memory.pa_gb + vm.memory.va_gb - size_gb).abs() < 1e-9);
            prop_assert!(vm.memory.pa_gb + 1e-9 >= vm.guaranteed.memory().min(size_gb));
        }
    }
}
