//! Trace data model: VM records, clusters, and the trace container.

use crate::profile::VmProfile;
use coach_types::prelude::*;

/// One VM allocation in the trace — everything the paper records per VM
/// (§2 methodology): allocation/deallocation times, resource allocation, the
/// server it ran on, plus the behavior profile from which utilization is
/// materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct VmRecord {
    /// Unique id of this allocation.
    pub id: VmId,
    /// Customer subscription the VM belongs to.
    pub subscription: SubscriptionId,
    /// Subscription type (prediction feature).
    pub subscription_type: SubscriptionType,
    /// Offering (IaaS/PaaS — prediction feature).
    pub offering: Offering,
    /// Requested size.
    pub config: VmConfig,
    /// Cluster the VM was placed in.
    pub cluster: ClusterId,
    /// Server the VM ran on.
    pub server: ServerId,
    /// Allocation time.
    pub arrival: Timestamp,
    /// Deallocation time (exclusive).
    pub departure: Timestamp,
    /// Temporal behavior parameters.
    pub profile: VmProfile,
}

impl VmRecord {
    /// Lifetime of the VM.
    pub fn lifetime(&self) -> SimDuration {
        self.departure.since(self.arrival)
    }

    /// Whether the VM was alive at `t` (`arrival <= t < departure`).
    pub fn alive_at(&self, t: Timestamp) -> bool {
        self.arrival <= t && t < self.departure
    }

    /// True for VMs lasting longer than one day — the population the paper's
    /// underutilization analysis focuses on (§2.1).
    pub fn is_long_running(&self) -> bool {
        self.lifetime() > SimDuration::from_days(1)
    }

    /// Requested resources.
    pub fn demand(&self) -> ResourceVec {
        self.config.demand()
    }

    /// Utilization fractions at `t` (zero when not alive).
    pub fn util_at(&self, t: Timestamp) -> ResourceVec {
        if self.alive_at(t) {
            self.profile.util_vec_at(t)
        } else {
            ResourceVec::ZERO
        }
    }

    /// *Used* resources at `t` in absolute units (fraction × allocation).
    pub fn used_at(&self, t: Timestamp) -> ResourceVec {
        self.demand().scale_by(&self.util_at(t))
    }

    /// Materialize the full utilization series over the VM's lifetime — the
    /// explicit *eager* opt-in for consumers that genuinely need every
    /// 5-minute sample (raw-series plots, sample-percentile analytics).
    ///
    /// This allocates `4 × lifetime_ticks` floats — call per VM and drop,
    /// rather than materializing a whole trace at once. Consumers that only
    /// need windowed statistics should use [`VmRecord::window_stats`]
    /// instead, which derives them analytically from the profile.
    pub fn materialized(&self) -> ResourceSeries {
        self.profile.materialize(self.arrival, self.departure)
    }

    /// Windowed utilization statistics over the VM's lifetime, derived
    /// analytically from the behavior profile (no series materialization).
    /// Exactly equal to walking [`VmRecord::materialized`].
    pub fn window_stats(&self, tw: TimeWindows) -> ResourceWindowStats {
        self.profile.window_stats(tw, self.arrival, self.departure)
    }

    /// What Formulas 1–2 read of [`VmRecord::window_stats`] — per window,
    /// the lifetime maximum and percentile `p` of the per-day maxima —
    /// bit-identical to reading them off the exact statistics, without
    /// resolving most `(day, window)` cells
    /// ([`VmProfile::window_peaks`]).
    pub fn window_peaks(&self, tw: TimeWindows, p: Percentile) -> WindowPeaks {
        self.profile
            .window_peaks(tw, self.arrival, self.departure, p)
    }

    /// [`VmRecord::window_peaks`] rounded up to 5 % buckets and in decision
    /// form, bit for bit, resolving only the windows and cells that can
    /// still move Formulas 1–2's demand
    /// ([`VmProfile::window_decision_buckets`]) — what the serving oracle
    /// keeps.
    pub fn window_decision_buckets(&self, tw: TimeWindows, p: Percentile) -> WindowPeaks {
        self.profile
            .window_decision_buckets(tw, self.arrival, self.departure, p)
    }

    /// [`VmRecord::window_stats`] for a single resource.
    pub fn window_stats_for(&self, resource: ResourceKind, tw: TimeWindows) -> WindowStats {
        self.profile
            .window_stats_for(resource, tw, self.arrival, self.departure)
    }

    /// Lifetime peak utilization of one resource (fraction), derived
    /// analytically — equal to `materialized().get(resource).max()`.
    pub fn peak_util(&self, resource: ResourceKind) -> f32 {
        self.window_stats_for(resource, TimeWindows::single())
            .overall_max()
    }

    /// Resource-hours consumed: allocation × lifetime (per resource).
    pub fn resource_hours(&self) -> ResourceVec {
        self.demand() * self.lifetime().as_hours()
    }

    /// Grouping key: subscription only (Fig 12 grouping 1).
    pub fn group_by_subscription(&self) -> u64 {
        self.subscription.raw()
    }

    /// Grouping key: VM configuration only (Fig 12 grouping 2).
    pub fn group_by_config(&self) -> u64 {
        self.config.config_key()
    }

    /// Grouping key: subscription × configuration (Fig 12 grouping 3 — the
    /// one Coach's prediction model uses).
    pub fn group_by_subscription_and_config(&self) -> u64 {
        self.subscription
            .raw()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.config.config_key())
    }
}

/// A homogeneous pool of servers.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Cluster id.
    pub id: ClusterId,
    /// Hardware of every server in the cluster.
    pub hardware: HardwareConfig,
    /// Servers (ids are global across the trace).
    pub servers: Vec<ServerId>,
}

/// A complete trace: clusters, servers, and VM records over a time span.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// All clusters.
    pub clusters: Vec<Cluster>,
    /// All VM records, sorted by arrival time.
    pub vms: Vec<VmRecord>,
    /// End of the observation period (start is `Timestamp::ZERO`).
    pub horizon: Timestamp,
}

impl Trace {
    /// VMs alive at `t`.
    pub fn alive_at(&self, t: Timestamp) -> impl Iterator<Item = &VmRecord> {
        self.vms.iter().filter(move |vm| vm.alive_at(t))
    }

    /// Long-running VMs (> 1 day), the focus population of §2.3.
    pub fn long_running(&self) -> impl Iterator<Item = &VmRecord> {
        self.vms.iter().filter(|vm| vm.is_long_running())
    }

    /// The cluster record for an id.
    pub fn cluster(&self, id: ClusterId) -> Option<&Cluster> {
        self.clusters.iter().find(|c| c.id == id)
    }

    /// Total number of servers.
    pub fn server_count(&self) -> usize {
        self.clusters.iter().map(|c| c.servers.len()).sum()
    }

    /// Split at a timestamp into (week-1 VMs, week-2 VMs) by arrival: the
    /// prediction experiments train on VMs arriving before `split` and test
    /// on the rest (§2.3 "Are new VMs similar to old VMs?").
    pub fn split_by_arrival(&self, split: Timestamp) -> (Vec<&VmRecord>, Vec<&VmRecord>) {
        let mut before = Vec::new();
        let mut after = Vec::new();
        for vm in &self.vms {
            if vm.arrival < split {
                before.push(vm);
            } else {
                after.push(vm);
            }
        }
        (before, after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BehaviorTemplate;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_vm(id: u64, arrival_h: u64, departure_h: u64) -> VmRecord {
        let mut rng = SmallRng::seed_from_u64(id);
        let profile = BehaviorTemplate::sample(&mut rng).instantiate(id);
        VmRecord {
            id: VmId::new(id),
            subscription: SubscriptionId::new(id % 5),
            subscription_type: SubscriptionType::External,
            offering: Offering::Iaas,
            config: VmConfig::general_purpose(4),
            cluster: ClusterId::new(0),
            server: ServerId::new(id % 3),
            arrival: Timestamp::from_hours(arrival_h),
            departure: Timestamp::from_hours(departure_h),
            profile,
        }
    }

    #[test]
    fn lifetime_and_liveness() {
        let vm = test_vm(1, 2, 30);
        assert_eq!(vm.lifetime(), SimDuration::from_hours(28));
        assert!(vm.is_long_running());
        assert!(!vm.alive_at(Timestamp::from_hours(1)));
        assert!(vm.alive_at(Timestamp::from_hours(2)));
        assert!(vm.alive_at(Timestamp::from_hours(29)));
        assert!(!vm.alive_at(Timestamp::from_hours(30)));
        assert!(!test_vm(2, 0, 24).is_long_running()); // exactly one day
    }

    #[test]
    fn used_resources_bounded_by_demand() {
        let vm = test_vm(3, 0, 48);
        let t = Timestamp::from_hours(12);
        let used = vm.used_at(t);
        assert!(used.fits_within(&vm.demand()));
        assert_eq!(vm.used_at(Timestamp::from_hours(100)), ResourceVec::ZERO);
    }

    #[test]
    fn series_matches_lifetime() {
        let vm = test_vm(4, 1, 5);
        let s = vm.materialized();
        assert_eq!(s.len(), 4 * TICKS_PER_HOUR as usize);
        assert_eq!(s.start(), vm.arrival);
        // Series content agrees with util_at.
        let t = Timestamp::from_hours(2);
        let direct = vm.util_at(t);
        let from_series = s.at(t);
        for kind in ResourceKind::ALL {
            assert!((direct[kind] - from_series[kind]).abs() < 1e-6);
        }
    }

    #[test]
    fn lazy_window_stats_match_materialized() {
        let vm = test_vm(6, 3, 80);
        let tw = TimeWindows::paper_default();
        let lazy = vm.window_stats(tw);
        let eager = ResourceWindowStats::from_series(&vm.materialized(), tw);
        assert_eq!(lazy, eager);
        assert_eq!(
            vm.peak_util(ResourceKind::Cpu),
            vm.materialized().get(ResourceKind::Cpu).max()
        );
        assert_eq!(
            vm.window_stats_for(ResourceKind::Memory, tw),
            *lazy.get(ResourceKind::Memory)
        );
    }

    #[test]
    fn resource_hours_scale_with_lifetime() {
        let short = test_vm(5, 0, 1);
        let long = test_vm(5, 0, 10);
        assert!((long.resource_hours().cpu() - 10.0 * short.resource_hours().cpu()).abs() < 1e-9);
    }

    #[test]
    fn grouping_keys() {
        let a = test_vm(10, 0, 1);
        let mut b = test_vm(10, 0, 1);
        assert_eq!(
            a.group_by_subscription_and_config(),
            b.group_by_subscription_and_config()
        );
        b.config = VmConfig::general_purpose(8);
        assert_eq!(a.group_by_subscription(), b.group_by_subscription());
        assert_ne!(a.group_by_config(), b.group_by_config());
        assert_ne!(
            a.group_by_subscription_and_config(),
            b.group_by_subscription_and_config()
        );
    }

    #[test]
    fn trace_queries() {
        let trace = Trace {
            clusters: vec![Cluster {
                id: ClusterId::new(0),
                hardware: HardwareConfig::general_purpose_gen4(),
                servers: vec![ServerId::new(0), ServerId::new(1), ServerId::new(2)],
            }],
            vms: vec![test_vm(1, 0, 10), test_vm(2, 5, 40), test_vm(3, 20, 30)],
            horizon: Timestamp::from_days(2),
        };
        assert_eq!(trace.alive_at(Timestamp::from_hours(6)).count(), 2);
        assert_eq!(trace.long_running().count(), 1);
        assert_eq!(trace.server_count(), 3);
        assert_eq!(trace.cluster(ClusterId::new(0)).unwrap().servers.len(), 3);
        let (w1, w2) = trace.split_by_arrival(Timestamp::from_hours(15));
        assert_eq!(w1.len(), 2);
        assert_eq!(w2.len(), 1);
    }
}
