//! Helpers shared by the integration suites.

use coach_trace::{BehaviorTemplate, Cluster, Trace, VmRecord};
use coach_types::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Build a synthetic trace from raw (arrival, lifetime, size) triples: the
/// proptest harness for heap-driven event ordering, including simultaneous
/// arrivals/departures and zero-length VMs. VM `i`'s behavior profile is
/// drawn from an RNG seeded with `seed_base + i`.
pub fn trace_from_spans(spans: &[(u64, u64, u32)], horizon_days: u64, seed_base: u64) -> Trace {
    let horizon = Timestamp::from_days(horizon_days);
    let clusters: Vec<Cluster> = (0..2)
        .map(|c| Cluster {
            id: ClusterId::new(c),
            hardware: HardwareConfig::general_purpose_gen4(),
            servers: (c * 4..c * 4 + 4).map(ServerId::new).collect(),
        })
        .collect();
    let mut vms: Vec<VmRecord> = spans
        .iter()
        .enumerate()
        .map(|(i, &(arrival_h, lifetime_h, cores_sel))| {
            let mut rng = SmallRng::seed_from_u64(seed_base + i as u64);
            let profile = BehaviorTemplate::sample(&mut rng).instantiate(i as u64);
            let arrival = Timestamp::from_hours(arrival_h % (horizon_days * 24));
            VmRecord {
                id: VmId::new(i as u64),
                subscription: SubscriptionId::new(i as u64 % 7),
                subscription_type: SubscriptionType::External,
                offering: Offering::Iaas,
                config: VmConfig::general_purpose(1 + cores_sel % 8),
                cluster: ClusterId::new(i as u64 % 2),
                server: ServerId::new(0),
                arrival,
                departure: arrival + SimDuration::from_hours(lifetime_h),
                profile,
            }
        })
        .collect();
    // The online stream contract: arrival-sorted records (ties keep index
    // order, matching the batch sort's tie-break).
    vms.sort_by_key(|vm| vm.arrival);
    for (i, vm) in vms.iter_mut().enumerate() {
        vm.id = VmId::new(i as u64);
    }
    Trace {
        clusters,
        vms,
        horizon,
    }
}
