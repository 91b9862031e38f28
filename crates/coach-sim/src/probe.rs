//! Spare-capacity probing: the Fig 20a "additional sellable capacity"
//! measurement, shared by the batch replay and the online `coach-serve`
//! controller.
//!
//! The measurement is produced two ways:
//!
//! * [`estimate_probe_capacity`] — the production probe, and the only one
//!   the batch replay and the controller run on their schedulers: the sum
//!   of [`ClusterScheduler::estimate_probe_fill`] over the clusters, a
//!   greedy fill replayed on scratch copies of each server's sums, through
//!   the scheduler's own feasibility check, commit and candidate order,
//!   without mutating the scheduler (note the `&` iterator). It keeps one
//!   min-heap of servers per rotation, in candidate order, and drops a
//!   (server, rotation) for good the first time it rejects (the fill only
//!   adds load): a fill of `c` probes over `n` servers and `w` rotations
//!   runs exactly `c + n × w` feasibility checks.
//! * [`measure_probe_capacity`] — the reference the estimator is held to:
//!   greedily **place** probe VMs through the schedulers' public `place`
//!   until nothing fits, count them, then `remove` them all. Exact by
//!   definition, but it mutates the schedulers it is given and pays a
//!   candidate scan and two index moves per probe. Tests run it, and
//!   [`ProbeMode::Differential`] runs it on clones of the controller's
//!   schedulers.
//!
//! Measured per measurement on the benchmark's `churn_sharded` workload
//! (seed 2026, about 289k probes over two shards, 2-core box, traced runs):
//! the reference fill 1.44 s, the previous sorted-list estimator
//! 0.19–0.23 s, the heaps 0.024–0.028 s.
//!
//! Feasibility and commit are shared code, so the estimator is exact on
//! them by construction. What it walks on its own is the candidate order
//! and the rotation schedule; unit tests on the edge cases (empty cluster,
//! over-committed server, exact occupancy crossings), a proptest over
//! random churn × policy × scan, and `ProbeMode::Differential`
//! in `coach-serve` (both on every measurement of the differential suite)
//! hold it equal to the reference fill.

use crate::packing::PolicyConfig;
use coach_sched::{ClusterScheduler, PlacementOutcome, Policy, VmDemand};
use coach_types::prelude::*;

/// How a serving-path probe measurement is checked. Every mode measures
/// with [`estimate_probe_capacity`] and leaves the schedulers untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeMode {
    /// Measures as [`ProbeMode::Estimated`]. Kept so that snapshots which
    /// carry its wire byte (0), and callers that name it, keep working.
    Exhaustive,
    /// The estimator alone.
    #[default]
    Estimated,
    /// The estimator, and the reference fill ([`measure_probe_capacity`])
    /// on clones of the schedulers, with an assertion that the two counts
    /// agree. The mode the differential suite runs under.
    Differential,
}

/// The paper's probe schedule: three spare-capacity measurements spread
/// across the horizon (at 30 %, 55 %, and 80 % of it).
pub fn paper_probe_times(horizon: Timestamp) -> Vec<Timestamp> {
    [0.3, 0.55, 0.8]
        .iter()
        .map(|f| Timestamp::from_ticks((horizon.ticks() as f64 * f) as u64))
        .collect()
}

/// A typical general-purpose probe VM (4 cores / 16 GB), with a diurnal
/// prediction whose peak window rotates with `rotation` so that probes have
/// complementary patterns (as real tenants do, §2.3). The PX (guaranteed)
/// level follows the policy's percentile: P50 guarantees much less than
/// P95, which is where AggrCoach's extra capacity comes from.
///
/// Shared by the batch replay and the online `coach-serve` controller so
/// both measure spare capacity with byte-identical probe streams.
pub fn probe_demand(
    id: u64,
    policy: Policy,
    percentile: Percentile,
    windows: usize,
    rotation: usize,
) -> VmDemand {
    let requested = VmConfig::general_purpose(4).demand();
    if policy == Policy::None {
        return VmDemand::unpredicted(VmId::new(id), requested);
    }
    // Map the percentile to the PX/Pmax ratio of a typical diurnal VM:
    // P95 ≈ 0.85 of the window max, P50 ≈ 0.6.
    let px_ratio = 0.6 + 0.25 * ((percentile.value() - 50.0) / 45.0).clamp(0.0, 1.0);
    let mut pmax = WindowVec::new();
    let mut px = WindowVec::new();
    for w in 0..windows {
        // A raised bump centred on the rotated peak window.
        let d = (w + windows - rotation) % windows;
        let dist = d.min(windows - d) as f64 / (windows as f64 / 2.0);
        let peak = Bucket::round_up(0.35 + 0.45 * (1.0 - dist));
        pmax.push(ResourceBuckets::splat(peak));
        px.push(ResourceBuckets::splat(Bucket::round_up(
            peak.fraction() * px_ratio,
        )));
    }
    let prediction = coach_predict::DemandPrediction {
        tw: TimeWindows::paper_default(),
        pmax,
        px,
    };
    VmDemand::from_prediction(VmId::new(id), requested, policy, Some(&prediction))
}

/// The probe VM of each window rotation under `policy` — a pure function of
/// the policy and the window count, built once per experiment or
/// controller (and left out of snapshots).
pub fn probe_templates(policy: &PolicyConfig, windows: usize) -> Vec<VmDemand> {
    (0..windows)
        .map(|rotation| probe_demand(0, policy.policy, policy.percentile, windows, rotation))
        .collect()
}

/// Fill every cluster's spare room with probe VMs (rotating peak windows,
/// cloned from the memoized per-rotation templates), count them, and remove
/// them again — the reference measurement [`estimate_probe_capacity`] is
/// held to. It places into the schedulers it is given, so callers outside
/// tests hand it clones.
///
/// Probes are numbered from `1 << 40`, skipping any id the cluster already
/// hosts (a scenario's re-arrivals may use the same range). Ids never
/// affect feasibility or candidate order, so the count does not depend on
/// which ids the probes get.
///
/// The per-cluster probe sequence is deterministic and clusters are
/// independent, so the total is the same whatever order the schedulers are
/// visited in.
pub fn measure_probe_capacity<'a>(
    schedulers: impl Iterator<Item = &'a mut ClusterScheduler>,
    templates: &[VmDemand],
) -> u64 {
    let windows = templates.len();
    // The scheduler borrows the demand, so one copy per rotation serves
    // every probe: only the id changes.
    let mut probes = templates.to_vec();
    let mut placed_ids: Vec<u64> = Vec::new();
    let mut count = 0u64;
    let mut next_id = 1u64 << 40;
    for sched in schedulers {
        let mut consecutive_rejections = 0usize;
        let mut rotation = 0usize;
        while consecutive_rejections < windows {
            // The stream may already host VMs in the probes' id range (a
            // scenario's re-arrivals): skip any id this cluster holds.
            while sched.server_of(VmId::new(next_id)).is_some() {
                next_id += 1;
            }
            probes[rotation].vm = VmId::new(next_id);
            match sched.place(&probes[rotation]) {
                PlacementOutcome::Placed(_) => {
                    placed_ids.push(next_id);
                    count += 1;
                    consecutive_rejections = 0;
                }
                PlacementOutcome::Rejected => consecutive_rejections += 1,
            }
            next_id += 1;
            rotation = (rotation + 1) % windows;
        }
        // Remove this cluster's probes before moving on.
        for &id in placed_ids.iter() {
            sched.remove(VmId::new(id));
        }
        placed_ids.clear();
    }
    count
}

/// Estimate spare probe capacity without touching the schedulers: the sum
/// of each cluster's [`ClusterScheduler::estimate_probe_fill`].
///
/// Equal to [`measure_probe_capacity`] on the same scheduler state, at a
/// fraction of the cost: no candidate-index updates, no VM bookkeeping, no
/// removal pass — and `&ClusterScheduler`, so a measurement never changes
/// the state later decisions read.
pub fn estimate_probe_capacity<'a>(
    schedulers: impl Iterator<Item = &'a ClusterScheduler>,
    templates: &[VmDemand],
) -> u64 {
    schedulers
        .map(|sched| sched.estimate_probe_fill(templates))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_sched::{PlacementHeuristic, ScanStrategy};

    fn templates_for(policy: Policy, percentile: Percentile, windows: usize) -> Vec<VmDemand> {
        (0..windows)
            .map(|rotation| probe_demand(0, policy, percentile, windows, rotation))
            .collect()
    }

    fn coach_templates() -> Vec<VmDemand> {
        templates_for(
            Policy::Coach,
            Percentile::P95,
            TimeWindows::paper_default().count(),
        )
    }

    fn cluster(servers: u64, capacity: ResourceVec, windows: usize) -> ClusterScheduler {
        let ids: Vec<ServerId> = (0..servers).map(ServerId::new).collect();
        ClusterScheduler::new(&ids, capacity, windows)
    }

    fn assert_modes_agree(sched: &mut ClusterScheduler, templates: &[VmDemand], label: &str) {
        let estimated = estimate_probe_capacity(std::iter::once(&*sched), templates);
        let exhaustive = measure_probe_capacity(std::iter::once(sched), templates);
        assert_eq!(estimated, exhaustive, "{label}");
    }

    #[test]
    fn empty_cluster_agrees() {
        let windows = TimeWindows::paper_default().count();
        let mut sched = cluster(4, ResourceVec::new(96.0, 384.0, 40.0, 4096.0), windows);
        let templates = coach_templates();
        let estimated = estimate_probe_capacity(std::iter::once(&sched), &templates);
        assert!(estimated > 0, "empty servers host probes");
        assert_modes_agree(&mut sched, &templates, "empty cluster");
    }

    #[test]
    fn overcommitted_single_server_agrees_at_zero() {
        let windows = TimeWindows::paper_default().count();
        let mut sched = cluster(1, ResourceVec::new(16.0, 64.0, 10.0, 1024.0), windows);
        // Saturate the server's guaranteed memory completely.
        let full = VmDemand::unpredicted(VmId::new(1), ResourceVec::new(16.0, 64.0, 10.0, 1024.0));
        assert!(matches!(sched.place(full), PlacementOutcome::Placed(_)));
        let templates = coach_templates();
        assert_eq!(
            estimate_probe_capacity(std::iter::once(&sched), &templates),
            0,
            "no slack, no probes"
        );
        assert_modes_agree(&mut sched, &templates, "over-committed server");
    }

    #[test]
    fn exact_occupancy_crossing_agrees() {
        // Leave exactly one probe's guaranteed demand free: feasibility sits
        // on equality, where any divergence between the estimator's check
        // and the scheduler's would show.
        let windows = TimeWindows::paper_default().count();
        let templates = coach_templates();
        let probe_guar = templates[0].guaranteed.to_resources();
        let capacity = ResourceVec::new(16.0, 64.0, 10.0, 1024.0);
        let mut sched = cluster(1, capacity, windows);
        let filler = capacity.saturating_sub(&probe_guar);
        assert!(matches!(
            sched.place(VmDemand::unpredicted(VmId::new(1), filler)),
            PlacementOutcome::Placed(_)
        ));
        assert_modes_agree(&mut sched, &templates, "exact crossing");

        // Just past the boundary on the other side: a hair more rounds up
        // to one grid unit more of every resource.
        let mut sched = cluster(1, capacity, windows);
        let over = (filler + ResourceVec::splat(1e-7)).min(&capacity);
        assert!(matches!(
            sched.place(VmDemand::unpredicted(VmId::new(1), over)),
            PlacementOutcome::Placed(_)
        ));
        assert_modes_agree(&mut sched, &templates, "just past the crossing");
    }

    #[test]
    fn unpredicted_probes_broadcast_and_agree() {
        // Policy::None probes are 1-window demands against 6-window
        // servers: the broadcast rule must match too.
        let windows = TimeWindows::paper_default().count();
        let mut sched = cluster(3, ResourceVec::new(16.0, 64.0, 10.0, 1024.0), windows);
        let templates = templates_for(Policy::None, Percentile::P95, windows);
        assert_modes_agree(&mut sched, &templates, "unpredicted probes");
    }

    /// Three uneven pre-loads, so headroom ordering matters, under both
    /// scans.
    #[test]
    fn every_preload_and_scan_agrees() {
        let windows = TimeWindows::paper_default().count();
        let templates = coach_templates();
        for preload in [
            [0.7, 0.2, 0.5, 0.0, 0.35],
            [0.0, 0.6, 0.6, 0.25, 0.9],
            [0.45, 0.0, 0.1, 0.8, 0.45],
        ] {
            for scan in [ScanStrategy::Indexed, ScanStrategy::NaiveReference] {
                let ids: Vec<ServerId> = (0..5).map(ServerId::new).collect();
                let mut sched = ClusterScheduler::with_strategy(
                    &ids,
                    ResourceVec::new(16.0, 64.0, 10.0, 1024.0),
                    windows,
                    PlacementHeuristic::BestFit,
                    scan,
                );
                for (i, frac) in preload.iter().enumerate() {
                    if *frac > 0.0 {
                        let req = ResourceVec::new(16.0, 64.0, 10.0, 1024.0) * *frac;
                        let _ = sched.place(VmDemand::unpredicted(VmId::new(100 + i as u64), req));
                    }
                }
                assert_modes_agree(&mut sched, &templates, &format!("{preload:?}/{scan:?}"));
            }
        }
    }

    #[test]
    fn multi_cluster_totals_agree() {
        let windows = TimeWindows::paper_default().count();
        let templates = coach_templates();
        let mut clusters: Vec<ClusterScheduler> = (0..3)
            .map(|c| cluster(2 + c, ResourceVec::new(16.0, 64.0, 10.0, 1024.0), windows))
            .collect();
        let estimated = estimate_probe_capacity(clusters.iter(), &templates);
        let exhaustive = measure_probe_capacity(clusters.iter_mut(), &templates);
        assert_eq!(estimated, exhaustive);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use coach_sched::{PlacementHeuristic, ScanStrategy};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Random churn (places and removes of random multi-window demands)
        /// followed by a probe measurement: the estimator must equal the
        /// exhaustive fill exactly, for every policy's template set, under
        /// both scan strategies.
        #[test]
        fn prop_estimator_matches_exhaustive(
            ops in prop::collection::vec(
                (0u64..60, prop::collection::vec(0.05f64..1.0, 6), 0.05f64..0.9),
                1..60,
            ),
            policy_sel in 0usize..3,
            percentile_sel in 0usize..2,
            scan_sel in 0usize..2,
        ) {
            let windows = TimeWindows::paper_default().count();
            let capacity = ResourceVec::new(16.0, 64.0, 10.0, 1024.0);
            let ids: Vec<ServerId> = (0..4).map(ServerId::new).collect();
            let scan = [ScanStrategy::Indexed, ScanStrategy::NaiveReference][scan_sel];
            let mut sched = ClusterScheduler::with_strategy(
                &ids, capacity, windows, PlacementHeuristic::BestFit, scan,
            );
            for (i, (vm_raw, fracs, guar_frac)) in ops.iter().enumerate() {
                if i % 4 == 3 {
                    sched.remove(VmId::new(1000 + *vm_raw));
                    continue;
                }
                let request = ResourceVec::new(8.0, 32.0, 4.0, 256.0);
                let guaranteed = Units::round_up(&(request * *guar_frac));
                let window_max: Vec<Units> = fracs
                    .iter()
                    .map(|f| Units::round_up(&(request * *f)).max(&guaranteed))
                    .collect();
                let _ = sched.place(VmDemand {
                    vm: VmId::new(1000 + (i as u64 % 60)),
                    requested: request,
                    guaranteed,
                    window_max: window_max.into(),
                });
            }
            let policy = [Policy::None, Policy::Single, Policy::Coach][policy_sel];
            let percentile = [Percentile::P95, Percentile::P50][percentile_sel];
            let templates: Vec<VmDemand> = (0..windows)
                .map(|r| probe_demand(0, policy, percentile, windows, r))
                .collect();
            let estimated = estimate_probe_capacity(std::iter::once(&sched), &templates);
            let exhaustive = measure_probe_capacity(std::iter::once(&mut sched), &templates);
            prop_assert_eq!(estimated, exhaustive);
        }
    }
}
