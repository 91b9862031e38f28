//! The Fig 20 cluster-scale experiment: additional sellable capacity and
//! performance violations per oversubscription policy.
//!
//! The paper replays production VM traces through the real allocator code
//! under four policies (§4.3). We replay a generated trace through
//! [`ClusterScheduler`] instances (one per cluster) with the server budget
//! scaled down so that packing quality is the binding constraint, then
//! simulate the actual utilization of the placed VMs to count contention.
//!
//! The replay is built to scale to million-VM traces: cluster occupancy is
//! tracked incrementally (no per-event scans), probe demands are memoized
//! per rotation, and the violation sweep precomputes per-server VM lifetimes
//! and per-window VA sums once, sampling servers in parallel via
//! [`coach_types::par_map`].

use crate::prediction::Predictor;
use crate::probe::{estimate_probe_capacity, paper_probe_times, probe_templates};
use coach_sched::{ClusterScheduler, PlacementOutcome, Policy, VmDemand};
use coach_trace::{Trace, VmRecord};
use coach_types::prelude::*;
use coach_types::{available_threads, par_map, par_map_threads};
use std::collections::HashMap;

/// A named policy point of Fig 20: the scheduling policy plus the
/// prediction percentile it runs at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Display label ("None", "Single", "Coach", "Aggr Coach").
    pub label: &'static str,
    /// Scheduling policy.
    pub policy: Policy,
    /// Prediction percentile for the guaranteed portion.
    pub percentile: Percentile,
}

impl PolicyConfig {
    /// The paper's four policies (Fig 20).
    pub fn paper_set() -> Vec<PolicyConfig> {
        vec![
            PolicyConfig {
                label: "None",
                policy: Policy::None,
                percentile: Percentile::P95,
            },
            PolicyConfig {
                label: "Single",
                policy: Policy::Single,
                percentile: Percentile::P95,
            },
            PolicyConfig {
                label: "Coach",
                policy: Policy::Coach,
                percentile: Percentile::P95,
            },
            PolicyConfig {
                label: "Aggr Coach",
                policy: Policy::Coach,
                percentile: Percentile::P50,
            },
        ]
    }
}

/// Result of one policy's packing replay.
#[derive(Debug, Clone, PartialEq)]
pub struct PackingResult {
    /// Policy label.
    pub label: &'static str,
    /// VMs accepted / rejected.
    pub accepted: u64,
    /// VMs rejected because no server could host them.
    pub rejected: u64,
    /// Accepted capacity in core-hours.
    pub accepted_core_hours: f64,
    /// Accepted capacity in GB-hours.
    pub accepted_gb_hours: f64,
    /// Additional typical VMs that fit on top of the resident population,
    /// averaged over probe times — the paper's "additional sellable
    /// capacity (additional VMs that can be hosted)" (Fig 20a).
    pub probe_capacity: f64,
    /// Peak number of servers hosting at least one VM (consolidation).
    pub peak_servers_in_use: usize,
    /// Fraction of (server, sample) points with CPU contention
    /// (used cores > 50 % of capacity, the paper's definition).
    pub cpu_violation_rate: f64,
    /// Fraction with memory contention: the VMs' combined working set
    /// exceeds the *backed* memory — guaranteed (Formula 3) plus the
    /// multiplexed oversubscribed pool (Formula 4) — ⇒ page faults.
    pub mem_violation_rate: f64,
}

impl PackingResult {
    /// Additional capacity versus a baseline result (Fig 20a's y-axis).
    pub fn additional_capacity_vs(&self, baseline: &PackingResult) -> f64 {
        if baseline.probe_capacity <= 0.0 {
            return 0.0;
        }
        self.probe_capacity / baseline.probe_capacity - 1.0
    }
}

/// Violation-sampling cadence shared by the batch sweep and the online
/// `coach-serve` accountant: actual utilization is sampled every two hours
/// of simulated time.
pub const VIOLATION_SAMPLE_EVERY: SimDuration = SimDuration::from_hours(2);

/// Replay `trace` under one policy with `server_fraction` of each cluster's
/// original servers, and simulate utilization to count violations.
///
/// # Panics
///
/// Panics if `server_fraction` is not in `(0, 1]`.
pub fn packing_experiment(
    trace: &Trace,
    predictions: &dyn Predictor,
    config: PolicyConfig,
    server_fraction: f64,
) -> PackingResult {
    packing_experiment_threads(
        trace,
        predictions,
        config,
        server_fraction,
        available_threads(),
    )
}

/// [`packing_experiment`] with an explicit worker-thread budget for the
/// violation pass — [`policy_sweep`] splits the machine across its four
/// concurrent experiments instead of oversubscribing it 4x.
fn packing_experiment_threads(
    trace: &Trace,
    predictions: &dyn Predictor,
    config: PolicyConfig,
    server_fraction: f64,
    violation_threads: usize,
) -> PackingResult {
    assert!(
        server_fraction > 0.0 && server_fraction <= 1.0,
        "server fraction in (0, 1]"
    );
    let tw = predictions.time_windows();

    // Build one scheduler per cluster with a reduced server budget.
    let mut schedulers: HashMap<ClusterId, ClusterScheduler> = HashMap::new();
    for cluster in &trace.clusters {
        let n = ((cluster.servers.len() as f64 * server_fraction).ceil() as usize).max(1);
        let ids: Vec<ServerId> = cluster.servers.iter().copied().take(n).collect();
        schedulers.insert(
            cluster.id,
            ClusterScheduler::new(&ids, cluster.hardware.capacity, tw.count()),
        );
    }

    // Event replay: arrivals and departures in time order.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum EventKind {
        // Departures first at equal timestamps (free before alloc).
        Depart,
        Arrive,
    }
    let mut events: Vec<(Timestamp, EventKind, usize)> = Vec::with_capacity(trace.vms.len() * 2);
    for (i, vm) in trace.vms.iter().enumerate() {
        events.push((vm.arrival, EventKind::Arrive, i));
        events.push((vm.departure, EventKind::Depart, i));
    }
    events.sort();

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut accepted_core_hours = 0.0;
    let mut accepted_gb_hours = 0.0;
    // Cluster-wide occupancy, tracked incrementally: per-scheduler
    // `servers_in_use` is O(1), and the cross-cluster total is updated by
    // the delta each event causes rather than re-summed per event.
    let mut peak_servers = 0usize;
    let mut in_use_total = 0usize;
    // vm index -> (hosting server, guaranteed memory and per-window VA
    // memory in grid units).
    let mut placement: HashMap<usize, (ServerId, u32, Vec<u32>)> = HashMap::new();

    // Probe demands depend only on (policy, percentile, windows, rotation):
    // one template per rotation.
    let probe_templates = probe_templates(&config, tw.count());

    // Probe times: three points spread across the horizon.
    let probe_times = paper_probe_times(trace.horizon);
    let mut probe_idx = 0usize;
    let mut probe_counts: Vec<u64> = Vec::new();

    for (time, kind, i) in events {
        // Measure spare capacity whenever we cross a probe time.
        while probe_idx < probe_times.len() && time >= probe_times[probe_idx] {
            probe_counts.push(estimate_probe_capacity(
                schedulers.values(),
                &probe_templates,
            ));
            probe_idx += 1;
        }
        let vm = &trace.vms[i];
        let sched = schedulers.get_mut(&vm.cluster).expect("cluster exists");
        let in_use_before = sched.servers_in_use();
        match kind {
            EventKind::Arrive => {
                let prediction = predictions.predict(vm, config.percentile);
                let demand = VmDemand::from_prediction(
                    vm.id,
                    vm.demand(),
                    config.policy,
                    prediction.as_ref(),
                );
                let memory = ResourceKind::Memory;
                let pa_mem = demand.guaranteed[memory];
                let va_mem: Vec<u32> = (0..demand.window_count())
                    .map(|w| demand.va_units(w)[memory])
                    .collect();
                match sched.place(&demand) {
                    PlacementOutcome::Placed(server) => {
                        accepted += 1;
                        let rh = vm.resource_hours();
                        accepted_core_hours += rh.cpu();
                        accepted_gb_hours += rh.memory();
                        placement.insert(i, (server, pa_mem, va_mem));
                    }
                    PlacementOutcome::Rejected => rejected += 1,
                }
            }
            EventKind::Depart => {
                if placement.contains_key(&i) {
                    sched.remove(vm.id);
                }
            }
        }
        in_use_total += sched.servers_in_use();
        in_use_total -= in_use_before;
        peak_servers = peak_servers.max(in_use_total);
    }
    while probe_idx < probe_times.len() {
        probe_counts.push(estimate_probe_capacity(
            schedulers.values(),
            &probe_templates,
        ));
        probe_idx += 1;
    }
    let probe_capacity = if probe_counts.is_empty() {
        0.0
    } else {
        probe_counts.iter().sum::<u64>() as f64 / probe_counts.len() as f64
    };

    // Violation pass: sample actual utilization of the placed VMs. Servers
    // are independent, so they are sampled in parallel; within a server the
    // alive set and its Formula 3/4 sums are maintained by an event sweep
    // over precomputed VM lifetimes instead of re-scanning every hosted VM
    // at every sample time.
    let sample_every = VIOLATION_SAMPLE_EVERY;
    // A VM no sample can see never touches a sum: it departs by the first
    // sample at or after its arrival, or that sample is past the horizon.
    let sampled = |vm: &VmRecord| {
        let first = vm.arrival.ticks().next_multiple_of(sample_every.ticks());
        first < vm.departure.ticks().min(trace.horizon.ticks())
    };
    let mut by_server_map: HashMap<ServerId, Vec<usize>> = HashMap::new();
    for (&i, (server, _, _)) in &placement {
        if sampled(&trace.vms[i]) {
            by_server_map.entry(*server).or_default().push(i);
        }
    }
    // Deterministic worker inputs regardless of hash order.
    let mut by_server: Vec<(ServerId, Vec<usize>)> = by_server_map.into_iter().collect();
    by_server.sort_by_key(|(s, _)| *s);
    let capacity_of: HashMap<ServerId, ResourceVec> = trace
        .clusters
        .iter()
        .flat_map(|c| c.servers.iter().map(move |&s| (s, c.hardware.capacity)))
        .collect();

    let per_server = par_map_threads(&by_server, violation_threads, |(server, vm_idxs)| {
        server_violation_stats(
            trace,
            &placement,
            capacity_of[server],
            vm_idxs,
            sample_every,
        )
    });
    let (samples, cpu_violations, mem_violations) = per_server
        .into_iter()
        .fold((0u64, 0u64, 0u64), |(s, c, m), (ds, dc, dm)| {
            (s + ds, c + dc, m + dm)
        });

    PackingResult {
        label: config.label,
        accepted,
        rejected,
        accepted_core_hours,
        accepted_gb_hours,
        probe_capacity,
        peak_servers_in_use: peak_servers,
        cpu_violation_rate: if samples > 0 {
            cpu_violations as f64 / samples as f64
        } else {
            0.0
        },
        mem_violation_rate: if samples > 0 {
            mem_violations as f64 / samples as f64
        } else {
            0.0
        },
    }
}

/// The memory a server backs at a sample: its admitted VMs' guaranteed
/// memory (Formula 3) plus the multiplexed oversubscribed pool, the largest
/// per-window sum of their VA memory (Formula 4), capped at physical
/// capacity. Both pools are exact sums of memory grid units, so they do not
/// depend on the order VMs arrived and left in; the total is read as GB
/// once, here. The batch sweep and the online accountant both compare with
/// it.
pub fn backed_memory(guaranteed: u64, va_sums: &[u64], capacity: &ResourceVec) -> f64 {
    let pool = va_sums.iter().copied().max().unwrap_or(0);
    Units::memory_sum_gb(guaranteed + pool).min(capacity.memory())
}

/// One server's violation statistics: `(samples, cpu_violations,
/// mem_violations)` over 2-hour samples of the trace horizon.
///
/// Lifetimes are sorted once; between samples the alive set is advanced
/// incrementally, carrying the running Formula 3 (guaranteed) and Formula 4
/// (per-window VA) memory sums with it.
fn server_violation_stats(
    trace: &Trace,
    placement: &HashMap<usize, (ServerId, u32, Vec<u32>)>,
    capacity: ResourceVec,
    vm_idxs: &[usize],
    sample_every: SimDuration,
) -> (u64, u64, u64) {
    let mut order: Vec<usize> = vm_idxs.to_vec();
    order.sort_by_key(|&i| (trace.vms[i].arrival, i));

    let mut samples = 0u64;
    let mut cpu_violations = 0u64;
    let mut mem_violations = 0u64;
    let mut next_arrival = 0usize;
    let mut active: Vec<usize> = Vec::new();
    let mut pa_sum = 0u64;
    let mut va_sums: Vec<u64> = Vec::new();

    let mut t = Timestamp::ZERO;
    while t < trace.horizon {
        // Admit VMs that have arrived by now (skipping any that already
        // departed between samples), then retire the departed.
        while next_arrival < order.len() && trace.vms[order[next_arrival]].arrival <= t {
            let i = order[next_arrival];
            next_arrival += 1;
            if trace.vms[i].departure > t {
                let (_, pa, va) = &placement[&i];
                pa_sum += u64::from(*pa);
                if va_sums.len() < va.len() {
                    va_sums.resize(va.len(), 0);
                }
                for (sum, &v) in va_sums.iter_mut().zip(va) {
                    *sum += u64::from(v);
                }
                active.push(i);
            }
        }
        active.retain(|&i| {
            if trace.vms[i].departure <= t {
                let (_, pa, va) = &placement[&i];
                pa_sum -= u64::from(*pa);
                for (sum, &v) in va_sums.iter_mut().zip(va) {
                    *sum -= u64::from(v);
                }
                false
            } else {
                true
            }
        });

        if !active.is_empty() {
            samples += 1;
            let mut used = ResourceVec::ZERO;
            for &i in &active {
                used += trace.vms[i].used_at(t);
            }
            if used.cpu() > 0.5 * capacity.cpu() {
                cpu_violations += 1;
            }
            // Memory contention: the working set exceeds the backed
            // memory.
            if used.memory() > backed_memory(pa_sum, &va_sums, &capacity) {
                mem_violations += 1;
            }
        }
        t += sample_every;
    }
    (samples, cpu_violations, mem_violations)
}

/// Run the full Fig 20 policy sweep. The four policies are independent
/// replays, so they run in parallel via [`coach_types::par_map`], each
/// granted an equal share of the machine for its inner violation pass.
pub fn policy_sweep(
    trace: &Trace,
    predictions: &dyn Predictor,
    server_fraction: f64,
) -> Vec<PackingResult> {
    let configs = PolicyConfig::paper_set();
    let inner_threads = available_threads().div_ceil(configs.len()).max(1);
    par_map(&configs, |&c| {
        packing_experiment_threads(trace, predictions, c, server_fraction, inner_threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_trace::{generate, TraceConfig};

    use crate::prediction::Oracle;

    fn setup() -> (Trace, Oracle) {
        let trace = generate(&TraceConfig::small(91));
        (trace, Oracle::new(TimeWindows::paper_default()))
    }

    #[test]
    fn none_policy_rejects_under_tight_budget() {
        let (trace, preds) = setup();
        let cfg = PolicyConfig::paper_set()[0];
        let r = packing_experiment(&trace, &preds, cfg, 0.5);
        assert_eq!(r.accepted + r.rejected, trace.vms.len() as u64);
        assert!(r.rejected > 0, "expected rejections at half the servers");
    }

    #[test]
    fn fig20a_capacity_ordering() {
        // Single > None; Coach > Single; AggrCoach >= Coach (Fig 20a).
        let (trace, preds) = setup();
        let results = policy_sweep(&trace, &preds, 1.0);
        let by = |l: &str| {
            results
                .iter()
                .find(|r| r.label == l)
                .expect("policy present")
        };
        let none = by("None");
        let single = by("Single");
        let coach = by("Coach");
        let aggr = by("Aggr Coach");
        assert!(
            single.probe_capacity > none.probe_capacity,
            "single {} <= none {}",
            single.probe_capacity,
            none.probe_capacity
        );
        assert!(
            coach.probe_capacity > single.probe_capacity,
            "coach {} <= single {}",
            coach.probe_capacity,
            single.probe_capacity
        );
        assert!(
            aggr.probe_capacity >= coach.probe_capacity,
            "aggr {} < coach {}",
            aggr.probe_capacity,
            coach.probe_capacity
        );
        // The headline: Coach hosts substantially more VMs than None
        // (paper: up to ~26% more; generous bounds for the small trace).
        let gain = coach.additional_capacity_vs(none);
        assert!(gain > 0.10, "coach gain over none {gain}");
    }

    #[test]
    fn fig20b_violations_grow_with_aggressiveness() {
        let (trace, preds) = setup();
        let results = policy_sweep(&trace, &preds, 0.5);
        let by = |l: &str| results.iter().find(|r| r.label == l).unwrap();
        // None never violates memory (full reservations).
        assert_eq!(by("None").mem_violation_rate, 0.0);
        // Aggressive oversubscription risks more memory violations than
        // conservative Coach.
        assert!(
            by("Aggr Coach").mem_violation_rate >= by("Coach").mem_violation_rate,
            "aggr {} < coach {}",
            by("Aggr Coach").mem_violation_rate,
            by("Coach").mem_violation_rate
        );
        // Coach keeps memory violations small (paper: <1%).
        assert!(
            by("Coach").mem_violation_rate < 0.05,
            "coach mem violations {}",
            by("Coach").mem_violation_rate
        );
    }

    #[test]
    fn consolidation_reduces_servers() {
        // With a generous budget, Coach packs into fewer servers than None
        // (the paper reports 44% fewer).
        let (trace, preds) = setup();
        let results = policy_sweep(&trace, &preds, 1.0);
        let by = |l: &str| results.iter().find(|r| r.label == l).unwrap();
        assert!(
            by("Coach").peak_servers_in_use <= by("None").peak_servers_in_use,
            "coach {} > none {}",
            by("Coach").peak_servers_in_use,
            by("None").peak_servers_in_use
        );
    }

    #[test]
    #[should_panic(expected = "server fraction")]
    fn bad_fraction_rejected() {
        let (trace, preds) = setup();
        let cfg = PolicyConfig::paper_set()[0];
        let _ = packing_experiment(&trace, &preds, cfg, 0.0);
    }
}
