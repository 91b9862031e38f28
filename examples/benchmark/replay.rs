//! Isolated replays of the two layers that cannot be injected into the
//! controller: the scheduler (`coach-sched`, plus the probe fill it serves)
//! and the violation accountant.
//!
//! [`replay_sched`] walks the same request sequence the timed run was fed,
//! with the same predictions, and makes the controller's calls —
//! `VmDemand::from_prediction`, `ClusterScheduler::place` / `remove`, the
//! probe measurement — in the controller's order (scheduled departures
//! retire by `(time, arrival sequence)` before an arrival at the same time),
//! each under its own [`Meter`]. It returns the placements as a log that
//! [`replay_account`] then feeds to a fresh `ViolationAccountant`. What the
//! replays count (places, rejects, violation samples) must equal what the
//! timed run reported; the workloads check that.

use crate::harness::Serving;
use crate::trace::{Meter, Scope, Stash, Totals};
use coach::sched::{ClusterScheduler, PlacementOutcome, VmDemand};
use coach::serve::{Request, ServeConfig, ViolationAccountant};
use coach::sim::{estimate_probe_capacity, measure_probe_capacity, probe_demand, ProbeMode};
use coach::trace::VmRecord;
use coach::types::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// What the accountant is told, in order.
// `Placed` dwarfs the others, but nearly every event is a `Placed`, and
// boxing the demand would add an allocation per placement to a log that is
// built once and walked once.
#[allow(clippy::large_enum_variant)]
pub enum AccountEvent<'a> {
    Placed {
        server: ServerId,
        capacity: ResourceVec,
        rec: &'a VmRecord,
        demand: VmDemand,
    },
    EarlyDeparture {
        server: ServerId,
        vm: VmId,
        now: Timestamp,
    },
    Advance(Timestamp),
}

/// The request mix, counted at the stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestMix {
    pub requests: u64,
    pub arrivals: u64,
    pub departs: u64,
    pub probes: u64,
    pub stats_barriers: u64,
}

impl RequestMix {
    pub fn add(&mut self, more: &RequestMix) {
        self.requests += more.requests;
        self.arrivals += more.arrivals;
        self.departs += more.departs;
        self.probes += more.probes;
        self.stats_barriers += more.stats_barriers;
    }
}

pub struct SchedReplay<'a> {
    pub demand: Totals,
    pub place: Totals,
    pub remove: Totals,
    pub probe: Totals,
    pub places: u64,
    pub rejects: u64,
    pub probe_total: u64,
    pub mix: RequestMix,
    pub log: Vec<AccountEvent<'a>>,
}

struct ClusterSlot {
    id: ClusterId,
    capacity: ResourceVec,
    sched: ClusterScheduler,
}

/// The controller's scheduling state, rebuilt outside it.
struct Shadow<'t> {
    slots: Vec<ClusterSlot>,
    /// Scheduled departures, popped in the controller's `(time, seq)` order.
    departures: BinaryHeap<Reverse<(Timestamp, u64, VmId)>>,
    /// `vm -> (cluster slot, server, arrival seq)`; a popped departure whose
    /// seq no longer matches was cancelled by an explicit one.
    resident: HashMap<VmId, (usize, ServerId, u64)>,
    remove_meter: Meter<'t>,
}

impl Shadow<'_> {
    fn drain(&mut self, until: Timestamp, inclusive: bool) {
        while let Some(&Reverse((when, seq, vm))) = self.departures.peek() {
            if when > until || (!inclusive && when == until) {
                break;
            }
            self.departures.pop();
            if let Some(&(ci, _, s)) = self.resident.get(&vm) {
                if s == seq {
                    self.resident.remove(&vm);
                    self.remove(ci, vm);
                }
            }
        }
    }

    fn remove(&mut self, ci: usize, vm: VmId) {
        let sched = &mut self.slots[ci].sched;
        self.remove_meter.time(1, || sched.remove(vm));
    }
}

/// Replay `requests` against fresh schedulers built the way
/// `Controller::new` builds them. `predictions` are the timed run's, in
/// arrival order.
pub fn replay_sched<'a>(
    scope: Scope<'_>,
    parent: usize,
    serving: &Serving<'_>,
    requests: impl Iterator<Item = Request<'a>>,
    predictions: &Stash,
) -> SchedReplay<'a> {
    let Serving { config, tw, .. } = *serving;
    let demand_meter = scope.meter("sched.demand", parent);
    let place_meter = scope.meter("sched.place", parent);
    let probe_meter = scope.meter("serve.probe", parent);

    let mut slots: Vec<ClusterSlot> = serving
        .clusters
        .iter()
        .map(|cluster| {
            let n =
                ((cluster.servers.len() as f64 * config.server_fraction).ceil() as usize).max(1);
            ClusterSlot {
                id: cluster.id,
                capacity: cluster.hardware.capacity,
                sched: ClusterScheduler::with_strategy(
                    &cluster.servers[..n],
                    cluster.hardware.capacity,
                    tw.count(),
                    config.heuristic,
                    config.scan,
                ),
            }
        })
        .collect();
    slots.sort_by_key(|c| c.id);
    let templates: Vec<VmDemand> = (0..tw.count())
        .map(|rotation| {
            probe_demand(
                0,
                config.policy.policy,
                config.policy.percentile,
                tw.count(),
                rotation,
            )
        })
        .collect();
    let mut shadow = Shadow {
        slots,
        departures: BinaryHeap::new(),
        resident: HashMap::new(),
        remove_meter: scope.meter("sched.remove", parent),
    };

    let mut places = 0u64;
    let mut rejects = 0u64;
    let mut probe_total = 0u64;
    let mut mix = RequestMix::default();
    let mut log = Vec::new();
    let mut seq = 0u64;
    let mut predictions = predictions.iter();
    for request in requests {
        mix.requests += 1;
        match request {
            Request::Arrive(rec) => {
                mix.arrivals += 1;
                shadow.drain(rec.arrival, true);
                let (vm, prediction) = predictions
                    .next()
                    .expect("one prediction per arrival of the timed run");
                assert_eq!(*vm, rec.id, "predictions are in arrival order");
                let ci = shadow
                    .slots
                    .binary_search_by_key(&rec.cluster, |c| c.id)
                    .expect("arrival for a known cluster");
                let demand = demand_meter.time(1, || {
                    VmDemand::from_prediction(
                        rec.id,
                        rec.demand(),
                        config.policy.policy,
                        prediction.as_deref(),
                    )
                });
                let slot = &mut shadow.slots[ci];
                let for_sched = demand.clone();
                match place_meter.time(1, || slot.sched.place(for_sched)) {
                    PlacementOutcome::Placed(server) => {
                        places += 1;
                        shadow.resident.insert(rec.id, (ci, server, seq));
                        if rec.departure > rec.arrival {
                            shadow
                                .departures
                                .push(Reverse((rec.departure, seq, rec.id)));
                        }
                        log.push(AccountEvent::Placed {
                            server,
                            capacity: slot.capacity,
                            rec,
                            demand,
                        });
                    }
                    PlacementOutcome::Rejected => rejects += 1,
                }
                seq += 1;
            }
            Request::Depart { vm, now } => {
                mix.departs += 1;
                shadow.drain(now, true);
                if let Some((ci, server, _)) = shadow.resident.remove(&vm) {
                    log.push(AccountEvent::EarlyDeparture { server, vm, now });
                    shadow.remove(ci, vm);
                }
            }
            Request::Probe { now } => {
                mix.probes += 1;
                shadow.drain(now, false);
                let slots = &mut shadow.slots;
                probe_total += probe_meter.time(1, || match config.probe_mode {
                    ProbeMode::Estimated => {
                        estimate_probe_capacity(slots.iter().map(|c| &c.sched), &templates)
                    }
                    // The fill leaves float dust in the schedulers, so the
                    // replay has to make it too, or later decisions drift.
                    ProbeMode::Exhaustive | ProbeMode::Differential => {
                        measure_probe_capacity(slots.iter_mut().map(|c| &mut c.sched), &templates)
                    }
                });
            }
            Request::Stats { now } => {
                mix.stats_barriers += 1;
                shadow.drain(now, false);
                log.push(AccountEvent::Advance(now));
            }
            Request::Tick { now } => {
                shadow.drain(now, true);
                log.push(AccountEvent::Advance(now));
            }
        }
    }
    shadow.drain(Timestamp::from_ticks(u64::MAX), true);
    SchedReplay {
        demand: demand_meter.totals(),
        place: place_meter.totals(),
        remove: shadow.remove_meter.totals(),
        probe: probe_meter.totals(),
        places,
        rejects,
        probe_total,
        mix,
        log,
    }
}

pub struct AccountReplay {
    pub busy: Totals,
    pub samples: u64,
    pub cpu_violations: u64,
    pub mem_violations: u64,
}

/// Feed the placement log to a fresh accountant, timing every call.
pub fn replay_account(
    scope: Scope<'_>,
    parent: usize,
    config: &ServeConfig,
    log: &[AccountEvent<'_>],
) -> AccountReplay {
    let meter = scope.meter("serve.account", parent);
    let mut accountant = ViolationAccountant::new(config.sample_every, config.horizon);
    for event in log {
        match event {
            AccountEvent::Placed {
                server,
                capacity,
                rec,
                demand,
            } => meter.time(1, || accountant.on_placed(*server, *capacity, rec, demand)),
            AccountEvent::EarlyDeparture { server, vm, now } => {
                meter.time(1, || accountant.on_early_departure(*server, *vm, *now))
            }
            AccountEvent::Advance(now) => meter.time(0, || accountant.advance(*now)),
        }
    }
    meter.time(0, || accountant.finish());
    let (samples, cpu_violations, mem_violations) = accountant.totals();
    AccountReplay {
        busy: meter.totals(),
        samples,
        cpu_violations,
        mem_violations,
    }
}
