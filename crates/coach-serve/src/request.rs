//! The controller's wire vocabulary: requests in, responses and stats out.

use coach_sched::PlacementOutcome;
use coach_sim::PackingResult;
use coach_trace::VmRecord;
use coach_types::prelude::*;
use std::borrow::Borrow;

/// One unit of work for the [`Controller`](crate::Controller), generic
/// over how an arrival holds its record: [`Request`] borrows it,
/// [`StreamRequest`] owns it.
///
/// Requests must be fed in non-decreasing time order (the order a real
/// control plane receives them); the controller's departure calendar
/// supplies every event *between* requests, so the caller never pre-sorts
/// a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestOf<R> {
    /// A VM allocation request. The controller predicts its per-window
    /// demand, attempts placement, and (on success) schedules its departure
    /// from the record's deallocation time.
    Arrive(R),
    /// An explicit early deallocation (ahead of the scheduled departure).
    Depart {
        /// The VM to deallocate.
        vm: VmId,
        /// Request time.
        now: Timestamp,
    },
    /// Advance the clock: retire due departures and let the violation
    /// accountant sample up to (but excluding) `now`.
    Tick {
        /// The new current time.
        now: Timestamp,
    },
    /// Measure spare capacity by probe-filling every cluster (the Fig 20a
    /// "additional sellable capacity" measurement).
    Probe {
        /// Measurement time: state reflects every event strictly before it.
        now: Timestamp,
    },
    /// Snapshot the controller's counters. Like [`RequestOf::Tick`], the
    /// query advances the clock to `now` first (due departures retire, the
    /// accountant samples up to but excluding `now`), so the report is
    /// consistent with that time.
    Stats {
        /// Query time.
        now: Timestamp,
    },
}

/// A request whose arrival borrows its record from a materialized slice —
/// zero copies, and what [`Controller::handle`](crate::Controller::handle)
/// takes: the controller copies out what it keeps of a record.
pub type Request<'a> = RequestOf<&'a VmRecord>;

/// A request that owns its arrival record (a [`VmRecord`] is a flat value
/// — moving one is a memcpy, no heap graph), so request streams can be
/// derived from bounded-memory generators
/// ([`coach_trace::StreamingTrace`]) or synthesized by scenario
/// combinators ([`crate::scenario`]) without any backing storage. It is
/// also what every request becomes at the sharded dispatcher's front door.
pub type StreamRequest = RequestOf<VmRecord>;

impl<R: Borrow<VmRecord>> RequestOf<R> {
    /// The simulated time this request is for.
    pub fn time(&self) -> Timestamp {
        match self {
            RequestOf::Arrive(vm) => vm.borrow().arrival,
            RequestOf::Depart { now, .. }
            | RequestOf::Tick { now }
            | RequestOf::Probe { now }
            | RequestOf::Stats { now } => *now,
        }
    }

    /// View as a borrowed [`Request`] (e.g. to feed a single-shard
    /// [`Controller::handle`](crate::Controller::handle)).
    pub fn as_request(&self) -> Request<'_> {
        match *self {
            RequestOf::Arrive(ref vm) => RequestOf::Arrive(vm.borrow()),
            RequestOf::Depart { vm, now } => RequestOf::Depart { vm, now },
            RequestOf::Tick { now } => RequestOf::Tick { now },
            RequestOf::Probe { now } => RequestOf::Probe { now },
            RequestOf::Stats { now } => RequestOf::Stats { now },
        }
    }
}

impl StreamRequest {
    /// Lift a borrowed [`Request`] into an owning one — the one place an
    /// arrival record is cloned.
    pub fn from_request(req: Request<'_>) -> StreamRequest {
        match req {
            RequestOf::Arrive(vm) => RequestOf::Arrive(vm.clone()),
            RequestOf::Depart { vm, now } => RequestOf::Depart { vm, now },
            RequestOf::Tick { now } => RequestOf::Tick { now },
            RequestOf::Probe { now } => RequestOf::Probe { now },
            RequestOf::Stats { now } => RequestOf::Stats { now },
        }
    }
}

/// What the controller answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Outcome of an arrival.
    Admission {
        /// The VM that asked.
        vm: VmId,
        /// Placed (where) or rejected.
        outcome: PlacementOutcome,
    },
    /// Outcome of an explicit departure.
    Departed {
        /// The VM.
        vm: VmId,
        /// Whether it was resident.
        found: bool,
    },
    /// A clock tick was absorbed.
    Ticked,
    /// Probe capacity measured: additional typical VMs that fit right now.
    ProbeCapacity(u64),
    /// A stats snapshot.
    Stats(StatsReport),
}

/// O(1) counters snapshotted by a [`Request::Stats`] query.
///
/// Everything a Fig 20-style consumer needs — occupancy, probe-capacity
/// counters, violation counters — without touching scheduler internals:
/// occupancy is the controller's incrementally maintained total (each
/// [`coach_sched::ClusterScheduler::servers_in_use`] is itself O(1)), and
/// the violation counters come from the incremental accountant, not a
/// rescan. Every field is a function of the request stream alone; wall
/// time and thread scheduling (admission latency, lane traffic, worker
/// restarts) live in the telemetry registry
/// ([`crate::telemetry::metric`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    /// Query time.
    pub now: Timestamp,
    /// Arrivals admitted.
    pub accepted: u64,
    /// Arrivals rejected.
    pub rejected: u64,
    /// Departures processed (scheduled or explicit).
    pub departed: u64,
    /// VMs currently resident.
    pub resident_vms: usize,
    /// Servers currently hosting at least one VM (O(1), incremental).
    pub servers_in_use: usize,
    /// Peak of `servers_in_use` over the event history.
    pub peak_servers_in_use: usize,
    /// Accepted capacity in core-hours.
    pub accepted_core_hours: f64,
    /// Accepted capacity in GB-hours.
    pub accepted_gb_hours: f64,
    /// Probe measurements taken.
    pub probe_measurements: u64,
    /// Total probe VMs placed across all measurements.
    pub probe_capacity_total: u64,
    /// Violation samples accumulated by the accountant (< `now`).
    pub violation_samples: u64,
    /// Samples with CPU contention.
    pub cpu_violations: u64,
    /// Samples with memory contention.
    pub mem_violations: u64,
    /// Clock ticks absorbed.
    pub ticks: u64,
}

impl StatsReport {
    /// Mean probe capacity per measurement (Fig 20a's y-axis input).
    pub fn probe_capacity(&self) -> f64 {
        if self.probe_measurements == 0 {
            0.0
        } else {
            self.probe_capacity_total as f64 / self.probe_measurements as f64
        }
    }

    /// Fraction of violation samples with CPU contention.
    pub fn cpu_violation_rate(&self) -> f64 {
        if self.violation_samples == 0 {
            0.0
        } else {
            self.cpu_violations as f64 / self.violation_samples as f64
        }
    }

    /// Fraction of violation samples with memory contention.
    pub fn mem_violation_rate(&self) -> f64 {
        if self.violation_samples == 0 {
            0.0
        } else {
            self.mem_violations as f64 / self.violation_samples as f64
        }
    }

    /// Assemble the batch experiment's result struct from online counters —
    /// how `fig20`-style consumers plug the serving path into existing
    /// reporting.
    pub fn to_packing_result(&self, label: &'static str) -> PackingResult {
        PackingResult {
            label,
            accepted: self.accepted,
            rejected: self.rejected,
            accepted_core_hours: self.accepted_core_hours,
            accepted_gb_hours: self.accepted_gb_hours,
            probe_capacity: self.probe_capacity(),
            peak_servers_in_use: self.peak_servers_in_use,
            cpu_violation_rate: self.cpu_violation_rate(),
            mem_violation_rate: self.mem_violation_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_report_rates() {
        let s = StatsReport {
            probe_measurements: 4,
            probe_capacity_total: 100,
            violation_samples: 200,
            cpu_violations: 20,
            mem_violations: 2,
            ..StatsReport::default()
        };
        assert_eq!(s.probe_capacity(), 25.0);
        assert_eq!(s.cpu_violation_rate(), 0.1);
        assert_eq!(s.mem_violation_rate(), 0.01);
        let pr = s.to_packing_result("Coach");
        assert_eq!(pr.probe_capacity, 25.0);
        assert_eq!(StatsReport::default().probe_capacity(), 0.0);
    }
}
