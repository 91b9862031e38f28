//! The single-shard event-driven cluster controller.

use crate::account::{AccountantDump, ViolationAccountant};
use crate::calendar::DepartureCalendar;
use crate::request::{Request, Response, StatsReport};
use crate::telemetry::{ControllerTelemetry, ADMISSION_SAMPLE_EVERY};
use crate::wire::Snapshot;
use coach_predict::DemandPrediction;
use coach_sched::{
    ClusterScheduler, ClusterSchedulerDump, PlacementHeuristic, PlacementOutcome, ScanStrategy,
    VmDemand,
};
use coach_sim::{
    estimate_probe_capacity, measure_probe_capacity, probe_templates, PackingResult, PolicyConfig,
    Predictor, ProbeMode, VIOLATION_SAMPLE_EVERY,
};
use coach_telemetry::{Registry, SpanRing, TelemetryConfig};
use coach_trace::{Cluster, Trace, VmRecord};
use coach_types::prelude::*;
use coach_wire::WireError;
use std::collections::hash_map::Entry;
use std::time::Instant;

/// Arrivals per [`Predictor::predict_batch`] call: the unit a segment is
/// derived in, wherever it is derived. Large enough that a batch-capable
/// source (the forest's tree-major sweep) amortizes its per-call work,
/// small enough that a worker deriving its own segment holds one chunk of
/// predictions at a time.
pub(crate) const DERIVE_CHUNK: usize = 64;

/// A segment's predictions as the dispatcher derived them, index for
/// index with its records — or empty, and the worker derives the segment
/// itself.
pub(crate) type Derived = Vec<Option<DemandPrediction>>;

/// Derive `recs` in stream order, one [`Predictor::predict_batch`] call
/// per [`DERIVE_CHUNK`] arrivals, each recorded as a `derive.chunk` span
/// when `spans` is armed: the one derive loop, run by a controller over
/// its own segments and by a dispatcher that derives at the front door.
pub(crate) fn derive(
    predictor: &dyn Predictor,
    percentile: Percentile,
    recs: &[&VmRecord],
    mut spans: Option<&mut SpanRing>,
) -> Derived {
    let mut predictions = Vec::with_capacity(recs.len());
    for chunk in recs.chunks(DERIVE_CHUNK) {
        let start = spans.is_some().then(SpanRing::begin);
        predictions.extend(predictor.predict_batch(chunk, percentile));
        if let (Some(ring), Some(start)) = (spans.as_deref_mut(), start) {
            ring.end("derive.chunk", start);
        }
    }
    predictions
}

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// The oversubscription policy this controller admits under.
    pub policy: PolicyConfig,
    /// Fraction of each cluster's servers to build (mirrors the batch
    /// experiment's reduced server budget). Must be in `(0, 1]`.
    pub server_fraction: f64,
    /// Placement heuristic. Read by nothing and never on the wire: every
    /// scheduler packs BestFit (the paper's heuristic), and the field stays
    /// only because the frozen benchmark passes it on.
    pub heuristic: PlacementHeuristic,
    /// Candidate-search strategy.
    pub scan: ScanStrategy,
    /// End of the violation-sampling range.
    pub horizon: Timestamp,
    /// Violation-sampling cadence (the batch sweep's two hours by default).
    pub sample_every: SimDuration,
    /// How [`Request::Probe`] measurements are checked. Every mode measures
    /// with the read-only estimator, as the batch replay does;
    /// [`ProbeMode::Differential`] also runs the reference fill on clones
    /// of the schedulers and asserts that the counts agree.
    pub probe_mode: ProbeMode,
    /// How much telemetry the deployment records
    /// ([`coach_telemetry::TelemetryConfig`]): `Off` (default) compiles
    /// instrumented call sites down to a `None` check — nothing on the
    /// admission path reads the clock — and `Full` arms the registry and
    /// span tracing, admission latency included. Decisions, snapshots and
    /// [`StatsReport`]s are bit-identical in both. A pure runtime knob: it
    /// never crosses the wire (snapshots restore with telemetry Off and
    /// the deployment re-arms).
    pub telemetry: TelemetryConfig,
}

impl ServeConfig {
    /// The configuration matching [`coach_sim::packing_experiment`]'s
    /// semantics for a given policy, budget, and horizon.
    pub fn replaying(policy: PolicyConfig, server_fraction: f64, horizon: Timestamp) -> Self {
        ServeConfig {
            policy,
            server_fraction,
            heuristic: PlacementHeuristic::BestFit,
            scan: ScanStrategy::Indexed,
            horizon,
            sample_every: VIOLATION_SAMPLE_EVERY,
            probe_mode: ProbeMode::Estimated,
            telemetry: TelemetryConfig::Off,
        }
    }
}

/// One cluster as the controller runs it.
#[derive(Debug)]
struct ClusterState {
    id: ClusterId,
    sched: ClusterScheduler,
}

/// An occupancy delta: `(time, kind, seq)` is the batch replay's exact
/// event-sort key (departures before arrivals at equal times, then arrival
/// sequence), so merging shard timelines reconstructs the global order.
pub(crate) type OccDelta = (u64, u8, u64, i32);

/// Aggregate counters (see [`StatsReport`] for the documented view).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    accepted: u64,
    rejected: u64,
    departed: u64,
    ticks: u64,
    accepted_core_hours: f64,
    accepted_gb_hours: f64,
}

/// An online, event-driven cluster controller over the indexed
/// [`ClusterScheduler`] and a [`Predictor`].
///
/// Feed it a time-ordered stream of [`Request`]s; departures are managed
/// internally in a [`DepartureCalendar`] (FIFOs keyed by departure time,
/// popped in the batch replay's event-sort order), so every event costs
/// O(log distinct departure times) and no pre-sorted batch exists
/// anywhere. Driven by [`crate::RequestSource::replaying`], its admission
/// decisions, probe measurements, occupancy peak, and violation rates are
/// **identical** to [`coach_sim::packing_experiment`] on the same workload
/// — bit-exact, floating-point sums included — enforced by differential
/// tests across seeds, policies, and random interleavings.
///
/// The `'a` lifetime ties the controller to its *predictor* only. Request
/// records are never kept: the resident map and the accountant copy out
/// the few fields they read, so arrivals may borrow from transient buffers
/// — the streaming ingestion path feeds bounded chunks that are dropped as
/// soon as each segment is handled.
pub struct Controller<'a> {
    config: ServeConfig,
    predictor: &'a dyn Predictor,
    tw: TimeWindows,
    /// Sorted by cluster id; arrivals resolve their cluster by binary
    /// search instead of a hash probe.
    clusters: Vec<ClusterState>,
    /// Resident VMs: the index of the cluster each was placed in (into
    /// `clusters`) and the arrival `seq` it was admitted under. The server
    /// is not kept: the cluster's scheduler returns it from `remove`.
    residents: IdMap<VmId, (u32, u64)>,
    /// Scheduled departures, popped in the batch replay's exact
    /// `(time, seq)` departure order. An entry is live only while
    /// `residents` holds its id under its `seq`; an explicit departure or
    /// a re-admission of the id leaves it behind to be skipped.
    departures: DepartureCalendar,
    /// Arrival sequence number (the batch replay's trace index).
    seq: u64,
    probe_templates: Vec<VmDemand>,
    probe_counts: Vec<u64>,
    accountant: ViolationAccountant,
    counters: Counters,
    in_use: usize,
    peak_in_use: usize,
    /// Whether occupancy changes are also recorded in `timeline`, so a
    /// sharded deployment can reconstruct the exact global
    /// `peak_servers_in_use` (the running peak of a *sum* across shards is
    /// not the sum of per-shard peaks). Set by [`Self::record_timeline`].
    occupancy_timeline: bool,
    timeline: Vec<OccDelta>,
    /// Armed telemetry, or `None` under [`TelemetryConfig::Off`] — the
    /// guarded fast path every instrumented site branches on.
    telemetry: Option<Box<ControllerTelemetry>>,
}

impl<'a> Controller<'a> {
    /// A controller over explicit clusters. `server_fraction` of each
    /// cluster's servers are built, exactly as the batch experiment does.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is empty or `server_fraction` is not in
    /// `(0, 1]`.
    pub fn new(clusters: &[Cluster], predictor: &'a dyn Predictor, config: ServeConfig) -> Self {
        assert!(!clusters.is_empty(), "need at least one cluster");
        assert!(
            config.server_fraction > 0.0 && config.server_fraction <= 1.0,
            "server fraction in (0, 1]"
        );
        let tw = predictor.time_windows();
        let mut states: Vec<ClusterState> = clusters
            .iter()
            .map(|cluster| {
                let n = ((cluster.servers.len() as f64 * config.server_fraction).ceil() as usize)
                    .max(1);
                let ids: Vec<ServerId> = cluster.servers.iter().copied().take(n).collect();
                ClusterState {
                    id: cluster.id,
                    sched: ClusterScheduler::with_strategy(
                        &ids,
                        cluster.hardware.capacity,
                        tw.count(),
                        PlacementHeuristic::BestFit,
                        config.scan,
                    ),
                }
            })
            .collect();
        states.sort_by_key(|c| c.id);
        let mut controller = Controller {
            accountant: ViolationAccountant::new(config.sample_every, config.horizon),
            config,
            predictor,
            tw,
            clusters: states,
            residents: IdMap::default(),
            departures: DepartureCalendar::new(),
            seq: 0,
            probe_templates: probe_templates(&config.policy, tw.count()),
            probe_counts: Vec::new(),
            counters: Counters::default(),
            in_use: 0,
            peak_in_use: 0,
            occupancy_timeline: false,
            timeline: Vec::new(),
            telemetry: None,
        };
        if !config.telemetry.is_off() {
            // Standalone arming with a fresh registry; a sharded deployment
            // re-arms each shard onto its shared registry right after
            // construction (`enable_telemetry`), before any events flow.
            controller.enable_telemetry(
                config.telemetry,
                std::sync::Arc::new(Registry::new()),
                0,
                Instant::now(),
            );
        }
        controller
    }

    /// A controller over a trace's clusters, configured to replay it with
    /// the batch experiment's semantics.
    pub fn replaying(
        trace: &Trace,
        predictor: &'a dyn Predictor,
        policy: PolicyConfig,
        server_fraction: f64,
    ) -> Self {
        Controller::new(
            &trace.clusters,
            predictor,
            ServeConfig::replaying(policy, server_fraction, trace.horizon),
        )
    }

    /// The window partition in use.
    pub fn time_windows(&self) -> TimeWindows {
        self.tw
    }

    /// Handle one request. Requests must arrive in non-decreasing time
    /// order.
    pub fn handle(&mut self, request: Request<'_>) -> Response {
        // Broadcast tokens get a span each (they are rare relative to
        // arrivals); arrival spans ride the admission sampling inside
        // `admit`, where the clock reads are already paid.
        let span = match request {
            _ if self.telemetry.is_none() => None,
            Request::Arrive(_) => None,
            Request::Depart { .. } => Some("serve.depart"),
            Request::Tick { .. } => Some("serve.tick"),
            Request::Probe { .. } => Some("serve.probe"),
            Request::Stats { .. } => Some("serve.stats"),
        }
        .map(|name| (name, SpanRing::begin()));
        let response = self.dispatch(request);
        if let Some((name, start)) = span {
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.end_span(name, start);
            }
        }
        response
    }

    /// The un-instrumented event loop body.
    fn dispatch(&mut self, request: Request<'_>) -> Response {
        match request {
            Request::Arrive(rec) => self.handle_arrival(rec),
            Request::Depart { vm, now } => self.handle_departure(vm, now),
            Request::Tick { now } => {
                self.drain_departures(now, true);
                self.accountant.advance(now);
                self.counters.ticks += 1;
                if let Some(t) = &self.telemetry {
                    t.ticks.inc();
                }
                Response::Ticked
            }
            Request::Probe { now } => {
                // Batch semantics: a probe at `now` observes every event
                // strictly before it (a departure at exactly `now` is the
                // crossing event, applied after the measurement).
                self.drain_departures(now, false);
                let count = estimate_probe_capacity(
                    self.clusters.iter().map(|c| &c.sched),
                    &self.probe_templates,
                );
                if self.config.probe_mode == ProbeMode::Differential {
                    let mut copies: Vec<ClusterScheduler> =
                        self.clusters.iter().map(|c| c.sched.clone()).collect();
                    let reference =
                        measure_probe_capacity(copies.iter_mut(), &self.probe_templates);
                    assert_eq!(
                        count, reference,
                        "probe estimator diverged from the reference fill at {now:?}"
                    );
                }
                self.probe_counts.push(count);
                if let Some(t) = &self.telemetry {
                    t.probes.inc();
                    t.probe_capacity.add(count);
                }
                Response::ProbeCapacity(count)
            }
            Request::Stats { now } => {
                self.drain_departures(now, false);
                self.accountant.advance(now);
                Response::Stats(self.stats(now))
            }
        }
    }

    fn handle_arrival(&mut self, rec: &VmRecord) -> Response {
        let prediction = self.predictor.predict(rec, self.config.policy.percentile);
        self.admit(rec, prediction)
    }

    /// Admit a segment of arrivals in stream order, deriving it one
    /// [`Predictor::predict_batch`] call per 64-arrival chunk (serially,
    /// in stream order, on the caller's thread) and placing each chunk
    /// before deriving the next. Responses come back in input order.
    ///
    /// Decision-identical to feeding each arrival through
    /// [`Controller::handle`]: predictions depend only on the VM record
    /// (and `predict_batch` must equal the per-item loop), so neither
    /// deriving them ahead of the interleaved departure drains nor where
    /// the chunk boundaries fall changes anything.
    pub fn handle_arrivals(&mut self, recs: &[&VmRecord]) -> Vec<Response> {
        let mut responses = Vec::with_capacity(recs.len());
        self.admit_segment(recs, Vec::new(), |response| responses.push(response));
        responses
    }

    /// [`Self::handle_arrivals`] with the responses handed to `sink` one
    /// by one instead of collected — the shard worker's entry point. A
    /// segment the dispatcher derived arrives with its `derived`
    /// predictions, index for index, and is only placed; an empty
    /// `derived` means the segment is derived here, chunk by chunk.
    pub(crate) fn admit_segment(
        &mut self,
        recs: &[&VmRecord],
        derived: Derived,
        mut sink: impl FnMut(Response),
    ) {
        if !derived.is_empty() {
            assert_eq!(derived.len(), recs.len(), "one prediction per arrival");
            for (rec, prediction) in recs.iter().zip(derived) {
                sink(self.admit(rec, prediction));
            }
            return;
        }
        let percentile = self.config.policy.percentile;
        for chunk in recs.chunks(DERIVE_CHUNK) {
            let spans = self.telemetry.as_deref_mut().map(|t| &mut t.spans);
            let predictions = derive(self.predictor, percentile, chunk, spans);
            for (rec, prediction) in chunk.iter().zip(predictions) {
                sink(self.admit(rec, prediction));
            }
        }
    }

    fn admit(&mut self, rec: &VmRecord, prediction: Option<DemandPrediction>) -> Response {
        let t = rec.arrival;
        // Departures sort before arrivals at equal timestamps (free before
        // alloc), exactly as the batch replay orders its events.
        self.drain_departures(t, true);
        let seq = self.seq;
        self.seq += 1;

        let ci = self
            .clusters
            .binary_search_by_key(&rec.cluster, |c| c.id)
            .expect("arrival for a cluster this controller owns");
        let demand = VmDemand::from_prediction(
            rec.id,
            rec.demand(),
            self.config.policy.policy,
            prediction.as_ref(),
        );

        // Only armed telemetry times a placement, and only a sampled one.
        let sampled = self.telemetry.is_some() && seq.is_multiple_of(ADMISSION_SAMPLE_EVERY);
        let cluster = &mut self.clusters[ci];
        let in_use_before = cluster.sched.servers_in_use();
        let t0 = sampled.then(Instant::now);
        let outcome = cluster.sched.place(&demand);
        let timed = t0.map(|t0| (t0, t0.elapsed().as_nanos() as u64));
        match outcome {
            PlacementOutcome::Placed(server) => {
                self.counters.accepted += 1;
                let rh = rec.resource_hours();
                self.counters.accepted_core_hours += rh.cpu();
                self.counters.accepted_gb_hours += rh.memory();
                let previous = self.residents.insert(rec.id, (ci as u32, seq));
                assert!(previous.is_none(), "VM {:?} already resident", rec.id);
                // A zero-length VM's departure event precedes its arrival
                // in the batch sort and no-ops there; never scheduling it
                // preserves that behavior.
                if rec.departure > rec.arrival {
                    self.departures.push(rec.departure, seq, rec.id);
                }
                self.accountant
                    .on_placed(server, cluster.sched.capacity(), rec, &demand);
            }
            PlacementOutcome::Rejected => self.counters.rejected += 1,
        }
        if let Some(tel) = self.telemetry.as_deref_mut() {
            match outcome {
                PlacementOutcome::Placed(_) => tel.accepted.inc(),
                PlacementOutcome::Rejected => tel.rejected.inc(),
            }
            if let Some((t0, ns)) = timed {
                tel.admission.record_ns(ns);
                tel.record_span("serve.admit", t0, ns);
            }
        }
        self.note_occupancy(ci, in_use_before, t.ticks(), 1, seq);
        Response::Admission {
            vm: rec.id,
            outcome,
        }
    }

    fn handle_departure(&mut self, vm: VmId, now: Timestamp) -> Response {
        self.drain_departures(now, true);
        let found = match self.residents.remove(&vm) {
            Some((ci, _)) => {
                let server = self.release(ci as usize, vm, now.ticks(), u64::MAX);
                self.accountant.on_early_departure(server, vm, now);
                true
            }
            None => false,
        };
        Response::Departed { vm, found }
    }

    /// Pop and apply scheduled departures up to `t` (inclusive when
    /// `inclusive`), in the batch replay's `(time, seq)` order.
    fn drain_departures(&mut self, t: Timestamp, inclusive: bool) {
        while let Some((when, seq, vm)) = self.departures.pop_due(t, inclusive) {
            // Lazily cancelled unless the id is still resident under the
            // seq this entry was scheduled for.
            if let Entry::Occupied(resident) = self.residents.entry(vm) {
                if resident.get().1 == seq {
                    let (ci, _) = resident.remove();
                    self.release(ci as usize, vm, when.ticks(), seq);
                }
            }
        }
    }

    /// Take a VM that just left `residents` off its cluster's scheduler,
    /// count the departure, and return the server that hosted it.
    fn release(&mut self, ci: usize, vm: VmId, ticks: u64, seq: u64) -> ServerId {
        let sched = &mut self.clusters[ci].sched;
        let before = sched.servers_in_use();
        let server = sched
            .remove(vm)
            .expect("a resident VM is hosted by its cluster's scheduler");
        self.counters.departed += 1;
        if let Some(t) = &self.telemetry {
            t.departed.inc();
        }
        self.note_occupancy(ci, before, ticks, 0, seq);
        server
    }

    /// Fold one cluster's occupancy change into the running total, the
    /// peak, and (if enabled) the delta timeline.
    fn note_occupancy(&mut self, ci: usize, before: usize, ticks: u64, kind: u8, seq: u64) {
        let after = self.clusters[ci].sched.servers_in_use();
        if after == before {
            return;
        }
        self.in_use = self.in_use + after - before;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        if self.occupancy_timeline {
            self.timeline
                .push((ticks, kind, seq, after as i32 - before as i32));
        }
    }

    /// Snapshot the controller's counters (the [`Request::Stats`] payload).
    pub fn stats(&self, now: Timestamp) -> StatsReport {
        let (samples, cpu, mem) = self.accountant.totals();
        StatsReport {
            now,
            accepted: self.counters.accepted,
            rejected: self.counters.rejected,
            departed: self.counters.departed,
            resident_vms: self.residents.len(),
            servers_in_use: self.in_use,
            peak_servers_in_use: self.peak_in_use,
            accepted_core_hours: self.counters.accepted_core_hours,
            accepted_gb_hours: self.counters.accepted_gb_hours,
            probe_measurements: self.probe_counts.len() as u64,
            probe_capacity_total: self.probe_counts.iter().sum(),
            violation_samples: samples,
            cpu_violations: cpu,
            mem_violations: mem,
            ticks: self.counters.ticks,
        }
    }

    /// Arm (or re-arm) telemetry: register this controller's series on
    /// `registry` under `(policy, shard)` labels, and allocate the span
    /// ring. `Off` disarms. A sharded deployment calls this per shard
    /// with its shared registry and timeline origin.
    pub fn enable_telemetry(
        &mut self,
        mode: TelemetryConfig,
        registry: std::sync::Arc<Registry>,
        shard: u32,
        origin: Instant,
    ) {
        self.config.telemetry = mode;
        self.telemetry = if mode.is_off() {
            None
        } else {
            Some(ControllerTelemetry::new(
                registry,
                self.config.policy.label,
                shard,
                origin,
            ))
        };
    }

    /// The registry this controller records into, if telemetry is armed.
    pub fn telemetry_registry(&self) -> Option<std::sync::Arc<Registry>> {
        self.telemetry
            .as_ref()
            .map(|t| std::sync::Arc::clone(&t.registry))
    }

    /// The controller's span ring, if telemetry is armed.
    pub fn telemetry_spans(&self) -> Option<&SpanRing> {
        self.telemetry.as_ref().map(|t| &t.spans)
    }

    /// Mirror span-ring overflow drops into their counter (called at
    /// export barriers so drops are visible in the registry).
    pub fn sync_telemetry(&mut self) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.sync_span_drops();
        }
    }

    /// Retire every remaining scheduled departure, flush the accountant to
    /// the horizon, and assemble the batch experiment's result struct.
    ///
    /// Idempotent; a sharded deployment calls it per shard and merges.
    pub fn finalize(&mut self) -> PackingResult {
        self.drain_departures(Timestamp::from_ticks(u64::MAX), true);
        self.accountant.finish();
        self.stats(self.config.horizon)
            .to_packing_result(self.config.policy.label)
    }

    /// The configuration this controller runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Per-measurement probe counts (a sharded deployment sums these
    /// elementwise across shards).
    pub(crate) fn probe_counts(&self) -> &[u64] {
        &self.probe_counts
    }

    /// Record every occupancy change in the delta timeline from now on —
    /// what [`crate::ShardedController`] switches on for each of its
    /// shards; a standalone controller's own running peak is exact.
    pub(crate) fn record_timeline(&mut self) {
        self.occupancy_timeline = true;
    }

    /// Drain the occupancy-delta timeline recorded since the last call
    /// (empty unless [`Self::record_timeline`] was called). The
    /// sharded dispatcher accumulates these drains per shard, so each
    /// snapshot ships only the deltas since the previous synchronization.
    pub(crate) fn take_timeline(&mut self) -> Vec<OccDelta> {
        std::mem::take(&mut self.timeline)
    }

    /// Serialize the full decision-bearing state into a versioned
    /// [`Snapshot`] frame — schedulers, resident map, departure calendar,
    /// accountant, counters, and the undrained occupancy timeline: a
    /// function of the request stream alone (no clock reading or
    /// telemetry enters it). The accountant's entries are self-contained
    /// (each carries the sampler cut from its VM's profile, not a record
    /// reference), so the snapshot restores without the original trace in
    /// hand.
    ///
    /// Non-destructive: the controller keeps serving, and snapshotting
    /// twice at the same point yields identical bytes. Every accumulated
    /// `f64` travels as raw IEEE-754 bits, so a restored controller's
    /// future decisions are bit-identical to this one's.
    pub fn snapshot(&self) -> Snapshot {
        // The calendar iterates in `(time, seq)` order: the sorted vector
        // that is the canonical wire form.
        let departures: Vec<(Timestamp, u64, VmId)> = self.departures.iter().collect();
        // The resident map's canonical form: rows sorted by id.
        let mut residents: Vec<(VmId, u32, u64)> = self
            .residents
            .iter()
            .map(|(&vm, &(cluster, seq))| (vm, cluster, seq))
            .collect();
        residents.sort_unstable();
        let dump = ControllerDump {
            config: self.config,
            windows_per_day: self.tw.count() as u32,
            clusters: self
                .clusters
                .iter()
                .map(|c| (c.id, c.sched.dump()))
                .collect(),
            residents,
            departures,
            seq: self.seq,
            probe_counts: self.probe_counts.clone(),
            accountant: self.accountant.dump(),
            accepted: self.counters.accepted,
            rejected: self.counters.rejected,
            departed: self.counters.departed,
            ticks: self.counters.ticks,
            accepted_core_hours: self.counters.accepted_core_hours,
            accepted_gb_hours: self.counters.accepted_gb_hours,
            in_use: self.in_use,
            peak_in_use: self.peak_in_use,
            occupancy_timeline: self.occupancy_timeline,
            timeline: self.timeline.clone(),
        };
        if let Some(t) = &self.telemetry {
            let t0 = Instant::now();
            let snapshot = Snapshot::seal(&dump);
            let secs = t0.elapsed().as_secs_f64();
            if secs > 0.0 {
                t.encode_bps.set(snapshot.len() as f64 / secs);
            }
            return snapshot;
        }
        Snapshot::seal(&dump)
    }

    /// Rebuild a controller from a [`Snapshot`], resuming service exactly
    /// where [`Controller::snapshot`] left off. The snapshot is all it
    /// reads: `_resolve` is **ignored** (accountant entries stopped
    /// referencing trace records) and survives only because the frozen
    /// `examples/benchmark` passes it; the next `[benchmark]` change drops
    /// the argument.
    ///
    /// The schedulers are rebuilt under the snapshot config's `scan`: the
    /// frame holds one copy of it, so a restored controller packs exactly
    /// as its config says.
    ///
    /// Anything wrong with the bytes surfaces as `Err(WireError)`:
    /// truncation and bad tags, a window partition that disagrees with
    /// `predictor`, an out-of-range server fraction or sampling cadence, a
    /// scheduler or accountant dump its `from_dump` would refuse, a
    /// resident map that disagrees with the schedulers about who is hosted
    /// where, and departures out of their canonical `(time, seq)` order.
    pub fn restore<'r>(
        predictor: &'a dyn Predictor,
        snapshot: &Snapshot,
        _resolve: impl Fn(VmId) -> Option<&'r VmRecord>,
    ) -> Result<Controller<'a>, WireError> {
        let dump: ControllerDump = coach_wire::open_frame(snapshot.bytes())?;
        let invalid = |context| Err(WireError::Invalid { context });
        let tw = predictor.time_windows();
        if dump.windows_per_day as usize != tw.count() {
            return invalid("snapshot window partition");
        }
        let config = dump.config;
        if !(config.server_fraction > 0.0 && config.server_fraction <= 1.0) {
            return invalid("snapshot server fraction");
        }
        if config.sample_every.ticks() == 0 {
            return invalid("snapshot sample cadence");
        }
        if dump.clusters.is_empty() || dump.clusters.windows(2).any(|w| w[0].0 >= w[1].0) {
            return invalid("snapshot cluster set");
        }
        let mut servers = dump.clusters.iter().flat_map(|(_, sched)| &sched.servers);
        if servers.any(|server| server.windows != tw.count()) {
            return invalid("snapshot scheduler windows");
        }
        let clusters: Vec<ClusterState> = dump
            .clusters
            .into_iter()
            .map(|(id, sched)| ClusterState {
                id,
                sched: ClusterScheduler::from_dump(sched, config.scan),
            })
            .collect();
        // The resident map and the schedulers describe the same VMs: rows
        // in the canonical id order, each hosted by the cluster it names,
        // and no scheduler hosting a VM the map does not know.
        let rows = &dump.residents;
        let hosted = |&(vm, cluster, _): &(VmId, u32, u64)| {
            clusters
                .get(cluster as usize)
                .is_some_and(|c| c.sched.server_of(vm).is_some())
        };
        if rows.windows(2).any(|w| w[0].0 >= w[1].0)
            || !rows.iter().all(hosted)
            || clusters.iter().map(|c| c.sched.vm_count()).sum::<usize>() != rows.len()
        {
            return invalid("snapshot resident map");
        }
        if dump.departures.windows(2).any(|w| w[0] >= w[1]) {
            return invalid("snapshot departures");
        }
        let in_use: usize = clusters.iter().map(|c| c.sched.servers_in_use()).sum();
        if dump.in_use != in_use || dump.peak_in_use < in_use {
            return invalid("snapshot occupancy");
        }
        Ok(Controller {
            accountant: ViolationAccountant::from_dump(
                config.sample_every,
                config.horizon,
                dump.accountant,
            )?,
            config,
            predictor,
            tw,
            clusters,
            residents: dump
                .residents
                .into_iter()
                .map(|(vm, cluster, seq)| (vm, (cluster, seq)))
                .collect(),
            departures: dump.departures.into_iter().collect(),
            seq: dump.seq,
            probe_templates: probe_templates(&config.policy, tw.count()),
            probe_counts: dump.probe_counts,
            counters: Counters {
                accepted: dump.accepted,
                rejected: dump.rejected,
                departed: dump.departed,
                ticks: dump.ticks,
                accepted_core_hours: dump.accepted_core_hours,
                accepted_gb_hours: dump.accepted_gb_hours,
            },
            in_use: dump.in_use,
            peak_in_use: dump.peak_in_use,
            occupancy_timeline: dump.occupancy_timeline,
            timeline: dump.timeline,
            // Telemetry never crosses the wire (the decoded config is Off);
            // the restoring deployment re-arms via `enable_telemetry`.
            telemetry: None,
        })
    }
}

/// The controller's wire image: everything [`Controller::snapshot`]
/// serializes, in one flat struct the codec walks field by field.
/// `probe_templates` is deliberately absent — it is a pure function of the
/// config and window partition, rebuilt on restore.
#[derive(Debug, Clone)]
pub(crate) struct ControllerDump {
    pub config: ServeConfig,
    /// The predictor's window partition, pinned so a restore under a
    /// mismatched predictor fails instead of silently re-bucketing.
    pub windows_per_day: u32,
    /// `(id, scheduler state)` per cluster, in the controller's
    /// sorted-by-id order. The cluster's capacity is its servers'.
    pub clusters: Vec<(ClusterId, ClusterSchedulerDump)>,
    /// The resident map as `(vm, cluster index, arrival seq)` rows, sorted
    /// by id (the canonical form).
    pub residents: Vec<(VmId, u32, u64)>,
    /// The departure calendar's `(time, seq, vm)` entries, strictly
    /// ascending (the canonical form, and the calendar's own order: pushed
    /// back in it, they rebuild it exactly).
    pub departures: Vec<(Timestamp, u64, VmId)>,
    pub seq: u64,
    pub probe_counts: Vec<u64>,
    pub accountant: AccountantDump,
    pub accepted: u64,
    pub rejected: u64,
    pub departed: u64,
    pub ticks: u64,
    pub accepted_core_hours: f64,
    pub accepted_gb_hours: f64,
    pub in_use: usize,
    pub peak_in_use: usize,
    pub occupancy_timeline: bool,
    pub timeline: Vec<OccDelta>,
}

impl std::fmt::Debug for Controller<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("clusters", &self.clusters.len())
            .field("resident_vms", &self.residents.len())
            .field("accepted", &self.counters.accepted)
            .field("rejected", &self.counters.rejected)
            .finish_non_exhaustive()
    }
}

/// Replay a trace through a single-shard [`Controller`] — the online
/// drop-in for [`coach_sim::packing_experiment`], producing an identical
/// [`PackingResult`].
pub fn serve_trace(
    trace: &Trace,
    predictor: &dyn Predictor,
    policy: PolicyConfig,
    server_fraction: f64,
) -> PackingResult {
    let mut controller = Controller::replaying(trace, predictor, policy, server_fraction);
    for request in crate::RequestSource::replaying(trace) {
        controller.handle(request);
    }
    controller.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_sim::Oracle;
    use coach_trace::{generate, TraceConfig};

    fn coach_controller<'p>(trace: &Trace, predictor: &'p dyn Predictor) -> Controller<'p> {
        Controller::replaying(trace, predictor, PolicyConfig::paper_set().remove(2), 0.6)
    }

    /// A structurally valid snapshot that contradicts itself restores to
    /// the typed error, never to a `from_dump` assertion or a controller
    /// that panics later: one field-wise mutation of a valid dump per case
    /// (`coach-sched`'s codec tests have one per scheduler field).
    #[test]
    fn restore_refuses_an_inconsistent_dump() {
        let trace = generate(&TraceConfig::small(23));
        let oracle = Oracle::new(TimeWindows::paper_default());
        let mut controller = coach_controller(&trace, &oracle);
        for rec in &trace.vms[..trace.vms.len() / 2] {
            controller.handle(Request::Arrive(rec));
        }
        let snapshot = controller.snapshot();
        assert!(Controller::restore(&oracle, &snapshot, |_| None).is_ok());

        type Mutation = fn(&mut ControllerDump);
        let cases: [(&str, &str, Mutation); 14] = [
            ("one VM twice on a server", "ServerStateDump", |dump| {
                let servers = &mut dump.clusters[0].1.servers;
                let packed = servers.iter_mut().find(|s| s.vms.len() > 1).unwrap();
                packed.vms[1].0 = packed.vms[0].0;
            }),
            // Every sum has the right length for its own window count, and
            // the cluster agrees on it, but the count is not the
            // predictor's: `can_fit` would panic.
            (
                "servers over another window partition",
                "snapshot scheduler windows",
                |dump| {
                    for server in &mut dump.clusters[0].1.servers {
                        server.vms.clear();
                        server.windows = 1;
                        server.window_sum.truncate(1);
                    }
                },
            ),
            // Homogeneous, so only validity refuses it: `ServerState::new`
            // would not build a server of zero capacity.
            ("servers of zero capacity", "ServerStateDump", |dump| {
                for server in &mut dump.clusters[0].1.servers {
                    server.capacity = ResourceVec::ZERO;
                }
            }),
            (
                "resident rows out of id order",
                "snapshot resident map",
                |dump| dump.residents.swap(0, 1),
            ),
            (
                "one id in two resident rows",
                "snapshot resident map",
                |dump| dump.residents[1].0 = dump.residents[0].0,
            ),
            (
                "a resident in a cluster the controller does not own",
                "snapshot resident map",
                |dump| dump.residents[0].1 = dump.clusters.len() as u32,
            ),
            // Still ascending, still as many rows as hosted VMs.
            (
                "a resident no scheduler hosts",
                "snapshot resident map",
                |dump| dump.residents.last_mut().unwrap().0 = VmId::new(u64::MAX),
            ),
            (
                "a hosted VM the resident map lacks",
                "snapshot resident map",
                |dump| dump.residents.truncate(1),
            ),
            // The calendar rebuilds only from its own `(time, seq)` order.
            ("departures out of order", "snapshot departures", |dump| {
                dump.departures.swap(0, 1)
            }),
            (
                "the accountant naming a server twice",
                "AccountantDump names a server twice",
                |dump| dump.accountant.servers[1].server = dump.accountant.servers[0].server,
            ),
            // It would sample at times no uninterrupted run samples at.
            (
                "a server's next sample off the cadence's grid",
                "AccountantDump sample grid",
                |dump| dump.accountant.servers[0].next_sample += SimDuration::from_ticks(1),
            ),
            ("a zero sample cadence", "snapshot sample cadence", |dump| {
                dump.config.sample_every = SimDuration::from_ticks(0)
            }),
            (
                "fewer servers in use than the schedulers count",
                "snapshot occupancy",
                |dump| dump.in_use -= 1,
            ),
            (
                "a peak below the current occupancy",
                "snapshot occupancy",
                |dump| dump.peak_in_use = 0,
            ),
        ];
        for (case, context, mutate) in cases {
            let mut dump: ControllerDump = coach_wire::open_frame(snapshot.bytes()).unwrap();
            mutate(&mut dump);
            let restored = Controller::restore(&oracle, &Snapshot::seal(&dump), |_| None);
            assert_eq!(
                restored.err(),
                Some(WireError::Invalid { context }),
                "{case}"
            );
        }
    }

    /// `trace`'s first record, re-addressed: the controller reads a
    /// record's id and times, whatever profile it carries.
    fn record(trace: &Trace, id: u64, arrival: u64, departure: u64) -> VmRecord {
        VmRecord {
            id: VmId::new(id),
            arrival: Timestamp::from_hours(arrival),
            departure: Timestamp::from_hours(departure),
            ..trace.vms[0].clone()
        }
    }

    fn stats_at(controller: &mut Controller, hours: u64) -> StatsReport {
        let now = Timestamp::from_hours(hours);
        match controller.handle(Request::Stats { now }) {
            Response::Stats(stats) => stats,
            other => panic!("a stats request answers with stats, not {other:?}"),
        }
    }

    /// An id departed explicitly and admitted again is a new resident: the
    /// first admission's scheduled departure must not evict it.
    #[test]
    fn a_stale_departure_never_removes_a_readmitted_id() {
        let trace = generate(&TraceConfig::small(31));
        let oracle = Oracle::new(TimeWindows::paper_default());
        let mut controller = coach_controller(&trace, &oracle);
        let vm = VmId::new(7);
        controller.handle(Request::Arrive(&record(&trace, 7, 0, 10)));
        let departed = controller.handle(Request::Depart {
            vm,
            now: Timestamp::from_hours(2),
        });
        assert_eq!(departed, Response::Departed { vm, found: true });
        let Response::Admission {
            outcome: PlacementOutcome::Placed(server),
            ..
        } = controller.handle(Request::Arrive(&record(&trace, 7, 3, 20)))
        else {
            panic!("an empty cluster places the VM");
        };

        controller.handle(Request::Tick {
            now: Timestamp::from_hours(11),
        });
        assert_eq!(stats_at(&mut controller, 11).resident_vms, 1);
        let hosts: Vec<_> = controller
            .clusters
            .iter()
            .filter_map(|c| c.sched.server_of(vm))
            .collect();
        assert_eq!(hosts, [server], "still on the server it was re-admitted to");

        controller.handle(Request::Tick {
            now: Timestamp::from_hours(21),
        });
        let stats = stats_at(&mut controller, 21);
        assert_eq!((stats.resident_vms, stats.departed), (0, 2));
        assert!(controller.clusters.iter().all(|c| c.sched.vm_count() == 0));
    }

    #[test]
    fn an_explicit_departure_cancels_the_scheduled_one() {
        let trace = generate(&TraceConfig::small(31));
        let oracle = Oracle::new(TimeWindows::paper_default());
        let mut controller = coach_controller(&trace, &oracle);
        let vm = VmId::new(7);
        controller.handle(Request::Arrive(&record(&trace, 7, 0, 10)));
        let now = Timestamp::from_hours(2);
        let first = controller.handle(Request::Depart { vm, now });
        assert_eq!(first, Response::Departed { vm, found: true });
        let second = controller.handle(Request::Depart { vm, now });
        assert_eq!(second, Response::Departed { vm, found: false });
        // The scheduled departure at t=10 pops here and finds nobody.
        let stats = stats_at(&mut controller, 11);
        assert_eq!((stats.resident_vms, stats.departed), (0, 1));
    }

    /// A snapshot taken while cancelled departures are still scheduled
    /// restores into a controller that skips them the same way.
    #[test]
    fn a_snapshot_between_a_departure_and_its_stale_pop_resumes_identically() {
        let trace = generate(&TraceConfig::small(37));
        let oracle = Oracle::new(TimeWindows::paper_default());
        let mut live = coach_controller(&trace, &oracle);
        let (head, tail) = trace.vms.split_at(trace.vms.len() / 2);
        let now = tail[0].arrival;
        for rec in head {
            live.handle(Request::Arrive(rec));
        }
        // Every fourth VM that would outlive the cut leaves at it instead.
        let mut cancelled = 0;
        for rec in head {
            if rec.departure > now && rec.id.raw() % 4 == 0 {
                let vm = rec.id;
                let departed = live.handle(Request::Depart { vm, now });
                cancelled += usize::from(departed == Response::Departed { vm, found: true });
            }
        }
        assert!(cancelled > 0, "the head leaves long-lived residents");
        let stale = live
            .departures
            .iter()
            .filter(|(_, _, vm)| !live.residents.contains_key(vm))
            .count();
        assert_eq!(stale, cancelled, "cancelled entries are still scheduled");

        let snapshot = live.snapshot();
        let mut restored = Controller::restore(&oracle, &snapshot, |_| None).unwrap();
        assert_eq!(restored.snapshot(), snapshot);
        for rec in tail {
            let request = Request::Arrive(rec);
            assert_eq!(restored.handle(request), live.handle(request));
        }
        assert_eq!(restored.finalize(), live.finalize());
        assert_eq!(restored.snapshot(), live.snapshot(), "same final bytes");
    }

    /// The accountant's footprint follows residency, not the stream: at
    /// every 6 h stats barrier it tracks no more than the resident VMs
    /// plus those that departed within the last sample.
    #[test]
    fn accountant_tracks_residents_plus_one_sample_of_departures() {
        let trace = generate(&TraceConfig {
            vm_count: 4_000,
            cluster_count: 2,
            subscription_count: 200,
            ..TraceConfig::medium(2026)
        });
        let oracle = Oracle::new(TimeWindows::paper_default());
        let mut controller = coach_controller(&trace, &oracle);
        let every = controller.config.sample_every;
        let mut departures: Vec<Timestamp> = Vec::new();
        let barrier = |controller: &mut Controller, departures: &[Timestamp], now| {
            let Response::Stats(stats) = controller.handle(Request::Stats { now }) else {
                panic!("a stats request answers with stats");
            };
            let just_departed = departures
                .iter()
                .filter(|&&d| d > now.saturating_sub(every) && d < now)
                .count();
            let tracked = controller.accountant.tracked();
            assert!(
                tracked <= stats.resident_vms + just_departed,
                "{now}: {tracked} tracked, {} resident, {just_departed} just departed",
                stats.resident_vms
            );
            tracked
        };
        let mut now = Timestamp::ZERO;
        let mut tracked = Vec::new();
        for rec in &trace.vms {
            while now + SimDuration::from_hours(6) <= rec.arrival {
                now += SimDuration::from_hours(6);
                tracked.push(barrier(&mut controller, &departures, now));
            }
            if let Response::Admission {
                outcome: PlacementOutcome::Placed(_),
                ..
            } = controller.handle(Request::Arrive(rec))
            {
                departures.push(rec.departure);
            }
        }
        tracked.push(barrier(&mut controller, &departures, trace.horizon));
        let peak = tracked.iter().copied().max().expect("barriers ran");
        assert!(peak > 0 && peak < departures.len() / 2, "peak {peak}");
        assert_eq!(tracked.last(), Some(&0), "nothing outlives the last sample");
    }

    /// No probe changes a live scheduler: under `Estimated` and under
    /// `Differential` (whose reference fill places into clones), a probe
    /// leaves the snapshot as it found it, apart from the count it
    /// appends. The probe follows a correlated-group failure whose
    /// re-arrivals hold ids from `1 << 40`, the range the reference fill
    /// numbers its probes from, while they and the rest of the residents
    /// are hosted.
    #[test]
    fn a_probe_changes_no_snapshot_byte_but_its_count() {
        use crate::scenario::{stream_arrivals, GroupFailure};
        let trace = generate(&TraceConfig {
            cluster_count: 4,
            ..TraceConfig::small(37)
        });
        let mut counts = std::collections::HashMap::new();
        for rec in &trace.vms {
            *counts.entry(rec.subscription).or_insert(0usize) += 1;
        }
        let (&sub, _) = counts.iter().max_by_key(|&(&sub, &n)| (n, sub)).unwrap();
        let at = Timestamp::from_ticks(trace.horizon.ticks() / 3);
        let base = 1u64 << 40;
        let requests: Vec<crate::StreamRequest> =
            GroupFailure::new(stream_arrivals(trace.vms.iter().cloned()), sub, at, base).collect();
        let storm_end = 1 + requests
            .iter()
            .rposition(|r| matches!(r, crate::StreamRequest::Arrive(rec) if rec.id.raw() >= base))
            .expect("failure storm re-placed VMs");
        let oracle = Oracle::new(TimeWindows::paper_default());
        for probe_mode in [ProbeMode::Estimated, ProbeMode::Differential] {
            let config = ServeConfig {
                probe_mode,
                ..ServeConfig::replaying(PolicyConfig::paper_set().remove(2), 0.7, trace.horizon)
            };
            let mut controller = Controller::new(&trace.clusters, &oracle, config);
            for request in &requests[..storm_end] {
                controller.handle(request.as_request());
            }
            // Settle the clock at the probe's time, so the probe's own
            // drain has nothing left to do.
            controller.handle(Request::Stats { now: at });
            let before = controller.snapshot();
            let revived = controller.residents.keys().filter(|vm| vm.raw() >= base);
            assert!(
                revived.count() > 0,
                "re-arrivals resident in the probe range"
            );

            let Response::ProbeCapacity(count) = controller.handle(Request::Probe { now: at })
            else {
                panic!("a probe answers with a capacity");
            };
            assert!(count > 0, "{probe_mode:?}: the probe measured room");
            let mut after: ControllerDump =
                coach_wire::open_frame(controller.snapshot().bytes()).unwrap();
            assert_eq!(after.probe_counts.pop(), Some(count));
            assert_eq!(Snapshot::seal(&after), before, "{probe_mode:?}");
        }
    }
}
