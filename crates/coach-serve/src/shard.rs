//! The sharded controller: one [`Controller`] per cluster group, each owned
//! by a **persistent worker thread** for the duration of a session.
//!
//! The PR 4 implementation forked one thread per shard per event *segment*
//! (every broadcast request was a fork-join boundary), so on multi-core
//! hardware the dispatch overhead was paid thousands of times per replay.
//! This version keeps the workers alive: at session start each shard's
//! controller moves into a long-lived thread
//! ([`coach_types::with_shard_threads`]); the dispatcher then streams
//! commands to it over a bounded `std::sync::mpsc` lane — routed-request
//! segments interleaved with broadcast/barrier tokens — and collects FIFO
//! replies. Workers chew on segment *k* while the dispatcher routes
//! segment *k + 1*; a barrier hands each shard its staged segment *and*
//! the token in one `send_batch` burst instead of a join + respawn.
//! Every lane counts its traffic (sends, batched handoffs, parks,
//! full-lane stalls) into
//! [`ShardedController::lane_totals`] and, when telemetry is armed, the
//! registry — never into a [`StatsReport`], which carries decisions only.
//!
//! Every shard runs on a worker lane, a lone one included. Where segments
//! are derived is decided once per session: the dispatcher of a lone shard
//! beside a spare core derives, every other session derives in its
//! workers. The predictor sees the same calls either way: serial, in
//! stream order, 64 arrivals at a time.
//!
//! One rule governs ownership: a record is **borrowed at the
//! [`Controller`], owned across a lane**. Past the dispatcher's front door
//! every arrival travels by value inside a `ShardCmd` and every reply is
//! a `ShardReply`; the lanes move the values and nothing is encoded. A
//! shard's state crosses a byte boundary only as a [`Snapshot`], through
//! [`ShardedController::drain_shard`] and [`ShardedController::resume_shard`].
//!
//! Ordering and exactness are unchanged from the fork-join version:
//!
//! * within a shard, channel FIFO preserves the stream order around every
//!   token, so each shard is decision-identical to a single-shard
//!   controller over its clusters;
//! * placements, rejections, probe counts, violation counters, and the
//!   occupancy peak (reconstructed by merging the shards' delta timelines
//!   in the global event order) are **bit-identical** to the single-shard
//!   controller — and therefore to the batch experiment;
//! * the accepted core/GB-hour sums are accumulated per shard and added at
//!   merge time, so they can differ from the single-shard sums in the last
//!   ulp (floating-point addition is not associative).

use crate::controller::{derive, Controller, Derived, OccDelta, ServeConfig, DERIVE_CHUNK};
use crate::request::{Request, Response, StatsReport, StreamRequest};
use crate::telemetry::{metric, ShardTelemetry};
use crate::wire::Snapshot;
use coach_predict::DemandPrediction;
use coach_sim::{PackingResult, PolicyConfig, Predictor};
use coach_telemetry::{LabelValue, Registry, SpanRing, SpanStart, TelemetryConfig};
use coach_trace::{Cluster, Trace, VmRecord};
use coach_types::prelude::*;
use coach_wire::WireError;
use std::sync::Arc;
use std::time::Instant;

/// Routed arrivals per segment a worker derives itself: large enough that
/// a lane hop is noise and that a dispatcher sharing the cores with
/// several workers parks and wakes once per thousand arrivals per shard
/// (at 256 the two-shard `churn_sharded` workload lost about 15 % of its
/// wall time). Staged, a segment is 1,024 × 336 B: about 340 kB.
const SEGMENT: usize = 16 * DERIVE_CHUNK;

/// Routed arrivals per segment the dispatcher derives: two
/// [`DERIVE_CHUNK`]s, so the worker starts placing after 128 arrivals of
/// ingest and derive. With its predictions a segment is
/// 128 × (336 + 456) B: about 100 kB.
const FRONT_DOOR_SEGMENT: usize = 2 * DERIVE_CHUNK;

/// What one shard may hold of routed arrivals in flight in a session: the
/// segment the dispatcher is filling (or parked on), the
/// [`COMMAND_LANE_CAPACITY`] queued on the lane, and the one the worker is
/// applying — four segments, about 1.4 MB of records or 400 kB of records
/// and predictions, under this 1.5 MiB whatever the stream's length.
const IN_FLIGHT_BYTES_PER_SHARD: usize = 3 << 19;

const _: () = {
    let segments = COMMAND_LANE_CAPACITY + 2;
    let staged = std::mem::size_of::<(u64, VmRecord)>();
    let derived = staged + std::mem::size_of::<Option<DemandPrediction>>();
    assert!(
        SEGMENT * staged * segments <= IN_FLIGHT_BYTES_PER_SHARD
            && FRONT_DOOR_SEGMENT * derived * segments <= IN_FLIGHT_BYTES_PER_SHARD,
        "segments in flight outgrow their per-shard budget"
    );
};

/// Whether the dispatcher of a session over `shards` shards derives each
/// segment before sending it. A lone shard beside a spare core does, so
/// ingest and derive share one core and placement and accounting the
/// other; every other session (several shards, or one core) derives in
/// its workers.
fn schedule(shards: usize) -> bool {
    #[cfg(test)]
    if let Some(front_door) = tests::FORCED_SCHEDULE.get() {
        return front_door;
    }
    // A derive stage of its own only beside a core for every placer.
    shards == 1 && available_threads() >= 2
}

/// A shard's contribution to a merged stats report — the state the
/// dispatcher can no longer read directly once the controller lives inside
/// a worker thread. Like the report it feeds, a function of the shard's
/// request stream alone.
#[derive(Debug)]
struct ShardSnapshot {
    stats: StatsReport,
    probe_counts: Vec<u64>,
    /// Occupancy deltas recorded since the previous snapshot (the
    /// dispatcher accumulates them per shard).
    timeline_delta: Vec<OccDelta>,
}

/// A broadcast/barrier request as it crosses a lane — every [`Request`]
/// kind except arrivals, which travel in routed segments with their
/// records inline.
#[derive(Debug, Clone, Copy)]
enum TokenCmd {
    Depart { vm: VmId, now: Timestamp },
    Tick { now: Timestamp },
    Probe { now: Timestamp },
    Stats { now: Timestamp },
}

/// The one place a token turns back into a request: at
/// [`Controller::handle`], worker-side.
impl From<TokenCmd> for Request<'static> {
    fn from(token: TokenCmd) -> Self {
        match token {
            TokenCmd::Depart { vm, now } => Request::Depart { vm, now },
            TokenCmd::Tick { now } => Request::Tick { now },
            TokenCmd::Probe { now } => Request::Probe { now },
            TokenCmd::Stats { now } => Request::Stats { now },
        }
    }
}

/// One command to a shard worker. Every command produces exactly one
/// [`ShardReply`], in command order.
#[derive(Debug, Clone)]
enum ShardCmd {
    /// A routed arrival segment whose per-request responses come back
    /// (`(stream index, record)` pairs), with its [`Derived`]
    /// predictions.
    Batch(Vec<(u64, VmRecord)>, Derived),
    /// A routed arrival segment acknowledged without responses, with its
    /// [`Derived`] predictions.
    Run(Vec<VmRecord>, Derived),
    /// A broadcast/barrier token.
    Token(TokenCmd),
    /// Retire remaining departures, flush accounting, report the final
    /// result and snapshot.
    Finalize,
}

/// One reply per [`ShardCmd`].
#[derive(Debug)]
enum ShardReply {
    /// Per-request responses for a [`ShardCmd::Batch`] segment.
    Answers(Vec<(u64, Response)>),
    /// A [`ShardCmd::Run`] segment was processed.
    Ran,
    /// A non-stats token's merged-side input.
    Token(Response),
    /// A stats token's shard contribution. Boxed (as below): a snapshot is
    /// ~0.75 kB, and a session's reply lanes queue one `ShardReply` per
    /// segment and token until the next drain.
    Stats(Box<ShardSnapshot>),
    /// The shard's closing stats contribution, from which the dispatcher
    /// merges the final result.
    Finalized(Box<ShardSnapshot>),
}

/// The worker loop body: apply one dispatch command to the owned
/// controller. The segment's records are borrowed here, for the one call
/// — the controller copies what it keeps of a record — and dropped with
/// the command. A segment that comes with its predictions is only placed;
/// one without is derived here first.
fn worker_step(_shard: usize, controller: &mut Controller<'_>, cmd: ShardCmd) -> ShardReply {
    match cmd {
        ShardCmd::Batch(batch, derived) => {
            let recs: Vec<&VmRecord> = batch.iter().map(|(_, rec)| rec).collect();
            let mut responses = Vec::with_capacity(recs.len());
            controller.admit_segment(&recs, derived, |response| responses.push(response));
            ShardReply::Answers(batch.iter().map(|(idx, _)| *idx).zip(responses).collect())
        }
        ShardCmd::Run(batch, derived) => {
            let recs: Vec<&VmRecord> = batch.iter().collect();
            controller.admit_segment(&recs, derived, |_| {});
            ShardReply::Ran
        }
        ShardCmd::Token(token) => match controller.handle(token.into()) {
            Response::Stats(stats) => ShardReply::Stats(Box::new(snapshot_of(controller, stats))),
            response => ShardReply::Token(response),
        },
        ShardCmd::Finalize => {
            controller.finalize();
            let stats = controller.stats(controller.config().horizon);
            ShardReply::Finalized(Box::new(snapshot_of(controller, stats)))
        }
    }
}

fn snapshot_of(controller: &mut Controller<'_>, stats: StatsReport) -> ShardSnapshot {
    ShardSnapshot {
        stats,
        probe_counts: controller.probe_counts().to_vec(),
        timeline_delta: controller.take_timeline(),
    }
}

/// What every worker session routes and merges with, and what outlives
/// it: the [`Dispatcher`] borrows this whole.
struct SessionState {
    /// Cluster → shard routing table, sorted by cluster id (arrivals
    /// resolve their shard by binary search).
    route: Vec<(ClusterId, u32)>,
    label: &'static str,
    horizon: Timestamp,
    /// Per-shard occupancy deltas not yet folded into `peak`: extended by
    /// each barrier reply, drained of what the merge consumed, so between
    /// barriers they hold only the deltas since the previous one (spans
    /// sessions).
    timelines: Vec<Vec<OccDelta>>,
    /// Streaming k-way-merge state over `timelines` (spans sessions), so a
    /// stats cadence pays O(new deltas) per query instead of re-merging
    /// from t = 0.
    peak: PeakMerge,
    /// Lane telemetry accumulated from completed sessions.
    lane_base: LaneStats,
}

/// A cluster controller sharded by cluster group.
///
/// Clusters are assigned to shards round-robin in sorted-id order, so
/// routing is deterministic: an arrival for cluster *c* always lands on
/// the same shard, and two runs of the same stream produce identical
/// decisions. Processing happens inside worker *sessions*: each public
/// entry point ([`Self::handle_batch`], [`Self::run`], [`Self::finalize`])
/// opens one session, so the per-shard worker threads persist across every
/// segment and barrier of that call.
pub struct ShardedController<'a> {
    shards: Vec<Controller<'a>>,
    /// The shared prediction source — kept for restores and the
    /// dispatcher's front-door derive.
    predictor: &'a dyn Predictor,
    /// Routing table and cross-session merge state, lent whole to each
    /// session's [`Dispatcher`].
    session: SessionState,
    /// Deployment-wide metrics registry + dispatcher span ring, `None`
    /// when [`ServeConfig::telemetry`] is `Off`. Every shard records into
    /// its registry.
    telemetry: Option<Box<ShardTelemetry>>,
}

impl<'a> ShardedController<'a> {
    /// Shard `clusters` round-robin (sorted by id) into `shard_count`
    /// controllers.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero, `clusters` is empty, or the config
    /// rejects (see [`Controller::new`]).
    pub fn new(
        clusters: &[Cluster],
        predictor: &'a dyn Predictor,
        config: ServeConfig,
        shard_count: usize,
    ) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        assert!(!clusters.is_empty(), "need at least one cluster");
        let shard_count = shard_count.min(clusters.len());
        let mut sorted: Vec<&Cluster> = clusters.iter().collect();
        sorted.sort_by_key(|c| c.id);

        let mut groups: Vec<Vec<Cluster>> = vec![Vec::new(); shard_count];
        // Pushed in sorted-id order, so the routing table is born sorted.
        let mut route = Vec::with_capacity(sorted.len());
        for (i, cluster) in sorted.iter().enumerate() {
            groups[i % shard_count].push((*cluster).clone());
            route.push((cluster.id, (i % shard_count) as u32));
        }
        // Constructed un-armed, then re-armed below onto the deployment's
        // shared registry (so per-shard construction never registers a
        // private registry that would immediately be thrown away).
        let shard_config = ServeConfig {
            telemetry: TelemetryConfig::Off,
            ..config
        };
        let mut shards: Vec<Controller<'a>> = groups
            .into_iter()
            .map(|group| {
                let mut shard = Controller::new(&group, predictor, shard_config);
                // Shard-local peaks cannot be summed; the delta timelines
                // are merged instead.
                shard.record_timeline();
                shard
            })
            .collect();
        let telemetry = (!config.telemetry.is_off()).then(|| {
            let origin = Instant::now();
            let t = ShardTelemetry::new(shards.len(), origin);
            for (shard, controller) in shards.iter_mut().enumerate() {
                controller.enable_telemetry(
                    config.telemetry,
                    Arc::clone(&t.registry),
                    shard as u32,
                    origin,
                );
            }
            t
        });
        ShardedController {
            session: SessionState {
                timelines: vec![Vec::new(); shards.len()],
                peak: PeakMerge::default(),
                lane_base: LaneStats::default(),
                route,
                label: config.policy.label,
                horizon: config.horizon,
            },
            telemetry,
            predictor,
            shards,
        }
    }

    /// A sharded controller replaying a trace with the batch experiment's
    /// semantics.
    pub fn replaying(
        trace: &Trace,
        predictor: &'a dyn Predictor,
        policy: PolicyConfig,
        server_fraction: f64,
        shard_count: usize,
    ) -> Self {
        ShardedController::new(
            &trace.clusters,
            predictor,
            ServeConfig::replaying(policy, server_fraction, trace.horizon),
            shard_count,
        )
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Open one worker session and drive it through a [`Dispatcher`]:
    /// the controllers move into persistent worker threads for the
    /// session and back. `collect` decides whether routed segments carry
    /// per-request responses back.
    fn with_session<R>(&mut self, collect: bool, body: impl FnOnce(&mut Dispatcher<'_>) -> R) -> R {
        let ShardedController {
            shards,
            predictor,
            session,
            telemetry,
        } = self;
        let front_door =
            schedule(shards.len()).then(|| (*predictor, shards[0].config().policy.percentile));
        let owned = std::mem::take(shards);
        let spans = telemetry.as_deref_mut().map(|t| &mut t.spans);
        let run = |workers: &mut ShardWorkers<ShardCmd, ShardReply>| {
            let mut dispatcher =
                Dispatcher::new(workers, &mut *session, collect, front_door, spans);
            let out = body(&mut dispatcher);
            (out, dispatcher.workers.lane_stats())
        };
        let (owned, (out, session_lanes)) = with_shard_threads(owned, worker_step, run);
        *shards = owned;
        session.lane_base.merge(&session_lanes);
        self.sync_session_telemetry();
        out
    }

    /// Mirror the dispatcher-side cumulative totals (lane stats, dispatcher
    /// span drops) into the registry as deltas. Called at the end of every
    /// session.
    fn sync_session_telemetry(&mut self) {
        let lanes = self.session.lane_base;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.sync_session(&lanes);
        }
        // Shard rings overflow silently between barriers; fold their drop
        // counts in here too.
        for shard in &mut self.shards {
            shard.sync_telemetry();
        }
    }

    /// Process a batch of time-ordered requests, returning responses in
    /// request order. The shard workers persist across the whole batch:
    /// routed spans stream to them in pipelined segments, and broadcast
    /// requests (tick / probe / stats / depart) are ordering tokens on
    /// every lane rather than fork-join barriers. Records are borrowed at
    /// the [`Controller`], owned across a lane: each arrival is cloned
    /// into its collecting segment.
    pub fn handle_batch(&mut self, requests: &[Request<'_>]) -> Vec<Response> {
        self.with_session(true, |dispatcher| {
            for request in requests {
                dispatcher.submit(StreamRequest::from_request(*request));
            }
            let (responses, _) = dispatcher.drain();
            responses
                .into_iter()
                .map(|r| r.expect("every request answered"))
                .collect()
        })
    }

    /// [`Self::run_stream`] for a *borrowing* request sequence (e.g. a
    /// [`RequestSource`](crate::RequestSource) over a materialized trace).
    /// Records are borrowed at the [`Controller`], owned across a lane:
    /// `run` is `run_stream` over cloned records.
    pub fn run<'r>(&mut self, requests: impl IntoIterator<Item = Request<'r>>) -> PackingResult {
        self.run_stream(requests.into_iter().map(StreamRequest::from_request))
    }

    /// Stream an entire request sequence and finalize, all in a single
    /// worker session — the scale-out serving loop, driven from any
    /// `Iterator<Item = StreamRequest>`: a
    /// [`StreamSource`](crate::StreamSource) over
    /// [`coach_trace::StreamingTrace::records`], a [`crate::scenario`]
    /// combinator chain, or [`Self::run`]'s clones — no materialized trace
    /// need sit behind it. Records are borrowed at the [`Controller`],
    /// owned across a lane: they move into routed segments and are dropped
    /// worker-side after admission. Per-request responses are never
    /// materialized (workers acknowledge whole segments) and the bounded
    /// command lanes provide backpressure (the dispatcher parks when a
    /// worker falls [`COMMAND_LANE_CAPACITY`] segments behind), so a
    /// thread session holds at most four segments per shard in flight —
    /// under 1.5 MiB of records and predictions each, regardless of stream
    /// length; the merged final [`PackingResult`] is returned.
    ///
    /// Two `serve.stream_*` counters land in the telemetry registry per
    /// call (when armed): `stream_records` (arrivals submitted) and
    /// `stream_segments` (segments shipped).
    pub fn run_stream(
        &mut self,
        requests: impl IntoIterator<Item = StreamRequest>,
    ) -> PackingResult {
        let (result, records, segments) = self.with_session(false, |dispatcher| {
            for request in requests {
                dispatcher.submit(request);
            }
            dispatcher.send_finalize();
            let counts = (dispatcher.stream_records, dispatcher.stream_segments);
            let (_, result) = dispatcher.drain();
            (result.expect("finalize merged"), counts.0, counts.1)
        });
        if let Some(t) = self.telemetry.as_deref() {
            t.registry.counter(metric::STREAM_RECORDS, &[]).add(records);
            t.registry
                .counter(metric::STREAM_SEGMENTS, &[])
                .add(segments);
        }
        result
    }

    /// Finalize every shard and merge into the batch experiment's result
    /// struct. Idempotent; [`Self::run`] already finalizes inline.
    pub fn finalize(&mut self) -> PackingResult {
        self.with_session(false, |dispatcher| {
            dispatcher.send_finalize();
            let (_, result) = dispatcher.drain();
            result.expect("finalize merged")
        })
    }

    /// Cumulative worker-lane telemetry (commands + replies) across every
    /// completed session. A single-shard controller sends one command and
    /// one reply per segment, token and finalize.
    pub fn lane_totals(&self) -> LaneStats {
        self.session.lane_base
    }

    /// The deployment-wide metrics registry, when
    /// [`ServeConfig::telemetry`] is not `Off`. Every shard records into
    /// it directly, so a snapshot taken between public calls is complete.
    pub fn telemetry_registry(&self) -> Option<Arc<Registry>> {
        self.telemetry.as_deref().map(|t| Arc::clone(&t.registry))
    }

    /// Every span ring this deployment recorded into (none when telemetry
    /// is off): one per shard controller plus the dispatcher's barrier
    /// ring (tid = shard count). Feed them to
    /// [`coach_telemetry::chrome_trace`].
    pub fn telemetry_span_rings(&self) -> Vec<&SpanRing> {
        let mut rings: Vec<&SpanRing> = self
            .shards
            .iter()
            .filter_map(Controller::telemetry_spans)
            .collect();
        if let Some(t) = self.telemetry.as_deref() {
            rings.push(&t.spans);
        }
        rings
    }

    /// Serialize one shard's full decision-bearing state into a
    /// [`Snapshot`] — the drain half of live servicing. Valid between
    /// sessions (i.e. between public entry-point calls); the shard keeps
    /// serving afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn drain_shard(&mut self, shard: usize) -> Snapshot {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        self.shards[shard].snapshot()
    }

    /// Replace one shard's state with a restored [`Snapshot`] — the resume
    /// half of live servicing (e.g. into a freshly constructed controller
    /// after an upgrade, or to roll a shard back); the snapshot is all it
    /// reads.
    ///
    /// The restored shard must cover the same clusters the slot covered
    /// (routing is deterministic, so snapshots from the same shard index
    /// of an identically configured deployment always do).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn resume_shard(&mut self, shard: usize, snapshot: &Snapshot) -> Result<(), WireError> {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        let t0 = Instant::now();
        self.shards[shard] = Controller::restore(self.predictor, snapshot, |_| None)?;
        if let Some(t) = self.telemetry.as_deref() {
            let secs = t0.elapsed().as_secs_f64();
            if secs > 0.0 {
                t.registry
                    .gauge(
                        metric::SNAPSHOT_RESTORE_BPS,
                        &[("shard", LabelValue::U64(shard as u64))],
                    )
                    .set(snapshot.bytes().len() as f64 / secs);
            }
            // A restored controller comes back un-armed; re-arm it onto
            // the deployment registry under its old shard label.
            self.shards[shard].enable_telemetry(
                TelemetryConfig::Full,
                Arc::clone(&t.registry),
                shard as u32,
                t.origin,
            );
        }
        Ok(())
    }
}

/// Does nothing. Shard workers are threads of the calling process, so no
/// binary is ever re-entered as a worker; the function stays only because
/// the frozen `examples/benchmark` calls it first thing in `main`.
pub fn maybe_run_shard_worker() {}

impl std::fmt::Debug for ShardedController<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedController")
            .field("shards", &self.shards.len())
            .field("clusters", &self.session.route.len())
            .finish_non_exhaustive()
    }
}

/// What the dispatcher has sent and not yet collected, in global order.
enum Sent {
    /// One segment reply ([`ShardReply::Answers`] or [`ShardReply::Ran`])
    /// expected from `shard`.
    Batch { shard: usize },
    /// One token reply expected from *every* shard; `idx` is the
    /// broadcast's stream position, `token` drives the merge.
    Token { idx: usize, token: TokenCmd },
    /// One [`ShardReply::Finalized`] expected from every shard.
    Finalize,
}

/// The session-scoped request router: queues shard-routed arrivals into
/// per-shard segments, turns broadcasts into per-lane tokens, and merges
/// the FIFO replies.
struct Dispatcher<'s> {
    workers: &'s mut ShardWorkers<ShardCmd, ShardReply>,
    state: &'s mut SessionState,
    /// Per-shard staged arrivals with their stream positions.
    pending: Vec<Vec<(u64, VmRecord)>>,
    /// Arrivals per segment: [`FRONT_DOOR_SEGMENT`] when this dispatcher
    /// derives, [`SEGMENT`] when the workers do.
    segment: usize,
    /// Arrivals submitted this session (`serve.stream_records`).
    stream_records: u64,
    /// Segments shipped this session (`serve.stream_segments`).
    stream_segments: u64,
    log: Vec<Sent>,
    next_idx: usize,
    /// Whether routed segments carry per-request responses back.
    collect: bool,
    /// The predictor and percentile segments are derived with here, at
    /// the front door, before they are sent; `None` when the workers
    /// derive their own.
    front_door: Option<(&'s dyn Predictor, Percentile)>,
    /// Barrier spans (armed telemetry only): staging, drains, merges and
    /// front-door derive chunks record into the deployment's dispatcher
    /// ring.
    spans: Option<&'s mut SpanRing>,
}

impl<'s> Dispatcher<'s> {
    fn new(
        workers: &'s mut ShardWorkers<ShardCmd, ShardReply>,
        state: &'s mut SessionState,
        collect: bool,
        front_door: Option<(&'s dyn Predictor, Percentile)>,
        spans: Option<&'s mut SpanRing>,
    ) -> Self {
        Dispatcher {
            pending: (0..workers.len()).map(|_| Vec::new()).collect(),
            segment: match front_door {
                Some(_) => FRONT_DOOR_SEGMENT,
                None => SEGMENT,
            },
            workers,
            state,
            stream_records: 0,
            stream_segments: 0,
            log: Vec::new(),
            next_idx: 0,
            collect,
            front_door,
            spans,
        }
    }

    /// Open a barrier span, if the dispatcher ring is armed.
    #[inline]
    fn begin_span(&self) -> Option<SpanStart> {
        self.spans.is_some().then(SpanRing::begin)
    }

    /// Close a barrier span opened by [`Self::begin_span`].
    #[inline]
    fn end_span(&mut self, name: &'static str, start: Option<SpanStart>) {
        if let (Some(ring), Some(start)) = (self.spans.as_mut(), start) {
            ring.end(name, start);
        }
    }

    /// Feed one request into the session (requests must be submitted in
    /// stream order): the dispatcher's one front door. Arrivals stage by
    /// value into their shard's segment; everything else becomes a token
    /// on every lane.
    fn submit(&mut self, request: StreamRequest) {
        let idx = self.next_idx;
        self.next_idx += 1;
        let token = match request {
            StreamRequest::Arrive(rec) => {
                self.stream_records += 1;
                let route = &self.state.route;
                let at = route
                    .binary_search_by_key(&rec.cluster, |&(id, _)| id)
                    .expect("arrival for a cluster this controller owns");
                let shard = route[at].1 as usize;
                self.pending[shard].push((idx as u64, rec));
                if self.pending[shard].len() >= self.segment {
                    self.flush(shard);
                }
                return;
            }
            StreamRequest::Depart { vm, now } => TokenCmd::Depart { vm, now },
            StreamRequest::Tick { now } => TokenCmd::Tick { now },
            StreamRequest::Probe { now } => TokenCmd::Probe { now },
            StreamRequest::Stats { now } => TokenCmd::Stats { now },
        };
        let span = self.begin_span();
        // Hand each shard its staged segment *and* the token in one
        // batched lane handoff — the segment still lands before the token
        // (same stream position as a flush-then-send), and a worker woken
        // by the segment finds the token queued behind it.
        self.send_after_segments(ShardCmd::Token(token));
        self.log.push(Sent::Token { idx, token });
        self.end_span("dispatch.stage", span);
    }

    /// Take `shard`'s staged segment as a ready-to-send command, if any,
    /// derived here when the session derives at the front door. Only a
    /// collecting session ships the stream positions; otherwise the
    /// worker acknowledges the whole segment — reply-lane memory stays
    /// O(segments), not O(requests), over a million-VM stream.
    fn take_segment(&mut self, shard: usize) -> Option<ShardCmd> {
        if self.pending[shard].is_empty() {
            return None;
        }
        self.stream_segments += 1;
        let segment = std::mem::take(&mut self.pending[shard]);
        let derived = match self.front_door {
            Some((predictor, percentile)) => {
                let recs: Vec<&VmRecord> = segment.iter().map(|(_, rec)| rec).collect();
                derive(predictor, percentile, &recs, self.spans.as_deref_mut())
            }
            None => Vec::new(),
        };
        Some(if self.collect {
            ShardCmd::Batch(segment, derived)
        } else {
            ShardCmd::Run(segment.into_iter().map(|(_, rec)| rec).collect(), derived)
        })
    }

    /// Send every shard its staged segment (if any) and then `cmd`, as one
    /// burst per lane.
    fn send_after_segments(&mut self, cmd: ShardCmd) {
        for shard in 0..self.workers.len() {
            let mut burst = Vec::with_capacity(2);
            if let Some(segment) = self.take_segment(shard) {
                burst.push(segment);
                self.log.push(Sent::Batch { shard });
            }
            burst.push(cmd.clone());
            self.workers.send_batch(shard, burst);
        }
    }

    fn flush(&mut self, shard: usize) {
        if let Some(cmd) = self.take_segment(shard) {
            self.workers.send(shard, cmd);
            self.log.push(Sent::Batch { shard });
        }
    }

    fn flush_all(&mut self) {
        for shard in 0..self.pending.len() {
            self.flush(shard);
        }
    }

    fn send_finalize(&mut self) {
        let span = self.begin_span();
        // Same batched handoff as a broadcast: segment + finalize arrive
        // in one burst per shard.
        self.send_after_segments(ShardCmd::Finalize);
        self.log.push(Sent::Finalize);
        self.end_span("dispatch.finalize", span);
    }

    /// Collect every outstanding reply in send order. In a collecting
    /// session the per-request responses come back positioned by stream
    /// index; otherwise only segment acknowledgements arrive (the merges
    /// that feed later state — timelines, the final result — still
    /// happen).
    fn drain(&mut self) -> (Vec<Option<Response>>, Option<PackingResult>) {
        let span = self.begin_span();
        self.flush_all();
        let mut responses: Vec<Option<Response>> = if self.collect {
            (0..self.next_idx).map(|_| None).collect()
        } else {
            Vec::new()
        };
        let mut final_result = None;
        for sent in std::mem::take(&mut self.log) {
            match sent {
                Sent::Batch { shard } => match self.workers.recv(shard) {
                    ShardReply::Answers(answers) => {
                        for (idx, response) in answers {
                            responses[idx as usize] = Some(response);
                        }
                    }
                    ShardReply::Ran => {}
                    _ => unreachable!("segment answered with answers or an ack"),
                },
                Sent::Token { idx, token } => {
                    let merged = self.merge_token(token);
                    if self.collect {
                        responses[idx] = Some(merged);
                    }
                }
                Sent::Finalize => {
                    final_result = Some(self.merge_finalize());
                }
            }
        }
        self.end_span("dispatch.drain", span);
        (responses, final_result)
    }

    /// Collect one token reply per shard and merge by request kind.
    fn merge_token(&mut self, token: TokenCmd) -> Response {
        match token {
            TokenCmd::Stats { now } => {
                let snapshots: Vec<ShardSnapshot> = (0..self.workers.len())
                    .map(|shard| {
                        let ShardReply::Stats(snapshot) = self.workers.recv(shard) else {
                            unreachable!("stats token answered with a snapshot");
                        };
                        *snapshot
                    })
                    .collect();
                Response::Stats(self.merge_snapshots(now, &snapshots))
            }
            _ => {
                let answers: Vec<Response> = (0..self.workers.len())
                    .map(|shard| {
                        let ShardReply::Token(response) = self.workers.recv(shard) else {
                            unreachable!("token answered with a token response");
                        };
                        response
                    })
                    .collect();
                match token {
                    TokenCmd::Probe { .. } => {
                        let total = answers
                            .iter()
                            .map(|a| match a {
                                Response::ProbeCapacity(n) => *n,
                                other => unreachable!("probe answered with {other:?}"),
                            })
                            .sum();
                        Response::ProbeCapacity(total)
                    }
                    TokenCmd::Depart { vm, .. } => {
                        let found = answers
                            .iter()
                            .any(|a| matches!(a, Response::Departed { found: true, .. }));
                        Response::Departed { vm, found }
                    }
                    TokenCmd::Tick { .. } => Response::Ticked,
                    TokenCmd::Stats { .. } => unreachable!("handled above"),
                }
            }
        }
    }

    /// Collect every shard's closing snapshot and merge them into the
    /// final result.
    fn merge_finalize(&mut self) -> PackingResult {
        let snapshots: Vec<ShardSnapshot> = (0..self.workers.len())
            .map(|shard| {
                let ShardReply::Finalized(snapshot) = self.workers.recv(shard) else {
                    unreachable!("finalize answered with a closing snapshot");
                };
                *snapshot
            })
            .collect();
        self.merge_snapshots(self.state.horizon, &snapshots)
            .to_packing_result(self.state.label)
    }

    /// Merge per-shard snapshots into a cluster-wide report. Integer
    /// counters add exactly; the peak comes from the merged timelines.
    fn merge_snapshots(&mut self, now: Timestamp, snapshots: &[ShardSnapshot]) -> StatsReport {
        let span = self.begin_span();
        let mut merged = StatsReport {
            now,
            ..StatsReport::default()
        };
        for (shard, snapshot) in snapshots.iter().enumerate() {
            self.state.timelines[shard].extend_from_slice(&snapshot.timeline_delta);
            let s = &snapshot.stats;
            merged.accepted += s.accepted;
            merged.rejected += s.rejected;
            merged.departed += s.departed;
            merged.resident_vms += s.resident_vms;
            merged.servers_in_use += s.servers_in_use;
            merged.accepted_core_hours += s.accepted_core_hours;
            merged.accepted_gb_hours += s.accepted_gb_hours;
            merged.violation_samples += s.violation_samples;
            merged.cpu_violations += s.cpu_violations;
            merged.mem_violations += s.mem_violations;
            merged.ticks = merged.ticks.max(s.ticks);
        }
        // Probe counts are per-measurement: the k-th measurement's global
        // capacity is the sum of every shard's k-th count.
        merged.probe_measurements = snapshots
            .iter()
            .map(|s| s.probe_counts.len())
            .max()
            .unwrap_or(0) as u64;
        merged.probe_capacity_total = snapshots.iter().flat_map(|s| s.probe_counts.iter()).sum();
        // Consume timeline entries strictly before `now` into the
        // persistent merge (every shard has reported all of them by this
        // barrier — a departure at exactly `now` may still be drained by a
        // later event, so same-time entries stay in the tail), then fold
        // the small tail in non-destructively for this report's peak.
        let SessionState {
            peak, timelines, ..
        } = &mut *self.state;
        peak.advance(timelines, now.ticks());
        merged.peak_servers_in_use = peak.peak_with_tail(timelines);
        self.end_span("dispatch.merge", span);
        merged
    }
}

/// Streaming reconstruction of the global occupancy peak: a k-way merge of
/// the shards' sorted delta timelines in the batch replay's
/// `(time, kind, seq)` event order, taking the running-sum maximum — with
/// the running sum and peak persisted across stats queries, and each
/// query's consumed deltas drained from the timelines, so a cadence of Q
/// queries over N deltas costs O(N + Q·tail) total instead of O(Q·N) and
/// keeps only the deltas since the previous barrier.
#[derive(Debug, Default)]
struct PeakMerge {
    running: i64,
    peak: i64,
}

impl PeakMerge {
    /// Pop the next entry in global `(time, kind, seq)` order among the
    /// timelines' un-consumed suffixes, if its time is below `boundary`.
    fn next_below(
        cursors: &mut [usize],
        timelines: &[Vec<OccDelta>],
        boundary: u64,
    ) -> Option<OccDelta> {
        let mut best: Option<(usize, OccDelta)> = None;
        for (si, timeline) in timelines.iter().enumerate() {
            if let Some(&entry) = timeline.get(cursors[si]) {
                let key = (entry.0, entry.1, entry.2);
                if entry.0 < boundary && best.is_none_or(|(_, b)| key < (b.0, b.1, b.2)) {
                    best = Some((si, entry));
                }
            }
        }
        let (si, entry) = best?;
        cursors[si] += 1;
        Some(entry)
    }

    /// Consume entries with time strictly below `boundary` into the
    /// running sum and peak, then drain each shard's consumed prefix.
    /// Safe because at a barrier at `boundary` every shard has already
    /// reported all its strictly-earlier deltas (the barrier drains
    /// strictly-earlier departures), so nothing below the boundary can
    /// arrive later and be mis-ordered against the consumed prefix.
    fn advance(&mut self, timelines: &mut [Vec<OccDelta>], boundary: u64) {
        let mut cursors = vec![0; timelines.len()];
        while let Some(entry) = Self::next_below(&mut cursors, timelines, boundary) {
            self.running += i64::from(entry.3);
            self.peak = self.peak.max(self.running);
        }
        for (timeline, consumed) in timelines.iter_mut().zip(cursors) {
            timeline.drain(..consumed);
        }
    }

    /// The peak including the not-yet-consumed tail (entries at the
    /// barrier time itself), merged non-destructively.
    fn peak_with_tail(&self, timelines: &[Vec<OccDelta>]) -> usize {
        let mut cursors = vec![0; timelines.len()];
        let mut running = self.running;
        let mut peak = self.peak;
        while let Some(entry) = Self::next_below(&mut cursors, timelines, u64::MAX) {
            running += i64::from(entry.3);
            peak = peak.max(running);
        }
        peak.max(0) as usize
    }
}

/// Replay a trace through a [`ShardedController`] — the scale-out
/// equivalent of [`crate::serve_trace`] — streaming the lazily derived
/// request sequence through one persistent worker session.
pub fn serve_trace_sharded(
    trace: &Trace,
    predictor: &dyn Predictor,
    policy: PolicyConfig,
    server_fraction: f64,
    shard_count: usize,
) -> PackingResult {
    let mut controller =
        ShardedController::replaying(trace, predictor, policy, server_fraction, shard_count);
    controller.run(crate::RequestSource::replaying(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestSource;
    use coach_sim::Oracle;
    use coach_trace::{generate, TraceConfig};
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex};
    use std::thread::ThreadId;
    use std::time::Duration;

    thread_local! {
        /// The seam behind [`schedule`]: `Some(front_door)` runs a lone
        /// shard deriving at the dispatcher or in the worker, whatever the
        /// box's core count.
        pub(super) static FORCED_SCHEDULE: Cell<Option<bool>> = const { Cell::new(None) };
    }

    /// Both one-shard schedules: dispatcher derive, worker derive.
    const SCHEDULES: [bool; 2] = [true, false];

    fn schedule_name(front_door: bool) -> &'static str {
        if front_door {
            "dispatcher derive"
        } else {
            "worker derive"
        }
    }

    /// Enough arrivals for several segments, over few enough servers that
    /// some are rejected.
    fn dense_trace(seed: u64) -> Trace {
        generate(&TraceConfig {
            vm_count: 2_400,
            ..TraceConfig::small(seed)
        })
    }

    fn coach() -> PolicyConfig {
        PolicyConfig::paper_set().remove(2)
    }

    fn one_shard<'p>(trace: &Trace, predictor: &'p dyn Predictor) -> ShardedController<'p> {
        ShardedController::replaying(trace, predictor, coach(), 0.6, 1)
    }

    fn arrivals<'r>(recs: &'r [&'r VmRecord]) -> impl Iterator<Item = StreamRequest> + 'r {
        recs.iter()
            .map(|rec| StreamRequest::from_request(Request::Arrive(rec)))
    }

    /// Assert that segmented admission == the per-item `Controller::handle`
    /// loop: a standalone controller's `handle_arrivals` for each head
    /// segment length (the tail in dispatcher-sized segments), and a
    /// one-shard session in both schedules for each stream length —
    /// `run_stream`'s whole `PackingResult`, and `handle_batch`'s
    /// responses and result.
    fn assert_segments_match_per_item(trace: &Trace, predictor: &dyn Predictor, lens: &[usize]) {
        let recs: Vec<&VmRecord> = trace.vms.iter().collect();
        let per_item = |len: usize| {
            let mut reference = Controller::replaying(trace, predictor, coach(), 0.6);
            let responses: Vec<Response> = recs[..len]
                .iter()
                .map(|rec| reference.handle(Request::Arrive(rec)))
                .collect();
            (responses, reference.finalize())
        };
        let (want, want_result) = per_item(recs.len());
        assert!(want_result.rejected > 0, "the trace exercises rejections");

        for &len in lens {
            let mut controller = Controller::replaying(trace, predictor, coach(), 0.6);
            let (head, tail) = recs.split_at(len);
            let mut got = controller.handle_arrivals(head);
            assert_eq!(got.len(), len, "one response per arrival");
            for segment in tail.chunks(SEGMENT) {
                got.extend(controller.handle_arrivals(segment));
            }
            assert_eq!(got, want, "head segment {len}: responses");
            assert_eq!(
                controller.finalize(),
                want_result,
                "head segment {len}: result"
            );
        }

        let mut lens = lens.to_vec();
        lens.push(recs.len());
        for len in lens {
            let (want, want_result) = per_item(len);
            let requests: Vec<Request> =
                recs[..len].iter().map(|rec| Request::Arrive(rec)).collect();
            for front_door in SCHEDULES {
                FORCED_SCHEDULE.set(Some(front_door));
                let name = schedule_name(front_door);
                let mut streamed = one_shard(trace, predictor);
                let result = streamed.run_stream(arrivals(&recs[..len]));
                assert_eq!(result, want_result, "{name}, {len} arrivals: run_stream");
                let mut batched = one_shard(trace, predictor);
                let got = batched.handle_batch(&requests);
                assert_eq!(got, want, "{name}, {len} arrivals: handle_batch");
                assert_eq!(batched.finalize(), want_result, "{name}, {len} arrivals");
            }
        }
    }

    /// The lengths around the chunk and both segment boundaries.
    const LENS: [usize; 10] = [
        0,
        1,
        DERIVE_CHUNK - 1,
        DERIVE_CHUNK + 1,
        FRONT_DOOR_SEGMENT - 1,
        FRONT_DOOR_SEGMENT + 1,
        SEGMENT - 1,
        SEGMENT,
        SEGMENT + 1,
        2 * SEGMENT + DERIVE_CHUNK + 1,
    ];

    #[test]
    fn segments_match_the_per_item_loop() {
        let oracle = Oracle::new(TimeWindows::paper_default());
        assert_segments_match_per_item(&dense_trace(12_001), &oracle, &LENS);
    }

    /// The same under the trained forest: the derive loop feeds `Model` a
    /// chunk per `predict_batch` (one tree-major sweep) while `handle`
    /// asks it one VM at a time.
    #[test]
    fn segments_match_the_per_item_loop_under_the_model() {
        use coach_predict::{ForestParams, ModelConfig, UtilizationModel};

        let trace = dense_trace(12_005);
        let history: Vec<&VmRecord> = trace.vms.iter().collect();
        let model = UtilizationModel::train(
            &history,
            ModelConfig {
                forest: ForestParams {
                    n_trees: 4,
                    ..ForestParams::default()
                },
                ..ModelConfig::default()
            },
        );
        assert_segments_match_per_item(&trace, &coach_sim::Model::new(&model), &LENS);
    }

    /// Records every `predict_batch` call — its thread and its inputs —
    /// and whether another call was in flight.
    struct Recording<'p> {
        inner: &'p Oracle,
        in_call: AtomicBool,
        calls: Mutex<Vec<(ThreadId, Vec<VmId>)>>,
    }

    impl Predictor for Recording<'_> {
        fn time_windows(&self) -> TimeWindows {
            self.inner.time_windows()
        }

        fn predict(&self, _: &VmRecord, _: Percentile) -> Option<DemandPrediction> {
            unreachable!("segments derive through predict_batch")
        }

        fn predict_batch(
            &self,
            vms: &[&VmRecord],
            percentile: Percentile,
        ) -> Vec<Option<DemandPrediction>> {
            assert!(
                !self.in_call.swap(true, Ordering::SeqCst),
                "predict_batch calls overlapped"
            );
            self.calls.lock().expect("no panic while recording").push((
                std::thread::current().id(),
                vms.iter().map(|vm| vm.id).collect(),
            ));
            let predictions = self.inner.predict_batch(vms, percentile);
            self.in_call.store(false, Ordering::SeqCst);
            predictions
        }
    }

    /// The `predict_batch` contract: calls never overlap, their inputs
    /// concatenate to the stream in order, and they run on one thread — the
    /// dispatcher's (the caller's) when it derives, the worker's otherwise.
    #[test]
    fn derive_stage_calls_are_serial_and_in_stream_order() {
        let trace = dense_trace(12_002);
        let recs: Vec<&VmRecord> = trace.vms.iter().collect();
        let ids: Vec<VmId> = recs.iter().map(|rec| rec.id).collect();
        let oracle = Oracle::new(TimeWindows::paper_default());
        let me = std::thread::current().id();
        for front_door in SCHEDULES {
            FORCED_SCHEDULE.set(Some(front_door));
            let name = schedule_name(front_door);
            let recording = Recording {
                inner: &oracle,
                in_call: AtomicBool::new(false),
                calls: Mutex::new(Vec::new()),
            };
            one_shard(&trace, &recording).run(RequestSource::replaying(&trace));
            let calls = recording
                .calls
                .into_inner()
                .expect("no panic while recording");
            assert!(calls.len() >= recs.len() / DERIVE_CHUNK, "chunked calls");
            let thread = calls[0].0;
            assert!(
                calls.iter().all(|(t, _)| *t == thread),
                "{name}: one derive thread"
            );
            assert_eq!(
                thread == me,
                front_door,
                "{name}: derive on the wrong thread"
            );
            let seen: Vec<VmId> = calls.into_iter().flat_map(|(_, vms)| vms).collect();
            assert_eq!(seen, ids, "{name}: inputs concatenate to the stream");
        }
    }

    /// Armed telemetry answers "which stage is the pole" from the lanes,
    /// which reach the registry, and records one `derive.chunk` span per
    /// chunk on the ring of the thread that derived it.
    #[test]
    fn derive_stage_reports_chunk_spans_and_lane_traffic() {
        let trace = dense_trace(12_005);
        let recs: Vec<&VmRecord> = trace.vms.iter().take(SEGMENT + 1).collect();
        let chunks = SEGMENT / DERIVE_CHUNK + 1;
        let oracle = Oracle::new(TimeWindows::paper_default());
        for front_door in SCHEDULES {
            FORCED_SCHEDULE.set(Some(front_door));
            let name = schedule_name(front_door);
            let config = ServeConfig {
                telemetry: TelemetryConfig::Full,
                ..ServeConfig::replaying(coach(), 0.6, trace.horizon)
            };
            let mut sharded = ShardedController::new(&trace.clusters, &oracle, config, 1);
            sharded.run_stream(arrivals(&recs));
            let rings = sharded.telemetry_span_rings();
            let spans: Vec<usize> = rings
                .iter()
                .map(|ring| ring.count("derive.chunk"))
                .collect();
            // The shard's ring, then the dispatcher's.
            let want = if front_door { [0, chunks] } else { [chunks, 0] };
            assert_eq!(spans, want, "{name}: derive.chunk spans");

            // Every segment and the finalize, one send each way.
            let segment = if front_door {
                FRONT_DOOR_SEGMENT
            } else {
                SEGMENT
            };
            let lanes = sharded.lane_totals();
            let commands = recs.len().div_ceil(segment) as u64 + 1;
            assert_eq!(lanes.sends, 2 * commands, "{name}: lane sends");
            let registry = sharded.telemetry_registry().expect("armed").snapshot();
            let counter = |id: coach_telemetry::MetricId| registry.counter(id.name, &[]);
            assert_eq!(counter(metric::LANE_SENDS), Some(lanes.sends), "{name}");
            assert_eq!(counter(metric::LANE_WAKEUPS), Some(lanes.wakeups), "{name}");
            assert_eq!(
                counter(metric::LANE_FULL_STALLS),
                Some(lanes.full_stalls),
                "{name}"
            );
        }
    }

    /// Run `body` on a thread of its own and fail, instead of hanging the
    /// suite, if it has not finished within a minute.
    fn within_deadline<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, finished) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = done.send(catch_unwind(AssertUnwindSafe(body)));
        });
        let outcome = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the session hung instead of surfacing the panic");
        runner.join().expect("runner catches the body's panic");
        outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
        panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic>")
    }

    /// Forwards to an [`Oracle`], except that call number `fail_at`
    /// panics and, given a `hold`, the first call waits for its signal.
    struct Scripted<'p> {
        inner: &'p Oracle,
        calls: AtomicUsize,
        fail_at: usize,
        hold: Option<Mutex<mpsc::Receiver<()>>>,
    }

    impl Predictor for Scripted<'_> {
        fn time_windows(&self) -> TimeWindows {
            self.inner.time_windows()
        }

        fn predict(&self, vm: &VmRecord, percentile: Percentile) -> Option<DemandPrediction> {
            self.inner.predict(vm, percentile)
        }

        fn predict_batch(
            &self,
            vms: &[&VmRecord],
            percentile: Percentile,
        ) -> Vec<Option<DemandPrediction>> {
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            if let (0, Some(hold)) = (call, &self.hold) {
                hold.lock()
                    .expect("hold")
                    .recv()
                    .expect("the stream signals");
                // The dispatcher is one arrival and one send away from
                // parking on the full lane; let it get there.
                std::thread::sleep(Duration::from_millis(100));
            }
            assert!(call != self.fail_at, "predictor failed on call {call}");
            self.inner.predict_batch(vms, percentile)
        }
    }

    /// A `predict_batch` panic at the front door surfaces on the caller
    /// with its own message, after the worker — handed two segments
    /// already — has been released from its lane and joined.
    #[test]
    fn predictor_panic_on_the_dispatcher_surfaces_with_its_message() {
        let message = within_deadline(|| {
            FORCED_SCHEDULE.set(Some(true));
            let trace = dense_trace(12_003);
            let oracle = Oracle::new(TimeWindows::paper_default());
            let predictor = Scripted {
                inner: &oracle,
                calls: AtomicUsize::new(0),
                fail_at: 2 * FRONT_DOOR_SEGMENT / DERIVE_CHUNK,
                hold: None,
            };
            let mut sharded = one_shard(&trace, &predictor);
            let panic = catch_unwind(AssertUnwindSafe(|| {
                sharded.run(RequestSource::replaying(&trace))
            }))
            .expect_err("the predictor's panic reaches the caller");
            panic_message(&*panic).to_string()
        });
        let call = 2 * FRONT_DOOR_SEGMENT / DERIVE_CHUNK;
        assert!(
            message.contains(&format!("predictor failed on call {call}")),
            "{message}"
        );
    }

    /// A panic in `admit` on the worker while the dispatcher is parked on
    /// its full lane releases the dispatcher and surfaces with the
    /// worker's own message, instead of deadlocking the session.
    #[test]
    fn admit_panic_on_the_worker_surfaces_with_its_message() {
        let (message, calls) = within_deadline(|| {
            // The worker derives, so the predictor can hold it.
            FORCED_SCHEDULE.set(Some(false));
            let trace = generate(&TraceConfig {
                vm_count: (COMMAND_LANE_CAPACITY + 3) * SEGMENT,
                ..TraceConfig::small(12_004)
            });
            let mut owned: Vec<VmRecord> = trace.vms.clone();
            // Arrival 1 re-uses arrival 0's id while 0 is still hosted.
            owned[1].id = owned[0].id;
            owned[1].cluster = owned[0].cluster;
            owned[0].departure = owned[0]
                .departure
                .max(owned[1].arrival + SimDuration::from_hours(1));
            let oracle = Oracle::new(TimeWindows::paper_default());
            let (go, hold) = mpsc::channel();
            let predictor = Scripted {
                inner: &oracle,
                calls: AtomicUsize::new(0),
                fail_at: usize::MAX,
                hold: Some(Mutex::new(hold)),
            };
            // The worker holds segment 0 in its first derive call and
            // segments 1..=COMMAND_LANE_CAPACITY fill its lane, so the
            // flush this arrival completes parks the dispatcher.
            let park_at = (COMMAND_LANE_CAPACITY + 2) * SEGMENT - 1;
            let requests = owned.iter().enumerate().map(|(i, rec)| {
                if i == park_at {
                    let _ = go.send(());
                }
                StreamRequest::from_request(Request::Arrive(rec))
            });
            let mut sharded = one_shard(&trace, &predictor);
            let panic = catch_unwind(AssertUnwindSafe(|| sharded.run_stream(requests)))
                .expect_err("the duplicate id panics in admit");
            (
                panic_message(&*panic).to_string(),
                predictor.calls.load(Ordering::SeqCst),
            )
        });
        assert!(
            message.contains("already hosted in this cluster"),
            "{message}"
        );
        // The worker died in its first segment rather than deriving on.
        assert_eq!(calls, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Shards report their deltas in event order, barrier by barrier;
        /// each shard reports its deltas at a barrier's own time before or
        /// after it (after, when it saw no arrival then). At every barrier
        /// the streaming merge reports the peak of a from-scratch merge of
        /// everything reported so far, and the timelines retain only
        /// deltas reported since the previous barrier.
        #[test]
        fn peak_merge_matches_a_full_merge_and_drains(
            raw in prop::collection::vec((0usize..4, 0u64..60, 0u8..2, -3i32..4), 0..200),
            // A barrier's time, and which shards report their deltas at
            // that time before it (one bit per shard).
            mut barriers in prop::collection::vec((0u64..60, 0u8..16), 1..12),
            shards in 1usize..5,
        ) {
            let mut per_shard: Vec<Vec<OccDelta>> = vec![Vec::new(); shards];
            for (seq, &(shard, time, kind, delta)) in raw.iter().enumerate() {
                per_shard[shard % shards].push((time, kind, seq as u64, delta));
            }
            for deltas in &mut per_shard {
                deltas.sort_unstable();
            }
            barriers.sort_unstable();
            barriers.dedup_by_key(|b| b.0);
            // Past every delta, as at finalize.
            barriers.push((60, 0));

            let mut merge = PeakMerge::default();
            let mut timelines: Vec<Vec<OccDelta>> = vec![Vec::new(); shards];
            let mut reported = vec![0usize; shards];
            let mut everything: Vec<OccDelta> = Vec::new();
            for (boundary, before) in barriers {
                let mut interval = 0;
                for (shard, deltas) in per_shard.iter().enumerate() {
                    let inclusive = before & (1 << shard) != 0;
                    let upto = deltas
                        .partition_point(|d| d.0 < boundary || (inclusive && d.0 == boundary));
                    let new = &deltas[reported[shard]..upto];
                    timelines[shard].extend_from_slice(new);
                    everything.extend_from_slice(new);
                    interval += new.len();
                    reported[shard] = upto;
                }
                merge.advance(&mut timelines, boundary);

                everything.sort_unstable();
                let (mut running, mut peak) = (0i64, 0i64);
                for delta in &everything {
                    running += i64::from(delta.3);
                    peak = peak.max(running);
                }
                prop_assert_eq!(merge.peak_with_tail(&timelines), peak as usize);
                let retained: usize = timelines.iter().map(Vec::len).sum();
                prop_assert!(
                    retained <= interval,
                    "at {}: {} retained, {} reported since the last barrier",
                    boundary,
                    retained,
                    interval
                );
            }
        }
    }
}
