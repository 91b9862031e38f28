//! Serve-layer telemetry wiring: the instrument catalog and the per-shard
//! state the [`Controller`](crate::Controller) and sharded dispatcher carry.
//!
//! One registry per deployment. Thread-backed shards share the parent's
//! `Arc<Registry>` directly (relaxed atomics cross threads for free);
//! process-backed shards run their own registry and ship drained deltas
//! over `WireCmd::Telemetry` frames at barriers, which the parent
//! [`Registry::merge`]s. Series are labeled by policy and shard (the
//! deployment-wide lane counters carry no labels), so both backends
//! produce the same series set — asserted counter-for-counter by the
//! telemetry tests.
//!
//! Span naming convention: `<layer>.<event>`, dot-separated —
//! `serve.admit` / `serve.depart` / `serve.tick` / `serve.probe` /
//! `serve.stats` on the controller event loop, `dispatch.stage` /
//! `dispatch.drain` / `dispatch.merge` / `dispatch.finalize` on the
//! sharded barrier path, `derive.chunk` for each `predict_batch` call —
//! on the dispatcher's ring when a session derives at the front door, on
//! the shard controller's when its worker derives. Admission spans ride
//! the admission latency sampling (`ADMISSION_SAMPLE_EVERY`; the clock
//! reads are already paid there); broadcast-token and derive-chunk spans
//! record every occurrence.
//!
//! Which stage bounds a session the lane counters say: full stalls are a
//! dispatcher waiting on placement, and the rest of the wakeups (receives
//! that found their lane empty, an upper bound on the other parks) mostly
//! a worker waiting on ingest and derive.
//!
//! The registry is the one home of what depends on wall time or thread
//! scheduling — admission latency, lane traffic, worker restarts. None of
//! it enters a snapshot, a shard's barrier reply or a
//! [`StatsReport`](crate::StatsReport), so those stay functions of the
//! request stream alone; with telemetry `Off` nothing on the admission
//! path reads the clock.

use coach_telemetry::{
    AtomicHistogram, Counter, Gauge, LabelValue, Registry, RegistrySnapshot, SpanRing, SpanStart,
};
use coach_types::runtime::LaneStats;
use std::sync::Arc;
use std::time::Instant;

/// The serve-layer instrument catalog. Every call site addresses metrics
/// through these ids, so spelling is fixed at compile time.
pub mod metric {
    use coach_telemetry::MetricId;

    /// Arrivals admitted (labels: policy, shard).
    pub const ACCEPTED: MetricId =
        MetricId::new("coach_serve_accepted_total", "Arrivals admitted.");
    /// Arrivals rejected (labels: policy, shard).
    pub const REJECTED: MetricId =
        MetricId::new("coach_serve_rejected_total", "Arrivals rejected.");
    /// Departures processed, scheduled or explicit (labels: policy, shard).
    pub const DEPARTED: MetricId =
        MetricId::new("coach_serve_departed_total", "Departures processed.");
    /// Clock ticks absorbed (labels: policy, shard).
    pub const TICKS: MetricId = MetricId::new("coach_serve_ticks_total", "Clock ticks absorbed.");
    /// Probe measurements taken (labels: policy, shard).
    pub const PROBES: MetricId = MetricId::new(
        "coach_serve_probe_measurements_total",
        "Probe-capacity measurements taken.",
    );
    /// Total probe VMs placed across measurements (labels: policy, shard).
    pub const PROBE_CAPACITY: MetricId = MetricId::new(
        "coach_serve_probe_capacity_total",
        "Probe VMs placed across all measurements.",
    );
    /// Admission (placement) latency of every `ADMISSION_SAMPLE_EVERY`-th
    /// (8th) arrival per controller, recorded only while telemetry is
    /// armed (labels: policy, shard).
    pub const ADMISSION_LATENCY: MetricId = MetricId::new(
        "coach_serve_admission_latency_ns",
        "Sampled admission (placement) latency.",
    );
    /// Span-ring overflow drops (labels: shard).
    pub const SPAN_DROPS: MetricId = MetricId::new(
        "coach_serve_span_drops_total",
        "Span events dropped on full rings (never blocks).",
    );
    /// Lane items sent, migrated from `LaneStats::sends` (no labels).
    pub const LANE_SENDS: MetricId = MetricId::new(
        "coach_serve_lane_sends_total",
        "Items sent over sharded worker lanes.",
    );
    /// Lane batched handoffs (no labels).
    pub const LANE_BATCHED_SENDS: MetricId = MetricId::new(
        "coach_serve_lane_batched_sends_total",
        "send_batch handoffs on worker lanes.",
    );
    /// Lane parks, counted at the endpoint that may sleep: receives that
    /// found their lane empty plus full stalls, an upper bound (no labels).
    pub const LANE_WAKEUPS: MetricId = MetricId::new(
        "coach_serve_lane_wakeups_total",
        "Empty-lane receives plus full stalls on worker lanes (an upper bound on parks).",
    );
    /// Producer stalls on full command lanes (no labels).
    pub const LANE_FULL_STALLS: MetricId = MetricId::new(
        "coach_serve_lane_full_stalls_total",
        "Producer stalls on full worker command lanes (backpressure).",
    );
    /// Process workers respawned — what
    /// `ShardedController::worker_restarts` reports (no labels).
    pub const WORKER_RESTARTS: MetricId = MetricId::new(
        "coach_serve_worker_restarts_total",
        "Process shard workers respawned after an unexpected death.",
    );
    /// Time spent replaying checkpoint + journal during recoveries.
    pub const RECOVERY_REPLAY_NS: MetricId = MetricId::new(
        "coach_serve_recovery_replay_ns_total",
        "Nanoseconds spent in checkpoint restore + journal replay.",
    );
    /// Bytes written to process-worker pipes (labels: none; parent side).
    pub const WIRE_TX_BYTES: MetricId = MetricId::new(
        "coach_serve_wire_tx_bytes_total",
        "Frame bytes sent to process shard workers.",
    );
    /// Bytes read back from process-worker pipes.
    pub const WIRE_RX_BYTES: MetricId = MetricId::new(
        "coach_serve_wire_rx_bytes_total",
        "Frame bytes received from process shard workers.",
    );
    /// Command frames sent to process workers.
    pub const WIRE_TX_FRAMES: MetricId = MetricId::new(
        "coach_serve_wire_tx_frames_total",
        "Command frames sent to process shard workers.",
    );
    /// Reply frames received from process workers.
    pub const WIRE_RX_FRAMES: MetricId = MetricId::new(
        "coach_serve_wire_rx_frames_total",
        "Reply frames received from process shard workers.",
    );
    /// Arrivals submitted through streaming sessions
    /// (`ShardedController::{run, run_stream}`; no labels).
    pub const STREAM_RECORDS: MetricId = MetricId::new(
        "coach_serve_stream_records_total",
        "Arrival records submitted by streaming sessions.",
    );
    /// Segments shipped to workers by streaming sessions (no labels).
    pub const STREAM_SEGMENTS: MetricId = MetricId::new(
        "coach_serve_stream_segments_total",
        "Record segments shipped by streaming sessions.",
    );
    /// Snapshot encode throughput of the latest export (labels: shard).
    pub const SNAPSHOT_ENCODE_BPS: MetricId = MetricId::new(
        "coach_serve_snapshot_encode_bytes_per_s",
        "Throughput of the most recent snapshot encode.",
    );
    /// Snapshot restore throughput of the latest resume (labels: shard).
    pub const SNAPSHOT_RESTORE_BPS: MetricId = MetricId::new(
        "coach_serve_snapshot_restore_bytes_per_s",
        "Throughput of the most recent snapshot restore.",
    );
}

/// An armed controller times the placement of every arrival whose sequence
/// number is a multiple of this, into [`metric::ADMISSION_LATENCY`] and a
/// `serve.admit` span (timing every one would bias sub-microsecond
/// placements with the clock reads).
pub(crate) const ADMISSION_SAMPLE_EVERY: u64 = 8;

/// Spans per controller ring. Sized for a full medium-trace replay's
/// broadcast tokens; overflow drops (counted) rather than growing.
pub(crate) const CONTROLLER_SPAN_CAPACITY: usize = 16 * 1024;

/// The telemetry state one [`Controller`](crate::Controller) carries when
/// armed: pre-registered handles (all registration allocation happens
/// here, once) plus its span ring.
pub(crate) struct ControllerTelemetry {
    pub(crate) registry: Arc<Registry>,
    origin: Instant,
    pub(crate) accepted: Arc<Counter>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) departed: Arc<Counter>,
    pub(crate) ticks: Arc<Counter>,
    pub(crate) probes: Arc<Counter>,
    pub(crate) probe_capacity: Arc<Counter>,
    pub(crate) admission: Arc<AtomicHistogram>,
    span_drops: Arc<Counter>,
    pub(crate) encode_bps: Arc<Gauge>,
    pub(crate) spans: SpanRing,
}

impl ControllerTelemetry {
    /// Register this controller's series on `registry` under
    /// `(policy, shard)` labels and allocate the span ring. `origin` is
    /// the deployment-wide timeline zero.
    pub(crate) fn new(
        registry: Arc<Registry>,
        policy: &'static str,
        shard: u32,
        origin: Instant,
    ) -> Box<ControllerTelemetry> {
        let labels = [
            ("policy", LabelValue::Str(policy)),
            ("shard", LabelValue::U64(shard as u64)),
        ];
        let shard_label = [("shard", LabelValue::U64(shard as u64))];
        Box::new(ControllerTelemetry {
            origin,
            accepted: registry.counter(metric::ACCEPTED, &labels),
            rejected: registry.counter(metric::REJECTED, &labels),
            departed: registry.counter(metric::DEPARTED, &labels),
            ticks: registry.counter(metric::TICKS, &labels),
            probes: registry.counter(metric::PROBES, &labels),
            probe_capacity: registry.counter(metric::PROBE_CAPACITY, &labels),
            admission: registry.histogram(metric::ADMISSION_LATENCY, &labels),
            span_drops: registry.counter(metric::SPAN_DROPS, &shard_label),
            encode_bps: registry.gauge(metric::SNAPSHOT_ENCODE_BPS, &shard_label),
            spans: SpanRing::with_origin(origin, shard, CONTROLLER_SPAN_CAPACITY),
            registry,
        })
    }

    /// Close a broadcast-token span opened with [`SpanRing::begin`].
    #[inline]
    pub(crate) fn end_span(&mut self, name: &'static str, start: SpanStart) {
        self.spans.end(name, start);
    }

    /// Record a span measured elsewhere: a sampled admission, timed once
    /// for the latency histogram and the span both.
    #[inline]
    pub(crate) fn record_span(&mut self, name: &'static str, t0: Instant, dur_ns: u64) {
        let start_ns = t0.duration_since(self.origin).as_nanos() as u64;
        self.spans.record(name, start_ns, dur_ns);
    }

    /// Mirror ring overflow drops into the drop counter (idempotent per
    /// drop; called at export barriers).
    pub(crate) fn sync_span_drops(&mut self) {
        self.span_drops.add(self.spans.take_drop_delta());
    }

    /// Drain this controller's registry delta for wire shipping (child
    /// shard workers at a telemetry barrier).
    pub(crate) fn drain(&mut self) -> RegistrySnapshot {
        self.sync_span_drops();
        self.registry.drain_delta()
    }
}

impl std::fmt::Debug for ControllerTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControllerTelemetry")
            .finish_non_exhaustive()
    }
}

/// Parent-side counters for the process backend's pipes: frame bytes and
/// counts in each direction. Shared (`Arc`) with the dispatcher's link so
/// every `send`/`recv` can count without widening call signatures.
#[derive(Debug, Clone)]
pub(crate) struct WireTelemetry {
    pub(crate) tx_bytes: Arc<Counter>,
    pub(crate) rx_bytes: Arc<Counter>,
    pub(crate) tx_frames: Arc<Counter>,
    pub(crate) rx_frames: Arc<Counter>,
}

impl WireTelemetry {
    pub(crate) fn new(registry: &Registry) -> WireTelemetry {
        WireTelemetry {
            tx_bytes: registry.counter(metric::WIRE_TX_BYTES, &[]),
            rx_bytes: registry.counter(metric::WIRE_RX_BYTES, &[]),
            tx_frames: registry.counter(metric::WIRE_TX_FRAMES, &[]),
            rx_frames: registry.counter(metric::WIRE_RX_FRAMES, &[]),
        }
    }

    /// Count one frame sent toward a child.
    #[inline]
    pub(crate) fn sent(&self, bytes: usize) {
        self.tx_bytes.add(bytes as u64);
        self.tx_frames.inc();
    }

    /// Count one frame received back from a child.
    #[inline]
    pub(crate) fn received(&self, bytes: usize) {
        self.rx_bytes.add(bytes as u64);
        self.rx_frames.inc();
    }
}

/// The deployment-wide telemetry state a
/// [`ShardedController`](crate::ShardedController) owns: the shared
/// registry every thread-backed shard records into (and process deltas
/// merge into), the dispatcher's own span ring, and the counters whose
/// sources are parent-side cumulative totals (lane stats, process-pool
/// restarts) mirrored as deltas at session barriers.
pub(crate) struct ShardTelemetry {
    pub(crate) registry: Arc<Registry>,
    pub(crate) origin: Instant,
    /// Barrier spans on the dispatcher thread; its tid is `shard_count`,
    /// one past the shard rings'.
    pub(crate) spans: SpanRing,
    lane_sends: Arc<Counter>,
    lane_batched_sends: Arc<Counter>,
    lane_wakeups: Arc<Counter>,
    lane_full_stalls: Arc<Counter>,
    /// Lane totals already mirrored into the counters (the runtime exposes
    /// cumulative sums, the registry wants monotone increments).
    lanes_seen: LaneStats,
    span_drops: Arc<Counter>,
    restarts: Arc<Counter>,
    replay_ns: Arc<Counter>,
    restarts_seen: u64,
    replay_seen: u64,
    pub(crate) wire: WireTelemetry,
}

impl ShardTelemetry {
    /// Build the deployment registry and register the parent-side series.
    pub(crate) fn new(shard_count: usize, origin: Instant) -> Box<ShardTelemetry> {
        let registry = Arc::new(Registry::new());
        let tid = shard_count as u32;
        Box::new(ShardTelemetry {
            origin,
            spans: SpanRing::with_origin(origin, tid, CONTROLLER_SPAN_CAPACITY),
            lane_sends: registry.counter(metric::LANE_SENDS, &[]),
            lane_batched_sends: registry.counter(metric::LANE_BATCHED_SENDS, &[]),
            lane_wakeups: registry.counter(metric::LANE_WAKEUPS, &[]),
            lane_full_stalls: registry.counter(metric::LANE_FULL_STALLS, &[]),
            lanes_seen: LaneStats::default(),
            span_drops: registry.counter(
                metric::SPAN_DROPS,
                &[("shard", LabelValue::U64(tid as u64))],
            ),
            restarts: registry.counter(metric::WORKER_RESTARTS, &[]),
            replay_ns: registry.counter(metric::RECOVERY_REPLAY_NS, &[]),
            restarts_seen: 0,
            replay_seen: 0,
            wire: WireTelemetry::new(&registry),
            registry,
        })
    }

    /// Mirror the session's parent-side cumulative totals into the
    /// registry as deltas: lane telemetry, process-pool recoveries, and
    /// the dispatcher ring's overflow drops. Called once per session
    /// barrier, off the hot path.
    pub(crate) fn sync_session(&mut self, lanes: &LaneStats, restarts: u64, replay_ns: u64) {
        self.lane_sends
            .add(lanes.sends.saturating_sub(self.lanes_seen.sends));
        self.lane_batched_sends.add(
            lanes
                .batched_sends
                .saturating_sub(self.lanes_seen.batched_sends),
        );
        self.lane_wakeups
            .add(lanes.wakeups.saturating_sub(self.lanes_seen.wakeups));
        self.lane_full_stalls.add(
            lanes
                .full_stalls
                .saturating_sub(self.lanes_seen.full_stalls),
        );
        self.lanes_seen = *lanes;
        self.restarts
            .add(restarts.saturating_sub(self.restarts_seen));
        self.restarts_seen = restarts;
        self.replay_ns
            .add(replay_ns.saturating_sub(self.replay_seen));
        self.replay_seen = replay_ns;
        self.span_drops.add(self.spans.take_drop_delta());
    }
}

impl std::fmt::Debug for ShardTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardTelemetry").finish_non_exhaustive()
    }
}
