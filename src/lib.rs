//! **coach** — a Rust reproduction of *"Coach: Exploiting Temporal Patterns
//! for All-Resource Oversubscription in Cloud Platforms"* (ASPLOS '25).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `coach-types` | Resource vectors, time windows, series |
//! | [`trace`] | `coach-trace` | Azure-like trace generator + §2 analytics |
//! | [`predict`] | `coach-predict` | Random forest, EWMA, LSTM |
//! | [`sched`] | `coach-sched` | Formulas 1–4, time-window bin-packing |
//! | [`node`] | `coach-node` | PA/VA memory, CPU groups, agent, mitigation |
//! | [`workloads`] | `coach-workloads` | Table 2 workloads, Fig 15/18/21 |
//! | [`sim`] | `coach-sim` | Cluster replay: Fig 19/20 |
//! | [`serve`] | `coach-serve` | Online sharded controller + incremental accounting |
//! | [`wire`] | `coach-wire` | Versioned binary codec for the distributed control plane |
//! | [`telemetry`] | `coach-telemetry` | Metrics registry, span rings, Prometheus/Chrome-trace export |
//! | [`core`] | `coach-core` | The `Coach` system itself |
//!
//! # Quickstart
//!
//! ```
//! use coach::prelude::*;
//!
//! // 1. Bring up Coach over a small cluster.
//! let mut coach = Coach::new(CoachConfig::default());
//! let cluster = ClusterId::new(0);
//! coach.register_cluster(cluster, HardwareConfig::general_purpose_gen4(), 4);
//!
//! // 2. Train the utilization model on (synthetic) history.
//! let history = coach::trace::generate(&coach::trace::TraceConfig::small(7));
//! let train: Vec<_> = history.vms.iter().collect();
//! coach.train(&train);
//!
//! // 3. Request a VM: Coach predicts its utilization per time window and
//! //    splits every resource into guaranteed + oversubscribed portions.
//! let request = VmRequest {
//!     id: VmId::new(1),
//!     config: VmConfig::general_purpose(4),
//!     subscription: history.vms[0].subscription,
//!     subscription_type: history.vms[0].subscription_type,
//!     offering: history.vms[0].offering,
//!     arrival: Timestamp::from_days(7),
//!     opted_in: true,
//! };
//! let server = coach.request_vm(cluster, request)?;
//! assert!(coach.server(server).is_some());
//! # Ok::<(), coach::core::AllocationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use coach_core as core;
pub use coach_node as node;
pub use coach_predict as predict;
pub use coach_sched as sched;
pub use coach_serve as serve;
pub use coach_sim as sim;
pub use coach_telemetry as telemetry;
pub use coach_trace as trace;
pub use coach_types as types;
pub use coach_wire as wire;
pub use coach_workloads as workloads;

/// One-stop imports for applications.
///
/// # Eager → lazy demand derivation (PR 3 migration note)
///
/// The demand pipeline is window-native and lazy. `VmRecord::series()` is
/// gone: call [`coach_trace::VmRecord::window_stats`] (analytic, no
/// materialization — exactly equal to walking the full series) for
/// windowed maxima/percentiles, or the explicit opt-in
/// [`coach_trace::VmRecord::materialized`] when you genuinely need every
/// 5-minute sample. The prelude re-exports the windowed vocabulary
/// ([`WindowStats`](coach_types::WindowStats),
/// [`ResourceWindowStats`](coach_types::ResourceWindowStats),
/// [`UtilizationSource`](coach_types::UtilizationSource)); prediction
/// sources live behind [`coach_sim::Predictor`] (`Oracle`, `Model`,
/// `NaiveReference`), which replaced the old `PredictionSource` enum.
///
/// # Online serving (PR 4)
///
/// The prelude also re-exports the `coach-serve` control plane: stream
/// [`Request`](coach_serve::Request)s through a
/// [`Controller`](coach_serve::Controller) (or a
/// [`ShardedController`](coach_serve::ShardedController)) to admit VMs
/// online — decision-identical to the batch
/// [`coach_sim::packing_experiment`] — and read occupancy/violation
/// telemetry through [`StatsReport`](coach_serve::StatsReport).
///
/// # Cold-path demand engine (PR 6 migration note)
///
/// Cold-path derivation (predicting at request time instead of from a
/// pre-derived table) is now batched and arena-backed end to end:
///
/// * [`coach_sim::Predictor`] gained
///   [`predict_batch`](coach_sim::Predictor::predict_batch) (default: the
///   per-item loop, so existing implementations are unaffected). The
///   `Oracle` is stateless and uses that default; each derive goes
///   through the order-statistic
///   [`window_peaks`](coach_types::UtilizationSource::window_peaks) scan,
///   which resolves only the day maxima Formulas 1–2 can read.
/// * [`Controller::handle_arrivals`](coach_serve::Controller::handle_arrivals)
///   admits an arrival slice chunk by chunk — one `predict_batch` call per
///   chunk, serial and in stream order, overlapped with the placement of
///   the chunk before it on a helper thread when a core is spare (PR 12);
///   the sharded dispatcher feeds it ≤1024-arrival segments. Decisions are
///   unchanged — predictions depend only on the record, and the
///   differential suites pin batch == per-item.
/// * The controller's residency bookkeeping (`HashMap<VmId, ..>` per
///   cluster) is replaced by the struct-of-arrays
///   [`ResidentStore`](coach_serve::ResidentStore): scheduled departures
///   hold generational [`Handle`](coach_serve::Handle)s (stale = one
///   integer compare, no hash probe). Nothing of the old map surface was
///   public, so no caller changes are required; new code addressing
///   residents should hold `Handle`s.
///
/// # Distributed control plane (PR 8 migration note)
///
/// Shard workers can now live in supervised child *processes* speaking
/// the [`coach_wire`] framed protocol (`CWIR` magic, little-endian `u16`
/// version, `u32`-length-prefixed frames on the pipe):
///
/// * [`ServeConfig`](coach_serve::ServeConfig) grew `backend:`
///   [`WorkerBackend`](coach_types::WorkerBackend) (`Thread`, the old
///   behavior and still the default, or `Process`). Binaries that select
///   `Process` must call
///   [`maybe_run_shard_worker`](coach_serve::maybe_run_shard_worker)
///   first thing in `main`, because the pool re-execs the current binary
///   as its workers. Child crashes — including SIGKILL — are recovered
///   from a per-session checkpoint plus a command journal,
///   decision-exactly; recoveries are counted in
///   [`StatsReport::worker_restarts`](coach_serve::StatsReport). A worker
///   process builds one controller in its lifetime:
///   [`resume_shard`](coach_serve::ShardedController::resume_shard) onto
///   a live child replaces the process (a new pid, not a restart).
/// * The process backend rebuilds the child's predictor from a
///   wire-serializable spec, so it requires an oracle-equivalent
///   predictor (the pre-derived warm table qualifies; a trained forest
///   does not — keep those on the thread backend).
/// * Live servicing without a pool:
///   [`Controller::snapshot`](coach_serve::Controller::snapshot) is a
///   pure read producing a versioned [`Snapshot`](coach_serve::Snapshot)
///   frame, and [`Controller::restore`](coach_serve::Controller::restore)
///   (or [`ShardedController::drain_shard`](coach_serve::ShardedController::drain_shard)
///   / [`resume_shard`](coach_serve::ShardedController::resume_shard))
///   rebuilds a controller that finishes the stream bit-identically.
///   Malformed or version-skewed frames are rejected with typed
///   [`WireError`](coach_wire::WireError)s — bump
///   [`coach_wire::VERSION`] when the format changes; the golden-fixture
///   tests will insist.
///
/// # Observability (PR 9 migration note)
///
/// The serving control plane is instrumented end to end by the
/// dependency-free [`coach_telemetry`] crate:
///
/// * [`ServeConfig`](coach_serve::ServeConfig) grew `telemetry:`
///   [`TelemetryConfig`](coach_telemetry::TelemetryConfig) (`Off`, the
///   allocation-free default, or `Full`: the registry plus span rings).
///   Decisions are bit-identical in both modes — the subsystem observes,
///   it never participates.
/// * An armed deployment exposes one merged
///   [`Registry`](coach_telemetry::Registry) via
///   [`ShardedController::telemetry_registry`](coach_serve::ShardedController::telemetry_registry):
///   atomic counters/gauges/log2-bucket histograms addressed by
///   `coach_serve_*` series names with `shard`/`policy` labels.
///   Under the process backend each child keeps a private registry and
///   ships drained deltas over a `coach-wire` frame at session barriers,
///   so the merged counters equal the thread backend's exactly. Exports:
///   [`Registry::render_text`](coach_telemetry::Registry::render_text)
///   (Prometheus), [`render_jsonl`](coach_telemetry::Registry::render_jsonl),
///   and [`chrome_trace`](coach_telemetry::chrome_trace) over
///   [`telemetry_span_rings`](coach_serve::ShardedController::telemetry_span_rings)
///   (loadable in `chrome://tracing` / Perfetto).
/// * The old `coach_serve::LatencyHistogram` is now a re-export of
///   [`coach_telemetry::Histogram`] — same API, one implementation; code
///   that named it keeps compiling.
///
/// # Streaming ingestion & the scenario catalog (PR 10 migration note)
///
/// Traces no longer have to be materialized to be served:
///
/// * [`StreamingTrace`](coach_trace::StreamingTrace) generates the exact
///   record sequence of [`coach_trace::generate`] — same clusters, same
///   ids, same arrival order, bit-identical records — in bounded chunks
///   (`with_chunk_budget`, default
///   [`DEFAULT_CHUNK_BUDGET`](coach_trace::DEFAULT_CHUNK_BUDGET)), so
///   trace size no longer implies a resident `Vec<VmRecord>`.
/// * [`StreamRequest`](coach_serve::StreamRequest) is the owning
///   counterpart of the borrowed [`Request`](coach_serve::Request), and
///   [`StreamSource`](coach_serve::StreamSource) the owning counterpart
///   of [`RequestSource`](coach_serve::RequestSource): it drives
///   [`ShardedController::run_stream`](coach_serve::ShardedController::run_stream)
///   from any `Iterator<Item = VmRecord>` with backpressure through the
///   existing bounded shard lanes. Records are borrowed at the
///   `Controller`, owned across a lane: `run` is `run_stream` over cloned
///   records (two entry points, one dispatcher), so at equal shard counts
///   the two agree **exactly** (same segmentation, same float-summation
///   order) — the differential and proptest suites pin it across chunk
///   budgets, policies, and shard counts.
/// * [`coach_serve::scenario`] is a catalog of composable stream
///   combinators — [`Surge`](coach_serve::scenario::Surge) (×N arrivals
///   in a window), [`Evacuate`](coach_serve::scenario::Evacuate)
///   (cluster drain + re-route),
///   [`GroupFailure`](coach_serve::scenario::GroupFailure) (correlated
///   departure + re-placement storm), and
///   [`sku_mix`](coach_serve::scenario::sku_mix) (heterogeneous-SKU
///   fleet rotation) — each differentially tested against its
///   hand-materialized equivalent.
/// * `RequestSource::with_stats_every` / `StreamSource::with_stats_every`
///   cadence semantics at the end of a stream are now documented and
///   pinned: a barrier falling exactly on the final arrival's timestamp
///   is emitted (before that arrival), and no trailing barrier follows
///   the last arrival.
pub mod prelude {
    pub use coach_core::{Coach, CoachConfig, CoachServer, CoachVm, VmRequest};
    pub use coach_serve::{
        maybe_run_shard_worker, Controller, Handle, Request, RequestSource, ResidentStore,
        Response, ServeConfig, ShardedController, Snapshot, StatsReport, StreamRequest,
        StreamSource,
    };
    pub use coach_telemetry::{
        chrome_trace, Registry, RegistrySnapshot, SpanRing, TelemetryConfig,
    };
    pub use coach_trace::{StreamingTrace, DEFAULT_CHUNK_BUDGET};
    pub use coach_types::prelude::*;
    pub use coach_wire::{WireError, VERSION as WIRE_VERSION};
}
