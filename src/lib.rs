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
//! | [`wire`] | `coach-wire` | Versioned binary codec behind controller snapshots |
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
/// * **Vocabulary** — everything in [`coach_types::prelude`]: ids,
///   resource vectors, timestamps, time windows, the windowed statistics
///   ([`WindowStats`](coach_types::WindowStats),
///   [`WindowPeaks`](coach_types::WindowPeaks)) and the shard
///   worker pool ([`with_shard_threads`](coach_types::with_shard_threads)).
/// * **The system** — [`Coach`](coach_core::Coach) with its config, server
///   and VM views, and [`VmRequest`](coach_core::VmRequest).
/// * **Online serving** — [`Controller`](coach_serve::Controller) and
///   [`ShardedController`](coach_serve::ShardedController) under a
///   [`ServeConfig`](coach_serve::ServeConfig); [`Request`](coach_serve::Request)
///   (borrowing its arrival record) and
///   [`StreamRequest`](coach_serve::StreamRequest) (owning it), one enum
///   under two names, produced by [`RequestSource`](coach_serve::RequestSource)
///   over a slice or [`StreamSource`](coach_serve::StreamSource) over any
///   record iterator such as a [`StreamingTrace`](coach_trace::StreamingTrace)'s;
///   [`Response`](coach_serve::Response) and
///   [`StatsReport`](coach_serve::StatsReport) coming back. Decisions are
///   identical to the batch [`coach_sim::packing_experiment`]. Shard
///   workers are threads of the calling process.
/// * **Live servicing** — a [`Snapshot`](coach_serve::Snapshot) frame from
///   [`Controller::snapshot`](coach_serve::Controller::snapshot) restores
///   into a controller that finishes the stream bit-identically; anything
///   wrong with the bytes is a [`WireError`](coach_wire::WireError), and
///   `WIRE_VERSION` ([`coach_wire::VERSION`]) names the one layout this
///   build reads.
/// * **Telemetry** — [`TelemetryConfig`](coach_telemetry::TelemetryConfig)
///   arms a [`Registry`](coach_telemetry::Registry) and
///   [`SpanRing`](coach_telemetry::SpanRing)s;
///   [`chrome_trace`](coach_telemetry::chrome_trace) exports the spans.
pub mod prelude {
    pub use coach_core::{Coach, CoachConfig, CoachServer, CoachVm, VmRequest};
    pub use coach_serve::{
        Controller, Request, RequestSource, Response, ServeConfig, ShardedController, Snapshot,
        StatsReport, StreamRequest, StreamSource,
    };
    pub use coach_telemetry::{
        chrome_trace, Registry, RegistrySnapshot, SpanRing, TelemetryConfig,
    };
    pub use coach_trace::{StreamingTrace, DEFAULT_CHUNK_BUDGET};
    pub use coach_types::prelude::*;
    pub use coach_wire::{WireError, VERSION as WIRE_VERSION};
}
