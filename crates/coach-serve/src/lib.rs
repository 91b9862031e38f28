//! **coach-serve** — the online, sharded cluster-controller subsystem.
//!
//! Coach is deployed as a *control plane*: allocation requests arrive
//! continuously and the scheduler must admit, place, and account for them
//! online. This crate turns the repository's batch replay
//! ([`coach_sim::packing_experiment`], which pre-sorts a whole trace into
//! one event vector) into a long-running, event-driven engine that
//! processes an unbounded [`Request`] stream with bounded per-event work:
//!
//! * [`Controller`] — the single-shard event loop. Arrivals are predicted
//!   (via any [`coach_sim::Predictor`]) and placed through the indexed
//!   [`coach_sched::ClusterScheduler`]; departures live in a
//!   [`DepartureCalendar`] — one FIFO per departure time, popped in the
//!   batch replay's event-sort order — so each event costs O(log distinct
//!   departure times). Decisions are **bit-identical** to the batch
//!   replay on the same workload. A shard worker admits each arrival
//!   segment whole: unless its dispatcher derived the segment, the worker
//!   derives it in 64-arrival [`coach_sim::Predictor::predict_batch`]
//!   calls, serial and in stream order, each chunk placed before the next
//!   is derived. The controller owns no thread.
//!   Residents are one [`coach_types::IdMap`] from VM id to (cluster,
//!   arrival seq); a scheduled departure whose id is no longer resident
//!   under its seq — an explicit `Depart` got there first — is skipped
//!   when it pops.
//! * [`ViolationAccountant`] — per-server Formula 3/4 running sums and
//!   CPU/memory violation counters maintained at event granularity,
//!   replacing the batch experiment's post-replay sweep (the large-scale
//!   Fig 20 bottleneck) while producing the same counts to the bit.
//! * [`ShardedController`] — one controller per cluster group with
//!   deterministic request routing, run on **persistent worker threads**
//!   ([`coach_types::with_shard_threads`]): each shard's controller lives
//!   in a long-lived worker fed over bounded `std::sync::mpsc` lanes
//!   with pipelined request segments and broadcast/barrier tokens, so
//!   multi-core scale-out never pays a per-segment fork-join; the global
//!   occupancy peak is reconstructed exactly by merging per-shard delta
//!   timelines.
//!   A lone shard runs on a worker too; beside a spare core its
//!   dispatcher derives each segment before sending it: ingest and derive
//!   on one core, placement and accounting on the other.
//! * **Snapshot / restore** — [`Controller::snapshot`] seals one
//!   controller's whole decision-bearing state into a versioned
//!   [`Snapshot`] frame ([`wire`]), and [`Controller::restore`] rebuilds
//!   it, in this process or another, refusing inconsistent bytes with a
//!   typed error. [`ShardedController::drain_shard`] /
//!   [`ShardedController::resume_shard`] do the same for one shard between
//!   sessions: drain, upgrade, resume — decision-exact.
//! * [`Source`] — derives the request stream lazily from arrival-ordered
//!   [`coach_trace::VmRecord`]s: no event vector, no sort, no
//!   utilization-series materialization. [`RequestSource`] borrows the
//!   records from a slice and yields [`Request`]s; [`StreamSource`] owns
//!   them and yields [`StreamRequest`]s — two names for one iterator over
//!   one [`RequestOf`] enum.
//! * [`StatsReport`] — O(1) occupancy/probe/violation counters, queryable
//!   mid-stream through [`RequestOf::Stats`] without touching scheduler
//!   internals; like a [`Snapshot`], a function of the request stream
//!   alone. Admission latency and lane traffic are wall time and
//!   scheduling, and live in the [`telemetry`] registry.
//!
//! # Example
//!
//! ```
//! use coach_serve::{serve_trace, Controller, Request, RequestSource, Response};
//! use coach_sim::{packing_experiment, Oracle, PolicyConfig};
//! use coach_trace::{generate, TraceConfig};
//! use coach_types::TimeWindows;
//!
//! let trace = generate(&TraceConfig::small(17));
//! let oracle = Oracle::new(TimeWindows::paper_default());
//! let coach = PolicyConfig::paper_set().remove(2);
//!
//! // Online replay: stream requests through the controller...
//! let online = serve_trace(&trace, &oracle, coach, 0.8);
//!
//! // ...and the decisions match the pre-sorted batch replay exactly.
//! let batch = packing_experiment(&trace, &Oracle::new(TimeWindows::paper_default()), coach, 0.8);
//! assert_eq!(online, batch);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account;
pub mod calendar;
pub mod controller;
pub mod request;
pub mod scenario;
pub mod shard;
pub mod source;
pub mod telemetry;
pub mod wire;

pub use account::{AccountWork, ViolationAccountant};
pub use calendar::DepartureCalendar;
pub use coach_telemetry::TelemetryConfig;
pub use controller::{serve_trace, Controller, ServeConfig};
pub use request::{Request, RequestOf, Response, StatsReport, StreamRequest};
pub use shard::{maybe_run_shard_worker, serve_trace_sharded, ShardedController};
pub use source::{RequestSource, Source, StreamSource};
pub use wire::Snapshot;
