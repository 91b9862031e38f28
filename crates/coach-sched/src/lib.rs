//! Coach's cluster scheduling policy: time-window-aware vector bin-packing
//! with guaranteed/oversubscribed demand splitting (§3.3).
//!
//! * [`VmDemand`] — Formulas 1–2: a VM's guaranteed (PA) portion and
//!   per-window maximum demand, derived from a
//!   [`coach_predict::DemandPrediction`] under a [`Policy`].
//! * [`ServerState`] — per-server packing state with the W+1-dimensional
//!   feasibility check and the Formula 3/4 memory-pool accounting
//!   (multiplexed VA pool = max over windows of summed VA demand).
//! * [`ClusterScheduler`] — best-fit placement across servers, backed by a
//!   contiguous feasibility table (one 96-byte summary row per server) and
//!   a headroom-bucketed candidate index whose per-bucket bounds skip
//!   buckets no member can host ([`ScanStrategy::Indexed`]), with the
//!   exhaustive scan retained as a differential-testing reference
//!   ([`ScanStrategy::NaiveReference`]), exact work counters
//!   ([`PlaceWork`]), and the Fig 20a probe estimator
//!   ([`ClusterScheduler::estimate_probe_fill`]).
//!
//! Each placement rule has one home here: the W+1 feasibility check, its
//! quick accept / reject and its commit in `server.rs`, the heuristics'
//! candidate order in `scheduler.rs`. The scans, the bucket bounds and the
//! probe estimator all call them.
//!
//! # Example
//!
//! ```
//! use coach_sched::{ClusterScheduler, PlacementHeuristic, PlacementOutcome, VmDemand};
//! use coach_types::{ResourceVec, ServerId, VmId};
//!
//! let ids = [ServerId::new(0)];
//! let capacity = ResourceVec::new(48.0, 48.0, 40.0, 4096.0);
//! let mut sched = ClusterScheduler::new(&ids, capacity, 1, PlacementHeuristic::BestFit);
//! let demand = VmDemand::unpredicted(VmId::new(1), ResourceVec::new(4.0, 16.0, 1.0, 64.0));
//! assert!(matches!(sched.place(demand), PlacementOutcome::Placed(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demand;
pub mod scheduler;
pub mod server;
pub mod wire;

pub use demand::{Policy, VmDemand};
pub use scheduler::{
    ClusterScheduler, ClusterSchedulerDump, PlaceWork, PlacementHeuristic, PlacementOutcome,
    ScanStrategy,
};
pub use server::{HostedDemand, ServerState, ServerStateDump};
