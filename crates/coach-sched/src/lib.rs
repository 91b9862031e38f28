//! Coach's cluster scheduling policy: time-window-aware vector bin-packing
//! with guaranteed/oversubscribed demand splitting (§3.3).
//!
//! * [`VmDemand`] — Formulas 1–2: a VM's guaranteed (PA) portion and
//!   per-window maximum demand, derived from a
//!   [`coach_predict::DemandPrediction`] under a [`Policy`].
//! * [`ServerState`] — per-server packing state: the W+1 sums and their
//!   feasibility check, and the hosted rows `remove` subtracts, from which
//!   the Formula 3/4 memory pools are read at report time (multiplexed VA
//!   pool = max over windows of summed VA demand).
//! * [`ClusterScheduler`] — best-fit placement across servers, backed by a
//!   contiguous feasibility table (one 48-byte summary row per server) and
//!   a headroom-bucketed candidate index whose per-bucket bounds skip
//!   buckets no member can host ([`ScanStrategy::Indexed`]), with the
//!   exhaustive scan retained as a differential-testing reference
//!   ([`ScanStrategy::NaiveReference`]), exact work counters
//!   ([`PlaceWork`]), and the Fig 20a probe estimator
//!   ([`ClusterScheduler::estimate_probe_fill`]).
//!
//! Every quantity the scheduler adds, subtracts or compares is a
//! [`coach_types::Units`] vector on an integer grid, quantized once in
//! [`VmDemand::from_prediction`], so sums are exact and best fit's ties go
//! to the lower index whatever order earlier VMs came and went in.
//!
//! Each placement rule has one home here: the W+1 feasibility check, its
//! quick accept / reject and its commit in `server.rs`, best-fit's
//! candidate order in `scheduler.rs`. The scans, the bucket bounds and the
//! probe estimator all call them.
//!
//! # Example
//!
//! ```
//! use coach_sched::{ClusterScheduler, PlacementOutcome, VmDemand};
//! use coach_types::{ResourceVec, ServerId, VmId};
//!
//! let ids = [ServerId::new(0)];
//! let capacity = ResourceVec::new(48.0, 48.0, 40.0, 4096.0);
//! let mut sched = ClusterScheduler::new(&ids, capacity, 1);
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
