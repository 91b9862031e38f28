//! Cluster-scale simulation of Coach: trace replay through the scheduling
//! policies (Fig 20) and long-term prediction accuracy (Fig 19).
//!
//! The paper assesses Coach at scale by "executing the real production VM
//! scheduler code on the production VM traces" (§4.1). This crate replays
//! the synthetic trace (from [`coach_trace`]) through the
//! [`coach_sched::ClusterScheduler`] under the four §4.3 policies, then
//! simulates the placed VMs' actual 5-minute utilization to measure
//! contention.
//!
//! Experiments take any prediction source behind the object-safe
//! [`Predictor`] trait: the lazy [`Oracle`], the trained [`Model`], the
//! eager [`NaiveReference`] (differential testing), or your own.
//!
//! # Example
//!
//! ```
//! use coach_sim::{packing_experiment, Oracle, PolicyConfig};
//! use coach_trace::{generate, TraceConfig};
//! use coach_types::TimeWindows;
//!
//! let trace = generate(&TraceConfig::small(1));
//! let preds = Oracle::new(TimeWindows::paper_default());
//! let cfg = PolicyConfig::paper_set().remove(2); // Coach
//! let result = packing_experiment(&trace, &preds, cfg, 0.6);
//! assert!(result.accepted > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod packing;
pub mod prediction;
pub mod probe;
pub mod wire;

pub use accuracy::{accuracy_sweep, prediction_accuracy, predictor_accuracy, AccuracyResult};
pub use packing::{
    packing_experiment, policy_sweep, PackingResult, PolicyConfig, VIOLATION_SAMPLE_EVERY,
};
pub use prediction::{Model, NaiveReference, Oracle, Predictor};
pub use probe::{
    estimate_probe_capacity, measure_probe_capacity, paper_probe_times, probe_demand,
    probe_templates, ProbeMode,
};
