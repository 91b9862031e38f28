//! Synthetic Azure-like VM trace generation and the §2 characterization
//! analytics of the Coach paper.
//!
//! The paper characterizes two weeks of >1M opaque Azure VMs. That trace is
//! proprietary, so this crate provides:
//!
//! 1. a **generator** ([`generate`]) producing traces whose marginals match
//!    everything §2 reports (lifetimes, sizes, utilization ranges, diurnal
//!    peaks/valleys, group similarity) — the calibration constants sit
//!    beside the draws they shape in `gen.rs` and `profile.rs`, and
//! 2. the **analytics** ([`analytics`]) that reproduce Figures 2–12 and 17
//!    from any trace.
//!
//! # Example
//!
//! ```
//! use coach_trace::{generate, TraceConfig, analytics};
//!
//! let trace = generate(&TraceConfig::small(42));
//! let profile = analytics::duration_profile(&trace);
//! // Long-running VMs dominate resource-hours (paper Fig 2).
//! let one_day = profile.row_at_least(coach_types::SimDuration::from_days(1)).unwrap();
//! assert!(one_day.cpu_hours_share > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
mod gen;
pub mod model;
pub mod profile;
pub mod stream;
pub mod wire;

pub use gen::{catalog_sizes, generate, TraceConfig};
pub use model::{Cluster, Trace, VmRecord};
pub use profile::{
    BehaviorTemplate, PatternKind, ResourceProfile, SamplerShape, SamplerVm, UtilSampler, VmProfile,
};
pub use stream::{StreamingRecords, StreamingTrace, DEFAULT_CHUNK_BUDGET};
