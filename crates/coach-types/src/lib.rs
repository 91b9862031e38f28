//! Core domain types shared by every Coach crate.
//!
//! This crate defines the vocabulary of the Coach system ([ASPLOS '25]):
//! resources and resource vectors, identifiers, VM and hardware
//! configurations, the simulation clock and time-window partitioning, and
//! utilization time series with the percentile/bucket helpers used by the
//! prediction and scheduling stacks.
//!
//! Everything here is plain data: no I/O, no randomness, no policy. The
//! heavier crates (`coach-trace`, `coach-predict`, `coach-sched`,
//! `coach-node`, `coach-sim`) build on these types.
//!
//! # Example
//!
//! ```
//! use coach_types::prelude::*;
//!
//! // A general-purpose 4-core / 16 GB VM request.
//! let config = VmConfig::general_purpose(4);
//! assert_eq!(config.memory_gb, 16.0);
//!
//! // Demand expressed as a resource vector must fit in server capacity.
//! let server = HardwareConfig::general_purpose_gen4().capacity;
//! assert!(config.demand().fits_within(&server));
//! ```
//!
//! [ASPLOS '25]: https://doi.org/10.1145/3669940.3707226

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod config;
pub mod growth;
pub mod idhash;
pub mod ids;
pub mod par;
pub mod resource;
pub mod runtime;
pub mod series;
pub mod stats;
pub mod time;
pub mod units;
pub mod winvec;
pub mod wire;

pub use bucket::{bucket_up, Bucket};
pub use config::{HardwareConfig, Offering, SubscriptionType, VmConfig};
pub use growth::push_by_quarter;
pub use idhash::{BuildIdHasher, IdHasher, IdMap};
pub use ids::{ClusterId, ServerId, SubscriptionId, VmId};
pub use par::{available_threads, par_map, par_map_threads};
pub use resource::{Fungibility, ResourceKind, ResourceVec, SharingMechanism};
pub use runtime::{with_shard_threads, LaneStats, ShardWorkers, COMMAND_LANE_CAPACITY};
pub use series::{Percentile, ResourceSeries, UtilSeries};
pub use stats::{ResourceWindowStats, WindowPeaks, WindowStats};
pub use time::{SimDuration, TimeWindows, Timestamp, Weekday, TICKS_PER_DAY, TICKS_PER_HOUR};
pub use units::{Units, UNITS_PER};
pub use winvec::WindowVec;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::bucket::{bucket_up, Bucket};
    pub use crate::config::{HardwareConfig, Offering, SubscriptionType, VmConfig};
    pub use crate::idhash::IdMap;
    pub use crate::ids::{ClusterId, ServerId, SubscriptionId, VmId};
    pub use crate::par::{available_threads, par_map, par_map_threads};
    pub use crate::resource::{Fungibility, ResourceKind, ResourceVec, SharingMechanism};
    pub use crate::runtime::{with_shard_threads, LaneStats, ShardWorkers, COMMAND_LANE_CAPACITY};
    pub use crate::series::{Percentile, ResourceSeries, UtilSeries};
    pub use crate::stats::{ResourceWindowStats, WindowPeaks, WindowStats};
    pub use crate::time::{
        SimDuration, TimeWindows, Timestamp, Weekday, TICKS_PER_DAY, TICKS_PER_HOUR,
    };
    pub use crate::units::Units;
    pub use crate::winvec::WindowVec;
}
