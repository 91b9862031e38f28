//! Coach's prediction stack: random-forest long-term utilization model,
//! EWMA short-term predictor, and an online-trained LSTM — all from scratch
//! (the paper used scikit-learn and PyTorch; nothing resolves offline).
//!
//! # Layers
//!
//! * [`UtilizationModel`] — the cluster-level model (§3.3): per-window
//!   max/percentile utilization predictions in 5 % buckets, from VM- and
//!   customer-specific features.
//! * [`LocalPredictor`] — the per-server two-level predictor (§3.4):
//!   [`Ewma`] for the next 20 s, [`Lstm`] for the next 5 min.
//!
//! # Example
//!
//! ```
//! use coach_predict::{ModelConfig, UtilizationModel};
//! use coach_trace::{generate, TraceConfig};
//! use coach_types::Timestamp;
//!
//! let trace = generate(&TraceConfig::small(1));
//! let (history, future) = trace.split_by_arrival(Timestamp::from_days(4));
//! let model = UtilizationModel::train(&history, ModelConfig::default());
//! let predictions = future.iter().filter_map(|vm| model.predict(vm)).count();
//! assert!(predictions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ewma;
pub mod forest;
pub mod local;
pub mod lstm;
pub mod model;
pub mod tree;

pub use ewma::Ewma;
pub use forest::{ForestParams, RandomForest};
pub use local::LocalPredictor;
pub use lstm::{Lstm, LstmScratch};
pub use model::{
    DemandPrediction, ModelConfig, PredictionMemo, TargetKind, UtilizationModel, VmMeta,
    FEATURE_COUNT,
};
