//! Top-level Coach configuration (§3.3 "Coach configuration").

use coach_node::mitigation::MitigationPolicy;
use coach_node::monitor::MonitorConfig;
use coach_predict::ForestParams;
use coach_types::prelude::*;

/// Everything that parameterizes a Coach deployment.
///
/// The defaults are the paper's production choices: P95 predictions, six
/// 4-hour windows, 5 % buckets, proactive trim+extend+migrate mitigation,
/// 20-second monitoring.
///
/// # Example
///
/// ```
/// use coach_core::CoachConfig;
/// let config = CoachConfig::default();
/// assert_eq!(config.time_windows.count(), 6);
/// assert_eq!(config.percentile.value(), 95.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoachConfig {
    /// Daily time-window partition for predictions and scheduling.
    pub time_windows: TimeWindows,
    /// Prediction percentile for the guaranteed portion.
    pub percentile: Percentile,
    /// Random-forest hyperparameters for the utilization model.
    pub forest: ForestParams,
    /// Monitoring cadence and thresholds.
    pub monitor: MonitorConfig,
    /// Mitigation policy for server agents.
    pub mitigation: MitigationPolicy,
    /// Pool headroom target maintained by mitigation, GB.
    pub target_headroom_gb: f64,
    /// Memory (and host) reserved on each server for the platform, GB
    /// (paper: 2 cores and 4 GB, §4.1).
    pub host_reserved_gb: f64,
    /// Fraction of the oversubscribed (VA) portion initially backed with
    /// physical memory (Fig 15b uses 70 %).
    pub va_backing_fraction: f64,
}

impl Default for CoachConfig {
    fn default() -> Self {
        CoachConfig {
            time_windows: TimeWindows::paper_default(),
            percentile: Percentile::P95,
            forest: ForestParams::default(),
            monitor: MonitorConfig::default(),
            mitigation: MitigationPolicy::migrate(true),
            target_headroom_gb: 1.0,
            host_reserved_gb: 4.0,
            va_backing_fraction: 0.70,
        }
    }
}

impl CoachConfig {
    /// Validate invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.va_backing_fraction) {
            return Err(format!(
                "va_backing_fraction {} outside [0, 1]",
                self.va_backing_fraction
            ));
        }
        if self.target_headroom_gb < 0.0 {
            return Err("target_headroom_gb must be >= 0".into());
        }
        if self.host_reserved_gb < 0.0 {
            return Err("host_reserved_gb must be >= 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CoachConfig::default();
        assert_eq!(c.time_windows, TimeWindows::paper_default());
        assert_eq!(c.percentile, Percentile::P95);
        assert!(c.mitigation.proactive);
        assert_eq!(c.monitor, MonitorConfig::default());
        assert!((c.va_backing_fraction - 0.7).abs() < 1e-12);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = CoachConfig {
            va_backing_fraction: 1.5,
            ..CoachConfig::default()
        };
        assert!(c.validate().is_err());
        c.va_backing_fraction = 0.7;
        c.target_headroom_gb = -1.0;
        assert!(c.validate().is_err());
    }
}
