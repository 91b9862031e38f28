//! The monitoring component of the oversubscription agent (§3.4).
//!
//! Every 20 seconds it samples utilization and contention metrics (page
//! fault fractions, pool headroom, CPU wait time) and compares them against
//! thresholds "computed using historical data at scale and correlated to
//! performance incidents". Crossing a threshold raises a [`ContentionEvent`]
//! that the mitigation component reacts to.

use crate::memory::{MemoryServer, VmMemoryStats};
use coach_types::VmId;

/// Sampling interval, seconds (paper: every 20 s).
const INTERVAL_SECS: f64 = 20.0;
/// Memory contention: any VM faulting more than this fraction of accesses.
const FAULT_FRACTION_THRESHOLD: f64 = 1e-3;
/// CPU contention: wait fraction above this at utilization above
/// `CPU_UTIL_FLOOR` (paper: >0.1 % wait at >20 % utilization).
const CPU_WAIT_THRESHOLD: f64 = 1e-3;
/// CPU utilization floor for the wait check.
const CPU_UTIL_FLOOR: f64 = 0.20;

/// The monitor's one tunable threshold. The 20-second cadence and the
/// fault-fraction and CPU-wait thresholds are the paper's and fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Memory pressure: pool free below this fraction of backing.
    pub pool_headroom_threshold: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            pool_headroom_threshold: 0.10,
        }
    }
}

/// What kind of contention was detected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContentionKind {
    /// Memory: page faults or exhausted pool.
    Memory,
    /// CPU: wait time above threshold.
    Cpu,
}

/// A detected (or predicted) contention episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionEvent {
    /// Simulation time, seconds.
    pub at_secs: f64,
    /// Kind of contention.
    pub kind: ContentionKind,
    /// The VM most responsible (highest faulting / most over demand), if
    /// attributable.
    pub culprit: Option<VmId>,
    /// True when raised by the prediction component ahead of time
    /// (proactive) rather than by observation (reactive).
    pub predicted: bool,
}

/// The monitoring component: samples on its interval and raises events.
#[derive(Debug, Clone, PartialEq)]
pub struct Monitor {
    config: MonitorConfig,
    last_sample_at: Option<f64>,
    events: Vec<ContentionEvent>,
}

impl Monitor {
    /// Create a monitor.
    pub fn new(config: MonitorConfig) -> Self {
        Monitor {
            config,
            last_sample_at: None,
            events: Vec::new(),
        }
    }

    /// Whether a sample is due at time `now`.
    pub fn sample_due(&self, now: f64) -> bool {
        match self.last_sample_at {
            None => true,
            Some(t) => now - t >= INTERVAL_SECS - 1e-9,
        }
    }

    /// Take a sample: inspect the latest per-VM stats and server state, and
    /// return a contention event if any threshold is crossed. `cpu_wait`
    /// and `cpu_util` come from the CPU scheduler.
    pub fn sample(
        &mut self,
        now: f64,
        server: &MemoryServer,
        stats: &[VmMemoryStats],
        cpu_wait: f64,
        cpu_util: f64,
    ) -> Option<ContentionEvent> {
        self.last_sample_at = Some(now);

        // Memory: faulting VM?
        let worst = stats
            .iter()
            .filter(|s| s.fault_fraction > FAULT_FRACTION_THRESHOLD)
            .max_by(|a, b| a.fault_fraction.partial_cmp(&b.fault_fraction).unwrap());
        if let Some(w) = worst {
            let ev = ContentionEvent {
                at_secs: now,
                kind: ContentionKind::Memory,
                culprit: Some(w.vm),
                predicted: false,
            };
            self.events.push(ev);
            return Some(ev);
        }

        // Memory: pool headroom?
        if server.pool_backing_gb() > 0.0 {
            let headroom = server.pool_free_gb() / server.pool_backing_gb();
            if headroom < self.config.pool_headroom_threshold {
                let culprit = stats
                    .iter()
                    .max_by(|a, b| a.utilization.partial_cmp(&b.utilization).unwrap())
                    .map(|s| s.vm);
                let ev = ContentionEvent {
                    at_secs: now,
                    kind: ContentionKind::Memory,
                    culprit,
                    predicted: false,
                };
                self.events.push(ev);
                return Some(ev);
            }
        }

        // CPU: wait at meaningful utilization?
        if cpu_wait > CPU_WAIT_THRESHOLD && cpu_util > CPU_UTIL_FLOOR {
            let ev = ContentionEvent {
                at_secs: now,
                kind: ContentionKind::Cpu,
                culprit: None,
                predicted: false,
            };
            self.events.push(ev);
            return Some(ev);
        }

        None
    }

    /// Record an externally-predicted (proactive) event.
    pub fn record_predicted(&mut self, ev: ContentionEvent) {
        self.events.push(ev);
    }

    /// All events so far.
    pub fn events(&self) -> &[ContentionEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::VmMemoryConfig;

    fn server_with_pressure(pool: f64, wss: f64) -> (MemoryServer, Vec<VmMemoryStats>) {
        let mut s = MemoryServer::new(32.0, 2.0);
        s.set_pool_backing(pool).unwrap();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(16.0, 2.0))
            .unwrap();
        s.set_working_set(VmId::new(1), wss);
        let mut stats = Vec::new();
        for _ in 0..8 {
            stats = s.step(1.0);
        }
        (s, stats)
    }

    #[test]
    fn cadence_is_20s() {
        let mut m = Monitor::new(MonitorConfig::default());
        assert!(m.sample_due(0.0));
        let (s, stats) = server_with_pressure(8.0, 1.0);
        m.sample(0.0, &s, &stats, 0.0, 0.0);
        assert!(!m.sample_due(19.0));
        assert!(m.sample_due(20.0));
    }

    #[test]
    fn detects_fault_contention_with_culprit() {
        let (s, stats) = server_with_pressure(4.0, 16.0); // 14 GB demand, 4 GB pool
        let mut m = Monitor::new(MonitorConfig::default());
        let ev = m.sample(40.0, &s, &stats, 0.0, 0.0).expect("contention");
        assert_eq!(ev.kind, ContentionKind::Memory);
        assert_eq!(ev.culprit, Some(VmId::new(1)));
        assert!(!ev.predicted);
        assert_eq!(m.events().len(), 1);
    }

    #[test]
    fn detects_pool_pressure_before_faults() {
        // Demand almost fills the pool: no faults (fully resident) but
        // headroom below 10%.
        let (s, stats) = server_with_pressure(8.0, 9.8); // demand 7.8 of 8
        assert!(stats[0].fault_fraction < 1e-3);
        let mut m = Monitor::new(MonitorConfig::default());
        let ev = m.sample(20.0, &s, &stats, 0.0, 0.0).expect("pressure");
        assert_eq!(ev.kind, ContentionKind::Memory);
    }

    #[test]
    fn quiet_server_raises_nothing() {
        let (s, stats) = server_with_pressure(8.0, 1.5);
        let mut m = Monitor::new(MonitorConfig::default());
        assert!(m.sample(20.0, &s, &stats, 0.0, 0.1).is_none());
    }

    #[test]
    fn cpu_wait_needs_utilization_floor() {
        let (s, stats) = server_with_pressure(8.0, 1.0);
        let mut m = Monitor::new(MonitorConfig::default());
        // High wait at low utilization: ignored (paper thresholds pair wait
        // with a utilization floor).
        assert!(m.sample(20.0, &s, &stats, 0.01, 0.05).is_none());
        let ev = m
            .sample(40.0, &s, &stats, 0.01, 0.5)
            .expect("cpu contention");
        assert_eq!(ev.kind, ContentionKind::Cpu);
    }
}
