//! The per-server oversubscription agent (§3.1/§3.4): monitoring every
//! 20 s, two-level prediction (EWMA + LSTM), and reactive/proactive
//! mitigation.
//!
//! The agent is the glue: it feeds 20-second utilization samples to the
//! per-VM [`LocalPredictor`]s, raises *reactive* triggers when the
//! [`Monitor`] observes contention, and *proactive* triggers when the
//! predictors expect the pool to run short within the next horizon.

use crate::memory::{MemoryServer, VmMemoryStats};
use crate::mitigation::{MitigationAction, MitigationEngine, MitigationPolicy};
use crate::monitor::{ContentionEvent, ContentionKind, Monitor, MonitorConfig};
use coach_predict::{LocalPredictor, LstmScratch};
use coach_types::VmId;
use std::collections::BTreeMap;

/// The oversubscription agent of one server.
#[derive(Debug, Clone, PartialEq)]
pub struct OversubscriptionAgent {
    monitor: Monitor,
    engine: MitigationEngine,
    predictors: BTreeMap<VmId, LocalPredictor>,
    /// Shared LSTM forward/backward scratch, reused across every predictor
    /// and every step — the agent loop allocates nothing in steady state.
    scratch: LstmScratch,
}

impl OversubscriptionAgent {
    /// Create an agent with a monitoring config and mitigation policy.
    pub fn new(monitor: MonitorConfig, policy: MitigationPolicy, target_headroom_gb: f64) -> Self {
        OversubscriptionAgent {
            monitor: Monitor::new(monitor),
            engine: MitigationEngine::new(policy, target_headroom_gb),
            predictors: BTreeMap::new(),
            scratch: LstmScratch::new(),
        }
    }

    /// Register a VM (creates its local predictor).
    pub fn add_vm(&mut self, vm: VmId) {
        self.predictors
            .entry(vm)
            .or_insert_with(|| LocalPredictor::new(vm.raw()));
    }

    /// Forget a VM.
    pub fn remove_vm(&mut self, vm: VmId) {
        self.predictors.remove(&vm);
    }

    /// Advance one simulated second. The caller passes the memory server
    /// and the latest per-VM stats (from [`MemoryServer::step`]) plus the
    /// CPU scheduler's wait/utilization signals.
    ///
    /// Returns the mitigation actions taken this second.
    pub fn step(
        &mut self,
        now: f64,
        server: &mut MemoryServer,
        stats: &[VmMemoryStats],
        cpu_wait: f64,
        cpu_util: f64,
    ) -> Vec<MitigationAction> {
        // Monitoring + prediction run on the 20-second cadence.
        if self.monitor.sample_due(now) {
            for s in stats {
                if let Some(p) = self.predictors.get_mut(&s.vm) {
                    p.observe_with(s.utilization, &mut self.scratch);
                }
            }

            if let Some(ev) = self.monitor.sample(now, server, stats, cpu_wait, cpu_util) {
                if ev.kind == ContentionKind::Memory {
                    self.engine.trigger();
                }
            } else if self.engine.policy().proactive {
                if let Some(ev) =
                    predict_contention(&self.predictors, &mut self.scratch, now, server)
                {
                    self.monitor.record_predicted(ev);
                    self.engine.trigger();
                }
            }
        }

        let actions = self.engine.step(server, 1.0);
        for a in &actions {
            // A migration completion must also drop the predictor.
            if let MitigationAction::MigrationCompleted { vm } = a {
                self.remove_vm(*vm);
            }
        }
        actions
    }

    /// The monitor (for inspecting recorded events).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Per-VM predictor access (diagnostics).
    pub fn predictor(&self, vm: VmId) -> Option<&LocalPredictor> {
        self.predictors.get(&vm)
    }
}

/// Proactive check: sum the predicted next-horizon VA demand across VMs
/// and compare with the pool backing. Free-standing so the agent can pass
/// its shared LSTM scratch alongside its predictor map.
fn predict_contention(
    predictors: &BTreeMap<VmId, LocalPredictor>,
    scratch: &mut LstmScratch,
    now: f64,
    server: &MemoryServer,
) -> Option<ContentionEvent> {
    let mut predicted_va = 0.0;
    let mut culprit: Option<(VmId, f64)> = None;
    for (&vm, pred) in predictors {
        let Some(state) = server.vm(vm) else { continue };
        let predicted_util = pred.predict_next_5min_with(scratch);
        let predicted_wss = predicted_util * state.config.size_gb;
        let va = (predicted_wss - state.config.pa_gb)
            .max(0.0)
            .min(state.config.va_gb);
        predicted_va += va;
        let growth = va - state.va_demand_gb();
        if growth > 0.0 && culprit.is_none_or(|(_, g)| growth > g) {
            culprit = Some((vm, growth));
        }
    }
    if predicted_va > server.pool_backing_gb() * 0.8 {
        Some(ContentionEvent {
            at_secs: now,
            kind: ContentionKind::Memory,
            culprit: culprit.map(|(vm, _)| vm),
            predicted: true,
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::VmMemoryConfig;

    fn setup() -> (MemoryServer, OversubscriptionAgent) {
        let mut s = MemoryServer::new(32.0, 2.0);
        s.set_pool_backing(6.0).unwrap();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 3.0))
            .unwrap();
        s.add_vm(VmId::new(2), VmMemoryConfig::split(8.0, 1.0))
            .unwrap();
        let mut agent = OversubscriptionAgent::new(
            MonitorConfig::default(),
            MitigationPolicy::extend(false),
            0.5,
        );
        agent.add_vm(VmId::new(1));
        agent.add_vm(VmId::new(2));
        (s, agent)
    }

    #[test]
    fn reactive_agent_mitigates_contention() {
        let (mut s, mut agent) = setup();
        s.set_working_set(VmId::new(1), 6.0);
        s.set_working_set(VmId::new(2), 8.0); // 3 + 7 = 10 GB demand > 6 pool
        let mut acted = false;
        for t in 0..120 {
            let stats = s.step(1.0);
            let actions = agent.step(t as f64, &mut s, &stats, 0.0, 0.0);
            if !actions.is_empty() {
                acted = true;
            }
        }
        assert!(acted, "agent never acted");
        let events = agent.monitor().events();
        assert!(events.iter().any(|e| !e.predicted));
        assert!(
            events.iter().all(|e| !e.predicted),
            "reactive policy must not predict"
        );
        // Contention eventually resolved by pool extension.
        assert!(s.vm(VmId::new(2)).unwrap().unbacked_gb() < 0.5);
    }

    #[test]
    fn quiet_server_no_actions() {
        let (mut s, mut agent) = setup();
        s.set_working_set(VmId::new(1), 2.0);
        s.set_working_set(VmId::new(2), 1.0);
        for t in 0..60 {
            let stats = s.step(1.0);
            let actions = agent.step(t as f64, &mut s, &stats, 0.0, 0.0);
            assert!(actions.is_empty(), "unexpected actions {actions:?}");
        }
        assert!(agent.monitor().events().is_empty());
    }

    #[test]
    fn proactive_agent_triggers_from_prediction() {
        let mut s = MemoryServer::new(32.0, 2.0);
        s.set_pool_backing(6.0).unwrap();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(16.0, 2.0))
            .unwrap();
        let mut agent = OversubscriptionAgent::new(
            MonitorConfig::default(),
            MitigationPolicy::extend(true),
            0.5,
        );
        agent.add_vm(VmId::new(1));
        // Drive utilization to a steady level whose *predicted* VA demand
        // (EWMA fallback) exceeds 80% of the pool while staying above the
        // reactive 10% headroom threshold: wss 7.0 → VA 5.0 of 6 (free 17%).
        s.set_working_set(VmId::new(1), 7.0);
        let mut proactive_seen = false;
        for t in 0..600 {
            let stats = s.step(1.0);
            agent.step(t as f64, &mut s, &stats, 0.0, 0.0);
            if agent.monitor().events().iter().any(|e| e.predicted) {
                proactive_seen = true;
                break;
            }
        }
        assert!(proactive_seen, "no proactive trigger");
    }
}
