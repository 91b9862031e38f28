//! The server-runtime layer: one [`CoachServer`] hosts CoachVMs on the
//! PA/VA memory substrate with CPU groups and a live oversubscription
//! agent (§3.1's "server management" box).

use crate::config::CoachConfig;
use crate::vm::CoachVm;
use coach_node::agent::OversubscriptionAgent;
use coach_node::cpu::CpuGroups;
use coach_node::memory::{MemoryError, MemoryServer, VmMemoryStats};
use coach_node::mitigation::MitigationAction;
use coach_types::prelude::*;
use std::collections::HashMap;

/// One step's output from a server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerTick {
    /// Per-VM memory telemetry.
    pub memory: Vec<VmMemoryStats>,
    /// Mitigation actions taken this second.
    pub actions: Vec<MitigationAction>,
    /// Free oversubscribed-pool memory, GB.
    pub pool_free_gb: f64,
    /// CPU wait fraction.
    pub cpu_wait: f64,
}

/// A single server running CoachVMs.
#[derive(Debug)]
pub struct CoachServer {
    id: ServerId,
    memory: MemoryServer,
    cpu: CpuGroups,
    agent: OversubscriptionAgent,
    va_backing_fraction: f64,
    clock_secs: f64,
    hosted: HashMap<VmId, CoachVm>,
}

impl CoachServer {
    /// Bring up a server with the given hardware under a Coach config.
    pub fn new(id: ServerId, hardware: &HardwareConfig, config: &CoachConfig) -> Self {
        let memory = MemoryServer::new(hardware.capacity.memory(), config.host_reserved_gb);
        let cpu = CpuGroups::new(hardware.capacity.cpu(), 2.0);
        let agent = OversubscriptionAgent::new(
            config.monitor,
            config.mitigation,
            config.target_headroom_gb,
        );
        CoachServer {
            id,
            memory,
            cpu,
            agent,
            va_backing_fraction: config.va_backing_fraction,
            clock_secs: 0.0,
            hosted: HashMap::new(),
        }
    }

    /// Server id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Host a provisioned CoachVM: reserve its PA memory and guaranteed
    /// cores, and grow the oversubscribed pool by the configured backing
    /// fraction of its VA portion.
    ///
    /// # Errors
    ///
    /// Fails if physical memory or guaranteed cores are exhausted.
    pub fn host(&mut self, vm: CoachVm) -> Result<(), MemoryError> {
        let id = vm.id();
        self.memory.add_vm(id, vm.memory)?;
        if self.cpu.add_vm(id, vm.guaranteed.cpu()).is_err() {
            // Roll back the memory reservation.
            let _ = self.memory.remove_vm(id);
            return Err(MemoryError::InsufficientMemory);
        }
        // Back a fraction of the VA portion (Fig 15b's 70 % default),
        // bounded by what the server has unallocated.
        let extra_backing = vm.memory.va_gb * self.va_backing_fraction;
        let current = self.memory.pool_backing_gb();
        let target = (current + extra_backing).min(current + self.memory.unallocated_gb());
        let _ = self.memory.set_pool_backing(target);
        self.agent.add_vm(id);
        self.hosted.insert(id, vm);
        Ok(())
    }

    /// Remove a VM (deallocation or migration), releasing its resources.
    pub fn evict(&mut self, id: VmId) -> Option<CoachVm> {
        let vm = self.hosted.remove(&id)?;
        let _ = self.memory.remove_vm(id);
        self.cpu.remove_vm(id);
        self.agent.remove_vm(id);
        Some(vm)
    }

    /// Drive a hosted VM's current demand (from telemetry or a workload
    /// model): working-set GB and CPU cores.
    pub fn set_demand(&mut self, id: VmId, working_set_gb: f64, cpu_cores: f64) {
        self.memory.set_working_set(id, working_set_gb);
        self.cpu.set_demand(id, cpu_cores);
    }

    /// Advance one second: run the memory substrate, the CPU scheduler,
    /// and the oversubscription agent.
    pub fn tick(&mut self) -> ServerTick {
        self.clock_secs += 1.0;
        let stats = self.memory.step(1.0);
        self.cpu.schedule();
        let cpu_wait = self.cpu.wait_fraction();
        let cpu_util = self.cpu.utilization();
        let actions = self.agent.step(
            self.clock_secs,
            &mut self.memory,
            &stats,
            cpu_wait,
            cpu_util,
        );
        // Keep the host bookkeeping consistent if the agent migrated a VM
        // away.
        for a in &actions {
            if let MitigationAction::MigrationCompleted { vm } = a {
                self.hosted.remove(vm);
                self.cpu.remove_vm(*vm);
            }
        }
        ServerTick {
            pool_free_gb: self.memory.pool_free_gb(),
            memory: stats,
            actions,
            cpu_wait,
        }
    }

    /// Hosted VM count.
    pub fn vm_count(&self) -> usize {
        self.hosted.len()
    }

    /// Ids of hosted VMs.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.hosted.keys().copied()
    }

    /// The memory substrate (diagnostics).
    pub fn memory(&self) -> &MemoryServer {
        &self.memory
    }

    /// The agent (diagnostics).
    pub fn agent(&self) -> &OversubscriptionAgent {
        &self.agent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmRequest;
    use coach_predict::DemandPrediction;

    fn coach_vm(id: u64, opted_in: bool) -> CoachVm {
        let request = VmRequest {
            id: VmId::new(id),
            config: VmConfig::new(4, 16.0, 1.0, 64.0),
            subscription: SubscriptionId::new(1),
            subscription_type: SubscriptionType::External,
            offering: Offering::Iaas,
            arrival: Timestamp::ZERO,
            opted_in,
        };
        let tw = TimeWindows::paper_default();
        let prediction = DemandPrediction {
            tw,
            pmax: vec![ResourceBuckets::splat(Bucket::from_index(16)); 6].into(),
            px: vec![ResourceBuckets::splat(Bucket::from_index(12)); 6].into(),
        };
        CoachVm::provision(request, Some(&prediction))
    }

    fn server() -> CoachServer {
        CoachServer::new(
            ServerId::new(0),
            &HardwareConfig::new("test", ResourceVec::new(16.0, 64.0, 10.0, 1024.0)),
            &CoachConfig::default(),
        )
    }

    #[test]
    fn hosting_reserves_pa_and_pool() {
        let mut s = server();
        let vm = coach_vm(1, true);
        let pa = vm.memory.pa_gb;
        let va = vm.memory.va_gb;
        s.host(vm).unwrap();
        assert_eq!(s.memory().pa_allocated_gb(), pa);
        assert!((s.memory().pool_backing_gb() - 0.7 * va).abs() < 1e-9);
        assert_eq!(s.vm_count(), 1);
    }

    #[test]
    fn tick_runs_quietly_without_demand() {
        let mut s = server();
        s.host(coach_vm(1, true)).unwrap();
        s.set_demand(VmId::new(1), 5.0, 1.0);
        for _ in 0..30 {
            let t = s.tick();
            assert!(t.actions.is_empty());
            assert_eq!(t.cpu_wait, 0.0);
        }
    }

    #[test]
    fn contention_triggers_agent() {
        let mut s = server();
        s.host(coach_vm(1, true)).unwrap();
        s.host(coach_vm(2, true)).unwrap();
        // Both VMs suddenly use their full 16 GB: VA demand far beyond the
        // pool backing.
        s.set_demand(VmId::new(1), 16.0, 2.0);
        s.set_demand(VmId::new(2), 16.0, 2.0);
        let mut acted = false;
        for _ in 0..120 {
            if !s.tick().actions.is_empty() {
                acted = true;
                break;
            }
        }
        assert!(acted, "agent never mitigated");
    }

    #[test]
    fn evict_releases_everything() {
        let mut s = server();
        s.host(coach_vm(1, true)).unwrap();
        let pa_before = s.memory().pa_allocated_gb();
        assert!(pa_before > 0.0);
        assert!(s.evict(VmId::new(1)).is_some());
        assert_eq!(s.memory().pa_allocated_gb(), 0.0);
        assert_eq!(s.vm_count(), 0);
        assert!(s.evict(VmId::new(1)).is_none());
    }

    #[test]
    fn cpu_rollback_on_partial_failure() {
        let mut s = server();
        // 16-core server, 2 reserved => 14 schedulable. Each VM guarantees
        // 2.4 cores (0.6 x 4). Six fit; a fully-guaranteed 4-core VM after
        // 5 CoachVMs still fits... fill with opted-out (4.0 guaranteed).
        for i in 0..3 {
            s.host(coach_vm(i, false)).unwrap(); // 3 x 4 = 12 cores
        }
        // Memory is fine (3 x 16 = 48 < 60), but a 4th full VM exceeds CPU
        // (16 > 14): host() must fail and roll back memory.
        let pa_before = s.memory().pa_allocated_gb();
        assert!(s.host(coach_vm(9, false)).is_err());
        assert_eq!(s.memory().pa_allocated_gb(), pa_before);
        assert_eq!(s.vm_count(), 3);
    }
}
