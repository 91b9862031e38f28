//! CPU groups: the fungible-resource sharing mechanism (Table 1, §3.4).
//!
//! Each CoachVM gets a *guaranteed* core count (its CPU group) and may
//! borrow from the shared oversubscribed core pool — or from other VMs'
//! idle guaranteed cores, because CPU is fungible — when it bursts.

use coach_types::VmId;
use std::collections::BTreeMap;

/// Per-VM CPU allocation state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmCpuState {
    /// Guaranteed cores (the VM's CPU group).
    pub guaranteed: f64,
    /// Current demand in cores.
    pub demand: f64,
    /// Cores actually granted this step.
    pub granted: f64,
}

/// The CPU scheduler of one server.
///
/// # Example
///
/// ```
/// use coach_node::cpu::CpuGroups;
/// use coach_types::VmId;
/// let mut cpu = CpuGroups::new(10.0, 2.0);
/// cpu.add_vm(VmId::new(1), 4.0).unwrap();
/// cpu.set_demand(VmId::new(1), 6.0);
/// let grants = cpu.schedule();
/// // 4 guaranteed + 2 borrowed from the oversubscribed pool.
/// assert_eq!(grants[&VmId::new(1)].granted, 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CpuGroups {
    total_cores: f64,
    host_reserved: f64,
    vms: BTreeMap<VmId, VmCpuState>,
}

impl CpuGroups {
    /// Create with `total_cores`, reserving `host_reserved` for the host
    /// (the paper reserves 2 cores for Coach itself, §4.1).
    ///
    /// # Panics
    ///
    /// Panics if the reservation exceeds the total.
    pub fn new(total_cores: f64, host_reserved: f64) -> Self {
        assert!(total_cores > host_reserved, "reservation exceeds cores");
        CpuGroups {
            total_cores,
            host_reserved,
            vms: BTreeMap::new(),
        }
    }

    /// Cores available to VMs.
    pub fn schedulable_cores(&self) -> f64 {
        self.total_cores - self.host_reserved
    }

    /// Sum of guaranteed cores.
    pub fn guaranteed_total(&self) -> f64 {
        self.vms.values().map(|v| v.guaranteed).sum()
    }

    /// Add a VM with a guaranteed core count. Guaranteed totals may exceed
    /// physical cores only if the caller explicitly oversubscribes; this
    /// method refuses that.
    ///
    /// # Errors
    ///
    /// Returns `Err` if guaranteed cores would exceed schedulable cores or
    /// the id is taken.
    pub fn add_vm(&mut self, id: VmId, guaranteed: f64) -> Result<(), &'static str> {
        if self.vms.contains_key(&id) {
            return Err("vm already present");
        }
        if self.guaranteed_total() + guaranteed > self.schedulable_cores() + 1e-9 {
            return Err("guaranteed cores exceed capacity");
        }
        self.vms.insert(
            id,
            VmCpuState {
                guaranteed,
                demand: 0.0,
                granted: 0.0,
            },
        );
        Ok(())
    }

    /// Remove a VM.
    pub fn remove_vm(&mut self, id: VmId) -> Option<VmCpuState> {
        self.vms.remove(&id)
    }

    /// Set a VM's current core demand.
    pub fn set_demand(&mut self, id: VmId, demand: f64) {
        if let Some(vm) = self.vms.get_mut(&id) {
            vm.demand = demand.max(0.0);
        }
    }

    /// Run one scheduling round: every VM first receives
    /// `min(demand, guaranteed)`; leftover cores (idle guaranteed + never-
    /// guaranteed pool) are shared work-conservingly among still-hungry VMs
    /// proportionally to their unmet demand. Returns the grant table.
    pub fn schedule(&mut self) -> BTreeMap<VmId, VmCpuState> {
        let mut leftover = self.schedulable_cores();
        // Phase 1: guaranteed grants.
        for vm in self.vms.values_mut() {
            vm.granted = vm.demand.min(vm.guaranteed);
            leftover -= vm.granted;
        }
        // Phase 2: proportional sharing of the remainder (CPU fungibility).
        let unmet_total: f64 = self
            .vms
            .values()
            .map(|v| (v.demand - v.granted).max(0.0))
            .sum();
        if unmet_total > 1e-12 && leftover > 1e-12 {
            let share = (leftover / unmet_total).min(1.0);
            for vm in self.vms.values_mut() {
                let unmet = (vm.demand - vm.granted).max(0.0);
                vm.granted += unmet * share;
            }
        }
        self.vms.clone()
    }

    /// Aggregate CPU "wait" signal: unmet demand as a fraction of total
    /// demand — the contention metric monitoring thresholds on (§3.4).
    pub fn wait_fraction(&self) -> f64 {
        let demand: f64 = self.vms.values().map(|v| v.demand).sum();
        if demand <= 0.0 {
            return 0.0;
        }
        let unmet: f64 = self
            .vms
            .values()
            .map(|v| (v.demand - v.granted).max(0.0))
            .sum();
        (unmet / demand).clamp(0.0, 1.0)
    }

    /// Utilization of schedulable cores.
    pub fn utilization(&self) -> f64 {
        let granted: f64 = self.vms.values().map(|v| v.granted).sum();
        (granted / self.schedulable_cores()).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guaranteed_grants_always_honored() {
        let mut cpu = CpuGroups::new(10.0, 2.0);
        cpu.add_vm(VmId::new(1), 4.0).unwrap();
        cpu.add_vm(VmId::new(2), 4.0).unwrap();
        cpu.set_demand(VmId::new(1), 4.0);
        cpu.set_demand(VmId::new(2), 4.0);
        let g = cpu.schedule();
        assert_eq!(g[&VmId::new(1)].granted, 4.0);
        assert_eq!(g[&VmId::new(2)].granted, 4.0);
        assert_eq!(cpu.wait_fraction(), 0.0);
    }

    #[test]
    fn idle_guaranteed_cores_are_borrowable() {
        let mut cpu = CpuGroups::new(10.0, 2.0);
        cpu.add_vm(VmId::new(1), 6.0).unwrap();
        cpu.add_vm(VmId::new(2), 2.0).unwrap();
        cpu.set_demand(VmId::new(1), 0.5); // mostly idle
        cpu.set_demand(VmId::new(2), 6.0); // bursting over its group
        let g = cpu.schedule();
        // VM2 gets its 2 guaranteed + borrows up to the leftover 5.5.
        assert!((g[&VmId::new(2)].granted - 6.0).abs() < 1e-9);
    }

    #[test]
    fn contention_splits_leftover_proportionally() {
        let mut cpu = CpuGroups::new(8.0, 0.0);
        cpu.add_vm(VmId::new(1), 2.0).unwrap();
        cpu.add_vm(VmId::new(2), 2.0).unwrap();
        cpu.set_demand(VmId::new(1), 6.0); // unmet 4
        cpu.set_demand(VmId::new(2), 4.0); // unmet 2
        let g = cpu.schedule();
        // leftover = 8 - 4 = 4, shared 4:2 → +8/3 and +4/3.
        assert!((g[&VmId::new(1)].granted - (2.0 + 8.0 / 3.0)).abs() < 1e-9);
        assert!((g[&VmId::new(2)].granted - (2.0 + 4.0 / 3.0)).abs() < 1e-9);
        assert!(cpu.wait_fraction() > 0.0);
        assert!((cpu.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn add_respects_capacity() {
        let mut cpu = CpuGroups::new(10.0, 2.0);
        cpu.add_vm(VmId::new(1), 6.0).unwrap();
        assert!(cpu.add_vm(VmId::new(2), 4.0).is_err());
        cpu.add_vm(VmId::new(2), 2.0).unwrap();
        assert!(cpu.add_vm(VmId::new(1), 0.1).is_err());
    }

    #[test]
    fn remove_frees_guarantee() {
        let mut cpu = CpuGroups::new(10.0, 2.0);
        cpu.add_vm(VmId::new(1), 8.0).unwrap();
        assert!(cpu.remove_vm(VmId::new(1)).is_some());
        assert!(cpu.remove_vm(VmId::new(1)).is_none());
        cpu.add_vm(VmId::new(2), 8.0).unwrap();
    }

    #[test]
    #[should_panic(expected = "reservation")]
    fn reservation_must_fit() {
        let _ = CpuGroups::new(2.0, 2.0);
    }
}
