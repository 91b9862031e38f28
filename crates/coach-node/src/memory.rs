//! The server memory substrate: PA-backed guaranteed memory, VA-backed
//! oversubscribed memory behind a zNUMA node, and an NVMe-like backing
//! store (§3.2).
//!
//! This is a discrete-time simulation (1-second steps) of the Hyper-V
//! mechanisms the paper uses:
//!
//! * **PA memory** is statically mapped at VM creation — always resident.
//! * **VA memory** is demand-backed from a shared *oversubscribed pool*;
//!   when the pool is exhausted, accesses beyond the resident set page
//!   against the backing store (disk), which is what degrades performance.
//! * **zNUMA** funnels guest accesses to the PA portion first, so only the
//!   working set overflowing PA touches VA at all.
//! * Resident VA is not returned when the working set shrinks — it goes
//!   **cold** (guest pages stay mapped), which is exactly the stock that
//!   **trimming** reclaims by writing it to the backing store at ~1.1 GB/s.
//!   **Extending** the pool maps unallocated host memory at ~15.7 GB/s
//!   (§4.5 — mapping needs no data movement).

use coach_types::VmId;
use std::collections::BTreeMap;

/// Cold-page trim bandwidth, GB/s (paper: 1.1 GB/s, §4.5). The host
/// pager's page-out steals run at the same rate.
const TRIM_GB_PER_SEC: f64 = 1.1;
/// Pool-extension bandwidth, GB/s (paper: 15.7 GB/s, §4.5).
const EXTEND_GB_PER_SEC: f64 = 15.7;
/// Page-in bandwidth from the backing store, GB/s (NVMe-class).
const PAGE_IN_GB_PER_SEC: f64 = 2.5;
/// Average DRAM access latency, nanoseconds.
const DRAM_LATENCY_NS: f64 = 100.0;
/// Average backing-store (page-fault) latency, nanoseconds: an ~80 µs NVMe
/// read.
const FAULT_LATENCY_NS: f64 = 80_000.0;

/// A CoachVM's memory shape on this server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmMemoryConfig {
    /// Total guest memory, GB.
    pub size_gb: f64,
    /// Guaranteed, PA-backed portion (statically mapped).
    pub pa_gb: f64,
    /// Oversubscribed, VA-backed portion (demand-backed from the pool).
    pub va_gb: f64,
}

impl VmMemoryConfig {
    /// A fully-guaranteed VM (the GPVM baseline of §4.2).
    pub fn fully_guaranteed(size_gb: f64) -> Self {
        VmMemoryConfig {
            size_gb,
            pa_gb: size_gb,
            va_gb: 0.0,
        }
    }

    /// A fully-oversubscribed VM (the OVM baseline).
    pub fn fully_oversubscribed(size_gb: f64) -> Self {
        VmMemoryConfig {
            size_gb,
            pa_gb: 0.0,
            va_gb: size_gb,
        }
    }

    /// A Coach split.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ pa ≤ size` (VA is the remainder).
    pub fn split(size_gb: f64, pa_gb: f64) -> Self {
        assert!(
            pa_gb >= 0.0 && pa_gb <= size_gb,
            "PA portion must be within [0, size]"
        );
        VmMemoryConfig {
            size_gb,
            pa_gb,
            va_gb: size_gb - pa_gb,
        }
    }
}

/// Per-VM dynamic memory state.
#[derive(Debug, Clone, PartialEq)]
pub struct VmMemoryState {
    /// Shape.
    pub config: VmMemoryConfig,
    /// Current guest working set, GB (driven by the workload model).
    pub working_set_gb: f64,
    /// VA memory currently backed by pool pages, GB. Grows with demand;
    /// shrinks only by trimming or VM removal.
    pub resident_va_gb: f64,
}

impl VmMemoryState {
    /// The working set overflowing the PA portion (zNUMA sends the rest to
    /// PA), capped at the VA size.
    pub fn va_demand_gb(&self) -> f64 {
        (self.working_set_gb - self.config.pa_gb)
            .max(0.0)
            .min(self.config.va_gb)
    }

    /// Unbacked VA demand: accesses to this range page-fault.
    pub fn unbacked_gb(&self) -> f64 {
        (self.va_demand_gb() - self.resident_va_gb).max(0.0)
    }

    /// Cold resident memory: backed pages outside the current working set —
    /// the stock that trimming can reclaim without hurting the VM.
    pub fn cold_va_gb(&self) -> f64 {
        (self.resident_va_gb - self.va_demand_gb()).max(0.0)
    }

    /// Fraction of working-set accesses that fault, under the paper's
    /// uniform-access assumption (§3.3).
    pub fn fault_fraction(&self) -> f64 {
        if self.working_set_gb <= 0.0 {
            return 0.0;
        }
        (self.unbacked_gb() / self.working_set_gb).clamp(0.0, 1.0)
    }
}

/// Per-step, per-VM memory telemetry (what the monitoring component reads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmMemoryStats {
    /// VM id.
    pub vm: VmId,
    /// Fraction of accesses that faulted this step.
    pub fault_fraction: f64,
    /// Average access slowdown factor (≥ 1.0) this step.
    pub slowdown: f64,
    /// GB paged in this step.
    pub paged_in_gb: f64,
    /// Memory utilization fraction (working set / size).
    pub utilization: f64,
}

/// The memory manager of one server.
///
/// # Example
///
/// ```
/// use coach_node::memory::{MemoryServer, VmMemoryConfig};
/// use coach_types::VmId;
///
/// let mut srv = MemoryServer::new(64.0, 4.0);
/// srv.set_pool_backing(6.0).unwrap();
/// srv.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 3.0)).unwrap();
/// srv.set_working_set(VmId::new(1), 4.0);
/// let stats = srv.step(1.0);
/// assert_eq!(stats.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryServer {
    /// Total DRAM, GB.
    total_gb: f64,
    /// Reserved for the host OS/agent.
    host_reserved_gb: f64,
    /// Physical memory backing the oversubscribed pool.
    pool_backing_gb: f64,
    /// Pool pages currently lent to VMs (Σ resident_va).
    pool_used_gb: f64,
    vms: BTreeMap<VmId, VmMemoryState>,
}

/// Errors from memory-server operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemoryError {
    /// Not enough physical memory for the request.
    InsufficientMemory,
    /// The VM id is unknown.
    UnknownVm,
    /// The VM id is already hosted.
    DuplicateVm,
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MemoryError::InsufficientMemory => "insufficient physical memory",
            MemoryError::UnknownVm => "unknown vm",
            MemoryError::DuplicateVm => "vm already hosted",
        })
    }
}

impl std::error::Error for MemoryError {}

impl MemoryServer {
    /// Create a server with `total_gb` DRAM, of which `host_reserved_gb` is
    /// kept for the host.
    ///
    /// # Panics
    ///
    /// Panics if the reservation exceeds the total.
    pub fn new(total_gb: f64, host_reserved_gb: f64) -> Self {
        assert!(total_gb > host_reserved_gb, "host reservation exceeds DRAM");
        MemoryServer {
            total_gb,
            host_reserved_gb,
            pool_backing_gb: 0.0,
            pool_used_gb: 0.0,
            vms: BTreeMap::new(),
        }
    }

    /// PA memory allocated to VMs.
    pub fn pa_allocated_gb(&self) -> f64 {
        self.vms.values().map(|v| v.config.pa_gb).sum()
    }

    /// Physical memory not allocated to PA, pool, or host.
    pub fn unallocated_gb(&self) -> f64 {
        (self.total_gb - self.host_reserved_gb - self.pa_allocated_gb() - self.pool_backing_gb)
            .max(0.0)
    }

    /// Physical backing of the oversubscribed pool.
    pub fn pool_backing_gb(&self) -> f64 {
        self.pool_backing_gb
    }

    /// Pool pages currently lent out.
    pub fn pool_used_gb(&self) -> f64 {
        self.pool_used_gb
    }

    /// Free pool pages (Fig 21a's y-axis).
    pub fn pool_free_gb(&self) -> f64 {
        (self.pool_backing_gb - self.pool_used_gb).max(0.0)
    }

    /// Set the pool's physical backing size directly (initial sizing).
    ///
    /// # Errors
    ///
    /// Fails with [`MemoryError::InsufficientMemory`] if backing would
    /// exceed available physical memory or shrink below current use.
    pub fn set_pool_backing(&mut self, gb: f64) -> Result<(), MemoryError> {
        let max = self.total_gb - self.host_reserved_gb - self.pa_allocated_gb();
        if gb > max + 1e-9 || gb < self.pool_used_gb - 1e-9 {
            return Err(MemoryError::InsufficientMemory);
        }
        self.pool_backing_gb = gb;
        Ok(())
    }

    /// Add a VM; its PA portion is reserved immediately.
    ///
    /// # Errors
    ///
    /// Fails if PA does not fit in unallocated memory or the id is taken.
    pub fn add_vm(&mut self, id: VmId, config: VmMemoryConfig) -> Result<(), MemoryError> {
        if self.vms.contains_key(&id) {
            return Err(MemoryError::DuplicateVm);
        }
        if config.pa_gb > self.unallocated_gb() + 1e-9 {
            return Err(MemoryError::InsufficientMemory);
        }
        self.vms.insert(
            id,
            VmMemoryState {
                config,
                working_set_gb: 0.0,
                resident_va_gb: 0.0,
            },
        );
        Ok(())
    }

    /// Remove a VM, returning its resident pool pages.
    pub fn remove_vm(&mut self, id: VmId) -> Result<VmMemoryState, MemoryError> {
        let state = self.vms.remove(&id).ok_or(MemoryError::UnknownVm)?;
        self.pool_used_gb = (self.pool_used_gb - state.resident_va_gb).max(0.0);
        Ok(state)
    }

    /// Drive a VM's working set (workload models call this each step).
    pub fn set_working_set(&mut self, id: VmId, wss_gb: f64) {
        if let Some(vm) = self.vms.get_mut(&id) {
            vm.working_set_gb = wss_gb.clamp(0.0, vm.config.size_gb);
        }
    }

    /// A VM's current state.
    pub fn vm(&self, id: VmId) -> Option<&VmMemoryState> {
        self.vms.get(&id)
    }

    /// Hosted VM ids.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.vms.keys().copied()
    }

    /// Advance the simulation by `dt` seconds: demand-back VA from the pool
    /// (page-in bandwidth-limited) and report per-VM fault/slowdown
    /// telemetry. Resident memory beyond demand stays mapped (cold) until
    /// trimmed.
    ///
    /// When demand exceeds the pool and no mitigation intervenes, the host
    /// pager **steals** resident pages from other VMs (cold pages first,
    /// then hot ones) at the page-out bandwidth — the behavior behind the
    /// paper's `None` baseline, which "frequently pages out memory that is
    /// paged in later and fails to recover" (§4.4).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn step(&mut self, dt: f64) -> Vec<VmMemoryStats> {
        let mut stats = Vec::with_capacity(self.vms.len());
        self.step_into(dt, &mut stats);
        stats
    }

    /// [`MemoryServer::step`] into a caller-owned buffer, so a steady-state
    /// simulation loop performs no per-tick allocation. The buffer is
    /// cleared first; its capacity is reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn step_into(&mut self, dt: f64, stats: &mut Vec<VmMemoryStats>) {
        assert!(dt > 0.0, "dt must be positive");
        stats.clear();
        let mut page_in_budget = PAGE_IN_GB_PER_SEC * dt;

        // Host pager: if demand is unbacked and the pool is exhausted,
        // steal resident pages from every VM *proportionally to its
        // resident size* (a global clock-like approximation that cannot
        // tell hot pages from cold ones), limited by the page-out
        // bandwidth. Stealing hot pages creates new unbacked demand on the
        // victims — the thrash behind the `None` baseline. Mitigation
        // policies avoid this by trimming *cold* pages precisely.
        let total_unbacked: f64 = self.vms.values().map(|v| v.unbacked_gb()).sum();
        if total_unbacked > 1e-9 && self.pool_free_gb() < total_unbacked - 1e-9 {
            let steal_budget = (TRIM_GB_PER_SEC * dt).min(total_unbacked - self.pool_free_gb());
            let total_resident: f64 = self.vms.values().map(|v| v.resident_va_gb).sum();
            if total_resident > 1e-9 {
                let mut stolen_total = 0.0;
                for vm in self.vms.values_mut() {
                    let take =
                        (steal_budget * vm.resident_va_gb / total_resident).min(vm.resident_va_gb);
                    vm.resident_va_gb -= take;
                    stolen_total += take;
                }
                self.pool_used_gb = (self.pool_used_gb - stolen_total).max(0.0);
            }
        }

        // Iterate the map in place (no id staging vec), carrying the pool
        // level in locals so granting does not re-borrow `self`.
        let pool_backing = self.pool_backing_gb;
        let mut pool_used = self.pool_used_gb;
        for (&id, vm) in self.vms.iter_mut() {
            let free_pool = (pool_backing - pool_used).max(0.0);
            let want = vm.unbacked_gb();
            let grant = want.min(free_pool).min(page_in_budget);
            vm.resident_va_gb += grant;
            page_in_budget -= grant;

            // Faults this step: accesses to still-unbacked memory plus the
            // demand-paging of the pages just granted (each granted page
            // was touched, missed, and read from the backing store).
            let fault_fraction = if vm.working_set_gb > 0.0 {
                ((vm.unbacked_gb() + grant) / vm.working_set_gb).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let utilization = if vm.config.size_gb > 0.0 {
                vm.working_set_gb / vm.config.size_gb
            } else {
                0.0
            };
            pool_used += grant;
            stats.push(VmMemoryStats {
                vm: id,
                fault_fraction,
                slowdown: fault_slowdown(fault_fraction),
                paged_in_gb: grant,
                utilization,
            });
        }
        self.pool_used_gb = pool_used;
    }

    /// Trim up to `gb` of a VM's cold memory, limited by trim bandwidth
    /// over `dt` seconds. Returns the GB actually trimmed (freed to the
    /// pool).
    pub fn trim(&mut self, id: VmId, gb: f64, dt: f64) -> f64 {
        let budget = TRIM_GB_PER_SEC * dt;
        let Some(vm) = self.vms.get_mut(&id) else {
            return 0.0;
        };
        let trimmed = gb.min(vm.cold_va_gb()).min(budget).max(0.0);
        vm.resident_va_gb -= trimmed;
        self.pool_used_gb = (self.pool_used_gb - trimmed).max(0.0);
        trimmed
    }

    /// Total cold (trimmable) memory across VMs.
    pub fn total_cold_gb(&self) -> f64 {
        self.vms.values().map(|v| v.cold_va_gb()).sum()
    }

    /// Extend the pool backing from unallocated memory, limited by the
    /// extension bandwidth over `dt` seconds. Returns GB added.
    pub fn extend_pool(&mut self, gb: f64, dt: f64) -> f64 {
        let budget = EXTEND_GB_PER_SEC * dt;
        let add = gb.min(self.unallocated_gb()).min(budget).max(0.0);
        self.pool_backing_gb += add;
        add
    }

    /// Invariant check used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let pa = self.pa_allocated_gb();
        if pa + self.pool_backing_gb + self.host_reserved_gb > self.total_gb + 1e-6 {
            return Err(format!(
                "overcommitted physical memory: pa={pa} pool={} host={}",
                self.pool_backing_gb, self.host_reserved_gb
            ));
        }
        if self.pool_used_gb > self.pool_backing_gb + 1e-6 {
            return Err(format!(
                "pool used {} exceeds backing {}",
                self.pool_used_gb, self.pool_backing_gb
            ));
        }
        let resident: f64 = self.vms.values().map(|v| v.resident_va_gb).sum();
        if (resident - self.pool_used_gb).abs() > 1e-6 {
            return Err(format!(
                "resident sum {resident} != pool used {}",
                self.pool_used_gb
            ));
        }
        for (id, vm) in &self.vms {
            if vm.resident_va_gb > vm.config.va_gb + 1e-9 {
                return Err(format!("{id}: resident exceeds VA size"));
            }
        }
        Ok(())
    }
}

/// The latency-ratio slowdown model behind [`VmMemoryStats::slowdown`] and
/// Fig 15's PA/VA sweep: accesses that fault pay the backing-store latency
/// instead of DRAM latency. Only a fraction of faulting accesses actually
/// stall the pipeline (prefetch, batching); 1% effective exposure matches
/// NVMe-paging slowdowns observed in practice (a few × at full paging).
pub fn fault_slowdown(fault_fraction: f64) -> f64 {
    let f = fault_fraction.clamp(0.0, 1.0);
    let exposure = 0.01;
    1.0 + f * exposure * (FAULT_LATENCY_NS / DRAM_LATENCY_NS - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn server() -> MemoryServer {
        let mut s = MemoryServer::new(64.0, 4.0);
        s.set_pool_backing(10.0).unwrap();
        s
    }

    #[test]
    fn pa_reservation_accounting() {
        let mut s = server();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 3.0))
            .unwrap();
        s.add_vm(VmId::new(2), VmMemoryConfig::split(8.0, 1.0))
            .unwrap();
        assert_eq!(s.pa_allocated_gb(), 4.0);
        assert_eq!(s.unallocated_gb(), 64.0 - 4.0 - 10.0 - 4.0);
        assert_eq!(
            s.add_vm(VmId::new(3), VmMemoryConfig::fully_guaranteed(100.0)),
            Err(MemoryError::InsufficientMemory)
        );
        assert_eq!(
            s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 1.0)),
            Err(MemoryError::DuplicateVm)
        );
        s.check_invariants().unwrap();
    }

    #[test]
    fn working_set_within_pa_never_faults() {
        let mut s = server();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 4.0))
            .unwrap();
        s.set_working_set(VmId::new(1), 3.5);
        let stats = s.step(1.0);
        assert_eq!(stats[0].fault_fraction, 0.0);
        assert_eq!(stats[0].slowdown, 1.0);
        assert_eq!(s.pool_used_gb(), 0.0);
    }

    #[test]
    fn overflow_backs_from_pool_at_page_in_bandwidth() {
        let mut s = server();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 3.0))
            .unwrap();
        s.set_working_set(VmId::new(1), 7.0); // 4 GB overflow
        let stats = s.step(1.0);
        // Page-in limited to 2.5 GB/s.
        assert!((stats[0].paged_in_gb - 2.5).abs() < 1e-9);
        assert!(stats[0].fault_fraction > 0.0);
        let stats = s.step(1.0);
        assert!((stats[0].paged_in_gb - 1.5).abs() < 1e-9);
        // The remaining 1.5 GB demand-paged in this step (those are faults).
        assert!(stats[0].fault_fraction > 0.0);
        let stats = s.step(1.0);
        assert_eq!(stats[0].fault_fraction, 0.0); // fully resident now
        assert!((s.pool_used_gb() - 4.0).abs() < 1e-9);
        s.check_invariants().unwrap();
    }

    #[test]
    fn page_in_budget_shared_across_vms() {
        let mut s = server();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 1.0))
            .unwrap();
        s.add_vm(VmId::new(2), VmMemoryConfig::split(8.0, 1.0))
            .unwrap();
        s.set_working_set(VmId::new(1), 5.0);
        s.set_working_set(VmId::new(2), 5.0);
        let stats = s.step(1.0);
        let total: f64 = stats.iter().map(|st| st.paged_in_gb).sum();
        assert!(total <= 2.5 + 1e-9, "page-in exceeded bandwidth: {total}");
    }

    #[test]
    fn pool_exhaustion_causes_sustained_faults() {
        let mut s = server();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(16.0, 2.0))
            .unwrap();
        s.set_working_set(VmId::new(1), 16.0); // 14 GB overflow > 10 GB pool
        for _ in 0..10 {
            s.step(1.0);
        }
        let st = s.vm(VmId::new(1)).unwrap();
        assert!((st.resident_va_gb - 10.0).abs() < 1e-9, "pool-capped");
        assert!(st.unbacked_gb() > 3.9);
        let stats = s.step(1.0);
        assert!(stats[0].fault_fraction > 0.2);
        assert!(stats[0].slowdown > 1.0);
        s.check_invariants().unwrap();
    }

    #[test]
    fn shrinking_demand_goes_cold_not_free() {
        let mut s = server();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 3.0))
            .unwrap();
        s.set_working_set(VmId::new(1), 7.0);
        s.step(1.0);
        s.step(1.0);
        assert!(s.pool_used_gb() > 3.9);
        s.set_working_set(VmId::new(1), 2.0); // back under PA
        s.step(1.0);
        // Pages stay resident but turn cold.
        assert!(s.pool_used_gb() > 3.9);
        assert!((s.total_cold_gb() - 4.0).abs() < 1e-9);
        s.check_invariants().unwrap();
    }

    #[test]
    fn trim_frees_cold_bandwidth_limited() {
        let mut s = server();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 1.0))
            .unwrap();
        s.set_working_set(VmId::new(1), 6.0);
        for _ in 0..5 {
            s.step(1.0);
        }
        s.set_working_set(VmId::new(1), 3.0); // 3 GB of resident goes cold
        s.step(1.0);
        assert!((s.total_cold_gb() - 3.0).abs() < 1e-9);
        let used_before = s.pool_used_gb();
        let trimmed = s.trim(VmId::new(1), 10.0, 1.0);
        assert!((trimmed - 1.1).abs() < 1e-9, "trim bandwidth 1.1 GB/s");
        assert!((s.pool_used_gb() - (used_before - 1.1)).abs() < 1e-9);
        // Trimming never cuts into the active working set.
        assert_eq!(s.vm(VmId::new(1)).unwrap().unbacked_gb(), 0.0);
        s.check_invariants().unwrap();
    }

    #[test]
    fn extend_pool_bandwidth_and_capacity_limited() {
        let mut s = server();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 2.0))
            .unwrap();
        // Unallocated = 64 - 4 - 10 - 2 = 48.
        let added = s.extend_pool(100.0, 1.0);
        assert!((added - 15.7).abs() < 1e-9, "extend bandwidth 15.7 GB/s");
        let added2 = s.extend_pool(100.0, 10.0);
        assert!((added2 - (48.0 - 15.7)).abs() < 1e-6, "capacity-limited");
        assert!(s.unallocated_gb() < 1e-6);
        s.check_invariants().unwrap();
    }

    #[test]
    fn remove_vm_returns_pool_pages() {
        let mut s = server();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 3.0))
            .unwrap();
        s.set_working_set(VmId::new(1), 7.0);
        s.step(1.0);
        s.step(1.0);
        assert!(s.pool_used_gb() > 0.0);
        s.remove_vm(VmId::new(1)).unwrap();
        assert_eq!(s.pool_used_gb(), 0.0);
        assert_eq!(s.remove_vm(VmId::new(1)), Err(MemoryError::UnknownVm));
    }

    #[test]
    fn slowdown_monotone_in_faults() {
        assert_eq!(fault_slowdown(0.0), 1.0);
        assert!(fault_slowdown(0.5) > fault_slowdown(0.1));
        assert!(fault_slowdown(1.0) < 100.0, "bounded by exposure model");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_rejected() {
        let mut s = server();
        let _ = s.step(0.0);
    }

    proptest! {
        #[test]
        fn prop_invariants_hold_under_random_driving(
            wss in prop::collection::vec(0.0f64..20.0, 1..40),
        ) {
            let mut s = server();
            s.add_vm(VmId::new(1), VmMemoryConfig::split(12.0, 3.0)).unwrap();
            s.add_vm(VmId::new(2), VmMemoryConfig::split(12.0, 2.0)).unwrap();
            for (i, w) in wss.iter().enumerate() {
                let id = VmId::new((i % 2) as u64 + 1);
                s.set_working_set(id, *w);
                s.step(1.0);
                if i % 3 == 0 {
                    s.trim(id, 1.0, 1.0);
                }
                if i % 5 == 0 {
                    s.extend_pool(0.5, 1.0);
                }
                prop_assert!(s.check_invariants().is_ok(), "{:?}", s.check_invariants());
            }
        }

        #[test]
        fn prop_fault_fraction_bounded(pa in 0.0f64..8.0, wss in 0.0f64..8.0) {
            let mut s = server();
            s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, pa)).unwrap();
            s.set_working_set(VmId::new(1), wss);
            let stats = s.step(1.0);
            prop_assert!((0.0..=1.0).contains(&stats[0].fault_fraction));
            prop_assert!(stats[0].slowdown >= 1.0);
        }
    }
}
