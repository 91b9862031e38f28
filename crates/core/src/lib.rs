//! **coach-core** — the primary contribution of the Coach paper as a
//! library: all-resource oversubscription of cloud VMs driven by temporal
//! utilization patterns.
//!
//! The system has two layers, mirroring Figure 13:
//!
//! * [`ClusterManager`] — the logically-centralized layer: trains the
//!   random-forest utilization model, converts VM requests into
//!   guaranteed/oversubscribed demands (Formulas 1–4), and places them on
//!   servers with time-window-aware vector bin-packing.
//! * [`CoachServer`] — the per-server layer: PA/VA memory substrate, CPU
//!   groups, 20-second monitoring, two-level prediction (EWMA + LSTM), and
//!   reactive/proactive mitigation (trim → extend → migrate).
//!
//! [`Coach`] glues both together for applications that want a single
//! entry point.
//!
//! # Example
//!
//! ```
//! use coach_core::{Coach, CoachConfig, VmRequest};
//! use coach_types::prelude::*;
//!
//! let mut coach = Coach::new(CoachConfig::default());
//! let cluster = ClusterId::new(0);
//! coach.register_cluster(cluster, HardwareConfig::general_purpose_gen4(), 4);
//!
//! let request = VmRequest {
//!     id: VmId::new(1),
//!     config: VmConfig::general_purpose(4),
//!     subscription: SubscriptionId::new(7),
//!     subscription_type: SubscriptionType::External,
//!     offering: Offering::Iaas,
//!     arrival: Timestamp::ZERO,
//!     opted_in: true,
//! };
//! let server = coach.request_vm(cluster, request)?;
//! coach.set_vm_demand(VmId::new(1), 8.0, 2.0);
//! coach.tick();
//! assert_eq!(coach.vm_count(), 1);
//! # let _ = server;
//! # Ok::<(), coach_core::AllocationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod server;
pub mod vm;

pub use cluster::{AllocationError, ClusterManager, Placement};
pub use config::CoachConfig;
pub use server::{CoachServer, ServerTick};
pub use vm::{CoachVm, VmRequest};

use coach_trace::VmRecord;
use coach_types::prelude::*;
use std::collections::HashMap;

/// The whole system: cluster management plus live server runtimes.
#[derive(Debug)]
pub struct Coach {
    manager: ClusterManager,
    servers: HashMap<ServerId, CoachServer>,
    next_server_id: u64,
}

impl Coach {
    /// Create a Coach deployment.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(config: CoachConfig) -> Self {
        Coach {
            manager: ClusterManager::new(config),
            servers: HashMap::new(),
            next_server_id: 0,
        }
    }

    /// Register a cluster of `server_count` identical servers; returns
    /// their ids.
    pub fn register_cluster(
        &mut self,
        id: ClusterId,
        hardware: HardwareConfig,
        server_count: usize,
    ) -> Vec<ServerId> {
        let ids: Vec<ServerId> = (0..server_count)
            .map(|_| {
                let sid = ServerId::new(self.next_server_id);
                self.next_server_id += 1;
                sid
            })
            .collect();
        self.manager.register_cluster(id, &hardware, &ids);
        let config = self.manager.config().clone();
        for &sid in &ids {
            self.servers
                .insert(sid, CoachServer::new(sid, &hardware, &config));
        }
        ids
    }

    /// Train the utilization model on historical VM records.
    pub fn train(&mut self, history: &[&VmRecord]) {
        self.manager.train(history);
    }

    /// Create and host a VM; returns the server it landed on.
    ///
    /// # Errors
    ///
    /// See [`AllocationError`].
    pub fn request_vm(
        &mut self,
        cluster: ClusterId,
        request: VmRequest,
    ) -> Result<ServerId, AllocationError> {
        // The runtime layer is stricter than the logical scheduler (pool
        // backing, host reserves, 1 GB rounding); when a server refuses a
        // logically-feasible VM, retry elsewhere.
        let mut excluded: Vec<ServerId> = Vec::new();
        loop {
            let placement = self
                .manager
                .request_excluding(cluster, request, &excluded)?;
            let server = self
                .servers
                .get_mut(&placement.server)
                .expect("scheduler only places on registered servers");
            let vm_id = placement.vm.id();
            let target = placement.server;
            if server.host(placement.vm).is_ok() {
                return Ok(target);
            }
            // Undo the logical placement and exclude the refusing server.
            self.manager.deallocate(vm_id);
            excluded.push(target);
        }
    }

    /// Deallocate a VM everywhere.
    pub fn deallocate_vm(&mut self, id: VmId) -> bool {
        let Some(server) = self.manager.deallocate(id) else {
            return false;
        };
        if let Some(s) = self.servers.get_mut(&server) {
            s.evict(id);
        }
        true
    }

    /// Drive a VM's current demand (telemetry injection point).
    pub fn set_vm_demand(&mut self, id: VmId, working_set_gb: f64, cpu_cores: f64) {
        if let Some((_, server)) = self.manager.placement_of(id) {
            if let Some(s) = self.servers.get_mut(&server) {
                s.set_demand(id, working_set_gb, cpu_cores);
            }
        }
    }

    /// Advance every server by one second; returns per-server ticks.
    pub fn tick(&mut self) -> HashMap<ServerId, ServerTick> {
        self.servers
            .iter_mut()
            .map(|(&id, s)| (id, s.tick()))
            .collect()
    }

    /// Number of allocated VMs.
    pub fn vm_count(&self) -> usize {
        self.manager.vm_count()
    }

    /// The cluster-management layer.
    pub fn manager(&self) -> &ClusterManager {
        &self.manager
    }

    /// A server runtime by id.
    pub fn server(&self, id: ServerId) -> Option<&CoachServer> {
        self.servers.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64) -> VmRequest {
        VmRequest {
            id: VmId::new(id),
            config: VmConfig::general_purpose(4),
            subscription: SubscriptionId::new(1),
            subscription_type: SubscriptionType::External,
            offering: Offering::Iaas,
            arrival: Timestamp::ZERO,
            opted_in: true,
        }
    }

    #[test]
    fn end_to_end_allocate_tick_deallocate() {
        let mut coach = Coach::new(CoachConfig::default());
        let cluster = ClusterId::new(0);
        let servers = coach.register_cluster(cluster, HardwareConfig::general_purpose_gen4(), 2);
        assert_eq!(servers.len(), 2);

        let hosted_on = coach.request_vm(cluster, request(1)).unwrap();
        assert!(servers.contains(&hosted_on));
        assert_eq!(coach.vm_count(), 1);
        assert_eq!(coach.server(hosted_on).unwrap().vm_count(), 1);

        coach.set_vm_demand(VmId::new(1), 10.0, 2.0);
        let ticks = coach.tick();
        assert_eq!(ticks.len(), 2);

        assert!(coach.deallocate_vm(VmId::new(1)));
        assert_eq!(coach.vm_count(), 0);
        assert!(!coach.deallocate_vm(VmId::new(1)));
    }

    #[test]
    fn logical_and_runtime_placement_agree() {
        let mut coach = Coach::new(CoachConfig::default());
        let cluster = ClusterId::new(0);
        coach.register_cluster(cluster, HardwareConfig::general_purpose_gen4(), 3);
        for i in 0..10 {
            let server = coach.request_vm(cluster, request(i)).unwrap();
            let (_, logical) = coach.manager().placement_of(VmId::new(i)).unwrap();
            assert_eq!(server, logical);
            assert!(coach
                .server(server)
                .unwrap()
                .vm_ids()
                .any(|v| v == VmId::new(i)));
        }
    }

    #[test]
    fn multiple_clusters_have_distinct_servers() {
        let mut coach = Coach::new(CoachConfig::default());
        let a =
            coach.register_cluster(ClusterId::new(0), HardwareConfig::general_purpose_gen4(), 2);
        let b = coach.register_cluster(ClusterId::new(1), HardwareConfig::memory_rich(), 2);
        let all: std::collections::HashSet<_> = a.iter().chain(b.iter()).collect();
        assert_eq!(all.len(), 4, "server ids must be globally unique");
    }
}
