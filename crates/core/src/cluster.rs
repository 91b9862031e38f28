//! The cluster management layer (§3.1): prediction + scheduling of
//! CoachVMs across clusters.

use crate::config::CoachConfig;
use crate::vm::{CoachVm, VmRequest};
use coach_predict::{ModelConfig, UtilizationModel};
use coach_sched::{ClusterScheduler, PlacementOutcome};
use coach_trace::VmRecord;
use coach_types::prelude::*;
use std::collections::HashMap;

/// Why a VM request could not be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocationError {
    /// The target cluster is not registered.
    UnknownCluster(ClusterId),
    /// No server in the cluster can host the demand.
    InsufficientCapacity,
    /// The VM id is already allocated.
    DuplicateVm(VmId),
}

impl std::fmt::Display for AllocationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocationError::UnknownCluster(c) => write!(f, "unknown cluster {c}"),
            AllocationError::InsufficientCapacity => f.write_str("insufficient capacity"),
            AllocationError::DuplicateVm(v) => write!(f, "vm {v} already allocated"),
        }
    }
}

impl std::error::Error for AllocationError {}

/// A successful placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Where the VM landed.
    pub server: ServerId,
    /// The provisioned CoachVM.
    pub vm: CoachVm,
}

/// The logically-centralized cluster manager: converts requests into
/// resource requirements + oversubscription rates via the prediction model
/// and hands them to the per-cluster scheduler (§3.1).
#[derive(Debug)]
pub struct ClusterManager {
    config: CoachConfig,
    model: Option<UtilizationModel>,
    schedulers: HashMap<ClusterId, ClusterScheduler>,
    placements: HashMap<VmId, (ClusterId, ServerId)>,
}

impl ClusterManager {
    /// Create an empty manager.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(config: CoachConfig) -> Self {
        config.validate().expect("invalid CoachConfig");
        ClusterManager {
            config,
            model: None,
            schedulers: HashMap::new(),
            placements: HashMap::new(),
        }
    }

    /// Register a cluster of homogeneous servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty or the cluster already exists.
    pub fn register_cluster(
        &mut self,
        id: ClusterId,
        hardware: &HardwareConfig,
        servers: &[ServerId],
    ) {
        assert!(
            !self.schedulers.contains_key(&id),
            "cluster {id} already registered"
        );
        let sched =
            ClusterScheduler::new(servers, hardware.capacity, self.config.time_windows.count());
        self.schedulers.insert(id, sched);
    }

    /// Train (or retrain) the utilization model on historical VM records —
    /// the daily offline training of §4.5.
    pub fn train(&mut self, history: &[&VmRecord]) {
        let model_config = ModelConfig {
            tw: self.config.time_windows,
            percentile: self.config.percentile,
            forest: self.config.forest,
        };
        self.model = Some(UtilizationModel::train(history, model_config));
    }

    /// Access the trained model, if any.
    pub fn model(&self) -> Option<&UtilizationModel> {
        self.model.as_ref()
    }

    /// Handle a VM creation request: predict, provision, place.
    ///
    /// # Errors
    ///
    /// See [`AllocationError`].
    pub fn request(
        &mut self,
        cluster: ClusterId,
        request: VmRequest,
    ) -> Result<Placement, AllocationError> {
        self.request_excluding(cluster, request, &[])
    }

    /// Like [`ClusterManager::request`], but never places on the servers in
    /// `excluded` — the retry path when a server's runtime refuses a
    /// logically-feasible VM.
    ///
    /// # Errors
    ///
    /// See [`AllocationError`].
    pub fn request_excluding(
        &mut self,
        cluster: ClusterId,
        request: VmRequest,
        excluded: &[ServerId],
    ) -> Result<Placement, AllocationError> {
        if self.placements.contains_key(&request.id) {
            return Err(AllocationError::DuplicateVm(request.id));
        }
        let prediction = self
            .model
            .as_ref()
            .and_then(|m| m.predict_meta(&request.meta()));
        let vm = CoachVm::provision(request, prediction.as_ref());
        let sched = self
            .schedulers
            .get_mut(&cluster)
            .ok_or(AllocationError::UnknownCluster(cluster))?;
        match sched.place_excluding(&vm.demand, excluded) {
            PlacementOutcome::Placed(server) => {
                self.placements.insert(request.id, (cluster, server));
                Ok(Placement { server, vm })
            }
            PlacementOutcome::Rejected => Err(AllocationError::InsufficientCapacity),
        }
    }

    /// Deallocate a VM; returns the server it ran on.
    pub fn deallocate(&mut self, vm: VmId) -> Option<ServerId> {
        let (cluster, server) = self.placements.remove(&vm)?;
        self.schedulers
            .get_mut(&cluster)
            .expect("placement implies cluster")
            .remove(vm);
        Some(server)
    }

    /// Where a VM currently runs.
    pub fn placement_of(&self, vm: VmId) -> Option<(ClusterId, ServerId)> {
        self.placements.get(&vm).copied()
    }

    /// Number of allocated VMs.
    pub fn vm_count(&self) -> usize {
        self.placements.len()
    }

    /// Per-server memory-pool sizing for a cluster (Formulas 3–4): returns
    /// `(guaranteed GB, multiplexed oversubscribed GB)` per server.
    pub fn memory_pools(&self, cluster: ClusterId) -> Vec<(ServerId, f64, f64)> {
        let Some(sched) = self.schedulers.get(&cluster) else {
            return Vec::new();
        };
        sched
            .servers()
            .iter()
            .map(|s| (s.id(), s.guaranteed_memory(), s.oversub_pool_memory()))
            .collect()
    }

    /// The scheduler of a cluster (read-only diagnostics).
    pub fn scheduler(&self, cluster: ClusterId) -> Option<&ClusterScheduler> {
        self.schedulers.get(&cluster)
    }

    /// The configuration.
    pub fn config(&self) -> &CoachConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_trace::{generate, TraceConfig};

    fn manager_with_cluster() -> (ClusterManager, ClusterId) {
        let mut m = ClusterManager::new(CoachConfig::default());
        let id = ClusterId::new(0);
        let servers: Vec<ServerId> = (0..4).map(ServerId::new).collect();
        m.register_cluster(id, &HardwareConfig::general_purpose_gen4(), &servers);
        (m, id)
    }

    fn request(id: u64) -> VmRequest {
        VmRequest {
            id: VmId::new(id),
            config: VmConfig::general_purpose(8),
            subscription: SubscriptionId::new(1),
            subscription_type: SubscriptionType::External,
            offering: Offering::Iaas,
            arrival: Timestamp::from_hours(10),
            opted_in: true,
        }
    }

    #[test]
    fn untrained_manager_allocates_conservatively() {
        let (mut m, cluster) = manager_with_cluster();
        let p = m.request(cluster, request(1)).unwrap();
        assert!(p.vm.oversubscribed.is_zero(), "no model => no oversub");
        assert_eq!(m.vm_count(), 1);
        assert_eq!(m.placement_of(VmId::new(1)), Some((cluster, p.server)));
    }

    #[test]
    fn duplicate_and_unknown_errors() {
        let (mut m, cluster) = manager_with_cluster();
        m.request(cluster, request(1)).unwrap();
        assert_eq!(
            m.request(cluster, request(1)),
            Err(AllocationError::DuplicateVm(VmId::new(1)))
        );
        assert_eq!(
            m.request(ClusterId::new(99), request(2)),
            Err(AllocationError::UnknownCluster(ClusterId::new(99)))
        );
    }

    #[test]
    fn capacity_exhaustion_reported() {
        let (mut m, cluster) = manager_with_cluster();
        // 4 servers x 96 cores; each request takes 8 guaranteed cores when
        // untrained. 48 requests fit; the 49th might too (memory binds
        // first at 4 GB/core)... fill until error and check it's capacity.
        let mut err = None;
        for i in 0..200 {
            if let Err(e) = m.request(cluster, request(i)) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(AllocationError::InsufficientCapacity));
    }

    #[test]
    fn trained_manager_oversubscribes_known_groups() {
        let trace = generate(&TraceConfig::small(101));
        let (train, _) = trace.split_by_arrival(Timestamp::from_days(4));
        let mut m = ClusterManager::new(CoachConfig {
            forest: coach_predict::ForestParams {
                n_trees: 10,
                ..Default::default()
            },
            ..CoachConfig::default()
        });
        let cluster = ClusterId::new(0);
        let servers: Vec<ServerId> = (0..8).map(ServerId::new).collect();
        m.register_cluster(cluster, &HardwareConfig::general_purpose_gen4(), &servers);
        m.train(&train);
        assert!(m.model().is_some());

        // Re-request VMs from known groups: most should be oversubscribed.
        let mut oversubscribed = 0;
        let mut total = 0;
        for vm in trace.long_running().take(20) {
            let req = VmRequest {
                id: VmId::new(1000 + total as u64),
                config: vm.config,
                subscription: vm.subscription,
                subscription_type: vm.subscription_type,
                offering: vm.offering,
                arrival: vm.arrival,
                opted_in: true,
            };
            if let Ok(p) = m.request(cluster, req) {
                total += 1;
                if !p.vm.oversubscribed.is_zero() || p.vm.savings().max_element() > 0.0 {
                    oversubscribed += 1;
                }
            }
        }
        assert!(total > 10);
        assert!(
            oversubscribed * 2 > total,
            "only {oversubscribed}/{total} oversubscribed"
        );
    }

    #[test]
    fn deallocate_frees_capacity() {
        let (mut m, cluster) = manager_with_cluster();
        let mut last = None;
        for i in 0..200 {
            match m.request(cluster, request(i)) {
                Ok(_) => last = Some(i),
                Err(_) => break,
            }
        }
        let count = m.vm_count();
        assert!(m.deallocate(VmId::new(last.unwrap())).is_some());
        assert_eq!(m.vm_count(), count - 1);
        assert!(m.request(cluster, request(999)).is_ok());
        assert!(m.deallocate(VmId::new(424242)).is_none());
    }

    #[test]
    fn memory_pools_reflect_formulas() {
        let (mut m, cluster) = manager_with_cluster();
        m.request(cluster, request(1)).unwrap();
        let pools = m.memory_pools(cluster);
        assert_eq!(pools.len(), 4);
        let total_guaranteed: f64 = pools.iter().map(|(_, g, _)| g).sum();
        // Untrained: full 32 GB guaranteed.
        assert!((total_guaranteed - 32.0).abs() < 1e-9);
        assert!(m.memory_pools(ClusterId::new(5)).is_empty());
    }
}
