//! The cluster scheduler: vector bin-packing with time-window dimensions.
//!
//! Traditional VM schedulers solve bin-packing with heuristics over a
//! per-resource requirement vector (§3.3, citing Protean). Coach extends the
//! vector with one dimension per time window plus one for the guaranteed
//! portion; the placement heuristic itself (best-fit) is unchanged, which is
//! why the overhead is < 1 ms per VM (§4.5).
//!
//! To keep that envelope at million-VM scale the scheduler maintains a
//! **headroom index**: servers are bucketed by their free guaranteed memory,
//! so BestFit scans only the lowest-headroom buckets (and WorstFit the
//! highest) instead of the whole cluster. The original exhaustive scan is
//! retained as [`ScanStrategy::NaiveReference`] for differential testing —
//! both strategies are decision-identical by construction and by proptest.
//!
//! Which feasible server a heuristic picks is written down once, as
//! `PlacementHeuristic::candidate_order`; the naive scan, the pick inside a
//! headroom bucket and the probe estimator
//! ([`ClusterScheduler::estimate_probe_fill`]) all take the first server in
//! that order. The estimator replays the Fig 20a probe fill on scratch
//! copies of each server's sums through the same feasibility check and
//! commit `ServerState::place` runs, so its count equals the exhaustive
//! fill's without placing a probe.

use crate::demand::VmDemand;
use crate::server::{ServerState, Sums};
use coach_types::prelude::*;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Placement heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementHeuristic {
    /// Pack into the feasible server with the least remaining memory
    /// headroom (maximizes consolidation — the paper reports Coach reduces
    /// required servers by 44 %).
    #[default]
    BestFit,
    /// First feasible server in id order.
    FirstFit,
    /// Feasible server with the most remaining memory headroom (spreading).
    WorstFit,
}

impl PlacementHeuristic {
    /// The heuristic's preference between two candidate servers, each given
    /// as `(index, free guaranteed memory)`: `Less` when `a` wins. BestFit
    /// prefers the least free guaranteed memory, WorstFit the most,
    /// FirstFit the lower index; ties go to the lower index. Headroom is a
    /// saturating difference, finite and never `-0.0`, so `total_cmp`
    /// agrees with `<` on it.
    fn candidate_order(self, (a, free_a): (usize, f64), (b, free_b): (usize, f64)) -> Ordering {
        let by_index = a.cmp(&b);
        match self {
            PlacementHeuristic::FirstFit => by_index,
            PlacementHeuristic::BestFit => free_a.total_cmp(&free_b).then(by_index),
            PlacementHeuristic::WorstFit => free_b.total_cmp(&free_a).then(by_index),
        }
    }
}

/// How the scheduler searches for a feasible server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanStrategy {
    /// Headroom-bucketed candidate index: BestFit/WorstFit stop at the
    /// first bucket containing a feasible server (default).
    #[default]
    Indexed,
    /// The seed's exhaustive linear scan over all servers, kept as the
    /// reference implementation for differential testing and benchmarking.
    NaiveReference,
}

/// Outcome of a placement attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementOutcome {
    /// Placed on this server.
    Placed(ServerId),
    /// No server can currently host the demand.
    Rejected,
}

/// Number of headroom buckets in the candidate index. Headroom lives in
/// `[0, capacity.memory()]`, split uniformly.
const HEADROOM_BUCKETS: usize = 64;

/// Epsilon matching [`ResourceVec::fits_within`]'s feasibility slack; bucket
/// pruning must be at least this permissive to stay decision-identical.
const FIT_EPS: f64 = 1e-9;

/// Servers bucketed by free guaranteed memory. Each bucket holds server
/// indices sorted ascending so tie-breaking matches the naive scan (the
/// first of several equal-headroom candidates wins).
#[derive(Debug, Clone, PartialEq)]
struct HeadroomIndex {
    bucket_width: f64,
    buckets: Vec<Vec<usize>>,
    bucket_of: Vec<usize>,
}

impl HeadroomIndex {
    fn new(full_headroom: f64, n_servers: usize) -> Self {
        let bucket_width = full_headroom / HEADROOM_BUCKETS as f64;
        let mut buckets = vec![Vec::new(); HEADROOM_BUCKETS];
        let top = Self::bucket_index(bucket_width, full_headroom);
        buckets[top] = (0..n_servers).collect();
        HeadroomIndex {
            bucket_width,
            buckets,
            bucket_of: vec![top; n_servers],
        }
    }

    fn bucket_index(bucket_width: f64, headroom: f64) -> usize {
        if bucket_width > 0.0 {
            ((headroom / bucket_width) as usize).min(HEADROOM_BUCKETS - 1)
        } else {
            0
        }
    }

    fn bucket_for(&self, headroom: f64) -> usize {
        Self::bucket_index(self.bucket_width, headroom)
    }

    /// Re-bucket one server after its headroom changed.
    fn update(&mut self, server: usize, headroom: f64) {
        let new = self.bucket_for(headroom);
        let old = self.bucket_of[server];
        if new == old {
            return;
        }
        let old_bucket = &mut self.buckets[old];
        let pos = old_bucket
            .binary_search(&server)
            .expect("server present in its bucket");
        old_bucket.remove(pos);
        let new_bucket = &mut self.buckets[new];
        let pos = new_bucket
            .binary_search(&server)
            .expect_err("server absent from target bucket");
        new_bucket.insert(pos, server);
        self.bucket_of[server] = new;
    }
}

/// A cluster of servers being packed by one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterScheduler {
    servers: Vec<ServerState>,
    by_id: HashMap<ServerId, usize>,
    vm_to_server: HashMap<VmId, ServerId>,
    heuristic: PlacementHeuristic,
    scan: ScanStrategy,
    index: HeadroomIndex,
    in_use: usize,
}

impl ClusterScheduler {
    /// Create a scheduler over homogeneous servers with the default
    /// [`ScanStrategy::Indexed`] candidate search.
    ///
    /// # Panics
    ///
    /// Panics if `server_ids` is empty or contains duplicates, or if
    /// `windows` is zero.
    pub fn new(
        server_ids: &[ServerId],
        capacity: ResourceVec,
        windows: usize,
        heuristic: PlacementHeuristic,
    ) -> Self {
        Self::with_strategy(
            server_ids,
            capacity,
            windows,
            heuristic,
            ScanStrategy::default(),
        )
    }

    /// Create a scheduler with an explicit candidate-search strategy.
    ///
    /// # Panics
    ///
    /// Panics if `server_ids` is empty or contains duplicates, or if
    /// `windows` is zero.
    pub fn with_strategy(
        server_ids: &[ServerId],
        capacity: ResourceVec,
        windows: usize,
        heuristic: PlacementHeuristic,
        scan: ScanStrategy,
    ) -> Self {
        assert!(!server_ids.is_empty(), "need at least one server");
        let servers: Vec<ServerState> = server_ids
            .iter()
            .map(|&id| ServerState::new(id, capacity, windows))
            .collect();
        let by_id: HashMap<ServerId, usize> = server_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        assert_eq!(by_id.len(), servers.len(), "duplicate server ids");
        let index = HeadroomIndex::new(capacity.memory(), servers.len());
        ClusterScheduler {
            servers,
            by_id,
            vm_to_server: HashMap::new(),
            heuristic,
            scan,
            index,
            in_use: 0,
        }
    }

    /// Try to place a VM demand; returns where it landed. The demand is
    /// only read — pass a reference to keep it.
    pub fn place(&mut self, demand: impl Borrow<VmDemand>) -> PlacementOutcome {
        self.place_excluding(demand.borrow(), &[])
    }

    /// Place, skipping the servers in `excluded` (used when the runtime
    /// layer refuses a logically-feasible placement and the caller retries
    /// elsewhere).
    pub fn place_excluding(
        &mut self,
        demand: impl Borrow<VmDemand>,
        excluded: &[ServerId],
    ) -> PlacementOutcome {
        let demand = demand.borrow();
        let excluded_idx = self.excluded_indices(excluded);
        let candidate = match self.scan {
            ScanStrategy::Indexed => self.pick_server_indexed(demand, &excluded_idx),
            ScanStrategy::NaiveReference => self.pick_server_naive(demand, &excluded_idx),
        };
        let Some(idx) = candidate else {
            return PlacementOutcome::Rejected;
        };
        let id = self.servers[idx].id();
        assert!(self.servers[idx].place(demand), "picked server must fit");
        if self.servers[idx].vm_count() == 1 {
            self.in_use += 1;
        }
        if self.scan == ScanStrategy::Indexed {
            self.index
                .update(idx, self.servers[idx].free_guaranteed().memory());
        }
        self.vm_to_server.insert(demand.vm, id);
        PlacementOutcome::Placed(id)
    }

    /// Server `i` as the heuristics compare it: `(index, free guaranteed
    /// memory)`.
    fn candidate(&self, i: usize) -> (usize, f64) {
        (i, self.servers[i].free_guaranteed().memory())
    }

    /// Resolve excluded server ids to a sorted index list once, so the scan
    /// pays O(log E) per candidate instead of O(E). Ids not in this cluster
    /// are ignored. Returns an empty vec (no allocation) in the common
    /// nothing-excluded case.
    fn excluded_indices(&self, excluded: &[ServerId]) -> Vec<usize> {
        if excluded.is_empty() {
            return Vec::new();
        }
        let mut idx: Vec<usize> = excluded
            .iter()
            .filter_map(|id| self.by_id.get(id).copied())
            .collect();
        idx.sort_unstable();
        idx
    }

    /// The first of `candidates` in the heuristic's order.
    fn first_in_order(&self, candidates: impl Iterator<Item = usize>) -> Option<usize> {
        candidates
            .map(|i| self.candidate(i))
            .min_by(|&a, &b| self.heuristic.candidate_order(a, b))
            .map(|(i, _)| i)
    }

    /// The seed's exhaustive scan: every server, full `can_fit`, the first
    /// feasible one in the heuristic's order. Retained as the
    /// differential-testing reference.
    fn pick_server_naive(&self, demand: &VmDemand, excluded: &[usize]) -> Option<usize> {
        self.first_in_order(
            (0..self.servers.len()).filter(|&i| {
                excluded.binary_search(&i).is_err() && self.servers[i].can_fit(demand)
            }),
        )
    }

    /// Indexed scan. Decision-identical to [`Self::pick_server_naive`]:
    ///
    /// * Buckets partition servers by free guaranteed memory, so once a
    ///   bucket yields a feasible candidate, every server in a
    ///   farther-from-optimal bucket has strictly worse headroom and comes
    ///   later in the heuristic's order.
    /// * Within a bucket the pick is the same order's first, ties included.
    /// * BestFit skips buckets that cannot hold `demand.guaranteed`'s memory
    ///   (minus the `fits_within` epsilon), pruning full servers wholesale.
    fn pick_server_indexed(&self, demand: &VmDemand, excluded: &[usize]) -> Option<usize> {
        let peak = demand.window_peak();
        let trough = demand.window_trough();
        let feasible = |i: usize| {
            excluded.binary_search(&i).is_err()
                && self.servers[i].can_fit_with_bounds(demand, &peak, &trough)
        };
        match self.heuristic {
            PlacementHeuristic::FirstFit => {
                // Id order is the contract; the index cannot reorder it, but
                // the bounds-checked can_fit still prunes candidates fast.
                (0..self.servers.len()).find(|&i| feasible(i))
            }
            PlacementHeuristic::BestFit => {
                // Buckets below the demand's guaranteed memory cannot host
                // it (minus the fits_within epsilon): skip them wholesale.
                let need_mem = (demand.guaranteed.memory() - FIT_EPS).max(0.0);
                let start = self.index.bucket_for(need_mem);
                self.best_in_buckets(self.index.buckets[start..].iter(), feasible)
            }
            PlacementHeuristic::WorstFit => {
                self.best_in_buckets(self.index.buckets.iter().rev(), feasible)
            }
        }
    }

    /// Scan buckets in the given order, returning the first feasible server
    /// in the heuristic's order from the first bucket that has one.
    fn best_in_buckets<'a>(
        &self,
        mut buckets: impl Iterator<Item = &'a Vec<usize>>,
        feasible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        buckets
            .find_map(|bucket| self.first_in_order(bucket.iter().copied().filter(|&i| feasible(i))))
    }

    /// Deallocate a VM, returning the server that hosted it (no-op and
    /// `None` if unknown).
    pub fn remove(&mut self, vm: VmId) -> Option<ServerId> {
        let server = self.vm_to_server.remove(&vm)?;
        let idx = self.by_id[&server];
        if self.servers[idx].remove(vm) {
            if self.servers[idx].vm_count() == 0 {
                self.in_use -= 1;
            }
            if self.scan == ScanStrategy::Indexed {
                self.index
                    .update(idx, self.servers[idx].free_guaranteed().memory());
            }
        }
        Some(server)
    }

    /// The server hosting a VM.
    pub fn server_of(&self, vm: VmId) -> Option<ServerId> {
        self.vm_to_server.get(&vm).copied()
    }

    /// All server states.
    pub fn servers(&self) -> &[ServerState] {
        &self.servers
    }

    /// A server state by id.
    pub fn server(&self, id: ServerId) -> Option<&ServerState> {
        self.by_id.get(&id).map(|&i| &self.servers[i])
    }

    /// Number of VMs currently placed.
    pub fn vm_count(&self) -> usize {
        self.vm_to_server.len()
    }

    /// Number of servers hosting at least one VM (consolidation metric).
    /// O(1): maintained incrementally on place/remove.
    pub fn servers_in_use(&self) -> usize {
        self.in_use
    }

    /// How many probe VMs a greedy fill could still place on this cluster
    /// (the Fig 20a spare-capacity measurement), without placing any.
    ///
    /// `templates[r]` is the probe of rotation `r`. The fill offers probes
    /// in rotation order and stops after one full round of rejections,
    /// exactly as an exhaustive fill through [`Self::place`] does, and it
    /// counts the same: each probe goes to the first feasible server in the
    /// heuristic's order, checked and committed on scratch copies of the
    /// servers' sums by the code `place` itself runs. The fill only commits
    /// capacity, so a (server, rotation) that rejects once rejects for the
    /// rest of the measurement, and a rotation no server takes is dead:
    /// both are cached, and each server is fully checked against each
    /// rotation at most once after its last successful probe.
    pub fn estimate_probe_fill(&self, templates: &[VmDemand]) -> u64 {
        let windows = templates.len();
        if windows == 0 {
            return 0;
        }
        let n = self.servers.len();
        let mut scratch: Vec<(ResourceVec, Sums)> = self
            .servers
            .iter()
            .map(|s| (s.capacity(), s.sums().clone()))
            .collect();
        let mut headroom: Vec<f64> = (0..n).map(|i| self.candidate(i).1).collect();
        let order_of = |headroom: &[f64], a: usize, b: usize| {
            self.heuristic
                .candidate_order((a, headroom[a]), (b, headroom[b]))
        };
        // Server indices in candidate order, kept sorted as placements move
        // servers toward the front (BestFit) or the back (WorstFit).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| order_of(&headroom, a, b));
        // Rejections are final within a measurement (see above).
        let mut infeasible = vec![false; n * windows];
        let mut dead_rotation = vec![false; windows];

        let mut count = 0u64;
        let mut consecutive_rejections = 0usize;
        let mut rotation = 0usize;
        while consecutive_rejections < windows {
            let template = &templates[rotation];
            let winner = if dead_rotation[rotation] {
                None
            } else {
                order.iter().position(|&i| {
                    let cache = &mut infeasible[i * windows + rotation];
                    if *cache {
                        return false;
                    }
                    let (capacity, sums) = &scratch[i];
                    *cache = !sums.fits(capacity, template);
                    !*cache
                })
            };
            match winner {
                Some(pos) => {
                    let idx = order.remove(pos);
                    let (capacity, sums) = &mut scratch[idx];
                    sums.add(template);
                    headroom[idx] = sums.free_guaranteed(capacity).memory();
                    let dest = order
                        .binary_search_by(|&j| order_of(&headroom, j, idx))
                        .expect_err("unique (headroom, index) key");
                    order.insert(dest, idx);
                    count += 1;
                    consecutive_rejections = 0;
                }
                None => {
                    dead_rotation[rotation] = true;
                    consecutive_rejections += 1;
                }
            }
            rotation = (rotation + 1) % windows;
        }
        count
    }

    /// Serialize the scheduler for snapshot/restore: per-server dumps with
    /// their floating-point sums verbatim.
    ///
    /// Derived structures — the id maps, the headroom index, the in-use
    /// count — are *not* emitted: [`ClusterScheduler::from_dump`] rebuilds
    /// them from the server states, and the rebuild is exact (bucket
    /// membership is a pure function of each server's current headroom, and
    /// within-bucket order is ascending server index in both the live and
    /// rebuilt paths). Neither are the heuristic and scan strategy: they are
    /// configuration, and the caller that owns the configuration passes
    /// them back to `from_dump`.
    pub fn dump(&self) -> ClusterSchedulerDump {
        ClusterSchedulerDump {
            servers: self.servers.iter().map(ServerState::dump).collect(),
        }
    }

    /// Rebuild a scheduler from a [`ClusterSchedulerDump`] under the given
    /// heuristic and scan strategy, continuing bit-identically from the
    /// dumped decision state.
    ///
    /// # Panics
    ///
    /// Panics if the dump has no servers, duplicate server ids, or a VM
    /// hosted on two servers.
    pub fn from_dump(
        dump: ClusterSchedulerDump,
        heuristic: PlacementHeuristic,
        scan: ScanStrategy,
    ) -> Self {
        assert!(!dump.servers.is_empty(), "dump has no servers");
        let servers: Vec<ServerState> = dump
            .servers
            .into_iter()
            .map(ServerState::from_dump)
            .collect();
        let mut by_id = HashMap::with_capacity(servers.len());
        let mut vm_to_server = HashMap::new();
        let mut in_use = 0;
        for (i, s) in servers.iter().enumerate() {
            assert!(by_id.insert(s.id(), i).is_none(), "duplicate server ids");
            if s.vm_count() > 0 {
                in_use += 1;
            }
            for vm in s.vm_ids() {
                assert!(
                    vm_to_server.insert(vm, s.id()).is_none(),
                    "VM {vm} hosted on two servers"
                );
            }
        }
        let mut index = HeadroomIndex::new(servers[0].capacity().memory(), servers.len());
        for (i, s) in servers.iter().enumerate() {
            index.update(i, s.free_guaranteed().memory());
        }
        ClusterScheduler {
            servers,
            by_id,
            vm_to_server,
            heuristic,
            scan,
            index,
            in_use,
        }
    }
}

/// A [`ClusterScheduler`]'s servers flattened for snapshot/restore. Its
/// own type so that decoding one refuses what `from_dump` would panic on:
/// no servers, a server id twice, a VM hosted on two servers.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSchedulerDump {
    /// Per-server dumps in scheduler (id) order.
    pub servers: Vec<crate::server::ServerStateDump>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<ServerId> {
        (0..n).map(ServerId::new).collect()
    }

    fn cap() -> ResourceVec {
        ResourceVec::new(16.0, 64.0, 10.0, 1024.0)
    }

    fn full_demand(vm: u64, cores: f64, mem: f64) -> VmDemand {
        VmDemand::unpredicted(VmId::new(vm), ResourceVec::new(cores, mem, 0.5, 16.0))
    }

    #[test]
    fn places_until_capacity_then_rejects() {
        let mut s = ClusterScheduler::new(&ids(2), cap(), 1, PlacementHeuristic::FirstFit);
        // Each server fits 4 x (4c, 16GB).
        for i in 0..8 {
            assert!(matches!(
                s.place(full_demand(i, 4.0, 16.0)),
                PlacementOutcome::Placed(_)
            ));
        }
        assert_eq!(
            s.place(full_demand(99, 4.0, 16.0)),
            PlacementOutcome::Rejected
        );
        assert_eq!(s.vm_count(), 8);
    }

    #[test]
    fn best_fit_consolidates_worst_fit_spreads() {
        let mut best = ClusterScheduler::new(&ids(3), cap(), 1, PlacementHeuristic::BestFit);
        let mut worst = ClusterScheduler::new(&ids(3), cap(), 1, PlacementHeuristic::WorstFit);
        for i in 0..3 {
            best.place(full_demand(i, 2.0, 8.0));
            worst.place(full_demand(i, 2.0, 8.0));
        }
        assert_eq!(best.servers_in_use(), 1, "best-fit should stack");
        assert_eq!(worst.servers_in_use(), 3, "worst-fit should spread");
    }

    #[test]
    fn remove_frees_capacity() {
        let mut s = ClusterScheduler::new(&ids(1), cap(), 1, PlacementHeuristic::BestFit);
        for i in 0..4 {
            s.place(full_demand(i, 4.0, 16.0));
        }
        assert_eq!(
            s.place(full_demand(9, 4.0, 16.0)),
            PlacementOutcome::Rejected
        );
        assert!(s.remove(VmId::new(0)).is_some());
        assert!(matches!(
            s.place(full_demand(9, 4.0, 16.0)),
            PlacementOutcome::Placed(_)
        ));
        assert!(s.remove(VmId::new(12345)).is_none());
    }

    #[test]
    fn server_of_tracks_placement() {
        let mut s = ClusterScheduler::new(&ids(2), cap(), 1, PlacementHeuristic::FirstFit);
        s.place(full_demand(7, 2.0, 8.0));
        let srv = s.server_of(VmId::new(7)).unwrap();
        assert_eq!(s.server(srv).unwrap().vm_count(), 1);
        s.remove(VmId::new(7));
        assert!(s.server_of(VmId::new(7)).is_none());
    }

    #[test]
    fn complementary_windows_pack_tighter() {
        // Two VMs that both peak at 48 GB would not fit a 64 GB server if
        // scheduled on lifetime peaks; with complementary windows they do.
        let mk = |vm: u64, peak_w: usize| {
            let mut window_max = vec![ResourceVec::new(2.0, 12.0, 0.5, 16.0); 2];
            window_max[peak_w] = ResourceVec::new(2.0, 44.0, 0.5, 16.0);
            VmDemand {
                vm: VmId::new(vm),
                requested: ResourceVec::new(4.0, 48.0, 0.5, 16.0),
                guaranteed: ResourceVec::new(2.0, 12.0, 0.5, 16.0),
                window_max: window_max.into(),
            }
        };
        let mut s = ClusterScheduler::new(&ids(1), cap(), 2, PlacementHeuristic::BestFit);
        assert!(matches!(s.place(mk(1, 0)), PlacementOutcome::Placed(_)));
        // Peak sum in window 0 would be 88 GB for same-peak VMs: rejected.
        assert_eq!(s.place(mk(2, 0)), PlacementOutcome::Rejected);
        // Complementary peak fits: window sums are {56, 56} <= 64.
        assert!(matches!(s.place(mk(3, 1)), PlacementOutcome::Placed(_)));
    }

    #[test]
    fn excluded_servers_are_skipped() {
        let mut s = ClusterScheduler::new(&ids(3), cap(), 1, PlacementHeuristic::FirstFit);
        let excluded: Vec<ServerId> = vec![ServerId::new(0), ServerId::new(1), ServerId::new(999)];
        match s.place_excluding(full_demand(1, 2.0, 8.0), &excluded) {
            PlacementOutcome::Placed(id) => assert_eq!(id, ServerId::new(2)),
            PlacementOutcome::Rejected => panic!("server 2 was free"),
        }
        // Excluding everything rejects even though capacity exists.
        let all: Vec<ServerId> = ids(3);
        assert_eq!(
            s.place_excluding(full_demand(2, 2.0, 8.0), &all),
            PlacementOutcome::Rejected
        );
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_rejected() {
        let _ = ClusterScheduler::new(&[], cap(), 1, PlacementHeuristic::BestFit);
    }

    #[test]
    fn dump_restore_is_exact() {
        let mut s = ClusterScheduler::new(&ids(3), cap(), 1, PlacementHeuristic::BestFit);
        for i in 0..7 {
            s.place(full_demand(i, 2.0 + i as f64 * 0.5, 7.0 + i as f64));
        }
        s.remove(VmId::new(2));
        s.place(full_demand(50, 17.0, 64.0));
        let restored = ClusterScheduler::from_dump(
            s.dump(),
            PlacementHeuristic::BestFit,
            ScanStrategy::Indexed,
        );
        // Full structural equality: servers (all float sums), maps, and the
        // rebuilt headroom index.
        assert_eq!(s, restored);
        // And the restored instance keeps making identical decisions.
        let mut a = s;
        let mut b = restored;
        for i in 100..110 {
            assert_eq!(
                a.place(full_demand(i, 2.0, 8.0)),
                b.place(full_demand(i, 2.0, 8.0))
            );
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "hosted on two servers")]
    fn dump_with_conflicting_hosting_rejected() {
        let mut s = ClusterScheduler::new(&ids(2), cap(), 1, PlacementHeuristic::WorstFit);
        s.place(full_demand(1, 2.0, 8.0));
        s.place(full_demand(2, 2.0, 8.0));
        let mut dump = s.dump();
        // Claim VM 1 on both servers (ahead of VM 2: dumps are id-sorted).
        let stolen = dump.servers[0].vms[0].clone();
        dump.servers[1].vms.insert(0, stolen);
        let _ =
            ClusterScheduler::from_dump(dump, PlacementHeuristic::WorstFit, ScanStrategy::Indexed);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random churn of placements and removals must never overcommit any
    /// server on any dimension, and bookkeeping must stay consistent.
    fn arb_demand(windows: usize) -> impl Strategy<Value = (u64, Vec<f64>, f64)> {
        (
            0u64..200,
            prop::collection::vec(0.05f64..1.0, windows),
            0.05f64..1.0,
        )
    }

    fn demand_from(i: usize, window_fracs: &[f64], guar_frac: f64) -> VmDemand {
        let request = ResourceVec::new(8.0, 32.0, 4.0, 256.0);
        let guaranteed = request * guar_frac;
        let window_max: Vec<ResourceVec> = window_fracs
            .iter()
            .map(|f| (request * *f).max(&guaranteed))
            .collect();
        VmDemand {
            vm: VmId::new(1000 + i as u64),
            requested: request,
            guaranteed,
            window_max: window_max.into(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_never_overcommits(ops in prop::collection::vec(arb_demand(3), 1..80)) {
            let capacity = ResourceVec::new(16.0, 64.0, 10.0, 1024.0);
            let ids: Vec<ServerId> = (0..3).map(ServerId::new).collect();
            let mut sched = ClusterScheduler::new(&ids, capacity, 3, PlacementHeuristic::BestFit);

            for (i, (vm_raw, window_fracs, guar_frac)) in ops.iter().enumerate() {
                if i % 5 == 4 {
                    // Periodically remove an arbitrary placed VM.
                    sched.remove(VmId::new(*vm_raw));
                    continue;
                }
                let demand = demand_from(i, window_fracs, *guar_frac);
                prop_assert!(demand.is_well_formed());
                let _ = sched.place(demand);

                // Invariants after every operation.
                for s in sched.servers() {
                    let commitment = s.peak_commitment();
                    prop_assert!(commitment.max_element() <= 1.0 + 1e-9,
                        "overcommitted: {commitment:?}");
                    prop_assert!(s.free_guaranteed().is_valid());
                }
            }
            let placed_total: usize = sched.servers().iter().map(|s| s.vm_count()).sum();
            prop_assert_eq!(placed_total, sched.vm_count());
            let in_use_scan = sched.servers().iter().filter(|s| s.vm_count() > 0).count();
            prop_assert_eq!(in_use_scan, sched.servers_in_use());
        }

        #[test]
        fn prop_place_remove_roundtrip(fracs in prop::collection::vec(0.05f64..1.0, 6)) {
            let capacity = ResourceVec::new(96.0, 384.0, 40.0, 4096.0);
            let ids = [ServerId::new(0)];
            let mut sched = ClusterScheduler::new(&ids, capacity, 6, PlacementHeuristic::BestFit);
            let request = ResourceVec::new(4.0, 16.0, 1.0, 64.0);
            let guaranteed = request * fracs[0].min(0.9);
            let demand = VmDemand {
                vm: VmId::new(1),
                requested: request,
                guaranteed,
                window_max: fracs.iter().map(|f| (request * *f).max(&guaranteed)).collect(),
            };
            let before = sched.server(ServerId::new(0)).unwrap().clone();
            prop_assert!(matches!(sched.place(demand), PlacementOutcome::Placed(_)));
            sched.remove(VmId::new(1));
            let after = sched.server(ServerId::new(0)).unwrap();
            // State returns to (numerically) where it started.
            prop_assert!(after.free_guaranteed().fits_within(&(before.free_guaranteed() + ResourceVec::splat(1e-6))));
            prop_assert_eq!(after.vm_count(), 0);
        }

        /// The tentpole differential test: under random churn, the indexed
        /// scheduler makes placement-for-placement identical decisions to
        /// the retained naive scan — same accept/reject sequence, same
        /// server ids — for all three heuristics.
        #[test]
        fn prop_indexed_matches_naive(
            ops in prop::collection::vec(arb_demand(3), 1..120),
            heuristic_sel in 0usize..3,
        ) {
            let heuristic = [
                PlacementHeuristic::BestFit,
                PlacementHeuristic::FirstFit,
                PlacementHeuristic::WorstFit,
            ][heuristic_sel];
            let capacity = ResourceVec::new(16.0, 64.0, 10.0, 1024.0);
            let ids: Vec<ServerId> = (0..5).map(ServerId::new).collect();
            let mut indexed = ClusterScheduler::new(&ids, capacity, 3, heuristic);
            let mut naive = ClusterScheduler::with_strategy(
                &ids, capacity, 3, heuristic, ScanStrategy::NaiveReference,
            );

            for (i, (vm_raw, window_fracs, guar_frac)) in ops.iter().enumerate() {
                if i % 4 == 3 {
                    let a = indexed.remove(VmId::new(1000 + (*vm_raw % ops.len() as u64)));
                    let b = naive.remove(VmId::new(1000 + (*vm_raw % ops.len() as u64)));
                    prop_assert_eq!(&a, &b);
                    continue;
                }
                // Periodically exercise the exclusion path too.
                let excluded: Vec<ServerId> = if i % 7 == 6 {
                    vec![ServerId::new(*vm_raw % 5), ServerId::new(4242)]
                } else {
                    Vec::new()
                };
                let demand = demand_from(i, window_fracs, *guar_frac);
                let a = indexed.place_excluding(demand.clone(), &excluded);
                let b = naive.place_excluding(demand, &excluded);
                prop_assert_eq!(a, b);
            }
            prop_assert_eq!(indexed.vm_count(), naive.vm_count());
            prop_assert_eq!(indexed.servers_in_use(), naive.servers_in_use());
        }
    }
}
