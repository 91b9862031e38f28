//! The cluster scheduler: vector bin-packing with time-window dimensions.
//!
//! Traditional VM schedulers solve bin-packing with heuristics over a
//! per-resource requirement vector (§3.3, citing Protean). Coach extends the
//! vector with one dimension per time window plus one for the guaranteed
//! portion; the placement heuristic itself (best-fit) is unchanged, which is
//! why the overhead is < 1 ms per VM (§4.5).
//!
//! To keep that envelope at million-VM scale the scheduler keeps its hot
//! state small and contiguous:
//!
//! * A **feasibility table**: one 48-byte `FitRow` per server (guaranteed
//!   sum, tightest and loosest window slack), refreshed by every `place`
//!   and `remove`. A candidate check reads its server's row, and reads the
//!   server's window sums only when the row's quick accept and quick
//!   reject both abstain. The cluster's one capacity is stored once.
//! * A **headroom index**: servers bucketed by their free guaranteed
//!   memory in grid units, so a placement scans only the lowest-headroom
//!   buckets that can hold its guaranteed memory instead of the whole
//!   cluster. Each
//!   bucket keeps its members in candidate order, so its scan stops at the
//!   first feasible member. A 64-bit mask of non-empty buckets makes
//!   empty ones free, and each bucket carries conservative bounds over its
//!   members' rows — the element-wise minimum guaranteed sum and maximum
//!   loosest slack — so one quick reject on the bounds passes over a
//!   bucket no member can host.
//! * A **VM map** to `(server, slot)`: a departure goes straight to its own
//!   row, and the map is the duplicate check on placement.
//!
//! **Why a bucket skip never changes a decision.** Every sum, row and
//! bound is a [`Units`] vector of integers, so the quick reject
//! (`server::rejects`) is monotone by integer arithmetic: a larger
//! guaranteed sum or a smaller loosest slack, element-wise, can only make
//! it reject, because `a ≤ b ⇒ a + c ≤ b + c` and `≤` is exact — there is
//! no rounding and no tolerance to reason about. Every member's guaranteed
//! sum is at least the bucket's minimum and its loosest slack at most the bucket's
//! maximum, so a reject on the bounds is a reject of every member's own
//! row — the answer the per-member check would have given. Bounds only
//! ever loosen between exact recomputations (a row that joins or changes
//! widens them; a row that leaves does not narrow them), so they stay
//! conservative; they are recomputed exactly when a full scan of the
//! bucket finds no feasible member, and reset when it empties.
//!
//! The original exhaustive scan is retained as
//! [`ScanStrategy::NaiveReference`] for differential testing — both
//! strategies are decision-identical by construction and by proptest.
//!
//! Which feasible server best-fit picks — the least free guaranteed memory,
//! ties to the lower index — is written down once, as `candidate_order`.
//! Headroom is an exact count of grid units, so two servers with the same
//! free memory tie whatever order their VMs came and went in, and the tie
//! goes to the lower index. The naive scan, the pick inside a headroom
//! bucket and the probe
//! estimator ([`ClusterScheduler::estimate_probe_fill`]) all take the first
//! server in that order. The estimator replays the Fig 20a probe fill on
//! scratch copies of each server's sums through the same feasibility check
//! and commit `ServerState::place` runs, so its count equals that of a
//! fill through [`ClusterScheduler::place`] without placing a probe. It is
//! the only probe production code runs on a live scheduler.

use crate::demand::VmDemand;
use crate::server::{rejects, FitRow, ServerState, Sums};
use coach_types::prelude::*;
use std::borrow::Borrow;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Placement heuristic. Coach packs best-fit (§3.3), and so does every
/// scheduler here: the type keeps its one variant only because the frozen
/// benchmark passes a config's `heuristic` to
/// [`ClusterScheduler::with_strategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementHeuristic {
    /// Pack into the feasible server with the least remaining memory
    /// headroom (maximizes consolidation — the paper reports Coach reduces
    /// required servers by 44 %).
    #[default]
    BestFit,
}

/// Best-fit's preference between two candidate servers, each given as
/// `(index, free guaranteed memory in grid units)`: `Less` when `a` wins.
/// The least free guaranteed memory wins, ties go to the lower index. The
/// probe estimator's heap key `(free, index)` is this order as a tuple.
fn candidate_order((a, free_a): (u32, u32), (b, free_b): (u32, u32)) -> Ordering {
    (free_a, a).cmp(&(free_b, b))
}

/// How the scheduler searches for a feasible server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanStrategy {
    /// Headroom-bucketed candidate index: the scan stops at the first
    /// bucket containing a feasible server (default).
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

/// The work a scheduler's placements have done, counted exactly: the
/// counts are a function of the request stream, not of the machine, so
/// two runs of one stream agree on them to the unit. Each `place` adds its
/// counts once, when it returns; [`ClusterScheduler::work`] reads them.
/// Under [`ScanStrategy::NaiveReference`] only `places` and `candidates`
/// move.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaceWork {
    /// Placement attempts (`place` / `place_excluding` calls).
    pub places: u64,
    /// Servers whose feasibility was checked.
    pub candidates: u64,
    /// Non-empty headroom buckets passed over on their bounds alone,
    /// without reading a member.
    pub buckets_skipped: u64,
    /// Candidates the quick checks left undecided, which read their
    /// server's window sums.
    pub window_scans: u64,
}

impl PlaceWork {
    fn add(&mut self, more: &PlaceWork) {
        self.places += more.places;
        self.candidates += more.candidates;
        self.buckets_skipped += more.buckets_skipped;
        self.window_scans += more.window_scans;
    }
}

/// Number of headroom buckets in the candidate index. Headroom lives in
/// `[0, capacity.memory()]`, split uniformly. One bit each in the index's
/// non-empty mask.
const HEADROOM_BUCKETS: usize = 64;
const _: () = assert!(HEADROOM_BUCKETS == u64::BITS as usize);

/// One headroom bucket: its members in candidate order and conservative
/// bounds over their feasibility rows (see the module doc for why a skip
/// on them is exact).
#[derive(Debug, Clone)]
struct Bucket {
    /// Members as best-fit compares them, `(index, free guaranteed
    /// memory)`, sorted by [`candidate_order`]: the first feasible member
    /// is the bucket's pick.
    members: Vec<(u32, u32)>,
    /// Element-wise at most every member's guaranteed sum.
    min_guaranteed: Units,
    /// Element-wise at least every member's loosest window slack.
    max_window_slack: Units,
    /// Whether the bounds are exactly the members' (no member has joined,
    /// left or changed since they were computed), so recomputing them
    /// would change nothing.
    exact: bool,
}

impl Bucket {
    /// The bounds of no member: the identities of min and max.
    const NO_BOUNDS: (Units, Units) = (Units::splat(u32::MAX), Units::ZERO);

    /// Widen the bounds to cover `row`.
    fn loosen(&mut self, row: &FitRow) {
        self.min_guaranteed = self.min_guaranteed.min(&row.guaranteed);
        self.max_window_slack = self.max_window_slack.max(&row.max_window_slack);
        self.exact = false;
    }

    /// Recompute the bounds exactly from the members' rows, unless they
    /// are exact already.
    fn tighten(&mut self, table: &[FitRow]) {
        if self.exact {
            return;
        }
        (self.min_guaranteed, self.max_window_slack) = Self::NO_BOUNDS;
        for &(i, _) in &self.members {
            let row = &table[i as usize];
            self.min_guaranteed = self.min_guaranteed.min(&row.guaranteed);
            self.max_window_slack = self.max_window_slack.max(&row.max_window_slack);
        }
        self.exact = true;
    }

    /// Whether no member can host `d`: the quick reject on the bounds.
    #[inline]
    fn rejects(&self, capacity: &Units, d: &VmDemand, trough: &Units) -> bool {
        rejects(
            &self.min_guaranteed,
            &self.max_window_slack,
            capacity,
            d,
            trough,
        )
    }
}

/// Servers bucketed by free guaranteed memory, each bucket in candidate
/// order, with a non-empty mask and per-bucket bounds. Derived state:
/// rebuilt exactly by `build`.
#[derive(Debug, Clone)]
struct HeadroomIndex {
    /// The capacity's memory in grid units: headroom `h` goes to bucket
    /// `h × 64 / capacity`.
    capacity_memory: u32,
    buckets: Vec<Bucket>,
    bucket_of: Vec<u8>,
    /// Bit `b` is set iff bucket `b` has a member.
    nonempty: u64,
}

impl HeadroomIndex {
    /// Bucket every server by its row's headroom, in candidate order, with
    /// exact bounds.
    fn build(capacity: &Units, table: &[FitRow]) -> Self {
        let (min_guaranteed, max_window_slack) = Bucket::NO_BOUNDS;
        let mut index = HeadroomIndex {
            capacity_memory: capacity[ResourceKind::Memory],
            buckets: vec![
                Bucket {
                    members: Vec::new(),
                    min_guaranteed,
                    max_window_slack,
                    exact: true,
                };
                HEADROOM_BUCKETS
            ],
            bucket_of: Vec::with_capacity(table.len()),
            nonempty: 0,
        };
        for (i, row) in (0u32..).zip(table) {
            let headroom = row.free_memory(capacity);
            let b = index.bucket_for(headroom);
            index.buckets[b].members.push((i, headroom));
            index.buckets[b].loosen(row);
            index.bucket_of.push(b as u8);
            index.nonempty |= 1 << b;
        }
        for bucket in &mut index.buckets {
            bucket
                .members
                .sort_unstable_by(|&a, &b| candidate_order(a, b));
            bucket.exact = true;
        }
        index
    }

    /// The bucket of `headroom` grid units of free memory: non-decreasing
    /// in it, so a server with less headroom is never in a higher bucket.
    fn bucket_for(&self, headroom: u32) -> usize {
        if self.capacity_memory == 0 {
            return 0;
        }
        let b = u64::from(headroom) * HEADROOM_BUCKETS as u64 / u64::from(self.capacity_memory);
        (b as usize).min(HEADROOM_BUCKETS - 1)
    }

    /// Move one server whose headroom went from `was` to `headroom` to its
    /// place in candidate order — in another bucket if it crossed a
    /// boundary — and widen its bucket's bounds to cover its new `row`. A
    /// bucket left empty drops its bounds.
    fn update(&mut self, server: u32, was: u32, row: &FitRow, headroom: u32) {
        let new = self.bucket_for(headroom);
        let old = usize::from(self.bucket_of[server as usize]);
        let old_bucket = &mut self.buckets[old];
        let mut pos = old_bucket
            .members
            .binary_search_by(|&m| candidate_order(m, (server, was)))
            .expect("server present in its bucket");
        if new == old {
            // Slide the entry past the neighbours its new key overtakes:
            // one step of insertion sort, the rest of the bucket is sorted.
            let key = (server, headroom);
            let members = &mut old_bucket.members;
            while pos > 0 && candidate_order(key, members[pos - 1]).is_lt() {
                members[pos] = members[pos - 1];
                pos -= 1;
            }
            while pos + 1 < members.len() && candidate_order(members[pos + 1], key).is_lt() {
                members[pos] = members[pos + 1];
                pos += 1;
            }
            members[pos] = key;
            old_bucket.loosen(row);
            return;
        }
        old_bucket.members.remove(pos);
        if old_bucket.members.is_empty() {
            (old_bucket.min_guaranteed, old_bucket.max_window_slack) = Bucket::NO_BOUNDS;
            old_bucket.exact = true;
            self.nonempty &= !(1 << old);
        } else {
            old_bucket.exact = false;
        }
        let new_bucket = &mut self.buckets[new];
        let pos = new_bucket
            .members
            .binary_search_by(|&m| candidate_order(m, (server, headroom)))
            .expect_err("server absent from target bucket");
        new_bucket.members.insert(pos, (server, headroom));
        new_bucket.loosen(row);
        self.nonempty |= 1 << new;
        self.bucket_of[server as usize] = new as u8;
    }

    /// Recompute the bounds of every bucket in `mask` exactly.
    fn tighten(&mut self, mut mask: u64, table: &[FitRow]) {
        while mask != 0 {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.buckets[b].tighten(table);
        }
    }

    /// The non-empty buckets from `start` up.
    fn ascending_from(&self, start: usize) -> impl Iterator<Item = usize> {
        let mut mask = self.nonempty & (u64::MAX << start);
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let b = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                b
            })
        })
    }
}

/// Where a hosted VM is: its server's index and its slot there.
#[derive(Debug, Clone, Copy)]
struct Hosted {
    server: u32,
    slot: u32,
}

/// A cluster of servers being packed by one policy.
///
/// Equality is that of the decision state: the servers (their dumps — sums
/// and hosted VMs), which server hosts each VM, the scan strategy, the
/// occupancy count and the headroom buckets' membership. The bucket
/// bounds, the VMs' slots and the work counters are left out: they depend
/// on the path that led here (a restored scheduler has exact bounds and
/// dense slots, and counts from zero), never on a decision.
#[derive(Debug, Clone)]
pub struct ClusterScheduler {
    servers: Vec<ServerState>,
    /// Every server's capacity in grid units: a cluster is homogeneous.
    capacity: Units,
    /// The feasibility table: `table[i]` is `servers[i].fit_row()`,
    /// refreshed by every place and remove; what the indexed scan reads.
    table: Vec<FitRow>,
    by_id: IdMap<ServerId, usize>,
    vm_to_server: IdMap<VmId, Hosted>,
    scan: ScanStrategy,
    index: HeadroomIndex,
    in_use: usize,
    work: PlaceWork,
}

impl PartialEq for ClusterScheduler {
    fn eq(&self, other: &Self) -> bool {
        self.servers == other.servers
            && self.capacity == other.capacity
            && self.table == other.table
            && self.scan == other.scan
            && self.in_use == other.in_use
            && self.index.bucket_of == other.index.bucket_of
            && self.vm_to_server.len() == other.vm_to_server.len()
            && self.vm_to_server.iter().all(|(vm, hosted)| {
                other
                    .vm_to_server
                    .get(vm)
                    .is_some_and(|o| o.server == hosted.server)
            })
    }
}

impl ClusterScheduler {
    /// Create a scheduler over homogeneous servers with the default
    /// [`ScanStrategy::Indexed`] candidate search.
    ///
    /// # Panics
    ///
    /// Panics if `server_ids` is empty or contains duplicates, or if
    /// `windows` is zero.
    pub fn new(server_ids: &[ServerId], capacity: ResourceVec, windows: usize) -> Self {
        Self::with_strategy(
            server_ids,
            capacity,
            windows,
            PlacementHeuristic::BestFit,
            ScanStrategy::default(),
        )
    }

    /// Create a scheduler with an explicit candidate-search strategy. Every
    /// server gets the one `capacity`: a cluster is homogeneous, and the
    /// scheduler stores its capacity once.
    ///
    /// `_heuristic` is ignored — every scheduler packs best-fit. It is a
    /// shim for the frozen benchmark, which passes its config's heuristic.
    ///
    /// # Panics
    ///
    /// Panics if `server_ids` is empty or contains duplicates, or if
    /// `windows` is zero.
    pub fn with_strategy(
        server_ids: &[ServerId],
        capacity: ResourceVec,
        windows: usize,
        _heuristic: PlacementHeuristic,
        scan: ScanStrategy,
    ) -> Self {
        assert!(!server_ids.is_empty(), "need at least one server");
        let servers: Vec<ServerState> = server_ids
            .iter()
            .map(|&id| ServerState::new(id, capacity, windows))
            .collect();
        Self::over(servers, scan)
    }

    /// The scheduler over `servers`, with every derived structure — the
    /// id maps, the feasibility table, the headroom index, the in-use
    /// count — built from their state.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty, two servers differ in capacity or
    /// window count, two share an id, or a VM is hosted on two servers.
    fn over(servers: Vec<ServerState>, scan: ScanStrategy) -> Self {
        assert!(!servers.is_empty(), "need at least one server");
        assert!(
            u32::try_from(servers.len()).is_ok(),
            "fewer than 2^32 servers"
        );
        let capacity = servers[0].capacity_units();
        let windows = servers[0].windows();
        assert!(
            servers
                .iter()
                .all(|s| s.capacity_units() == capacity && s.windows() == windows),
            "the servers of one cluster share one capacity and window count"
        );
        let mut by_id = IdMap::with_capacity_and_hasher(servers.len(), Default::default());
        let mut vm_to_server = IdMap::default();
        let mut in_use = 0;
        for (i, s) in servers.iter().enumerate() {
            assert!(by_id.insert(s.id(), i).is_none(), "duplicate server ids");
            if s.vm_count() > 0 {
                in_use += 1;
            }
            for (slot, vm) in s.slots() {
                let hosted = Hosted {
                    server: i as u32,
                    slot,
                };
                assert!(
                    vm_to_server.insert(vm, hosted).is_none(),
                    "VM {vm} hosted on two servers"
                );
            }
        }
        let table: Vec<FitRow> = servers.iter().map(ServerState::fit_row).collect();
        let index = HeadroomIndex::build(&capacity, &table);
        ClusterScheduler {
            servers,
            capacity,
            table,
            by_id,
            vm_to_server,
            scan,
            index,
            in_use,
            work: PlaceWork::default(),
        }
    }

    /// Try to place a VM demand; returns where it landed. The demand is
    /// only read — pass a reference to keep it.
    ///
    /// # Panics
    ///
    /// As [`Self::place_excluding`].
    pub fn place(&mut self, demand: impl Borrow<VmDemand>) -> PlacementOutcome {
        self.place_excluding(demand.borrow(), &[])
    }

    /// Place, skipping the servers in `excluded` (used when the runtime
    /// layer refuses a logically-feasible placement and the caller retries
    /// elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if the VM is already hosted in this cluster, on any server
    /// (remove it first), or if the demand's window count is neither 1 nor
    /// the servers'.
    pub fn place_excluding(
        &mut self,
        demand: impl Borrow<VmDemand>,
        excluded: &[ServerId],
    ) -> PlacementOutcome {
        let demand = demand.borrow();
        assert!(
            !self.vm_to_server.contains_key(&demand.vm),
            "VM {} already hosted in this cluster",
            demand.vm
        );
        self.servers[0].check_windows(demand);
        let excluded_idx = self.excluded_indices(excluded);
        let mut work = PlaceWork {
            places: 1,
            ..PlaceWork::default()
        };
        let (candidate, exhausted) = match self.scan {
            ScanStrategy::Indexed => self.pick_server_indexed(demand, &excluded_idx, &mut work),
            ScanStrategy::NaiveReference => {
                (self.pick_server_naive(demand, &excluded_idx, &mut work), 0)
            }
        };
        self.work.add(&work);
        self.index.tighten(exhausted, &self.table);
        let Some(idx) = candidate else {
            return PlacementOutcome::Rejected;
        };
        let slot = self.servers[idx]
            .place_new(demand)
            .expect("picked server must fit");
        if self.servers[idx].vm_count() == 1 {
            self.in_use += 1;
        }
        self.refresh(idx);
        let hosted = Hosted {
            server: idx as u32,
            slot,
        };
        self.vm_to_server.insert(demand.vm, hosted);
        PlacementOutcome::Placed(self.servers[idx].id())
    }

    /// Copy server `idx`'s changed state into its table row and, under the
    /// indexed scan, its headroom bucket.
    fn refresh(&mut self, idx: usize) {
        let row = self.servers[idx].fit_row();
        let was = self.candidate(idx).1;
        self.table[idx] = row;
        if self.scan == ScanStrategy::Indexed {
            let headroom = self.candidate(idx).1;
            self.index.update(idx as u32, was, &row, headroom);
        }
    }

    /// Server `i` as best-fit compares it: `(index, free guaranteed
    /// memory in grid units)`.
    fn candidate(&self, i: usize) -> (u32, u32) {
        (i as u32, self.table[i].free_memory(&self.capacity))
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

    /// The seed's exhaustive scan: every server, full `can_fit`, the first
    /// feasible one in candidate order. Retained as the differential-testing
    /// reference.
    fn pick_server_naive(
        &self,
        demand: &VmDemand,
        excluded: &[usize],
        work: &mut PlaceWork,
    ) -> Option<usize> {
        (0..self.servers.len())
            .filter(|&i| {
                excluded.binary_search(&i).is_err() && {
                    work.candidates += 1;
                    self.servers[i].can_fit(demand)
                }
            })
            .map(|i| self.candidate(i))
            .min_by(|&a, &b| candidate_order(a, b))
            .map(|(i, _)| i as usize)
    }

    /// Server `i`'s W+1 check through the feasibility table: its row's
    /// quick answer, else the exact scan of its window sums.
    #[inline]
    fn feasible(
        &self,
        i: usize,
        demand: &VmDemand,
        peak: &Units,
        trough: &Units,
        work: &mut PlaceWork,
    ) -> bool {
        work.candidates += 1;
        match self.table[i].quick_fit(&self.capacity, demand, peak, trough) {
            Some(fits) => fits,
            None => {
                work.window_scans += 1;
                self.servers[i].windows_fit(demand)
            }
        }
    }

    /// Indexed scan. Decision-identical to [`Self::pick_server_naive`]:
    ///
    /// * Buckets partition servers by free guaranteed memory, so once a
    ///   bucket yields a feasible candidate, every server in a higher
    ///   bucket has strictly more headroom and comes later in candidate
    ///   order.
    /// * Within a bucket the pick is the same order's first, ties included.
    /// * Buckets below the one `demand.guaranteed`'s memory falls in hold
    ///   only servers with less free memory than it, and are skipped
    ///   wholesale, pruning full servers.
    /// * Empty buckets are never visited, and a bucket whose bounds reject
    ///   the demand holds no feasible server (module doc).
    ///
    /// Also returns the mask of buckets scanned in full without a feasible
    /// member, whose bounds the caller recomputes.
    fn pick_server_indexed(
        &self,
        demand: &VmDemand,
        excluded: &[usize],
        work: &mut PlaceWork,
    ) -> (Option<usize>, u64) {
        let peak = demand.window_peak();
        let trough = demand.window_trough();
        let need_mem = demand.guaranteed[ResourceKind::Memory];
        let mut exhausted = 0u64;
        for b in self.index.ascending_from(self.index.bucket_for(need_mem)) {
            let bucket = &self.index.buckets[b];
            if bucket.rejects(&self.capacity, demand, &trough) {
                work.buckets_skipped += 1;
                continue;
            }
            let pick = bucket.members.iter().map(|&(i, _)| i as usize).find(|&i| {
                excluded.binary_search(&i).is_err()
                    && self.feasible(i, demand, &peak, &trough, work)
            });
            if pick.is_some() {
                return (pick, exhausted);
            }
            exhausted |= 1 << b;
        }
        (None, exhausted)
    }

    /// Deallocate a VM, returning the server that hosted it (no-op and
    /// `None` if unknown). Touches only the VM's own row.
    pub fn remove(&mut self, vm: VmId) -> Option<ServerId> {
        let Hosted { server, slot } = self.vm_to_server.remove(&vm)?;
        let idx = server as usize;
        self.servers[idx].remove_slot(slot);
        if self.servers[idx].vm_count() == 0 {
            self.in_use -= 1;
        }
        self.refresh(idx);
        Some(self.servers[idx].id())
    }

    /// The server hosting a VM.
    pub fn server_of(&self, vm: VmId) -> Option<ServerId> {
        self.vm_to_server
            .get(&vm)
            .map(|hosted| self.servers[hosted.server as usize].id())
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

    /// Every server's hardware capacity, as the grid holds it: a cluster
    /// is homogeneous.
    pub fn capacity(&self) -> ResourceVec {
        self.capacity.to_resources()
    }

    /// The work this scheduler's placements have done (see [`PlaceWork`]).
    pub fn work(&self) -> PlaceWork {
        self.work
    }

    /// How many probe VMs a greedy fill could still place on this cluster
    /// (the Fig 20a spare-capacity measurement), without placing any.
    ///
    /// `templates[r]` is the probe of rotation `r`. The fill offers probes
    /// in rotation order and stops after one full round of rejections,
    /// exactly as a fill through [`Self::place`] does, and it counts the
    /// same: each probe goes to the first feasible server in candidate
    /// order, checked and committed on scratch copies of the servers' sums
    /// by the code `place` itself runs. The scheduler is only read, so a
    /// measurement never changes a later decision.
    ///
    /// Each rotation keeps a min-heap of `(free memory, server)` over the
    /// servers not yet known infeasible for it. The fill only commits
    /// capacity, so a (server, rotation) that rejects once rejects for the
    /// rest of the measurement: a probe pops rejected tops for good, and
    /// a rotation whose heap is empty is dead. A winner's key changes when
    /// it takes a probe; it is re-keyed in place where it heads a heap and
    /// pushed anew elsewhere, and the entry its old key left behind is
    /// dropped when it surfaces. Each (server, rotation) is therefore
    /// checked once after its last successful probe, and the fill ends when
    /// every pair has been: a fill of `c` probes over `n` servers and `w`
    /// rotations runs exactly `c + n × w` feasibility checks, and each heap
    /// sees at most `n + c` pushes, so the heap work is `O((n + c) × w ×
    /// log(n + c))`, where a fill through `place` scans candidates and
    /// moves index entries for every probe in and out. On the benchmark's
    /// `churn_sharded` (seed 2026, 2-core box) one measurement took 1.44 s
    /// through `place`, 0.19–0.23 s with the previous sorted-list estimator
    /// and 0.024–0.028 s with the heaps.
    pub fn estimate_probe_fill(&self, templates: &[VmDemand]) -> u64 {
        self.probe_fill(templates).0
    }

    /// [`Self::estimate_probe_fill`]'s count, and the number of
    /// feasibility checks it ran to find it.
    pub(crate) fn probe_fill(&self, templates: &[VmDemand]) -> (u64, u64) {
        let windows = templates.len();
        if windows == 0 {
            return (0, 0);
        }
        let capacity = self.capacity;
        let mut scratch: Vec<Sums> = self.servers.iter().map(|s| s.sums().clone()).collect();
        let mut keys: Vec<u32> = (0..self.servers.len())
            .map(|i| self.candidate(i).1)
            .collect();
        let entries: Vec<Reverse<(u32, u32)>> = (0u32..)
            .zip(&keys)
            .map(|(server, &key)| Reverse((key, server)))
            .collect();
        let mut heaps = vec![BinaryHeap::from(entries); windows];
        let mut infeasible = vec![false; self.servers.len() * windows];

        let mut count = 0u64;
        let mut fits_checks = 0u64;
        let mut consecutive_rejections = 0usize;
        let mut rotation = 0usize;
        while consecutive_rejections < windows {
            let template = &templates[rotation];
            let heap = &mut heaps[rotation];
            let winner = loop {
                let Some(&Reverse((key, server))) = heap.peek() else {
                    break None;
                };
                let i = server as usize;
                let cell = i * windows + rotation;
                if key == keys[i] && !infeasible[cell] {
                    fits_checks += 1;
                    if scratch[i].fits(&capacity, template) {
                        break Some(server);
                    }
                    infeasible[cell] = true;
                }
                heap.pop();
            };
            match winner {
                Some(server) => {
                    let i = server as usize;
                    let sums = &mut scratch[i];
                    sums.add(template);
                    let key = sums.free_memory(&capacity);
                    let old = std::mem::replace(&mut keys[i], key);
                    if key != old {
                        for (r, heap) in heaps.iter_mut().enumerate() {
                            if infeasible[i * windows + r] {
                                continue;
                            }
                            if heap.peek() == Some(&Reverse((old, server))) {
                                *heap.peek_mut().expect("the winner heads this heap") =
                                    Reverse((key, server));
                            } else {
                                heap.push(Reverse((key, server)));
                            }
                        }
                    }
                    count += 1;
                    consecutive_rejections = 0;
                }
                None => consecutive_rejections += 1,
            }
            rotation = (rotation + 1) % windows;
        }
        (count, fits_checks)
    }

    /// Serialize the scheduler for snapshot/restore: per-server dumps with
    /// their sums and rows.
    ///
    /// Derived structures — the id maps, the feasibility table, the
    /// headroom index with its mask and bounds, the in-use count — are
    /// *not* emitted: [`ClusterScheduler::from_dump`] rebuilds them from
    /// the server states. The rebuild makes the same decisions: table rows
    /// and bucket membership are pure functions of each server's sums,
    /// within-bucket order is candidate order in both the live and rebuilt
    /// paths, and the bounds are conservative in both (exact in the rebuilt
    /// one). Nor is the scan strategy: it is configuration, and the caller
    /// that owns the configuration passes it back to `from_dump`.
    pub fn dump(&self) -> ClusterSchedulerDump {
        ClusterSchedulerDump {
            servers: self.servers.iter().map(ServerState::dump).collect(),
        }
    }

    /// Rebuild a scheduler from a [`ClusterSchedulerDump`] under the given
    /// scan strategy, continuing bit-identically from the dumped decision
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if the dump has no servers, servers that differ in capacity
    /// or window count, duplicate server ids, or a VM hosted on two
    /// servers. A dump decoded from the wire has none of these: the codec
    /// refuses them first.
    pub fn from_dump(dump: ClusterSchedulerDump, scan: ScanStrategy) -> Self {
        assert!(!dump.servers.is_empty(), "dump has no servers");
        let servers = dump
            .servers
            .into_iter()
            .map(ServerState::from_dump)
            .collect();
        Self::over(servers, scan)
    }
}

/// A [`ClusterScheduler`]'s servers flattened for snapshot/restore. Its
/// own type so that decoding one refuses what `from_dump` would panic on:
/// no servers, servers of different capacities or window counts, a server
/// id twice, a VM hosted on two servers.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSchedulerDump {
    /// Per-server dumps in scheduler (id) order.
    pub servers: Vec<crate::server::ServerStateDump>,
}

#[cfg(test)]
impl ClusterScheduler {
    /// Check every derived structure against the servers it derives from:
    /// the table, the VM map (server and slot), the in-use count and —
    /// under the indexed scan — each headroom bucket's membership, its
    /// mask bit, and bounds that hold for every member.
    fn assert_consistent(&self) {
        for (i, s) in self.servers.iter().enumerate() {
            assert_eq!(self.table[i], s.fit_row(), "server {i}'s table row");
            for (slot, vm) in s.slots() {
                let hosted = self.vm_to_server[&vm];
                assert_eq!((hosted.server as usize, hosted.slot), (i, slot), "{vm}");
            }
        }
        let hosted: usize = self.servers.iter().map(ServerState::vm_count).sum();
        assert_eq!(self.vm_to_server.len(), hosted, "VM map size");
        let in_use = self.servers.iter().filter(|s| s.vm_count() > 0).count();
        assert_eq!(self.in_use, in_use, "servers in use");
        if self.scan == ScanStrategy::NaiveReference {
            return;
        }
        for (b, bucket) in self.index.buckets.iter().enumerate() {
            let bit = self.index.nonempty >> b & 1 == 1;
            assert_eq!(bit, !bucket.members.is_empty(), "bucket {b}'s mask bit");
            assert!(
                bucket
                    .members
                    .windows(2)
                    .all(|w| candidate_order(w[0], w[1]).is_lt()),
                "bucket {b} out of candidate order"
            );
            if bucket.exact {
                let mut recomputed = bucket.clone();
                recomputed.exact = false;
                recomputed.tighten(&self.table);
                assert_eq!(
                    (recomputed.min_guaranteed, recomputed.max_window_slack),
                    (bucket.min_guaranteed, bucket.max_window_slack),
                    "bucket {b} claims exact bounds"
                );
            }
            for &(i, stored) in &bucket.members {
                let row = &self.table[i as usize];
                let headroom = row.free_memory(&self.capacity);
                assert_eq!(stored, headroom, "server {i}'s key");
                assert_eq!(self.index.bucket_for(headroom), b, "server {i}'s bucket");
                assert_eq!(usize::from(self.index.bucket_of[i as usize]), b);
                assert!(
                    bucket.min_guaranteed.fits(&row.guaranteed),
                    "bucket {b}'s guaranteed bound is above server {i}'s sum"
                );
                assert!(
                    row.max_window_slack.fits(&bucket.max_window_slack),
                    "bucket {b}'s slack bound is below server {i}'s loosest slack"
                );
            }
        }
    }
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

    fn units(cores: f64, mem: f64, network: f64, ssd: f64) -> Units {
        Units::round_up(&ResourceVec::new(cores, mem, network, ssd))
    }

    #[test]
    fn places_until_capacity_then_rejects() {
        let mut s = ClusterScheduler::new(&ids(2), cap(), 1);
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
    fn best_fit_consolidates() {
        let mut best = ClusterScheduler::new(&ids(3), cap(), 1);
        for i in 0..3 {
            best.place(full_demand(i, 2.0, 8.0));
        }
        assert_eq!(best.servers_in_use(), 1, "best-fit should stack");
    }

    #[test]
    fn remove_frees_capacity() {
        let mut s = ClusterScheduler::new(&ids(1), cap(), 1);
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
        let mut s = ClusterScheduler::new(&ids(2), cap(), 1);
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
            let mut window_max = vec![units(2.0, 12.0, 0.5, 16.0); 2];
            window_max[peak_w] = units(2.0, 44.0, 0.5, 16.0);
            VmDemand {
                vm: VmId::new(vm),
                requested: ResourceVec::new(4.0, 48.0, 0.5, 16.0),
                guaranteed: units(2.0, 12.0, 0.5, 16.0),
                window_max: window_max.into(),
            }
        };
        let mut s = ClusterScheduler::new(&ids(1), cap(), 2);
        assert!(matches!(s.place(mk(1, 0)), PlacementOutcome::Placed(_)));
        // Peak sum in window 0 would be 88 GB for same-peak VMs: rejected.
        assert_eq!(s.place(mk(2, 0)), PlacementOutcome::Rejected);
        // Complementary peak fits: window sums are {56, 56} <= 64.
        assert!(matches!(s.place(mk(3, 1)), PlacementOutcome::Placed(_)));
    }

    #[test]
    fn excluded_servers_are_skipped() {
        let mut s = ClusterScheduler::new(&ids(3), cap(), 1);
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
        let _ = ClusterScheduler::new(&[], cap(), 1);
    }

    #[test]
    fn dump_restore_is_exact() {
        let mut s = ClusterScheduler::new(&ids(3), cap(), 1);
        for i in 0..7 {
            s.place(full_demand(i, 2.0 + i as f64 * 0.5, 7.0 + i as f64));
        }
        s.remove(VmId::new(2));
        s.place(full_demand(50, 17.0, 64.0));
        let restored = ClusterScheduler::from_dump(s.dump(), ScanStrategy::Indexed);
        // Decision state and membership: servers (all sums), which
        // server hosts each VM, the table and the buckets' members — not
        // the cached bounds or the slots, which the rebuild makes exact and
        // dense.
        assert_eq!(s, restored);
        s.assert_consistent();
        restored.assert_consistent();
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
        a.assert_consistent();
        b.assert_consistent();
    }

    /// The same id placed twice, where best fit would put the second copy
    /// on the server that hosts the first.
    #[test]
    #[should_panic(expected = "VM vm-1 already hosted in this cluster")]
    fn a_vm_cannot_be_placed_twice_on_one_server() {
        let mut s = ClusterScheduler::new(&ids(2), cap(), 1);
        assert!(matches!(
            s.place(full_demand(1, 2.0, 8.0)),
            PlacementOutcome::Placed(_)
        ));
        s.place(full_demand(1, 2.0, 8.0));
    }

    /// The same id placed twice, where only another server has room for
    /// the second copy: placing it would lose the first copy's capacity
    /// for good (its map entry overwritten, it could never be removed).
    #[test]
    #[should_panic(expected = "VM vm-1 already hosted in this cluster")]
    fn a_vm_cannot_be_placed_twice_on_two_servers() {
        let mut s = ClusterScheduler::new(&ids(2), cap(), 1);
        assert_eq!(
            s.place(full_demand(1, 10.0, 40.0)),
            PlacementOutcome::Placed(ServerId::new(0))
        );
        s.place(full_demand(1, 10.0, 40.0));
    }

    /// The work counters on a fixed trace (three servers, two windows,
    /// best fit). A bucket is scanned in candidate order and its first
    /// feasible member is the pick, so a scan stops there:
    ///
    /// * `a`–`c` (15 cores each) fill one server each, checking the full
    ///   servers before it in the top bucket (1, 2, 3 candidates);
    /// * `d` finds all three full on CPU (3) and tightens the top bucket's
    ///   bounds; `e` is then rejected on the bounds alone (a skip);
    /// * `f` (1 core) fits server 0 (1), which moves down a bucket;
    ///   removing `a` moves it back and loosens the bounds;
    /// * `g` fits server 0 again (1) and moves it down; `h` skips its
    ///   bucket (full on CPU) and takes server 1 from the top bucket (1);
    /// * `i` peaks in the window `h` left free: server 0 is rejected
    ///   quickly and server 1 needs the window scan (2 candidates, 1 scan).
    #[test]
    fn work_counters_are_exact_on_a_fixed_trace() {
        let demand = |vm: u64, cores: f64, windows: [f64; 2]| VmDemand {
            vm: VmId::new(vm),
            requested: ResourceVec::new(cores, 40.0, 0.1, 1.0),
            guaranteed: units(cores, 1.0, 0.1, 1.0),
            window_max: windows
                .iter()
                .map(|&mem| units(cores, mem, 0.1, 1.0))
                .collect(),
        };
        let placed = |server: u64| PlacementOutcome::Placed(ServerId::new(server));
        let mut s = ClusterScheduler::new(&ids(3), cap(), 2);
        let steps = [
            (demand(1, 15.0, [1.0, 1.0]), placed(0)),
            (demand(2, 15.0, [1.0, 1.0]), placed(1)),
            (demand(3, 15.0, [1.0, 1.0]), placed(2)),
            (demand(4, 15.0, [1.0, 1.0]), PlacementOutcome::Rejected),
            (demand(5, 15.0, [1.0, 1.0]), PlacementOutcome::Rejected),
            (demand(6, 1.0, [1.0, 1.0]), placed(0)),
        ];
        for (d, outcome) in &steps {
            assert_eq!(s.place(d), *outcome, "{}", d.vm);
        }
        assert_eq!(s.remove(VmId::new(1)), Some(ServerId::new(0)));
        for (d, outcome) in [
            (demand(7, 15.0, [1.0, 1.0]), placed(0)),
            (demand(8, 0.5, [40.0, 1.0]), placed(1)),
            (demand(9, 0.5, [1.0, 40.0]), placed(1)),
        ] {
            assert_eq!(s.place(&d), outcome, "{}", d.vm);
        }
        s.assert_consistent();
        assert_eq!(
            s.work(),
            PlaceWork {
                places: 9,
                candidates: 14,
                buckets_skipped: 2,
                window_scans: 1,
            }
        );
        // A restored scheduler counts its own placements from zero.
        let restored = ClusterScheduler::from_dump(s.dump(), s.scan);
        assert_eq!(restored.work(), PlaceWork::default());
    }

    /// The probe estimator's work is exact: each feasibility check either
    /// places a probe or retires its (server, rotation) for the rest of the
    /// fill, and the fill ends when every pair is retired, so a fill of
    /// `count` probes runs `count + servers × windows` checks — never more.
    /// Its count is that of a fill through `place`, on clusters
    /// churned by three seeded sequences of places and removes.
    #[test]
    fn probe_fill_checks_are_bounded() {
        let windows = 6;
        let servers = 32u64;
        let request = ResourceVec::new(4.0, 16.0, 1.0, 64.0);
        let templates: Vec<VmDemand> = (0..windows)
            .map(|rotation| VmDemand {
                vm: VmId::new(0),
                requested: request,
                guaranteed: Units::round_up(&(request * 0.5)),
                window_max: (0..windows)
                    .map(|w| Units::round_up(&(request * if w == rotation { 0.9 } else { 0.6 })))
                    .collect(),
            })
            .collect();
        for seed in [2026u64, 7, 23] {
            let mut sched = ClusterScheduler::new(&ids(servers), cap(), windows);
            let mut state = seed;
            let mut draw = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for vm in 0..300u64 {
                if draw() % 2 == 0 {
                    sched.remove(VmId::new(draw() % (vm + 1)));
                    continue;
                }
                let frac = |r: u64| 0.05 + (r % 60) as f64 / 100.0;
                let guaranteed = Units::round_up(&(request * frac(draw()) * 0.5));
                let window_max = (0..windows)
                    .map(|_| Units::round_up(&(request * frac(draw()))).max(&guaranteed))
                    .collect();
                let _ = sched.place(VmDemand {
                    vm: VmId::new(vm),
                    requested: request,
                    guaranteed,
                    window_max,
                });
            }
            let (count, fits_checks) = sched.probe_fill(&templates);

            let mut fill = sched.clone();
            let (mut placed, mut rejections, mut rotation, mut id) = (0u64, 0, 0, 1u64 << 40);
            while rejections < windows {
                let mut probe = templates[rotation].clone();
                probe.vm = VmId::new(id);
                id += 1;
                match fill.place(&probe) {
                    PlacementOutcome::Placed(_) => {
                        placed += 1;
                        rejections = 0;
                    }
                    PlacementOutcome::Rejected => rejections += 1,
                }
                rotation = (rotation + 1) % windows;
            }
            assert!(count > 0, "the churned cluster has room");
            assert_eq!(count, placed);
            assert_eq!(
                fits_checks,
                count + servers * windows as u64,
                "{fits_checks} checks for {count} probes"
            );
        }
    }

    #[test]
    #[should_panic(expected = "hosted on two servers")]
    fn dump_with_conflicting_hosting_rejected() {
        let mut s = ClusterScheduler::new(&ids(2), cap(), 1);
        s.place(full_demand(1, 2.0, 8.0));
        // Best fit would stack VM 2 on VM 1's server: keep it off.
        s.place_excluding(full_demand(2, 2.0, 8.0), &[ServerId::new(0)]);
        let mut dump = s.dump();
        // Claim VM 1 on both servers (ahead of VM 2: dumps are id-sorted),
        // each server's sums its own rows'.
        let (vm, row) = dump.servers[0].vms[0].clone();
        let to = &mut dump.servers[1];
        to.guaranteed_sum += row.guaranteed;
        to.window_sum[0] += row.window_max()[0];
        to.vms.insert(0, (vm, row));
        let _ = ClusterScheduler::from_dump(dump, ScanStrategy::Indexed);
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

    /// A demand of `request × fraction`, each fraction anywhere in
    /// `[0.05, 1)`, put on the grid by rounding up.
    fn demand_from(i: usize, window_fracs: &[f64], guar_frac: f64) -> VmDemand {
        let request = ResourceVec::new(8.0, 32.0, 4.0, 256.0);
        let guaranteed = Units::round_up(&(request * guar_frac));
        let window_max: Vec<Units> = window_fracs
            .iter()
            .map(|f| Units::round_up(&(request * *f)).max(&guaranteed))
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
            let mut sched = ClusterScheduler::new(&ids, capacity, 3);

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
                    prop_assert!(commitment.max_element() <= 1.0,
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
            let mut sched = ClusterScheduler::new(&ids, capacity, 6);
            let request = ResourceVec::new(4.0, 16.0, 1.0, 64.0);
            let guaranteed = Units::round_up(&(request * fracs[0].min(0.9)));
            let demand = VmDemand {
                vm: VmId::new(1),
                requested: request,
                guaranteed,
                window_max: fracs
                    .iter()
                    .map(|f| Units::round_up(&(request * *f)).max(&guaranteed))
                    .collect(),
            };
            let before = sched.clone();
            prop_assert!(matches!(sched.place(demand), PlacementOutcome::Placed(_)));
            sched.remove(VmId::new(1));
            // State returns exactly to where it started.
            prop_assert!(sched == before);
            prop_assert_eq!(&sched.table, &before.table);
        }

        /// The tentpole differential test: under random churn, the indexed
        /// scheduler makes placement-for-placement identical decisions to
        /// the retained naive scan — same accept/reject sequence, same
        /// server ids.
        #[test]
        fn prop_indexed_matches_naive(ops in prop::collection::vec(arb_demand(3), 1..120)) {
            let capacity = ResourceVec::new(16.0, 64.0, 10.0, 1024.0);
            let ids: Vec<ServerId> = (0..5).map(ServerId::new).collect();
            let mut indexed = ClusterScheduler::new(&ids, capacity, 3);
            let mut naive = ClusterScheduler::with_strategy(
                &ids, capacity, 3, PlacementHeuristic::BestFit, ScanStrategy::NaiveReference,
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

        /// Under random churn of one- and three-window placements and
        /// removals, every bucket's bounds hold
        /// for every member and its mask bit matches its emptiness after
        /// every step (with the table and the VM map in step too). Some
        /// demands have their memory scaled down a hundred- or
        /// thousandfold (integer division keeps every window at or above
        /// the guaranteed part), so a server's row also changes without its
        /// headroom leaving its bucket.
        #[test]
        fn prop_bucket_bounds_stay_conservative(
            ops in prop::collection::vec((arb_demand(3), 0u8..4, 0usize..3), 1..120),
        ) {
            let capacity = ResourceVec::new(16.0, 64.0, 10.0, 1024.0);
            let ids: Vec<ServerId> = (0..6).map(ServerId::new).collect();
            let mut sched = ClusterScheduler::new(&ids, capacity, 3);
            for (i, ((vm_raw, window_fracs, guar_frac), kind, shape)) in ops.iter().enumerate() {
                if *kind == 0 {
                    sched.remove(VmId::new(1000 + vm_raw % (i as u64 + 1)));
                } else {
                    let windows = if *kind == 1 { &window_fracs[..1] } else { &window_fracs[..] };
                    let mut d = demand_from(i, windows, *guar_frac);
                    let scale = [1, 100, 1000][*shape];
                    d.requested.0[1] /= f64::from(scale);
                    d.guaranteed.0[1] /= scale;
                    for w in d.window_max.iter_mut() {
                        w.0[1] /= scale;
                    }
                    sched.place(d);
                }
                sched.assert_consistent();
            }
        }
    }
}
