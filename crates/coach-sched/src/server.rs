//! Per-server scheduling state: the W+1-dimensional feasibility vectors
//! and — per hosted VM — only what deallocation must subtract again.
//!
//! §3.3 has the scheduler keep W+1 sums per server, here inline in the
//! server for every shipped window partition. Every quantity is a
//! [`Units`] vector on the integer grid the demand was quantized to
//! (`demand.rs`), so a sum is exact: it is the same whatever order its
//! VMs arrived and left in, and a departure returns it to exactly what it
//! was. Besides the sums, its id and its capacity (rounded down onto the
//! grid), a server keeps only one slot per hosted VM: its id and a
//! [`HostedDemand`] row of the guaranteed vector plus the per-window
//! maxima of Formulas 1–2, 48 bytes together. A one-window demand (the
//! `None` / `Single` policies, or no prediction) carries its one window
//! inline; only a W-window demand carries W, boxed (96 bytes for six). The
//! customer's request is not kept: nothing reads it after placement.
//!
//! A departure empties its own slot and nothing else: the slot goes on a
//! free list that the server's next placement takes first, so no other
//! VM's row moves. The scheduler knows each VM's slot — its VM map holds
//! `(server, slot)` — so it places through the crate-private `place_new`
//! and removes through `remove_slot` without scanning the slots; only the
//! public by-id `place` (its duplicate check) and `remove(vm)` scan them.
//!
//! The W+1 sums and the rule that reads them live here once. `Sums` holds
//! the sums, with `fits` (the exact check) and `add` (the commit). A
//! `FitRow` is a server's *summary* of them — the guaranteed sum and the
//! tightest and loosest window slack, 48 bytes — with the quick part of
//! the rule: `quick_fit` decides most candidates from the row alone, and
//! only when it cannot does the exact per-window scan (`windows_fit`) read
//! the window sums. The scheduler keeps one `FitRow` per server in a
//! contiguous table and bounds whole headroom buckets with the same
//! `rejects` test; the scheduler's scan and the probe estimator's scratch
//! copies both call these functions — there is no second copy of the rule
//! to keep in step.
//!
//! The hot path (`can_fit` → `place`/`remove`) never materializes a
//! normalized vector: demands whose window count differs from the server's
//! are broadcast by iteration, and placing a one-window demand allocates
//! nothing once the columns have room. No decision reads the Formula 4
//! memory pools, so a server keeps no sums for them: the report-time
//! queries (`oversub_pool_memory`, `oversub_pool_memory_summed`) fold the
//! hosted rows on demand.
//!
//! The columns are never shrunk. A departure frees the boxed windows at
//! once; the slots (48 bytes each) stay at the most VMs the server has
//! hosted at one time, which the hardware bounds and the length of the
//! stream does not. A full slot column grows by a quarter, not by doubling
//! (`push_by_quarter`), so it keeps at most a quarter of its length plus
//! one slot empty.

use crate::demand::VmDemand;
use coach_types::prelude::*;
use coach_types::push_by_quarter;

/// What a server keeps of a hosted VM's demand: the guaranteed portion and
/// the per-window maxima, which is all `remove` subtracts.
#[derive(Debug, Clone, PartialEq)]
pub struct HostedDemand {
    /// Guaranteed portion (Formula 1 × request).
    pub guaranteed: Units,
    window_max: WindowMaxima,
}

/// One window inline, or one per server window on the heap.
#[derive(Debug, Clone, PartialEq)]
enum WindowMaxima {
    One(Units),
    PerWindow(Box<[Units]>),
}

impl HostedDemand {
    /// Keep `guaranteed` and a copy of `window_max`; a single window is
    /// stored inline, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `window_max` is empty.
    pub fn new(guaranteed: Units, window_max: &[Units]) -> Self {
        let window_max = match window_max {
            [] => panic!("demand has at least one window"),
            [one] => WindowMaxima::One(*one),
            many => WindowMaxima::PerWindow(many.into()),
        };
        HostedDemand {
            guaranteed,
            window_max,
        }
    }

    /// [`HostedDemand::new`] for maxima already on the heap (the codec's).
    /// `window_max` holds at least two windows.
    pub(crate) fn per_window(guaranteed: Units, window_max: Box<[Units]>) -> Self {
        debug_assert!(window_max.len() > 1, "one window is kept inline");
        HostedDemand {
            guaranteed,
            window_max: WindowMaxima::PerWindow(window_max),
        }
    }

    /// Predicted maximum demand per time window: one entry (broadcast to
    /// every server window) or one per server window.
    pub fn window_max(&self) -> &[Units] {
        match &self.window_max {
            WindowMaxima::One(one) => std::slice::from_ref(one),
            WindowMaxima::PerWindow(many) => many,
        }
    }
}

/// Window `w` of per-window maxima: a one-window demand is broadcast to
/// every server window.
#[inline]
fn window(window_max: &[Units], w: usize) -> &Units {
    if window_max.len() == 1 {
        &window_max[0]
    } else {
        &window_max[w]
    }
}

/// A server's W+1 commitment sums per resource (§3.3: "the number of
/// windows plus one"), with the one feasibility check that reads them and
/// the one commit that adds to them.
///
/// Invariant: each sum is exactly the sum over the hosted VMs of their
/// rows, and at most the capacity — whatever order they were placed and
/// removed in, so a scratch copy starts from the scheduler's own state and
/// a dump can be checked against its rows.
#[derive(Debug, Clone)]
pub(crate) struct Sums {
    /// Σ over hosted VMs of `guaranteed` (the Formula 3 dimension).
    pub(crate) guaranteed: Units,
    /// Per-window Σ over hosted VMs of `window_max[w]`, inline in the
    /// server for the shipped partitions (≤ [`WindowVec::INLINE`] windows).
    pub(crate) windows: WindowVec<Units>,
}

/// The quick reject, from a guaranteed sum and a loosest window slack:
/// the guaranteed part overflows, or the demand's mildest window
/// (`trough`, [`VmDemand::window_trough`]) overflows the loosest slack on
/// some resource, so it overflows every window there.
///
/// Monotone in its inputs: a larger `guaranteed` or a smaller
/// `max_window_slack`, element-wise, can only turn a `false` into a
/// `true`, because integer addition and `≤` are exact (`a ≤ b ⇒ a + c ≤
/// b + c`). So `rejects` on an element-wise lower bound of several
/// servers' guaranteed sums and an upper bound of their loosest slacks
/// implies `rejects` on every one of them — the scheduler's bucket skip.
#[inline]
pub(crate) fn rejects(
    guaranteed: &Units,
    max_window_slack: &Units,
    capacity: &Units,
    d: &VmDemand,
    trough: &Units,
) -> bool {
    !guaranteed.fits_with(&d.guaranteed, capacity) || !trough.fits(max_window_slack)
}

/// What the quick part of the W+1 check reads of a server: the guaranteed
/// sum and the window-slack summaries (see [`ServerState::fit_row`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FitRow {
    /// Σ guaranteed over hosted VMs.
    pub(crate) guaranteed: Units,
    /// Element-wise min over windows of `capacity - window_sum[w]`.
    pub(crate) min_window_slack: Units,
    /// Element-wise max over windows of `capacity - window_sum[w]`.
    pub(crate) max_window_slack: Units,
}

impl FitRow {
    /// Decide the W+1 check from the row alone where it can: `Some(false)`
    /// when [`rejects`] holds, `Some(true)` when the demand's worst window
    /// (`peak`, [`VmDemand::window_peak`]) fits the tightest slack (so it
    /// fits every window), `None` when only the exact per-window scan can
    /// tell. The two quick answers exclude each other: `trough ≤ peak`
    /// and `min ≤ max` slack, so a peak that fits the tightest slack has a
    /// trough that fits the loosest.
    #[inline]
    pub(crate) fn quick_fit(
        &self,
        capacity: &Units,
        d: &VmDemand,
        peak: &Units,
        trough: &Units,
    ) -> Option<bool> {
        if rejects(
            &self.guaranteed,
            &self.max_window_slack,
            capacity,
            d,
            trough,
        ) {
            Some(false)
        } else if peak.fits(&self.min_window_slack) {
            Some(true)
        } else {
            None
        }
    }

    /// Remaining guaranteed memory in grid units: best fit's key.
    #[inline]
    pub(crate) fn free_memory(&self, capacity: &Units) -> u32 {
        free_memory(&self.guaranteed, capacity)
    }
}

/// Remaining guaranteed memory in grid units.
#[inline]
fn free_memory(guaranteed: &Units, capacity: &Units) -> u32 {
    let m = ResourceKind::Memory;
    capacity[m].saturating_sub(guaranteed[m])
}

impl Sums {
    /// The exact per-window scan (no allocation): every window's sum plus
    /// the demand's maximum for it within `capacity`.
    #[inline]
    fn windows_fit(&self, capacity: &Units, d: &VmDemand) -> bool {
        if d.window_count() == self.windows.len() {
            d.window_max
                .iter()
                .zip(&self.windows)
                .all(|(w, sum)| sum.fits_with(w, capacity))
        } else {
            let w = &d.window_max[0];
            self.windows.iter().all(|sum| sum.fits_with(w, capacity))
        }
    }

    /// The combined W+1 check. The caller has validated the demand's
    /// window count (one, or the server's).
    #[inline]
    pub(crate) fn fits(&self, capacity: &Units, d: &VmDemand) -> bool {
        self.guaranteed.fits_with(&d.guaranteed, capacity) && self.windows_fit(capacity, d)
    }

    /// Commit a demand that [`Sums::fits`]: add its guaranteed vector and
    /// each window's maximum.
    #[inline]
    pub(crate) fn add(&mut self, d: &VmDemand) {
        self.guaranteed += d.guaranteed;
        for (w, sum) in self.windows.iter_mut().enumerate() {
            *sum += *window(&d.window_max, w);
        }
    }

    /// Remaining guaranteed memory in grid units: best fit's key.
    #[inline]
    pub(crate) fn free_memory(&self, capacity: &Units) -> u32 {
        free_memory(&self.guaranteed, capacity)
    }
}

/// One slot of a server: a hosted VM and what it was placed with, or a
/// free slot linking to the next free one.
#[derive(Debug, Clone)]
enum Slot {
    Hosted(VmId, HostedDemand),
    Free { next: u32 },
}

/// The end of the free list.
const NO_SLOT: u32 = u32::MAX;

const _: () = assert!(std::mem::size_of::<HostedDemand>() <= 40);
const _: () = assert!(std::mem::size_of::<Slot>() <= 48);
const _: () = assert!(std::mem::size_of::<FitRow>() <= 48);

/// One server's packing state under time-window scheduling (§3.3).
///
/// Feasibility is the combined vector check the paper describes: for each
/// resource, `Σ window_max[w] ≤ capacity` in every window *and*
/// `Σ guaranteed ≤ capacity` — "the scheduler considers the number of
/// windows plus one for each resource".
///
/// Equality is that of the [`ServerState::dump`]s: two servers that host
/// the same VMs with the same sums are equal whatever slots departures
/// left their VMs in.
#[derive(Debug, Clone)]
pub struct ServerState {
    id: ServerId,
    capacity: Units,
    sums: Sums,
    /// One slot per VM. The free ones form a list through their links,
    /// last freed first: the next placement takes `free_head`.
    slots: Vec<Slot>,
    free_head: u32,
    hosted: usize,
}

impl PartialEq for ServerState {
    fn eq(&self, other: &Self) -> bool {
        // Which slot holds which VM, and which slots are free, is left
        // out: no decision reads it.
        self.dump() == other.dump()
    }
}

impl ServerState {
    /// Create an empty server with `windows` time windows per day. Its
    /// capacity is `capacity` rounded down onto the grid.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero or capacity is invalid.
    pub fn new(id: ServerId, capacity: ResourceVec, windows: usize) -> Self {
        assert!(windows > 0, "need at least one window");
        let units = Units::round_down(&capacity);
        assert!(capacity.is_valid() && !units.is_zero(), "invalid capacity");
        ServerState {
            id,
            capacity: units,
            sums: Sums {
                guaranteed: Units::ZERO,
                windows: WindowVec::from_elem(Units::ZERO, windows),
            },
            slots: Vec::new(),
            free_head: NO_SLOT,
            hosted: 0,
        }
    }

    /// Server id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Hardware capacity, as the grid holds it.
    pub fn capacity(&self) -> ResourceVec {
        self.capacity.to_resources()
    }

    /// Hardware capacity in grid units.
    pub(crate) fn capacity_units(&self) -> Units {
        self.capacity
    }

    /// Number of hosted VMs.
    pub fn vm_count(&self) -> usize {
        self.hosted
    }

    /// Hosted VM ids, in slot order.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.hosted().map(|(vm, _)| vm)
    }

    /// The occupied slots, their VMs and rows, in slot order.
    fn occupied(&self) -> impl Iterator<Item = (u32, VmId, &HostedDemand)> + '_ {
        (0u32..)
            .zip(&self.slots)
            .filter_map(|(i, slot)| match slot {
                Slot::Hosted(vm, row) => Some((i, *vm, row)),
                Slot::Free { .. } => None,
            })
    }

    /// The occupied slots' ids and rows, in slot order.
    fn hosted(&self) -> impl Iterator<Item = (VmId, &HostedDemand)> + '_ {
        self.occupied().map(|(_, vm, row)| (vm, row))
    }

    /// The occupied slots and the VM in each, for a scheduler rebuilding
    /// its VM map.
    pub(crate) fn slots(&self) -> impl Iterator<Item = (u32, VmId)> + '_ {
        self.occupied().map(|(i, vm, _)| (i, vm))
    }

    /// Time windows per day.
    pub(crate) fn windows(&self) -> usize {
        self.sums.windows.len()
    }

    /// What the server keeps of a hosted VM's demand.
    pub fn demand(&self, vm: VmId) -> Option<&HostedDemand> {
        self.hosted()
            .find_map(|(id, row)| (id == vm).then_some(row))
    }

    /// The slot hosting `vm`: a scan of the slots.
    #[inline]
    fn position(&self, vm: VmId) -> Option<u32> {
        self.slots()
            .find_map(|(slot, id)| (id == vm).then_some(slot))
    }

    /// Validate the demand's window count against the server's, panicking on
    /// a real mismatch. Returns `true` when the demand must be broadcast
    /// (it has exactly one window, the server more).
    #[inline]
    pub(crate) fn check_windows(&self, d: &VmDemand) -> bool {
        let n = d.window_count();
        let windows = self.sums.windows.len();
        if n == windows {
            false
        } else if n == 1 {
            true
        } else {
            panic!("demand has {n} windows but server packs {windows}");
        }
    }

    /// The combined feasibility check (§3.3).
    ///
    /// # Panics
    ///
    /// Panics if the demand's window count is neither 1 nor the server's.
    pub fn can_fit(&self, d: &VmDemand) -> bool {
        self.check_windows(d);
        self.sums.fits(&self.capacity, d)
    }

    /// The exact per-window part of the check, for when
    /// [`FitRow::quick_fit`] cannot decide. The caller has validated the
    /// demand's window count.
    #[inline]
    pub(crate) fn windows_fit(&self, d: &VmDemand) -> bool {
        self.sums.windows_fit(&self.capacity, d)
    }

    /// The server's summary for the quick checks, one 48-byte row: its
    /// guaranteed sum and the elementwise min and max over windows of
    /// `capacity - window_sum[w]` — the tightest window slack (a demand
    /// whose per-window peak fits it fits every window) and the loosest (a
    /// demand whose per-window trough overflows it on some resource
    /// overflows every window). O(windows); the scheduler computes it once
    /// per place or remove and keeps it in its table.
    pub(crate) fn fit_row(&self) -> FitRow {
        let window_sum = &self.sums.windows;
        let mut min = self.capacity.saturating_sub(&window_sum[0]);
        let mut max = min;
        for sum in &window_sum[1..] {
            let slack = self.capacity.saturating_sub(sum);
            min = min.min(&slack);
            max = max.max(&slack);
        }
        FitRow {
            guaranteed: self.sums.guaranteed,
            min_window_slack: min,
            max_window_slack: max,
        }
    }

    /// Place a VM, keeping a [`HostedDemand`] of it. Returns whether it was
    /// placed: `false` if it does not fit or the VM is already hosted, and
    /// then nothing changed.
    pub fn place(&mut self, d: &VmDemand) -> bool {
        self.position(d.vm).is_none() && self.place_new(d).is_some()
    }

    /// Place a VM the caller knows this server does not host (the
    /// scheduler's VM map says so), skipping the id scan. Returns the slot
    /// it took, or `None` — and nothing changed — if it does not fit.
    ///
    /// # Panics
    ///
    /// Panics if the demand's window count is neither 1 nor the server's.
    pub(crate) fn place_new(&mut self, d: &VmDemand) -> Option<u32> {
        if !self.can_fit(d) {
            return None;
        }
        self.sums.add(d);
        let hosted = Slot::Hosted(d.vm, HostedDemand::new(d.guaranteed, &d.window_max));
        self.hosted += 1;
        if self.free_head == NO_SLOT {
            push_by_quarter(&mut self.slots, hosted);
            let slot = u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 slots");
            assert!(slot != NO_SLOT, "fewer than 2^32 - 1 slots");
            return Some(slot);
        }
        let slot = self.free_head;
        match std::mem::replace(&mut self.slots[slot as usize], hosted) {
            Slot::Free { next } => self.free_head = next,
            Slot::Hosted(..) => unreachable!("the free list links free slots"),
        }
        Some(slot)
    }

    /// Remove a VM, subtracting what it was placed with. Returns whether
    /// it was hosted.
    pub fn remove(&mut self, vm: VmId) -> bool {
        let Some(slot) = self.position(vm) else {
            return false;
        };
        self.remove_slot(slot);
        true
    }

    /// Remove the VM in `slot` (as [`Self::place_new`] returned it): read
    /// its row, subtract it, and free the slot. No other slot is touched.
    /// The sums go back to exactly what they were before its placement,
    /// less what was placed since.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub(crate) fn remove_slot(&mut self, slot: u32) {
        let free = Slot::Free {
            next: self.free_head,
        };
        let Slot::Hosted(_, d) = std::mem::replace(&mut self.slots[slot as usize], free) else {
            panic!("a hosted VM's slot holds its row");
        };
        self.free_head = slot;
        self.hosted -= 1;
        let window_max = d.window_max();
        self.sums.guaranteed -= d.guaranteed;
        for (w, sum) in self.sums.windows.iter_mut().enumerate() {
            *sum -= *window(window_max, w);
        }
    }

    /// Formula (3): total guaranteed memory, GB.
    pub fn guaranteed_memory(&self) -> f64 {
        self.sums.guaranteed.memory_gb()
    }

    /// Each hosted VM's VA (oversubscribed) memory demand per server
    /// window, `(window_max[w] − guaranteed)⁺` of memory in grid units, in
    /// slot order.
    fn va_memory(&self) -> impl Iterator<Item = impl Iterator<Item = u64> + '_> + '_ {
        let windows = self.windows();
        let m = ResourceKind::Memory;
        self.hosted().map(move |(_, d)| {
            let guaranteed = d.guaranteed[m];
            (0..windows)
                .map(move |w| u64::from(window(d.window_max(), w)[m].saturating_sub(guaranteed)))
        })
    }

    /// Formula (4): the multiplexed oversubscribed memory pool —
    /// `max over windows of Σ VA_demand(vm, w)`, GB. Folds the hosted rows
    /// (O(VMs × windows)); no decision reads it.
    pub fn oversub_pool_memory(&self) -> f64 {
        let mut per_window = vec![0u64; self.windows()];
        for va in self.va_memory() {
            for (sum, va) in per_window.iter_mut().zip(va) {
                *sum += va;
            }
        }
        Units::memory_sum_gb(per_window.into_iter().max().unwrap_or(0))
    }

    /// The non-multiplexed alternative: `Σ over VMs of max_w VA_demand` —
    /// what you'd reserve without exploiting complementary patterns (the
    /// Formula 4 ablation; always ≥ [`ServerState::oversub_pool_memory`]).
    /// Folds the hosted rows, like it.
    pub fn oversub_pool_memory_summed(&self) -> f64 {
        Units::memory_sum_gb(self.va_memory().map(|va| va.max().unwrap_or(0)).sum())
    }

    /// Remaining guaranteed headroom per resource.
    pub fn free_guaranteed(&self) -> ResourceVec {
        self.capacity
            .saturating_sub(&self.sums.guaranteed)
            .to_resources()
    }

    /// The tightest per-resource window slack (min over windows of
    /// `capacity - window_sum[w]`).
    pub fn min_window_slack(&self) -> ResourceVec {
        self.fit_row().min_window_slack.to_resources()
    }

    /// The worst (largest) per-window committed fraction of capacity.
    pub fn peak_commitment(&self) -> ResourceVec {
        self.sums
            .windows
            .iter()
            .fold(Units::ZERO, |acc, v| acc.max(v))
            .to_resources()
            .fraction_of(&self.capacity.to_resources())
    }

    /// The W+1 sums `can_fit` reads, for the probe estimator's scratch
    /// copies.
    pub(crate) fn sums(&self) -> &Sums {
        &self.sums
    }

    /// Serialize the full packing state for snapshot/restore: the sums,
    /// and the hosted demands sorted by [`VmId`] — which slot a VM took
    /// depends on the departures before it, and sorting makes the encoding
    /// canonical. The sums are the rows' sums in any order, so a restored
    /// server makes every later decision the live one would.
    pub fn dump(&self) -> ServerStateDump {
        let mut vms: Vec<(VmId, HostedDemand)> =
            self.hosted().map(|(vm, row)| (vm, row.clone())).collect();
        vms.sort_unstable_by_key(|(vm, _)| *vm);
        ServerStateDump {
            id: self.id,
            capacity: self.capacity,
            windows: self.sums.windows.len(),
            guaranteed_sum: self.sums.guaranteed,
            window_sum: self.sums.windows.to_vec(),
            vms,
        }
    }

    /// Rebuild a server from a [`ServerStateDump`]: the sums verbatim, the
    /// hosted VMs in dense slots.
    ///
    /// # Panics
    ///
    /// Panics if the dump fails [`ServerStateDump::is_consistent`]. A dump
    /// decoded from the wire never does: the codec refuses it first.
    pub fn from_dump(dump: ServerStateDump) -> Self {
        assert!(dump.is_consistent(), "inconsistent server dump");
        let hosted = dump.vms.len();
        let slots = dump
            .vms
            .into_iter()
            .map(|(vm, row)| Slot::Hosted(vm, row))
            .collect();
        ServerState {
            id: dump.id,
            capacity: dump.capacity,
            sums: Sums {
                guaranteed: dump.guaranteed_sum,
                windows: dump.window_sum.into_iter().collect(),
            },
            slots,
            free_head: NO_SLOT,
            hosted,
        }
    }
}

/// A [`ServerState`] flattened for snapshot/restore: its sums plus the
/// hosted demands sorted by id.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStateDump {
    /// Server id.
    pub id: ServerId,
    /// Hardware capacity in grid units.
    pub capacity: Units,
    /// Time windows per day.
    pub windows: usize,
    /// Σ guaranteed over hosted VMs.
    pub guaranteed_sum: Units,
    /// Per-window commitment sums.
    pub window_sum: Vec<Units>,
    /// Hosted demands, sorted ascending by [`VmId`].
    pub vms: Vec<(VmId, HostedDemand)>,
}

impl ServerStateDump {
    /// Whether a server can be rebuilt from this dump: a nonzero capacity,
    /// at least one window, one sum per window, hosted VMs in strictly
    /// ascending id order (so none twice), each with one window or one per
    /// server window, and sums that are exactly the hosted rows' sums and
    /// within the capacity — anything else and `remove` would subtract
    /// what was never added.
    pub fn is_consistent(&self) -> bool {
        !self.capacity.is_zero()
            && self.windows > 0
            && self.window_sum.len() == self.windows
            && self.vms.windows(2).all(|pair| pair[0].0 < pair[1].0)
            && self.vms.iter().all(|(_, d)| {
                let n = d.window_max().len();
                n == 1 || n == self.windows
            })
            && self.sums_are_the_rows()
    }

    /// Every sum equals the fold of the hosted rows, taken in `u64` so a
    /// hostile dump cannot wrap it, and fits the capacity.
    fn sums_are_the_rows(&self) -> bool {
        fn add(total: &mut [u64; ResourceKind::COUNT], row: &Units) {
            for (t, v) in total.iter_mut().zip(row.0) {
                *t += u64::from(v);
            }
        }
        let mut guaranteed = [0; ResourceKind::COUNT];
        let mut windows = vec![[0; ResourceKind::COUNT]; self.windows];
        for (_, d) in &self.vms {
            add(&mut guaranteed, &d.guaranteed);
            for (w, total) in windows.iter_mut().enumerate() {
                add(total, window(d.window_max(), w));
            }
        }
        let exact = |total: &[u64; ResourceKind::COUNT], sum: &Units| {
            *total == sum.0.map(u64::from) && sum.fits(&self.capacity)
        };
        exact(&guaranteed, &self.guaranteed_sum)
            && windows
                .iter()
                .zip(&self.window_sum)
                .all(|(total, sum)| exact(total, sum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(vm: u64, guar_mem: f64, win_mem: [f64; 3]) -> VmDemand {
        let g = ResourceVec::new(1.0, guar_mem, 0.1, 1.0);
        VmDemand {
            vm: VmId::new(vm),
            requested: ResourceVec::new(4.0, 32.0, 1.0, 64.0),
            guaranteed: Units::round_up(&g),
            window_max: win_mem
                .iter()
                .map(|&m| Units::round_up(&ResourceVec::new(1.0, m.max(guar_mem), 0.1, 1.0)))
                .collect(),
        }
    }

    fn server() -> ServerState {
        ServerState::new(
            ServerId::new(0),
            ResourceVec::new(48.0, 48.0, 40.0, 4096.0),
            3,
        )
    }

    #[test]
    fn paper_fig16_example() {
        // Two 32 GB CoachVMs in a 48 GB server with 3 windows (Fig 16).
        // CVM1: PA-demand 16, window max {28, 8, 22} -> VA {12, 0, 6}.
        // CVM2: PA-demand 12, window max {10, 18, 24} -> VA {0, 6, 12}.
        let mut s = server();
        let cvm1 = demand(1, 16.0, [28.0, 8.0, 22.0]);
        let cvm2 = demand(2, 12.0, [10.0, 18.0, 24.0]);
        assert!(s.can_fit(&cvm1));
        assert!(s.place(&cvm1));
        assert!(s.can_fit(&cvm2));
        assert!(s.place(&cvm2));

        // Formula 3: guaranteed = 16 + 12 = 28 GB.
        assert_eq!(s.guaranteed_memory(), 28.0);
        // Formula 4: multiplexed VA = max(12+0, 0+6, 6+12) = 18... the
        // paper's figure maps to a 16 GB VA pool after granularity; our raw
        // formula value is max over windows of summed VA.
        assert_eq!(s.oversub_pool_memory(), 18.0);
        // Non-multiplexed: 12 + 12 = 24 GB > 18 GB.
        assert_eq!(s.oversub_pool_memory_summed(), 24.0);
        // Total allocation = 28 + 18 = 46 <= 48 GB for two 32 GB VMs.
        assert!(s.guaranteed_memory() + s.oversub_pool_memory() <= 48.0);
    }

    #[test]
    fn feasibility_is_per_window() {
        let mut s = server();
        // Fills window 0 with 40 GB.
        assert!(s.place(&demand(1, 8.0, [40.0, 8.0, 8.0])));
        // Another 40 GB peak in window 0 cannot fit (80 > 48)...
        assert!(!s.can_fit(&demand(2, 8.0, [40.0, 8.0, 8.0])));
        // ...but a complementary VM peaking in window 1 fits.
        assert!(s.can_fit(&demand(3, 8.0, [8.0, 40.0, 8.0])));
    }

    #[test]
    fn guaranteed_dimension_checked() {
        let mut s = server();
        // Three VMs each guaranteeing 20 GB: windows fine, guaranteed not.
        assert!(s.place(&demand(1, 20.0, [20.0, 20.0, 20.0])));
        assert!(s.place(&demand(2, 20.0, [20.0, 20.0, 20.0])));
        let third = demand(3, 20.0, [20.0, 20.0, 20.0]);
        assert!(!s.can_fit(&third), "3 x 20 GB guaranteed > 48 GB");
    }

    #[test]
    fn place_remove_roundtrip() {
        let mut s = server();
        let d = demand(1, 16.0, [28.0, 8.0, 22.0]);
        assert!(s.place(&d));
        assert_eq!(s.vm_count(), 1);
        let kept = s.demand(VmId::new(1)).unwrap();
        assert_eq!(kept.guaranteed, d.guaranteed);
        assert_eq!(kept.window_max(), &d.window_max[..]);
        assert!(s.remove(VmId::new(1)));
        assert_eq!(s.vm_count(), 0);
        assert_eq!(s.guaranteed_memory(), 0.0);
        assert_eq!(s.oversub_pool_memory(), 0.0);
        assert!(!s.remove(VmId::new(1)));
    }

    #[test]
    fn duplicate_placement_rejected() {
        let mut s = server();
        assert!(s.place(&demand(1, 8.0, [8.0, 8.0, 8.0])));
        assert!(!s.place(&demand(1, 8.0, [8.0, 8.0, 8.0])));
    }

    #[test]
    fn single_window_demand_broadcasts() {
        let mut s = server();
        let d = VmDemand::unpredicted(VmId::new(9), ResourceVec::new(4.0, 16.0, 1.0, 64.0));
        assert_eq!(d.window_count(), 1);
        assert!(s.place(&d));
        assert_eq!(s.guaranteed_memory(), 16.0);
        // All three windows carry the same load.
        assert_eq!(s.peak_commitment().memory(), 16.0 / 48.0);
    }

    #[test]
    #[should_panic(expected = "windows")]
    fn mismatched_window_count_panics() {
        let s = server();
        let mut d = demand(1, 8.0, [8.0, 8.0, 8.0]);
        // Truncate to 2 windows vs the server's 3.
        d.window_max = d.window_max.iter().take(2).copied().collect();
        let _ = s.can_fit(&d);
    }

    #[test]
    fn multiplexed_pool_never_exceeds_summed() {
        let mut s = server();
        for i in 0..4 {
            let mut win = [4.0, 4.0, 4.0];
            win[(i % 3) as usize] = 10.0;
            let _ = s.place(&demand(i, 2.0, win));
        }
        assert!(s.oversub_pool_memory() <= s.oversub_pool_memory_summed());
    }

    /// The scheduler's two steps — the row's quick answer, else the window
    /// scan — against the one-step check.
    #[test]
    fn quick_fit_or_window_scan_matches_can_fit() {
        let mut s = server();
        assert!(s.place(&demand(1, 8.0, [40.0, 8.0, 8.0])));
        for (guar, win) in [
            (8.0, [40.0, 8.0, 8.0]),
            (8.0, [8.0, 40.0, 8.0]),
            (20.0, [20.0, 20.0, 20.0]),
            (1.0, [1.0, 1.0, 1.0]),
            (45.0, [45.0, 45.0, 45.0]),
        ] {
            let d = demand(99, guar, win);
            let peak = d.window_peak();
            let trough = d.window_trough();
            let two_step = s
                .fit_row()
                .quick_fit(&s.capacity, &d, &peak, &trough)
                .unwrap_or_else(|| s.windows_fit(&d));
            assert_eq!(
                s.can_fit(&d),
                two_step,
                "bounds check diverged for guar={guar} win={win:?}"
            );
        }
    }

    #[test]
    fn slack_summaries_track_window_sums() {
        let mut s = server();
        assert!(s.place(&demand(1, 8.0, [40.0, 8.0, 8.0])));
        // Tightest window is w0: 48 - 40 = 8 GB slack.
        assert_eq!(s.min_window_slack().memory(), 8.0);
        assert!(s.remove(VmId::new(1)));
        assert_eq!(s.min_window_slack().memory(), 48.0);
    }

    #[test]
    fn a_free_slot_costs_no_more_than_a_hosted_one() {
        // The free-list link and the variant fit in what the row leaves
        // unused; the sizes themselves are compile-time assertions.
        assert_eq!(
            std::mem::size_of::<Slot>(),
            std::mem::size_of::<(VmId, HostedDemand)>()
        );
        // A six-window row boxes 96 bytes.
        assert_eq!(std::mem::size_of::<[Units; 6]>(), 96);
    }

    /// The sums are exact: the same resident set reached by different
    /// orders of places and removes reads the same sums and rows, and
    /// emptying a server returns every sum to zero.
    #[test]
    fn sums_do_not_depend_on_the_order_of_adds_and_removes() {
        let fracs = [0.35, 0.7, 0.15, 0.95, 0.05, 0.6];
        let demands: Vec<VmDemand> = (0..6u64)
            .map(|i| {
                let f = fracs[i as usize];
                demand(i, 1.0 + 4.0 * f, [4.0 * f + 2.0, 6.0 * f, 8.0 * f])
            })
            .collect();
        let mut forward = server();
        let mut shuffled = server();
        for d in &demands {
            assert!(forward.place(d));
        }
        for i in [3, 0, 5, 1, 4, 2] {
            assert!(shuffled.place(&demands[i]));
        }
        assert!(shuffled.remove(VmId::new(1)) && shuffled.remove(VmId::new(4)));
        assert!(shuffled.place(&demands[4]) && shuffled.place(&demands[1]));
        assert!(forward == shuffled);
        assert_eq!(forward.fit_row(), shuffled.fit_row());
        for vm in 0..6 {
            assert!(forward.remove(VmId::new(vm)));
        }
        assert!(forward == server());
        assert_eq!(forward.fit_row(), server().fit_row());
    }

    /// A departure empties its own slot and moves no other VM; the next
    /// placements take the freed slots, last freed first, and a freed VM
    /// is no longer found by id.
    #[test]
    fn a_departure_frees_its_own_slot_for_the_next_placement() {
        let mut s = server();
        let place = |s: &mut ServerState, vm| s.place_new(&demand(vm, 4.0, [4.0; 3])).unwrap();
        let slots: Vec<u32> = (1..=4).map(|vm| place(&mut s, vm)).collect();
        assert_eq!(slots, [0, 1, 2, 3]);
        s.remove_slot(1);
        s.remove_slot(3);
        assert_eq!(s.vm_count(), 2);
        assert_eq!(
            s.slots().collect::<Vec<_>>(),
            [(0, VmId::new(1)), (2, VmId::new(3))]
        );
        assert!(s.demand(VmId::new(2)).is_none() && !s.remove(VmId::new(2)));

        assert_eq!([5, 6, 7].map(|vm| place(&mut s, vm)), [3, 1, 4]);
        assert_eq!(
            s.vm_ids().collect::<Vec<_>>(),
            [1, 6, 3, 5, 7].map(VmId::new)
        );
        // The dump is canonical whatever slots the VMs sit in.
        let ids: Vec<VmId> = s.dump().vms.iter().map(|(vm, _)| *vm).collect();
        assert_eq!(ids, [1, 3, 5, 6, 7].map(VmId::new));
        assert!(ServerState::from_dump(s.dump()) == s);
    }
}
