//! The arena-backed resident store: where every VM a controller currently
//! hosts was placed, addressed by generational [`Handle`]s.
//!
//! Each placed VM occupies one slot across three parallel columns — id,
//! cluster, server — which is what a departure needs to find the
//! scheduler and the accountant entry to release; the admitted demand is
//! not copied here (the server that hosts the VM keeps what `remove`
//! subtracts, and nothing else read the copy). Slots are recycled through
//! a free list and a slot's generation bumps on every removal, so a
//! [`Handle`] — slot index + the generation it was issued under — makes
//! staleness a single integer comparison: the departure heap stores
//! handles, and a lazily-cancelled departure fails generation validation
//! instead of consulting a map. Only the explicit early-departure path
//! (keyed by [`VmId`] on the wire) goes through the `by_id` hash lookup.

use coach_types::prelude::*;
use std::collections::HashMap;

/// A generational reference to a slot in a [`ResidentStore`].
///
/// Valid until the resident it was issued for is removed; after that,
/// lookups with the stale handle return `None` (the slot may host a
/// different VM under a newer generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle {
    index: u32,
    generation: u32,
}

impl Handle {
    /// Pack into one `u64` (slot in the high half) so heap entries stay
    /// plain integers.
    pub fn to_raw(self) -> u64 {
        (u64::from(self.index) << 32) | u64::from(self.generation)
    }

    /// Inverse of [`Handle::to_raw`].
    pub fn from_raw(raw: u64) -> Handle {
        Handle {
            index: (raw >> 32) as u32,
            generation: raw as u32,
        }
    }
}

/// One resident VM's row, copied out of the columns on access or removal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resident {
    /// The VM.
    pub vm: VmId,
    /// Index of the cluster it was placed in (the controller's dense
    /// cluster ordering, not the [`ClusterId`]).
    pub cluster: u32,
    /// The server hosting it.
    pub server: ServerId,
}

/// The resident-VM arena. See the [module docs](self) for the layout.
#[derive(Debug, Default)]
pub struct ResidentStore {
    vm: Vec<VmId>,
    cluster: Vec<u32>,
    server: Vec<ServerId>,
    /// Current generation per slot; odd while occupied, even while free
    /// (bumped on both insert and remove), so liveness needs no separate
    /// bitmap.
    generation: Vec<u32>,
    free: Vec<u32>,
    /// The explicit-departure index: the wire addresses VMs by id.
    by_id: HashMap<VmId, Handle>,
}

impl ResidentStore {
    /// An empty store.
    pub fn new() -> Self {
        ResidentStore::default()
    }

    /// Number of resident VMs.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether no VM is resident.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Admit a placed VM, returning the handle its departure will use.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is already resident (the controller never places a
    /// VM twice).
    pub fn insert(&mut self, vm: VmId, cluster: u32, server: ServerId) -> Handle {
        let index = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.vm[i] = vm;
                self.cluster[i] = cluster;
                self.server[i] = server;
                self.generation[i] = self.generation[i].wrapping_add(1);
                slot
            }
            None => {
                let slot = u32::try_from(self.vm.len()).expect("fewer than 2^32 residents");
                self.vm.push(vm);
                self.cluster.push(cluster);
                self.server.push(server);
                self.generation.push(1);
                slot
            }
        };
        let handle = Handle {
            index,
            generation: self.generation[index as usize],
        };
        let previous = self.by_id.insert(vm, handle);
        assert!(previous.is_none(), "VM {vm:?} already resident");
        handle
    }

    /// The row behind a handle, or `None` if it has gone stale.
    pub fn get(&self, handle: Handle) -> Option<Resident> {
        let i = handle.index as usize;
        (self.generation.get(i) == Some(&handle.generation)).then(|| self.row(i))
    }

    /// The live handle for a VM, if resident.
    pub fn handle_of(&self, vm: VmId) -> Option<Handle> {
        self.by_id.get(&vm).copied()
    }

    /// Remove by handle — the scheduled-departure path. Returns `None`
    /// without touching anything if the handle is stale (the VM already
    /// departed explicitly), which is the lazy cancellation the departure
    /// heap relies on.
    pub fn remove(&mut self, handle: Handle) -> Option<Resident> {
        let row = self.get(handle)?;
        self.evict(handle.index, row.vm);
        Some(row)
    }

    /// Remove by VM id — the explicit early-departure path.
    pub fn remove_by_id(&mut self, vm: VmId) -> Option<Resident> {
        let handle = self.by_id.get(&vm).copied()?;
        let row = self.row(handle.index as usize);
        self.evict(handle.index, vm);
        Some(row)
    }

    /// Copy out the full column state for the snapshot codec.
    ///
    /// Free slots' columns are carried verbatim (their stale values are
    /// deterministic leftovers of a deterministic run), so a restored
    /// store re-snapshots to identical bytes — the property
    /// `snapshot_is_nondestructive_and_roundtrips_bytes` pins.
    pub(crate) fn dump(&self) -> StoreDump {
        StoreDump {
            vm: self.vm.clone(),
            cluster: self.cluster.clone(),
            server: self.server.clone(),
            generation: self.generation.clone(),
            free: self.free.clone(),
        }
    }

    /// Rebuild a store from dumped columns. The id index is derived, not
    /// dumped: a slot is occupied exactly while its generation is odd.
    ///
    /// # Panics
    ///
    /// Panics if the columns disagree on length or a VM id appears in two
    /// occupied slots (a corrupt or hand-forged dump).
    pub(crate) fn from_dump(dump: StoreDump) -> ResidentStore {
        let slots = dump.vm.len();
        assert!(
            dump.cluster.len() == slots
                && dump.server.len() == slots
                && dump.generation.len() == slots,
            "resident store dump columns disagree on length"
        );
        let mut by_id = HashMap::new();
        for (i, &generation) in dump.generation.iter().enumerate() {
            if generation % 2 == 1 {
                let handle = Handle {
                    index: i as u32,
                    generation,
                };
                let previous = by_id.insert(dump.vm[i], handle);
                assert!(
                    previous.is_none(),
                    "VM {:?} occupies two resident slots",
                    dump.vm[i]
                );
            }
        }
        ResidentStore {
            vm: dump.vm,
            cluster: dump.cluster,
            server: dump.server,
            generation: dump.generation,
            free: dump.free,
            by_id,
        }
    }

    fn row(&self, i: usize) -> Resident {
        Resident {
            vm: self.vm[i],
            cluster: self.cluster[i],
            server: self.server[i],
        }
    }

    fn evict(&mut self, index: u32, vm: VmId) {
        let i = index as usize;
        self.generation[i] = self.generation[i].wrapping_add(1);
        self.free.push(index);
        self.by_id.remove(&vm);
    }
}

/// The wire-facing image of a [`ResidentStore`]: parallel columns plus the
/// free list, with the `by_id` index left to be derived on restore.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoreDump {
    pub vm: Vec<VmId>,
    pub cluster: Vec<u32>,
    pub server: Vec<ServerId>,
    pub generation: Vec<u32>,
    pub free: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_round_trip_and_go_stale() {
        let mut store = ResidentStore::new();
        let h = store.insert(VmId::new(7), 3, ServerId::new(40));
        assert_eq!(Handle::from_raw(h.to_raw()), h);
        let row = store.get(h).expect("live handle resolves");
        assert_eq!(row.vm, VmId::new(7));
        assert_eq!(row.cluster, 3);
        assert_eq!(row.server, ServerId::new(40));

        assert_eq!(store.remove(h), Some(row));
        assert_eq!(store.get(h), None, "removed handle is stale");
        assert_eq!(store.remove(h), None, "double removal is a no-op");
        assert!(store.is_empty());

        // The recycled slot's new tenant does not resurrect the old handle.
        let h2 = store.insert(VmId::new(8), 0, ServerId::new(41));
        assert_eq!(store.get(h), None);
        assert_eq!(store.get(h2).unwrap().vm, VmId::new(8));
    }

    #[test]
    fn explicit_departure_cancels_scheduled_handle() {
        let mut store = ResidentStore::new();
        let h = store.insert(VmId::new(1), 0, ServerId::new(9));
        assert_eq!(store.handle_of(VmId::new(1)), Some(h));
        // The wire departs the VM by id first...
        assert!(store.remove_by_id(VmId::new(1)).is_some());
        assert_eq!(store.handle_of(VmId::new(1)), None);
        // ...so the heap's later pop lazily cancels.
        assert_eq!(store.remove(h), None);
        assert_eq!(store.remove_by_id(VmId::new(1)), None);
    }

    #[test]
    fn dump_restore_preserves_handles_and_free_list() {
        let mut store = ResidentStore::new();
        let a = store.insert(VmId::new(1), 0, ServerId::new(1));
        let b = store.insert(VmId::new(2), 1, ServerId::new(2));
        store.remove(a); // slot 0 freed; its columns keep stale values

        let restored = ResidentStore::from_dump(store.dump());
        assert_eq!(restored.len(), 1);
        assert_eq!(restored.get(b), store.get(b));
        assert_eq!(restored.get(a), None, "stale handle stays stale");
        assert_eq!(restored.handle_of(VmId::new(2)), Some(b));
        // The freed slot is recycled in the same order as the original.
        let mut original = store;
        let c1 = original.insert(VmId::new(3), 0, ServerId::new(3));
        let mut restored = restored;
        let c2 = restored.insert(VmId::new(3), 0, ServerId::new(3));
        assert_eq!(c1, c2);
        assert_eq!(original.dump(), restored.dump());
    }

    #[test]
    #[should_panic(expected = "occupies two resident slots")]
    fn conflicting_dump_rejected() {
        let mut store = ResidentStore::new();
        store.insert(VmId::new(1), 0, ServerId::new(1));
        store.insert(VmId::new(2), 0, ServerId::new(2));
        let mut dump = store.dump();
        dump.vm[1] = VmId::new(1); // forge a duplicate occupancy
        ResidentStore::from_dump(dump);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut store = ResidentStore::new();
        store.insert(VmId::new(1), 0, ServerId::new(1));
        store.insert(VmId::new(1), 0, ServerId::new(2));
    }
}
