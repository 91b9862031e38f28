//! [`coach_wire`] codecs for scheduler state.
//!
//! These impls carry the scheduler half of a `coach-serve` snapshot across
//! the wire: per-server packing state ([`ServerStateDump`]) and a
//! scheduler's servers ([`ClusterSchedulerDump`]), plus the
//! policy and scan enums a serving config names. Dumps hold raw
//! accumulated `f64` sums, and the
//! codecs ship them verbatim (IEEE-754 bits), so a restored scheduler is
//! `assert_eq!`-identical to the one that was snapshotted — including every
//! future placement decision it will make.

use coach_wire::{Decode, Decoder, Encode, Encoder, WireError};

use crate::demand::Policy;
use crate::scheduler::{ClusterSchedulerDump, PlacementOutcome, ScanStrategy};
use crate::server::{HostedDemand, ServerStateDump};
use coach_types::{ResourceVec, ServerId, VmId};
use std::collections::HashSet;

impl Encode for PlacementOutcome {
    fn encode(&self, e: &mut Encoder) {
        match self {
            PlacementOutcome::Placed(server) => {
                e.u8(0);
                server.encode(e);
            }
            PlacementOutcome::Rejected => e.u8(1),
        }
    }
}

impl Decode for PlacementOutcome {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("PlacementOutcome")? {
            0 => Ok(PlacementOutcome::Placed(Decode::decode(d)?)),
            1 => Ok(PlacementOutcome::Rejected),
            tag => Err(WireError::UnknownTag {
                context: "PlacementOutcome",
                tag: tag as u64,
            }),
        }
    }
}

impl Encode for Policy {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            Policy::None => 0,
            Policy::Single => 1,
            Policy::Coach => 2,
        });
    }
}

impl Decode for Policy {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("Policy")? {
            0 => Ok(Policy::None),
            1 => Ok(Policy::Single),
            2 => Ok(Policy::Coach),
            tag => Err(WireError::UnknownTag {
                context: "Policy",
                tag: tag as u64,
            }),
        }
    }
}

impl Encode for ScanStrategy {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            ScanStrategy::Indexed => 0,
            ScanStrategy::NaiveReference => 1,
        });
    }
}

impl Decode for ScanStrategy {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("ScanStrategy")? {
            0 => Ok(ScanStrategy::Indexed),
            1 => Ok(ScanStrategy::NaiveReference),
            tag => Err(WireError::UnknownTag {
                context: "ScanStrategy",
                tag: tag as u64,
            }),
        }
    }
}

impl Encode for HostedDemand {
    fn encode(&self, e: &mut Encoder) {
        self.guaranteed.encode(e);
        let window_max = self.window_max();
        e.usize(window_max.len());
        for w in window_max {
            w.encode(e);
        }
    }
}

impl Decode for HostedDemand {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let guaranteed = Decode::decode(d)?;
        match d.seq_len("HostedDemand windows")? {
            0 => Err(WireError::Invalid {
                context: "HostedDemand windows",
            }),
            // The common case, kept off the heap as `place` keeps it.
            1 => Ok(HostedDemand::new(guaranteed, &[Decode::decode(d)?])),
            n => {
                let mut many = Vec::with_capacity(d.capacity_for::<ResourceVec>(n));
                for _ in 0..n {
                    many.push(ResourceVec::decode(d)?);
                }
                Ok(HostedDemand::per_window(guaranteed, many.into()))
            }
        }
    }
}

impl Encode for ServerStateDump {
    fn encode(&self, e: &mut Encoder) {
        self.id.encode(e);
        self.capacity.encode(e);
        e.usize(self.windows);
        self.guaranteed_sum.encode(e);
        self.window_sum.encode(e);
        self.vms.encode(e);
    }
}

/// Refuses what [`crate::ServerState::from_dump`] would panic on, or
/// silently mis-subtract: see [`ServerStateDump::is_consistent`].
impl Decode for ServerStateDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let dump = ServerStateDump {
            id: Decode::decode(d)?,
            capacity: Decode::decode(d)?,
            windows: d.usize("ServerStateDump windows")?,
            guaranteed_sum: Decode::decode(d)?,
            window_sum: Decode::decode(d)?,
            vms: Decode::decode(d)?,
        };
        if !dump.is_consistent() {
            return Err(WireError::Invalid {
                context: "ServerStateDump",
            });
        }
        Ok(dump)
    }
}

impl Encode for ClusterSchedulerDump {
    fn encode(&self, e: &mut Encoder) {
        self.servers.encode(e);
    }
}

/// Refuses what [`crate::ClusterScheduler::from_dump`] would panic on: no
/// servers, servers of different capacities or window counts, a server id
/// twice, a VM hosted on two servers.
impl Decode for ClusterSchedulerDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let dump = ClusterSchedulerDump {
            servers: Decode::decode(d)?,
        };
        let mut servers: HashSet<ServerId> = HashSet::with_capacity(dump.servers.len());
        let hosted = dump.servers.iter().map(|s| s.vms.len()).sum();
        let mut vms: HashSet<VmId> = HashSet::with_capacity(hosted);
        let distinct = dump
            .servers
            .iter()
            .all(|s| servers.insert(s.id) && s.vms.iter().all(|(vm, _)| vms.insert(*vm)));
        let homogeneous = dump
            .servers
            .windows(2)
            .all(|pair| pair[0].capacity == pair[1].capacity && pair[0].windows == pair[1].windows);
        if dump.servers.is_empty() || !distinct || !homogeneous {
            return Err(WireError::Invalid {
                context: "ClusterSchedulerDump",
            });
        }
        Ok(dump)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterScheduler, PlacementOutcome, VmDemand};
    use coach_types::WindowVec;
    use coach_wire::{open_frame, seal_frame};

    /// Four three-window servers hosting nine three-window VMs between
    /// them, best-fit: servers 0 and 1 host several each.
    fn packed_scheduler() -> ClusterScheduler {
        let ids: Vec<ServerId> = (0..4).map(ServerId::new).collect();
        let capacity = ResourceVec::new(16.0, 64.0, 10.0, 1024.0);
        let mut sched = ClusterScheduler::new(&ids, capacity, 3);
        for i in 0..9 {
            let demand = VmDemand {
                vm: VmId::new(i),
                requested: ResourceVec::new(3.0, 11.0, 1.0, 64.0),
                guaranteed: ResourceVec::new(1.5, 5.5, 0.5, 32.0),
                window_max: WindowVec::from_elem(ResourceVec::new(2.0, 8.0, 0.7, 48.0), 3),
            };
            assert!(matches!(sched.place(demand), PlacementOutcome::Placed(_)));
        }
        sched
    }

    #[test]
    fn scheduler_dump_roundtrips_and_restores_identically() {
        let sched = packed_scheduler();
        let frame = seal_frame(&sched.dump());
        let dump: ClusterSchedulerDump = open_frame(&frame).expect("decode scheduler dump");
        let restored = ClusterScheduler::from_dump(dump, ScanStrategy::Indexed);
        assert_eq!(restored, sched);
    }

    /// A valid frame with one field of its dump changed decodes to the
    /// typed error, where `from_dump` would have panicked (or, for the
    /// window count of a hosted demand, mis-subtracted on `remove`).
    fn refused(mutate: impl FnOnce(&mut ClusterSchedulerDump)) {
        let mut dump = packed_scheduler().dump();
        mutate(&mut dump);
        let decoded = open_frame::<ClusterSchedulerDump>(&seal_frame(&dump));
        assert!(
            matches!(decoded, Err(WireError::Invalid { .. })),
            "{decoded:?}"
        );
    }

    #[test]
    fn zero_windows_are_refused() {
        refused(|dump| {
            let server = &mut dump.servers[0];
            server.windows = 0;
            server.window_sum.clear();
        });
    }

    #[test]
    fn a_window_sum_of_the_wrong_length_is_refused() {
        refused(|dump| dump.servers[0].window_sum.push(ResourceVec::ZERO));
    }

    #[test]
    fn a_hosted_demand_with_a_foreign_window_count_is_refused() {
        refused(|dump| {
            let hosted = &mut dump.servers[0].vms[0].1;
            *hosted = HostedDemand::new(hosted.guaranteed, &hosted.window_max()[..2]);
        });
    }

    #[test]
    fn a_vm_twice_on_one_server_is_refused() {
        refused(|dump| {
            let again = dump.servers[0].vms[0].clone();
            dump.servers[0].vms.insert(0, again);
        });
    }

    #[test]
    fn a_vm_on_two_servers_is_refused() {
        refused(|dump| {
            let stolen = dump.servers[0].vms[0].clone();
            dump.servers[1].vms.insert(0, stolen);
        });
    }

    #[test]
    fn servers_of_different_capacities_or_window_counts_are_refused() {
        refused(|dump| dump.servers[2].capacity.0[0] += 1.0);
        // Consistent on its own: no hosted VM, one sum per window.
        refused(|dump| {
            let server = &mut dump.servers[3];
            server.vms.clear();
            server.windows = 1;
            server.window_sum.truncate(1);
        });
    }

    /// A capacity `ServerState::new` would refuse to build: zero, or NaN.
    /// One server, so that only validity can refuse the frame (NaN ≠ NaN
    /// would fail the homogeneity check of two).
    #[test]
    fn an_invalid_capacity_is_refused() {
        for capacity in [ResourceVec::ZERO, ResourceVec::splat(f64::NAN)] {
            refused(|dump| {
                dump.servers.truncate(1);
                dump.servers[0].capacity = capacity;
            });
        }
    }

    #[test]
    fn no_servers_or_one_server_id_twice_is_refused() {
        refused(|dump| dump.servers.clear());
        refused(|dump| dump.servers[1].id = dump.servers[0].id);
    }
}
