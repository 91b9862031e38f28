//! The serving subsystem's wire vocabulary: the versioned [`Snapshot`]
//! frame behind live snapshot/restore, and the codecs of the controller
//! dump it seals.
//!
//! Everything here rides the dependency-free [`coach_wire`] codec: frames
//! are magic- and version-pinned, accumulated `f64`s travel as raw
//! IEEE-754 bits, and neither decode nor restore panics on malformed or
//! inconsistent bytes: both end in a [`WireError`].

use crate::account::{AccountantDump, EntryDump, ServerDump};
use crate::controller::{ControllerDump, ServeConfig};
use coach_sched::PlacementHeuristic;
use coach_telemetry::TelemetryConfig;
use coach_wire::{seal_frame, Decode, Decoder, Encode, Encoder, WireError};

/// A sealed, self-contained image of one [`Controller`](crate::Controller)
/// — the unit of live servicing. Produced by
/// [`Controller::snapshot`](crate::Controller::snapshot) /
/// [`ShardedController::drain_shard`](crate::ShardedController::drain_shard),
/// consumed by [`Controller::restore`](crate::Controller::restore) /
/// [`ShardedController::resume_shard`](crate::ShardedController::resume_shard).
/// Its bytes may be stored, or shipped to another process, and restored
/// there.
///
/// The accounting state's entries are self-contained, so a snapshot
/// restores in a process that has never seen the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Seal a controller dump into a versioned frame.
    pub(crate) fn seal(dump: &ControllerDump) -> Snapshot {
        Snapshot {
            bytes: seal_frame(dump),
        }
    }

    /// Wrap frame bytes received out-of-band (a file, a socket, a
    /// checkpoint store). Validation happens at restore time.
    pub fn from_bytes(bytes: Vec<u8>) -> Snapshot {
        Snapshot { bytes }
    }

    /// The sealed frame, ready for a file or a socket.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume into the sealed frame bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Serialized size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the frame is empty (never true for a sealed snapshot).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl Encode for ServeConfig {
    fn encode(&self, e: &mut Encoder) {
        self.policy.encode(e);
        e.f64(self.server_fraction);
        self.scan.encode(e);
        self.horizon.encode(e);
        self.sample_every.encode(e);
        self.probe_mode.encode(e);
        // `heuristic` and `telemetry` are deliberately NOT encoded.
        // Nothing reads the heuristic (every scheduler packs BestFit), and
        // telemetry is a pure-observability runtime knob (decisions are
        // bit-identical across modes): a restored controller comes up with
        // both at their defaults and is re-armed by its deployment.
    }
}

impl Decode for ServeConfig {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ServeConfig {
            policy: Decode::decode(d)?,
            server_fraction: d.f64("ServeConfig server_fraction")?,
            heuristic: PlacementHeuristic::default(),
            scan: Decode::decode(d)?,
            horizon: Decode::decode(d)?,
            sample_every: Decode::decode(d)?,
            probe_mode: Decode::decode(d)?,
            telemetry: TelemetryConfig::default(),
        })
    }
}

impl Encode for EntryDump {
    fn encode(&self, e: &mut Encoder) {
        self.id.encode(e);
        e.u32(self.arrival);
        e.u32(self.depart);
        self.req.encode(e);
        e.u16(self.guar_mem);
        self.va_mem.encode(e);
        self.util.encode(e);
    }
}

impl Decode for EntryDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(EntryDump {
            id: Decode::decode(d)?,
            arrival: d.u32("VmEntry arrival")?,
            depart: d.u32("VmEntry depart")?,
            req: Decode::decode(d)?,
            guar_mem: d.u16("VmEntry guar_mem")?,
            va_mem: Decode::decode(d)?,
            util: Decode::decode(d)?,
        })
    }
}

impl Encode for ServerDump {
    fn encode(&self, e: &mut Encoder) {
        self.server.encode(e);
        self.capacity.encode(e);
        self.next_sample.encode(e);
        self.entries.encode(e);
        e.usize(self.admitted);
        e.u64(self.samples);
        e.u64(self.cpu_violations);
        e.u64(self.mem_violations);
    }
}

impl Decode for ServerDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let account = ServerDump {
            server: Decode::decode(d)?,
            capacity: Decode::decode(d)?,
            next_sample: Decode::decode(d)?,
            entries: Decode::decode(d)?,
            admitted: d.usize("ServerAccount admitted")?,
            samples: d.u64("ServerAccount samples")?,
            cpu_violations: d.u64("ServerAccount cpu_violations")?,
            mem_violations: d.u64("ServerAccount mem_violations")?,
        };
        if account.admitted > account.entries.len() {
            return Err(WireError::Invalid {
                context: "ServerAccount admitted prefix",
            });
        }
        Ok(account)
    }
}

impl Encode for AccountantDump {
    fn encode(&self, e: &mut Encoder) {
        self.swept_to.encode(e);
        self.servers.encode(e);
    }
}

impl Decode for AccountantDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(AccountantDump {
            swept_to: Decode::decode(d)?,
            servers: Decode::decode(d)?,
        })
    }
}

impl Encode for ControllerDump {
    fn encode(&self, e: &mut Encoder) {
        self.config.encode(e);
        e.u32(self.windows_per_day);
        self.clusters.encode(e);
        self.residents.encode(e);
        self.departures.encode(e);
        e.u64(self.seq);
        self.probe_counts.encode(e);
        self.accountant.encode(e);
        e.u64(self.accepted);
        e.u64(self.rejected);
        e.u64(self.departed);
        e.u64(self.ticks);
        e.f64(self.accepted_core_hours);
        e.f64(self.accepted_gb_hours);
        e.usize(self.in_use);
        e.usize(self.peak_in_use);
        e.bool(self.occupancy_timeline);
        self.timeline.encode(e);
    }
}

impl Decode for ControllerDump {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ControllerDump {
            config: Decode::decode(d)?,
            windows_per_day: d.u32("ControllerDump windows_per_day")?,
            clusters: Decode::decode(d)?,
            residents: Decode::decode(d)?,
            departures: Decode::decode(d)?,
            seq: d.u64("ControllerDump seq")?,
            probe_counts: Decode::decode(d)?,
            accountant: Decode::decode(d)?,
            accepted: d.u64("ControllerDump accepted")?,
            rejected: d.u64("ControllerDump rejected")?,
            departed: d.u64("ControllerDump departed")?,
            ticks: d.u64("ControllerDump ticks")?,
            accepted_core_hours: d.f64("ControllerDump accepted_core_hours")?,
            accepted_gb_hours: d.f64("ControllerDump accepted_gb_hours")?,
            in_use: d.usize("ControllerDump in_use")?,
            peak_in_use: d.usize("ControllerDump peak_in_use")?,
            occupancy_timeline: d.bool("ControllerDump occupancy_timeline")?,
            timeline: Decode::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_sim::PolicyConfig;
    use coach_types::Timestamp;
    use coach_wire::open_frame;

    #[test]
    fn serve_config_roundtrips() {
        let mut config = ServeConfig::replaying(
            PolicyConfig::paper_set().remove(2),
            0.75,
            Timestamp::from_ticks(1_000_000),
        );
        let frame = seal_frame(&config);
        let back: ServeConfig = open_frame(&frame).expect("decode ServeConfig");
        assert_eq!(format!("{back:?}"), format!("{config:?}"));

        // Telemetry is a runtime knob, not state: it does not cross the
        // wire, so it decodes back to its default.
        config.telemetry = TelemetryConfig::Full;
        let frame_knobs = seal_frame(&config);
        assert_eq!(frame_knobs, frame);
        let back: ServeConfig = open_frame(&frame_knobs).expect("decode ServeConfig");
        assert_eq!(back.telemetry, TelemetryConfig::Off);
    }
}
