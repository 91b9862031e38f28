//! The serving subsystem's wire vocabulary: [`Snapshot`] frames for live
//! snapshot/restore, and the one command/reply vocabulary every shard
//! worker speaks — by value over a thread lane, as frames over a
//! process-backed worker's pipes.
//!
//! Everything here rides the dependency-free [`coach_wire`] codec: frames
//! are magic- and version-pinned, accumulated `f64`s travel as raw
//! IEEE-754 bits, and neither decode nor restore panics on malformed or
//! inconsistent bytes: both end in a [`WireError`].

use crate::account::{AccountantDump, ServerAccount, VmEntry};
use crate::controller::{ControllerDump, ServeConfig};
use crate::request::{Request, Response, StatsReport};
use crate::shard::ShardSnapshot;
use coach_predict::DemandPrediction;
use coach_sched::PlacementHeuristic;
use coach_telemetry::{Histogram, MetricEntry, MetricValue, RegistrySnapshot, TelemetryConfig};
use coach_trace::VmRecord;
use coach_types::prelude::*;
use coach_wire::{seal_frame, Decode, Decoder, Encode, Encoder, WireError};

/// A sealed, self-contained image of one [`Controller`](crate::Controller)
/// — the unit of live servicing. Produced by
/// [`Controller::snapshot`](crate::Controller::snapshot) /
/// [`ShardedController::drain_shard`](crate::ShardedController::drain_shard),
/// consumed by [`Controller::restore`](crate::Controller::restore) /
/// [`ShardedController::resume_shard`](crate::ShardedController::resume_shard),
/// and shipped verbatim as the process backend's checkpoint payload.
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

    /// The sealed frame, ready for [`coach_wire::write_frame`] or disk.
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
        // `heuristic`, `backend` and `telemetry` are deliberately NOT
        // encoded. Nothing reads the heuristic (every scheduler packs
        // BestFit), no restored controller reads the backend (a sharded
        // deployment keeps its own), and telemetry is a pure-observability
        // runtime knob (decisions are bit-identical across modes): a
        // restored controller comes up with all three at their defaults and
        // is re-armed by its deployment (the process backend re-arms
        // children at every session start).
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
            backend: WorkerBackend::default(),
            telemetry: TelemetryConfig::default(),
        })
    }
}

impl Encode for StatsReport {
    fn encode(&self, e: &mut Encoder) {
        self.now.encode(e);
        e.u64(self.accepted);
        e.u64(self.rejected);
        e.u64(self.departed);
        e.usize(self.resident_vms);
        e.usize(self.servers_in_use);
        e.usize(self.peak_servers_in_use);
        e.f64(self.accepted_core_hours);
        e.f64(self.accepted_gb_hours);
        e.u64(self.probe_measurements);
        e.u64(self.probe_capacity_total);
        e.u64(self.violation_samples);
        e.u64(self.cpu_violations);
        e.u64(self.mem_violations);
        e.u64(self.ticks);
    }
}

impl Decode for StatsReport {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(StatsReport {
            now: Decode::decode(d)?,
            accepted: d.u64("StatsReport accepted")?,
            rejected: d.u64("StatsReport rejected")?,
            departed: d.u64("StatsReport departed")?,
            resident_vms: d.usize("StatsReport resident_vms")?,
            servers_in_use: d.usize("StatsReport servers_in_use")?,
            peak_servers_in_use: d.usize("StatsReport peak_servers_in_use")?,
            accepted_core_hours: d.f64("StatsReport accepted_core_hours")?,
            accepted_gb_hours: d.f64("StatsReport accepted_gb_hours")?,
            probe_measurements: d.u64("StatsReport probe_measurements")?,
            probe_capacity_total: d.u64("StatsReport probe_capacity_total")?,
            violation_samples: d.u64("StatsReport violation_samples")?,
            cpu_violations: d.u64("StatsReport cpu_violations")?,
            mem_violations: d.u64("StatsReport mem_violations")?,
            ticks: d.u64("StatsReport ticks")?,
        })
    }
}

/// Codec for the registry deltas child shard workers ship at barriers
/// ([`WireReply::Telemetry`]), as free functions: the orphan rule forbids
/// implementing the foreign [`Encode`] trait for the foreign
/// [`RegistrySnapshot`] here.
fn encode_registry_snapshot(snapshot: &RegistrySnapshot, e: &mut Encoder) {
    e.usize(snapshot.entries.len());
    for entry in &snapshot.entries {
        e.str(&entry.name);
        entry.labels.encode(e);
        e.str(&entry.help);
        match &entry.value {
            MetricValue::Counter(v) => {
                e.u8(0);
                e.u64(*v);
            }
            MetricValue::Gauge(v) => {
                e.u8(1);
                e.f64(*v);
            }
            MetricValue::Histogram(h) => {
                e.u8(2);
                let (buckets, count, sum_ns) = h.parts();
                buckets.encode(e);
                e.u64(count);
                e.u64(sum_ns);
            }
        }
    }
}

fn decode_registry_snapshot(d: &mut Decoder<'_>) -> Result<RegistrySnapshot, WireError> {
    let len = d.usize("RegistrySnapshot entries")?;
    let mut entries = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        let name = d.str("MetricEntry name")?.to_string();
        let labels: Vec<(String, String)> = Decode::decode(d)?;
        let help = d.str("MetricEntry help")?.to_string();
        let value = match d.u8("MetricValue")? {
            0 => MetricValue::Counter(d.u64("MetricValue counter")?),
            1 => MetricValue::Gauge(d.f64("MetricValue gauge")?),
            2 => MetricValue::Histogram(Histogram::from_parts(
                Decode::decode(d)?,
                d.u64("Histogram count")?,
                d.u64("Histogram sum_ns")?,
            )),
            tag => {
                return Err(WireError::UnknownTag {
                    context: "MetricValue",
                    tag: tag as u64,
                })
            }
        };
        entries.push(MetricEntry {
            name,
            labels,
            help,
            value,
        });
    }
    Ok(RegistrySnapshot { entries })
}

impl Encode for VmEntry {
    fn encode(&self, e: &mut Encoder) {
        self.id.encode(e);
        self.arrival.encode(e);
        self.depart.encode(e);
        e.f64(self.req_cpu);
        e.f64(self.req_mem);
        e.f64(self.guar_mem);
        let va_mem = self.va_mem.as_slice();
        e.usize(va_mem.len());
        for v in va_mem {
            e.f64(*v);
        }
        self.util.encode(e);
    }
}

impl Decode for VmEntry {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(VmEntry {
            id: Decode::decode(d)?,
            arrival: Decode::decode(d)?,
            depart: Decode::decode(d)?,
            req_cpu: d.f64("VmEntry req_cpu")?,
            req_mem: d.f64("VmEntry req_mem")?,
            guar_mem: d.f64("VmEntry guar_mem")?,
            va_mem: Vec::<f64>::decode(d)?.into_iter().collect(),
            util: Decode::decode(d)?,
        })
    }
}

impl Encode for ServerAccount {
    fn encode(&self, e: &mut Encoder) {
        self.server.encode(e);
        self.capacity.encode(e);
        self.next_sample.encode(e);
        self.entries.encode(e);
        e.usize(self.admitted);
        e.f64(self.pa_sum);
        self.va_sums.encode(e);
        e.u64(self.samples);
        e.u64(self.cpu_violations);
        e.u64(self.mem_violations);
    }
}

impl Decode for ServerAccount {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let mut account = ServerAccount {
            server: Decode::decode(d)?,
            capacity: Decode::decode(d)?,
            next_sample: Decode::decode(d)?,
            entries: Decode::decode(d)?,
            admitted: d.usize("ServerAccount admitted")?,
            pa_sum: d.f64("ServerAccount pa_sum")?,
            va_sums: Decode::decode(d)?,
            ceiling_sums: [0.0; 2],
            samples: d.u64("ServerAccount samples")?,
            cpu_violations: d.u64("ServerAccount cpu_violations")?,
            mem_violations: d.u64("ServerAccount mem_violations")?,
        };
        if account.admitted > account.entries.len() {
            return Err(WireError::Invalid {
                context: "ServerAccount admitted prefix",
            });
        }
        account.sum_ceilings();
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

impl Encode for Response {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Response::Admission { vm, outcome } => {
                e.u8(0);
                vm.encode(e);
                outcome.encode(e);
            }
            Response::Departed { vm, found } => {
                e.u8(1);
                vm.encode(e);
                e.bool(*found);
            }
            Response::Ticked => e.u8(2),
            Response::ProbeCapacity(n) => {
                e.u8(3);
                e.u64(*n);
            }
            Response::Stats(stats) => {
                e.u8(4);
                stats.encode(e);
            }
        }
    }
}

impl Decode for Response {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("Response")? {
            0 => Ok(Response::Admission {
                vm: Decode::decode(d)?,
                outcome: Decode::decode(d)?,
            }),
            1 => Ok(Response::Departed {
                vm: Decode::decode(d)?,
                found: d.bool("Response found")?,
            }),
            2 => Ok(Response::Ticked),
            3 => Ok(Response::ProbeCapacity(d.u64("Response probe capacity")?)),
            4 => Ok(Response::Stats(Decode::decode(d)?)),
            tag => Err(WireError::UnknownTag {
                context: "Response",
                tag: tag as u64,
            }),
        }
    }
}

impl Encode for ShardSnapshot {
    fn encode(&self, e: &mut Encoder) {
        self.stats.encode(e);
        self.probe_counts.encode(e);
        self.timeline_delta.encode(e);
    }
}

impl Decode for ShardSnapshot {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ShardSnapshot {
            stats: Decode::decode(d)?,
            probe_counts: Decode::decode(d)?,
            timeline_delta: Decode::decode(d)?,
        })
    }
}

/// A broadcast/barrier request as it crosses a lane or the pipe — every
/// [`Request`] kind except arrivals, which travel in routed segments with
/// their records inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenCmd {
    Depart { vm: VmId, now: Timestamp },
    Tick { now: Timestamp },
    Probe { now: Timestamp },
    Stats { now: Timestamp },
}

/// The one place a token turns back into a request: at
/// [`Controller::handle`](crate::Controller::handle), worker-side.
impl From<TokenCmd> for Request<'static> {
    fn from(token: TokenCmd) -> Self {
        match token {
            TokenCmd::Depart { vm, now } => Request::Depart { vm, now },
            TokenCmd::Tick { now } => Request::Tick { now },
            TokenCmd::Probe { now } => Request::Probe { now },
            TokenCmd::Stats { now } => Request::Stats { now },
        }
    }
}

impl Encode for TokenCmd {
    fn encode(&self, e: &mut Encoder) {
        match self {
            TokenCmd::Depart { vm, now } => {
                e.u8(0);
                vm.encode(e);
                now.encode(e);
            }
            TokenCmd::Tick { now } => {
                e.u8(1);
                now.encode(e);
            }
            TokenCmd::Probe { now } => {
                e.u8(2);
                now.encode(e);
            }
            TokenCmd::Stats { now } => {
                e.u8(3);
                now.encode(e);
            }
        }
    }
}

impl Decode for TokenCmd {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("TokenCmd")? {
            0 => Ok(TokenCmd::Depart {
                vm: Decode::decode(d)?,
                now: Decode::decode(d)?,
            }),
            1 => Ok(TokenCmd::Tick {
                now: Decode::decode(d)?,
            }),
            2 => Ok(TokenCmd::Probe {
                now: Decode::decode(d)?,
            }),
            3 => Ok(TokenCmd::Stats {
                now: Decode::decode(d)?,
            }),
            tag => Err(WireError::UnknownTag {
                context: "TokenCmd",
                tag: tag as u64,
            }),
        }
    }
}

/// A segment's predictions as the dispatcher derived them, index for
/// index with its records — or empty, and the worker derives the segment
/// itself. Only a thread session whose dispatcher derives fills it; a
/// process child always derives for itself, so the codec never carries
/// one.
pub(crate) type Derived = Vec<Option<DemandPrediction>>;

const PREDICTIONS_STAY_HOME: &str = "derived predictions never cross the wire";

/// One command to a shard worker — the vocabulary both backends carry:
/// by value on a thread lane, sealed into a frame on a process worker's
/// stdin. The dispatch verbs (`Batch`, `Run`, `Token`, `Finalize`) are
/// what a session sends either kind of worker; the supervision verbs
/// (`Init`, `Export`, `Telemetry`) only ever reach a child process. Every
/// command produces exactly one [`WireReply`] — the 1:1 contract
/// [`coach_types::runtime::ProcessPool`] recovery counts on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WireCmd {
    /// Build the worker's controller from a sealed [`Snapshot`] frame.
    /// The parent cannot ship a live `&dyn Predictor` across an exec
    /// boundary, so the worker predicts with a lazy [`coach_sim::Oracle`]
    /// over `windows_per_day` windows (the process backend assumes an
    /// Oracle-equivalent predictor; the prederived cache is bit-identical
    /// to it by construction). Doubles as the checkpoint payload a
    /// recovery replays.
    Init {
        windows_per_day: u32,
        snapshot: Vec<u8>,
    },
    /// A routed arrival segment whose per-request responses come back
    /// (`(stream index, record)` pairs), with its [`Derived`]
    /// predictions.
    Batch(Vec<(u64, VmRecord)>, Derived),
    /// A routed arrival segment acknowledged without responses, with its
    /// [`Derived`] predictions.
    Run(Vec<VmRecord>, Derived),
    /// A broadcast/barrier token.
    Token(TokenCmd),
    /// Retire remaining departures, flush accounting, report the final
    /// result and snapshot.
    Finalize,
    /// Serialize the controller's current state into a [`Snapshot`] frame
    /// (drain / checkpoint-refresh; the controller keeps serving).
    Export,
    /// Arm (or re-arm) the worker's telemetry at `mode` and ship back the
    /// registry delta accumulated since the last `Telemetry` command.
    Telemetry { mode: TelemetryConfig },
}

impl Encode for WireCmd {
    fn encode(&self, e: &mut Encoder) {
        match self {
            WireCmd::Init {
                windows_per_day,
                snapshot,
            } => {
                e.u8(0);
                e.u32(*windows_per_day);
                e.bytes(snapshot);
            }
            WireCmd::Batch(batch, derived) => {
                assert!(derived.is_empty(), "{PREDICTIONS_STAY_HOME}");
                e.u8(1);
                batch.encode(e);
            }
            WireCmd::Run(recs, derived) => {
                assert!(derived.is_empty(), "{PREDICTIONS_STAY_HOME}");
                e.u8(2);
                recs.encode(e);
            }
            WireCmd::Token(token) => {
                e.u8(3);
                token.encode(e);
            }
            WireCmd::Finalize => e.u8(4),
            WireCmd::Export => e.u8(5),
            WireCmd::Telemetry { mode } => {
                e.u8(6);
                e.u8(match mode {
                    TelemetryConfig::Off => 0,
                    TelemetryConfig::Full => 2,
                });
            }
        }
    }
}

impl Decode for WireCmd {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("WireCmd")? {
            0 => Ok(WireCmd::Init {
                windows_per_day: d.u32("WireCmd windows_per_day")?,
                snapshot: d.bytes("WireCmd snapshot")?.to_vec(),
            }),
            1 => Ok(WireCmd::Batch(Decode::decode(d)?, Vec::new())),
            2 => Ok(WireCmd::Run(Decode::decode(d)?, Vec::new())),
            3 => Ok(WireCmd::Token(Decode::decode(d)?)),
            4 => Ok(WireCmd::Finalize),
            5 => Ok(WireCmd::Export),
            6 => Ok(WireCmd::Telemetry {
                mode: match d.u8("WireCmd telemetry mode")? {
                    0 => TelemetryConfig::Off,
                    2 => TelemetryConfig::Full,
                    tag => {
                        return Err(WireError::UnknownTag {
                            context: "TelemetryConfig",
                            tag: tag as u64,
                        })
                    }
                },
            }),
            tag => Err(WireError::UnknownTag {
                context: "WireCmd",
                tag: tag as u64,
            }),
        }
    }
}

/// One reply per [`WireCmd`], in command order: by value on a thread
/// lane, a frame on a process worker's stdout.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WireReply {
    /// [`WireCmd::Init`] applied; the controller is live.
    InitOk,
    /// Per-request responses for a [`WireCmd::Batch`] segment.
    Answers(Vec<(u64, Response)>),
    /// A [`WireCmd::Run`] segment was processed.
    Ran,
    /// A non-stats token's merged-side input.
    Token(Response),
    /// A stats token's shard contribution. Boxed (as below): a snapshot is
    /// ~0.75 kB, and a session's reply lanes queue one `WireReply` per
    /// segment and token until the next drain.
    Stats(Box<ShardSnapshot>),
    /// The shard's closing stats contribution, from which the dispatcher
    /// merges the final result.
    Finalized(Box<ShardSnapshot>),
    /// A sealed [`Snapshot`] frame for [`WireCmd::Export`].
    Exported(Vec<u8>),
    /// The registry delta for a [`WireCmd::Telemetry`] barrier collection
    /// (tag 7, appended in PR 9).
    Telemetry(RegistrySnapshot),
}

impl Encode for WireReply {
    fn encode(&self, e: &mut Encoder) {
        match self {
            WireReply::InitOk => e.u8(0),
            WireReply::Answers(answers) => {
                e.u8(1);
                answers.encode(e);
            }
            WireReply::Ran => e.u8(2),
            WireReply::Token(response) => {
                e.u8(3);
                response.encode(e);
            }
            WireReply::Stats(snapshot) => {
                e.u8(4);
                snapshot.encode(e);
            }
            WireReply::Finalized(snapshot) => {
                e.u8(5);
                snapshot.encode(e);
            }
            WireReply::Exported(bytes) => {
                e.u8(6);
                e.bytes(bytes);
            }
            WireReply::Telemetry(snapshot) => {
                e.u8(7);
                encode_registry_snapshot(snapshot, e);
            }
        }
    }
}

impl Decode for WireReply {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("WireReply")? {
            0 => Ok(WireReply::InitOk),
            1 => Ok(WireReply::Answers(Decode::decode(d)?)),
            2 => Ok(WireReply::Ran),
            3 => Ok(WireReply::Token(Decode::decode(d)?)),
            4 => Ok(WireReply::Stats(Box::new(Decode::decode(d)?))),
            5 => Ok(WireReply::Finalized(Box::new(Decode::decode(d)?))),
            6 => Ok(WireReply::Exported(d.bytes("WireReply snapshot")?.to_vec())),
            7 => Ok(WireReply::Telemetry(decode_registry_snapshot(d)?)),
            tag => Err(WireError::UnknownTag {
                context: "WireReply",
                tag: tag as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_sim::PolicyConfig;
    use coach_trace::{generate, TraceConfig};
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

        // The backend and telemetry are runtime knobs, not state: neither
        // crosses the wire, so both decode back to their defaults.
        config.backend = WorkerBackend::Process;
        config.telemetry = TelemetryConfig::Full;
        let frame_knobs = seal_frame(&config);
        assert_eq!(frame_knobs, frame);
        let back: ServeConfig = open_frame(&frame_knobs).expect("decode ServeConfig");
        assert_eq!(back.backend, WorkerBackend::Thread);
        assert_eq!(back.telemetry, TelemetryConfig::Off);
    }

    #[test]
    fn telemetry_frames_roundtrip() {
        for mode in [TelemetryConfig::Off, TelemetryConfig::Full] {
            let cmd = WireCmd::Telemetry { mode };
            let frame = seal_frame(&cmd);
            let back: WireCmd = open_frame(&frame).expect("decode WireCmd");
            assert_eq!(back, cmd);
        }

        let registry = coach_telemetry::Registry::new();
        registry
            .counter(
                coach_telemetry::MetricId::new("coach_serve_accepted_total", "Accepted."),
                &[
                    ("policy", coach_telemetry::LabelValue::Str("Coach")),
                    ("shard", coach_telemetry::LabelValue::U64(3)),
                ],
            )
            .add(41);
        registry
            .gauge(
                coach_telemetry::MetricId::new("coach_serve_snapshot_encode_bytes_per_s", "Enc."),
                &[],
            )
            .set(1.5e9);
        registry
            .histogram(
                coach_telemetry::MetricId::new("coach_serve_admission_latency_ns", "Admit."),
                &[],
            )
            .record_ns(12_345);
        let reply = WireReply::Telemetry(registry.drain_delta());
        let frame = seal_frame(&reply);
        let back: WireReply = open_frame(&frame).expect("decode WireReply");
        assert_eq!(back, reply);

        // A telemetry mode this build does not know (1 is unassigned)
        // fails softly.
        for tag in [1u8, 99] {
            let mut e = Encoder::new();
            e.u8(6);
            e.u8(tag);
            let mut frame = Vec::from(coach_wire::MAGIC);
            frame.extend_from_slice(&coach_wire::VERSION.to_le_bytes());
            frame.extend_from_slice(&e.into_bytes());
            assert_eq!(
                open_frame::<WireCmd>(&frame),
                Err(WireError::UnknownTag {
                    context: "TelemetryConfig",
                    tag: tag as u64,
                })
            );
        }
    }

    #[test]
    fn protocol_frames_roundtrip() {
        let trace = generate(&TraceConfig::small(19));
        let recs: Vec<VmRecord> = trace.vms.iter().take(3).cloned().collect();
        let cmds = vec![
            WireCmd::Init {
                windows_per_day: 6,
                snapshot: vec![1, 2, 3],
            },
            WireCmd::Batch(recs.iter().map(|r| (7u64, r.clone())).collect(), Vec::new()),
            WireCmd::Run(recs.clone(), Vec::new()),
            WireCmd::Token(TokenCmd::Stats {
                now: Timestamp::from_ticks(42),
            }),
            WireCmd::Finalize,
            WireCmd::Export,
        ];
        for cmd in &cmds {
            let frame = seal_frame(cmd);
            let back: WireCmd = open_frame(&frame).expect("decode WireCmd");
            assert_eq!(back, *cmd);
        }

        let snapshot = ShardSnapshot {
            stats: StatsReport {
                accepted: 5,
                ticks: 2,
                ..StatsReport::default()
            },
            probe_counts: vec![3, 1, 4],
            timeline_delta: vec![(10, 1, 0, 1), (11, 0, 3, -1)],
        };
        let replies = vec![
            WireReply::InitOk,
            WireReply::Answers(vec![(
                0,
                Response::Admission {
                    vm: recs[0].id,
                    outcome: coach_sched::PlacementOutcome::Rejected,
                },
            )]),
            WireReply::Ran,
            WireReply::Token(Response::Ticked),
            WireReply::Stats(Box::new(snapshot.clone())),
            WireReply::Finalized(Box::new(snapshot)),
            WireReply::Exported(vec![9, 9, 9]),
        ];
        for reply in &replies {
            let frame = seal_frame(reply);
            let back: WireReply = open_frame(&frame).expect("decode WireReply");
            assert_eq!(back, *reply);
        }
    }

    /// Deterministic protocol frames (supervision verbs, tokens, bare
    /// replies), length-prefix concatenated exactly as they cross the
    /// pipe, pinned against committed bytes. Drift means the protocol
    /// format changed and [`coach_wire::VERSION`] needs a bump. Regenerate
    /// with `COACH_WIRE_BLESS=1 cargo test -p coach-serve wire`.
    #[test]
    fn golden_protocol_frames_are_pinned() {
        let now = Timestamp::from_ticks(424_242);
        let frames: Vec<Vec<u8>> = vec![
            seal_frame(&WireCmd::Init {
                windows_per_day: 6,
                snapshot: vec![0xAA, 0xBB, 0xCC],
            }),
            seal_frame(&WireCmd::Token(TokenCmd::Depart {
                vm: VmId::new(99),
                now,
            })),
            seal_frame(&WireCmd::Token(TokenCmd::Tick { now })),
            seal_frame(&WireCmd::Token(TokenCmd::Probe { now })),
            seal_frame(&WireCmd::Token(TokenCmd::Stats { now })),
            seal_frame(&WireCmd::Finalize),
            seal_frame(&WireCmd::Export),
            seal_frame(&WireCmd::Telemetry {
                mode: TelemetryConfig::Full,
            }),
            seal_frame(&WireReply::InitOk),
            seal_frame(&WireReply::Ran),
            seal_frame(&WireReply::Token(Response::Ticked)),
            seal_frame(&WireReply::Token(Response::ProbeCapacity(17))),
            seal_frame(&WireReply::Exported(vec![0xDE, 0xAD])),
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            coach_wire::write_frame(&mut stream, frame).expect("write to vec");
        }

        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/protocol_v8.bin");
        if std::env::var_os("COACH_WIRE_BLESS").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &stream).unwrap();
        }
        let fixture =
            std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture: {e}"));
        assert_eq!(
            stream, fixture,
            "protocol frame encoding drifted from the committed v8 fixture — \
             this is a wire format change and needs a VERSION bump"
        );

        // The committed stream reads back frame-for-frame.
        let mut reader = &fixture[..];
        for expected in &frames {
            let frame = coach_wire::read_frame(&mut reader)
                .expect("read committed frame")
                .expect("stream not exhausted");
            assert_eq!(&frame, expected);
        }
        assert_eq!(coach_wire::read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn malformed_protocol_frames_fail_softly() {
        let mut e = Encoder::new();
        e.u8(250); // unknown WireCmd tag
        let mut frame = Vec::from(coach_wire::MAGIC);
        frame.extend_from_slice(&coach_wire::VERSION.to_le_bytes());
        frame.extend_from_slice(&e.into_bytes());
        assert!(matches!(
            open_frame::<WireCmd>(&frame),
            Err(WireError::UnknownTag { .. })
        ));

        // A truncated snapshot frame decodes to an error, not a panic.
        let snap = Snapshot::from_bytes(vec![0x43, 0x57]);
        assert!(open_frame::<ControllerDump>(snap.bytes()).is_err());
    }
}
