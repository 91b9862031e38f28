//! [`coach_wire`] codecs for trace records.
//!
//! A [`VmRecord`] crosses the process boundary inside the `Arrive`
//! requests streamed to process-backed shard workers; the [`UtilSampler`]
//! cut from its profile crosses inside snapshots (the violation accountant
//! dumps one per tracked VM). Both demand bit-exact round-trips — every
//! `f64` travels as raw bits and decode uses struct literals, never
//! validating constructors.

use coach_wire::{Decode, Decoder, Encode, Encoder, WireError};

use crate::model::{Cluster, VmRecord};
use crate::profile::{PatternKind, ResourceProfile, UtilSampler, VmProfile};
use coach_types::ResourceKind;

impl Encode for PatternKind {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            PatternKind::Periodic => 0,
            PatternKind::Constant => 1,
            PatternKind::Unpredictable => 2,
        });
    }
}

impl Decode for PatternKind {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("PatternKind")? {
            0 => Ok(PatternKind::Periodic),
            1 => Ok(PatternKind::Constant),
            2 => Ok(PatternKind::Unpredictable),
            tag => Err(WireError::UnknownTag {
                context: "PatternKind",
                tag: tag as u64,
            }),
        }
    }
}

impl Encode for ResourceProfile {
    fn encode(&self, e: &mut Encoder) {
        e.f64(self.base);
        e.f64(self.amplitude);
        e.f64(self.peak_hour);
        e.f64(self.peak_width_hours);
        e.f64(self.noise);
        e.f64(self.weekend_factor);
        e.f64(self.daily_drift);
    }
}

impl Decode for ResourceProfile {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ResourceProfile {
            base: d.f64("ResourceProfile base")?,
            amplitude: d.f64("ResourceProfile amplitude")?,
            peak_hour: d.f64("ResourceProfile peak_hour")?,
            peak_width_hours: d.f64("ResourceProfile peak_width_hours")?,
            noise: d.f64("ResourceProfile noise")?,
            weekend_factor: d.f64("ResourceProfile weekend_factor")?,
            daily_drift: d.f64("ResourceProfile daily_drift")?,
        })
    }
}

impl Encode for VmProfile {
    fn encode(&self, e: &mut Encoder) {
        self.kind.encode(e);
        for p in &self.per_resource {
            p.encode(e);
        }
        e.u64(self.noise_seed);
    }
}

impl Decode for VmProfile {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let kind = PatternKind::decode(d)?;
        let mut per_resource = [ResourceProfile::idle(); ResourceKind::COUNT];
        for slot in per_resource.iter_mut() {
            *slot = ResourceProfile::decode(d)?;
        }
        Ok(VmProfile {
            kind,
            per_resource,
            noise_seed: d.u64("VmProfile noise_seed")?,
        })
    }
}

impl Encode for UtilSampler {
    fn encode(&self, e: &mut Encoder) {
        self.kind.encode(e);
        self.cpu.encode(e);
        self.memory.encode(e);
        e.u64(self.noise_seed);
    }
}

impl Decode for UtilSampler {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(UtilSampler {
            kind: Decode::decode(d)?,
            cpu: Decode::decode(d)?,
            memory: Decode::decode(d)?,
            noise_seed: d.u64("UtilSampler noise_seed")?,
        })
    }
}

impl Encode for VmRecord {
    fn encode(&self, e: &mut Encoder) {
        self.id.encode(e);
        self.subscription.encode(e);
        self.subscription_type.encode(e);
        self.offering.encode(e);
        self.config.encode(e);
        self.cluster.encode(e);
        self.server.encode(e);
        self.arrival.encode(e);
        self.departure.encode(e);
        self.profile.encode(e);
    }
}

impl Decode for VmRecord {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(VmRecord {
            id: Decode::decode(d)?,
            subscription: Decode::decode(d)?,
            subscription_type: Decode::decode(d)?,
            offering: Decode::decode(d)?,
            config: Decode::decode(d)?,
            cluster: Decode::decode(d)?,
            server: Decode::decode(d)?,
            arrival: Decode::decode(d)?,
            departure: Decode::decode(d)?,
            profile: Decode::decode(d)?,
        })
    }
}

impl Encode for Cluster {
    fn encode(&self, e: &mut Encoder) {
        self.id.encode(e);
        self.hardware.encode(e);
        self.servers.encode(e);
    }
}

impl Decode for Cluster {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Cluster {
            id: Decode::decode(d)?,
            hardware: Decode::decode(d)?,
            servers: Decode::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{generate, TraceConfig};
    use coach_wire::{open_frame, seal_frame};

    #[test]
    fn trace_records_roundtrip_bit_exactly() {
        let trace = generate(&TraceConfig::small(17));
        for vm in trace.vms.iter().take(200) {
            let frame = seal_frame(vm);
            let back: crate::VmRecord = open_frame(&frame).expect("decode VmRecord");
            assert_eq!(&back, vm);
        }
        for cluster in &trace.clusters {
            let frame = seal_frame(cluster);
            let back: crate::Cluster = open_frame(&frame).expect("decode Cluster");
            assert_eq!(&back, cluster);
        }
    }
}
