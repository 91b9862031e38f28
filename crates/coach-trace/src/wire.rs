//! [`coach_wire`] codecs for trace utilization samplers.
//!
//! The [`UtilSampler`] cut from a VM's profile crosses inside snapshots
//! (the violation accountant dumps one per tracked VM) and demands a
//! bit-exact round-trip — every `f64` travels as raw bits and decode uses
//! struct literals, never validating constructors.

use coach_wire::{Decode, Decoder, Encode, Encoder, WireError};

use crate::profile::{PatternKind, ResourceProfile, UtilSampler};

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
