//! [`coach_wire`] codecs for the core vocabulary types.
//!
//! Every impl here round-trips **bit-exactly**: `f64` fields travel as raw
//! IEEE-754 bits (via [`coach_wire::Encoder::f64`]), so a decoded value is
//! indistinguishable from the original under `assert_eq!` on full structs —
//! the property the snapshot/restore differential tests in `coach-serve`
//! pin. Decoding untrusted bytes never panics: constructors with asserting
//! invariants ([`Percentile::new`], [`TimeWindows::new`]) are bypassed with
//! explicit validation that surfaces [`WireError::Invalid`] instead.

use coach_wire::{Decode, Decoder, Encode, Encoder, WireError};

use crate::ids::{ClusterId, ServerId, SubscriptionId, VmId};
use crate::resource::ResourceVec;
use crate::series::Percentile;
use crate::time::{SimDuration, TimeWindows, Timestamp, TICKS_PER_DAY};
use crate::units::Units;
use crate::winvec::WindowVec;

/// Implement `Encode`/`Decode` for an id newtype over `u64`.
macro_rules! id_wire {
    ($ty:ty) => {
        impl Encode for $ty {
            fn encode(&self, e: &mut Encoder) {
                e.u64(self.raw());
            }
        }
        impl Decode for $ty {
            fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
                Ok(<$ty>::new(d.u64(stringify!($ty))?))
            }
        }
    };
}

id_wire!(VmId);
id_wire!(ServerId);
id_wire!(ClusterId);
id_wire!(SubscriptionId);

impl Encode for ResourceVec {
    fn encode(&self, e: &mut Encoder) {
        for v in self.0 {
            e.f64(v);
        }
    }
}

impl Decode for ResourceVec {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        // Raw construction, not `ResourceVec::new`: snapshots carry derived
        // sums that must come back bit-for-bit, including negative slack or
        // non-finite values a validating constructor would reject.
        let mut out = [0.0; crate::resource::ResourceKind::COUNT];
        for slot in out.iter_mut() {
            *slot = d.f64("ResourceVec component")?;
        }
        Ok(ResourceVec(out))
    }
}

/// Four fixed-width `u32`s: 16 bytes on the wire as in memory, so a
/// frame's length bounds how many it can hold.
impl Encode for Units {
    fn encode(&self, e: &mut Encoder) {
        for v in self.0 {
            e.u32_le(v);
        }
    }
}

impl Decode for Units {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let mut out = [0; crate::resource::ResourceKind::COUNT];
        for slot in out.iter_mut() {
            *slot = d.u32_le("Units component")?;
        }
        Ok(Units(out))
    }
}

impl<T: Encode> Encode for WindowVec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.len());
        for v in self.iter() {
            v.encode(e);
        }
    }
}

impl<T: Decode + Copy + Default> Decode for WindowVec<T> {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let len = d.seq_len("WindowVec length")?;
        let mut out = WindowVec::new();
        for _ in 0..len {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl Encode for Timestamp {
    fn encode(&self, e: &mut Encoder) {
        e.u64(self.ticks());
    }
}

impl Decode for Timestamp {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(Timestamp::from_ticks(d.u64("Timestamp")?))
    }
}

impl Encode for SimDuration {
    fn encode(&self, e: &mut Encoder) {
        e.u64(self.ticks());
    }
}

impl Decode for SimDuration {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SimDuration::from_ticks(d.u64("SimDuration")?))
    }
}

impl Encode for TimeWindows {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.count() as u32);
    }
}

impl Decode for TimeWindows {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let per_day = d.u32("TimeWindows")?;
        // `TimeWindows::new` asserts both of these; untrusted bytes must
        // fail softly instead.
        if per_day == 0 || !TICKS_PER_DAY.is_multiple_of(per_day as u64) {
            return Err(WireError::Invalid {
                context: "TimeWindows windows-per-day",
            });
        }
        Ok(TimeWindows::new(per_day))
    }
}

impl Encode for Percentile {
    fn encode(&self, e: &mut Encoder) {
        e.f64(self.value());
    }
}

impl Decode for Percentile {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let value = d.f64("Percentile")?;
        // Mirror the `Percentile::new` assert as a soft decode error.
        if !value.is_finite() || !(0.0..=100.0).contains(&value) {
            return Err(WireError::Invalid {
                context: "Percentile out of [0, 100]",
            });
        }
        Ok(Percentile::new(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_wire::{open_frame, seal_frame};

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let frame = seal_frame(&value);
        let back: T = open_frame(&frame).expect("roundtrip decode");
        assert_eq!(back, value);
    }

    #[test]
    fn ids_and_scalars_roundtrip() {
        roundtrip(VmId::new(u64::MAX));
        roundtrip(ServerId::new(0));
        roundtrip(ClusterId::new(42));
        roundtrip(SubscriptionId::new(7));
        roundtrip(Timestamp::from_ticks(123_456_789));
        roundtrip(SimDuration::from_ticks(300));
        roundtrip(TimeWindows::new(6));
        roundtrip(Percentile::P95);
    }

    #[test]
    fn resource_vec_is_bit_exact() {
        // Values `ResourceVec::new` would reject still round-trip: raw
        // decoded snapshots must reproduce derived sums verbatim.
        let odd = ResourceVec([-0.0, f64::NAN, f64::INFINITY, 1e-308]);
        let frame = seal_frame(&odd);
        let back: ResourceVec = open_frame(&frame).expect("decode");
        for (a, b) in back.0.iter().zip(odd.0.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn units_roundtrip() {
        roundtrip(Units([0, 1, u32::MAX, 1 << 20]));
        let windows: WindowVec<Units> = (0..8).map(Units::splat).collect();
        roundtrip(windows);
    }

    #[test]
    fn window_vec_roundtrips_past_inline_spill() {
        let mut wv = WindowVec::new();
        for i in 0..10 {
            wv.push(ResourceVec::new(i as f64, 1.0, 0.5, 64.0));
        }
        roundtrip(wv);
        roundtrip(WindowVec::<ResourceVec>::new());
    }

    #[test]
    fn invalid_values_fail_softly() {
        // An out-of-range percentile must be a decode error, not a panic.
        let mut e = Encoder::new();
        e.f64(250.0);
        let mut frame = Vec::from(coach_wire::MAGIC);
        frame.extend_from_slice(&coach_wire::VERSION.to_le_bytes());
        frame.extend_from_slice(&e.into_bytes());
        assert!(matches!(
            open_frame::<Percentile>(&frame),
            Err(WireError::Invalid { .. })
        ));

        // 7 windows/day does not divide the tick count evenly.
        let mut e = Encoder::new();
        e.u32(7);
        let mut frame = Vec::from(coach_wire::MAGIC);
        frame.extend_from_slice(&coach_wire::VERSION.to_le_bytes());
        frame.extend_from_slice(&e.into_bytes());
        assert!(matches!(
            open_frame::<TimeWindows>(&frame),
            Err(WireError::Invalid { .. })
        ));
    }
}
