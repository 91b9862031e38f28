//! **coach-wire** — the versioned binary codec behind Coach's controller
//! snapshots.
//!
//! A snapshot of a serving controller can be stored or shipped to another
//! process and restored there, so its bytes are untrusted input. The
//! format is deliberately hand-rolled and dependency-free — the wire
//! contract must not inherit another crate's layout decisions — and every
//! property a restore relies on is explicit:
//!
//! * **Versioned frames.** A frame is a 4-byte magic (`b"CWIR"`), a
//!   little-endian `u16` schema version, and a payload. Decoding a frame
//!   with a bumped version yields [`WireError::Version`], never a silent
//!   misparse; committed golden fixtures pin the byte layout in CI.
//! * **Bit-exact floats.** `f64` travels as the 8 little-endian bytes of
//!   [`f64::to_bits`], so the violation accountant's running sums and
//!   every capacity figure survive a round trip unchanged — the
//!   snapshot identity suites compare them with `assert_eq!`.
//! * **Varint framing.** Unsigned integers use LEB128 (≤ 10 bytes,
//!   canonical-length checked on the final byte); signed integers zigzag
//!   first. Collections are length-prefixed, claimed lengths are
//!   validated against the bytes actually remaining, and a decoder
//!   reserves at most what those bytes could hold
//!   ([`Decoder::capacity_for`]), so adversarial frames cannot force huge
//!   allocations.
//! * **Strict errors, no panics.** Truncation, trailing bytes, unknown
//!   enum tags, bad magic, and invalid values each map to a structured
//!   [`WireError`]. Decoding arbitrary bytes never panics — a fuzz-style
//!   proptest mutates encoded frames and asserts exactly that.
//!
//! Message vocabularies (snapshot payloads) live next to their types in
//! the crates that own them; this crate owns only the primitives:
//! [`Encoder`]/[`Decoder`], the [`Encode`]/[`Decode`] traits with impls
//! for the scalar and container building blocks, and frame
//! sealing/opening.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// The 4-byte frame magic.
pub const MAGIC: [u8; 4] = *b"CWIR";

/// The current wire schema version. Bump on any layout change; decoding a
/// frame with a different version fails with [`WireError::Version`].
pub const VERSION: u16 = 8;

/// A structured decode failure. Decoding untrusted bytes returns one of
/// these; it never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value under `context` was complete.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The payload decoded cleanly but `remaining` bytes were left over —
    /// a frame must be consumed exactly.
    Trailing {
        /// Unconsumed byte count.
        remaining: usize,
    },
    /// An enum discriminant had no corresponding variant.
    UnknownTag {
        /// Which enum was being decoded.
        context: &'static str,
        /// The unrecognized tag value.
        tag: u64,
    },
    /// The frame's schema version is not [`VERSION`].
    Version {
        /// The version found in the frame header.
        got: u16,
        /// The version this build speaks.
        expected: u16,
    },
    /// The frame does not start with [`MAGIC`].
    Magic {
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// A value was structurally well-formed but semantically invalid
    /// (non-boolean bool byte, varint overflow, non-UTF-8 string, a
    /// length field contradicting its data, …).
    Invalid {
        /// What was invalid.
        context: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => write!(f, "truncated input decoding {context}"),
            WireError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after payload")
            }
            WireError::UnknownTag { context, tag } => {
                write!(f, "unknown tag {tag} decoding {context}")
            }
            WireError::Version { got, expected } => {
                write!(
                    f,
                    "wire schema version {got} (this build speaks {expected})"
                )
            }
            WireError::Magic { got } => write!(f, "bad frame magic {got:?}"),
            WireError::Invalid { context } => write!(f, "invalid value decoding {context}"),
        }
    }
}

impl std::error::Error for WireError {}

/// An append-only byte sink with the primitive encodings.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// LEB128 varint.
    pub fn u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// `u32` as a varint.
    pub fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }

    /// `u16` as a varint.
    pub fn u16(&mut self, v: u16) {
        self.u64(v as u64);
    }

    /// `usize` as a varint.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Zigzag-encoded signed varint.
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// `i32` as a zigzag varint.
    pub fn i32(&mut self, v: i32) {
        self.i64(v as i64);
    }

    /// `f64` as the 8 little-endian bytes of its IEEE-754 bits —
    /// bit-exact, NaN payloads included.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A bool as one strict byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// A bounds-checked cursor over untrusted bytes.
#[derive(Debug)]
pub struct Decoder<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Decoder<'b> {
    /// Decode from a raw payload (no frame header).
    pub fn new(buf: &'b [u8]) -> Decoder<'b> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Fail with [`WireError::Trailing`] unless fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(WireError::Trailing {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'b [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One raw byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    /// LEB128 varint (≤ 10 bytes; the 10th byte may only contribute the
    /// 64th bit).
    pub fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(context)?;
            let bits = (byte & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                return Err(WireError::Invalid { context });
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::Invalid { context })
    }

    /// `u32` varint, range-checked.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        u32::try_from(self.u64(context)?).map_err(|_| WireError::Invalid { context })
    }

    /// `u16` varint, range-checked.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        u16::try_from(self.u64(context)?).map_err(|_| WireError::Invalid { context })
    }

    /// `usize` varint, range-checked.
    pub fn usize(&mut self, context: &'static str) -> Result<usize, WireError> {
        usize::try_from(self.u64(context)?).map_err(|_| WireError::Invalid { context })
    }

    /// Zigzag-decoded signed varint.
    pub fn i64(&mut self, context: &'static str) -> Result<i64, WireError> {
        let v = self.u64(context)?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// `i32` zigzag varint, range-checked.
    pub fn i32(&mut self, context: &'static str) -> Result<i32, WireError> {
        i32::try_from(self.i64(context)?).map_err(|_| WireError::Invalid { context })
    }

    /// `f64` from its 8 little-endian IEEE-754 bit bytes.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        let bytes: [u8; 8] = self.take(8, context)?.try_into().expect("8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// A strict bool byte: 0 or 1, anything else is [`WireError::Invalid`].
    pub fn bool(&mut self, context: &'static str) -> Result<bool, WireError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid { context }),
        }
    }

    /// A claimed collection length, validated against the bytes actually
    /// remaining (every element costs at least one byte), so a corrupt
    /// length cannot drive a huge allocation.
    pub fn seq_len(&mut self, context: &'static str) -> Result<usize, WireError> {
        let len = self.usize(context)?;
        if len > self.remaining() {
            return Err(WireError::Truncated { context });
        }
        Ok(len)
    }

    /// How many `T`s to reserve for a collection claiming `len` of them:
    /// at most what the bytes left could hold in memory. An element may
    /// take one byte on the wire and many more in memory, so reserving
    /// `len` would let a short frame demand a huge allocation before it
    /// fails; a collection longer than this grows as it decodes.
    pub fn capacity_for<T>(&self, len: usize) -> usize {
        len.min(self.remaining() / std::mem::size_of::<T>().max(1))
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'b [u8], WireError> {
        let len = self.seq_len(context)?;
        self.take(len, context)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<&'b str, WireError> {
        std::str::from_utf8(self.bytes(context)?).map_err(|_| WireError::Invalid { context })
    }
}

/// A value with a defined byte encoding.
pub trait Encode {
    /// Append this value's encoding.
    fn encode(&self, e: &mut Encoder);
}

/// A value decodable from bytes, with structured errors and no panics.
pub trait Decode: Sized {
    /// Decode one value from the cursor.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError>;
}

macro_rules! scalar_impl {
    ($ty:ty, $enc:ident, $dec:ident) => {
        impl Encode for $ty {
            fn encode(&self, e: &mut Encoder) {
                e.$enc(*self);
            }
        }
        impl Decode for $ty {
            fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
                d.$dec(stringify!($ty))
            }
        }
    };
}

scalar_impl!(u8, u8, u8);
scalar_impl!(u16, u16, u16);
scalar_impl!(u32, u32, u32);
scalar_impl!(u64, u64, u64);
scalar_impl!(usize, usize, usize);
scalar_impl!(i32, i32, i32);
scalar_impl!(i64, i64, i64);
scalar_impl!(f64, f64, f64);
scalar_impl!(bool, bool, bool);

impl Encode for String {
    fn encode(&self, e: &mut Encoder) {
        e.str(self);
    }
}

impl Decode for String {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(d.str("String")?.to_string())
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.len());
        for item in self {
            item.encode(e);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let len = d.seq_len("Vec length")?;
        let mut out = Vec::with_capacity(d.capacity_for::<T>(len));
        for _ in 0..len {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, e: &mut Encoder) {
        for item in self {
            item.encode(e);
        }
    }
}

impl<T: Decode + Default + Copy, const N: usize> Decode for [T; N] {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let mut out = [T::default(); N];
        for slot in out.iter_mut() {
            *slot = T::decode(d)?;
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            None => e.bool(false),
            Some(v) => {
                e.bool(true);
                v.encode(e);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        if d.bool("Option tag")? {
            Ok(Some(T::decode(d)?))
        } else {
            Ok(None)
        }
    }
}

macro_rules! tuple_impl {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, e: &mut Encoder) {
                $(self.$idx.encode(e);)+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(d)?,)+))
            }
        }
    };
}

tuple_impl!(A: 0, B: 1);
tuple_impl!(A: 0, B: 1, C: 2);
tuple_impl!(A: 0, B: 1, C: 2, D: 3);

/// Seal a payload into a versioned frame: magic, version, payload bytes.
pub fn seal_frame(payload: &impl Encode) -> Vec<u8> {
    let mut e = Encoder::new();
    e.buf.extend_from_slice(&MAGIC);
    e.buf.extend_from_slice(&VERSION.to_le_bytes());
    payload.encode(&mut e);
    e.into_bytes()
}

/// Open a frame: check magic and version, return a cursor positioned at
/// the payload. The caller must [`Decoder::finish`] after decoding (or
/// use [`open_frame`]).
pub fn open_frame_raw<'b>(frame: &'b [u8]) -> Result<Decoder<'b>, WireError> {
    let mut d = Decoder::new(frame);
    let magic: [u8; 4] = d.take(4, "frame magic")?.try_into().expect("4 magic bytes");
    if magic != MAGIC {
        return Err(WireError::Magic { got: magic });
    }
    let version_bytes: [u8; 2] = d
        .take(2, "frame version")?
        .try_into()
        .expect("2 version bytes");
    let version = u16::from_le_bytes(version_bytes);
    if version != VERSION {
        return Err(WireError::Version {
            got: version,
            expected: VERSION,
        });
    }
    Ok(d)
}

/// Open a frame and decode its entire payload as one `T`, failing with
/// [`WireError::Trailing`] on leftover bytes.
pub fn open_frame<T: Decode>(frame: &[u8]) -> Result<T, WireError> {
    let mut d = open_frame_raw(frame)?;
    let value = T::decode(&mut d)?;
    d.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let frame = seal_frame(&value);
        let back: T = open_frame(&frame).expect("round trip");
        assert_eq!(back, value);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(300u32);
        round_trip(i64::MIN);
        round_trip(-1i32);
        round_trip(f64::NEG_INFINITY);
        round_trip(1.5f64);
        round_trip(true);
        round_trip(String::from("coach"));
        round_trip(vec![1u64, 2, 3]);
        round_trip((1u64, -2i64, 3.5f64));
        round_trip(Some(vec![(1u64, 2u8)]));
        round_trip(Option::<u64>::None);
        round_trip([1.0f64, -0.0, f64::MAX]);
    }

    #[test]
    fn f64_is_bit_exact() {
        for v in [0.1f64, -0.0, f64::from_bits(0x7ff8_0000_0000_1234)] {
            let frame = seal_frame(&v);
            let back: f64 = open_frame(&frame).expect("decode");
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn version_bump_is_structured() {
        let mut frame = seal_frame(&7u64);
        frame[4] = (VERSION + 1) as u8;
        assert_eq!(
            open_frame::<u64>(&frame),
            Err(WireError::Version {
                got: VERSION + 1,
                expected: VERSION
            })
        );
    }

    #[test]
    fn bad_magic_is_structured() {
        let mut frame = seal_frame(&7u64);
        frame[0] = b'X';
        assert!(matches!(
            open_frame::<u64>(&frame),
            Err(WireError::Magic { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = seal_frame(&7u64);
        frame.push(0);
        assert_eq!(
            open_frame::<u64>(&frame),
            Err(WireError::Trailing { remaining: 1 })
        );
    }

    #[test]
    fn truncation_is_structured() {
        let frame = seal_frame(&(u64::MAX, 1.5f64));
        for cut in 0..frame.len() {
            let err = open_frame::<(u64, f64)>(&frame[..cut]).expect_err("truncated");
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. }
                        | WireError::Magic { .. }
                        | WireError::Version { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn huge_length_claims_cannot_allocate() {
        // A Vec claiming u64::MAX elements with a 3-byte body.
        let mut e = Encoder::new();
        e.u64(u64::MAX);
        e.u8(1);
        e.u8(2);
        e.u8(3);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            Vec::<u64>::decode(&mut d),
            Err(WireError::Truncated { .. }) | Err(WireError::Invalid { .. })
        ));
    }

    #[test]
    fn non_canonical_bool_and_overlong_varint_rejected() {
        let mut d = Decoder::new(&[2]);
        assert_eq!(d.bool("b"), Err(WireError::Invalid { context: "b" }));
        // An 11-byte varint and a 10th byte carrying more than the top bit.
        let overlong = [
            0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
        ];
        let mut d = Decoder::new(&overlong);
        assert_eq!(d.u64("v"), Err(WireError::Invalid { context: "v" }));
        let too_big = [0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut d = Decoder::new(&too_big);
        assert_eq!(d.u64("v"), Err(WireError::Invalid { context: "v" }));
    }
}
