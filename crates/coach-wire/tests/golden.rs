//! Golden-file pins for the primitive wire layout.
//!
//! The fixtures under `tests/fixtures/` are committed bytes. If an edit to
//! the codec changes what these decode to — or what the reference values
//! encode to — this test fails, which is the signal to bump [`VERSION`]
//! rather than silently re-interpret old frames. Regenerate deliberately
//! with `COACH_WIRE_BLESS=1 cargo test -p coach-wire --test golden`.

use coach_wire::{open_frame, seal_frame, Decode, Encode, WireError, VERSION};
use std::path::PathBuf;

type GoldenPayload = (
    (u64, i64, f64, bool),
    (String, Vec<u64>, Option<f64>, Option<u64>),
);

fn golden_value() -> GoldenPayload {
    (
        (u64::MAX, -1_234_567_890_123, 0.1f64, true),
        (
            "coach-wire/v1".to_string(),
            vec![0, 1, 127, 128, 16_383, 16_384, u64::MAX],
            Some(f64::NEG_INFINITY),
            None,
        ),
    )
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn load_or_bless(name: &str, expected: &[u8]) -> Vec<u8> {
    let path = fixture_path(name);
    if std::env::var_os("COACH_WIRE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, expected).unwrap();
    }
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {name}: {e}"))
}

#[test]
fn golden_frame_bytes_and_decode_are_pinned() {
    let value = golden_value();
    let frame = seal_frame(&value);
    let fixture = load_or_bless("primitives_v10.bin", &frame);
    assert_eq!(
        frame, fixture,
        "encoder output drifted from the committed v10 fixture — \
         this is a wire format change and needs a VERSION bump"
    );
    let decoded: GoldenPayload = open_frame(&fixture).expect("golden fixture decodes");
    assert_eq!(decoded, value);
}

#[test]
fn bumped_version_fixture_is_rejected_structurally() {
    // Same payload sealed under a claimed future schema version: decoding
    // must yield WireError::Version, never a silent misparse.
    let mut bumped = seal_frame(&golden_value());
    bumped[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
    let fixture = load_or_bless("primitives_v11_bumped.bin", &bumped);
    assert_eq!(
        open_frame::<GoldenPayload>(&fixture),
        Err(WireError::Version {
            got: VERSION + 1,
            expected: VERSION,
        })
    );
}

#[test]
fn retired_fixtures_are_rejected_structurally() {
    // The frames this crate sealed before each layout change, kept as
    // committed bytes: a deployed v1 to v9 checkpoint must be refused
    // outright, not re-interpreted under the new layout.
    for (name, got) in [
        ("primitives_v1.bin", 1),
        ("primitives_v2.bin", 2),
        ("primitives_v3.bin", 3),
        ("primitives_v4.bin", 4),
        ("primitives_v5.bin", 5),
        ("primitives_v6.bin", 6),
        ("primitives_v7.bin", 7),
        ("primitives_v8.bin", 8),
        ("primitives_v9.bin", 9),
    ] {
        let fixture = std::fs::read(fixture_path(name)).expect("retired fixture");
        assert_eq!(
            open_frame::<GoldenPayload>(&fixture),
            Err(WireError::Version {
                got,
                expected: VERSION,
            })
        );
    }
}

#[test]
fn varint_boundary_bytes_are_pinned() {
    // The LEB128 breakpoints, written out by hand. A change here means
    // every committed frame in the repo reads back differently.
    let cases: &[(u64, &[u8])] = &[
        (0, &[0x00]),
        (127, &[0x7f]),
        (128, &[0x80, 0x01]),
        (16_383, &[0xff, 0x7f]),
        (16_384, &[0x80, 0x80, 0x01]),
        (
            u64::MAX,
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
        ),
    ];
    for &(value, bytes) in cases {
        let mut e = coach_wire::Encoder::new();
        value.encode(&mut e);
        assert_eq!(e.into_bytes(), bytes, "varint encoding of {value}");
        let mut d = coach_wire::Decoder::new(bytes);
        assert_eq!(u64::decode(&mut d), Ok(value));
        assert!(d.is_done());
    }
}
