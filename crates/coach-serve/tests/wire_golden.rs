//! Golden pin for the snapshot frame format.
//!
//! A committed snapshot of a deterministic mid-stream controller must keep
//! encoding to the identical bytes — and restoring from the committed
//! bytes must keep producing the identical controller. If either drifts,
//! the snapshot wire format changed and [`coach_wire::VERSION`] needs a
//! bump, not a silent re-interpretation of deployed checkpoints.
//! Regenerate deliberately with
//! `COACH_WIRE_BLESS=1 cargo test -p coach-serve --test wire_golden --
//! --test-threads=1` (two tests bless the same file).

use coach_serve::{Controller, Request, RequestSource, Snapshot};
use coach_sim::{Oracle, PolicyConfig};
use coach_trace::{generate, TraceConfig};
use coach_types::prelude::*;
use coach_wire::WireError;
use std::path::PathBuf;

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

/// The reference controller: a fixed trace, halted halfway through its
/// stream.
fn golden_snapshot() -> (coach_trace::Trace, Snapshot) {
    let trace = generate(&TraceConfig::small(23));
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let mut controller = Controller::replaying(&trace, &oracle, coach, 0.6);
    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    for request in &requests[..requests.len() / 2] {
        controller.handle(*request);
    }
    let snapshot = controller.snapshot();
    (trace, snapshot)
}

#[test]
fn golden_snapshot_bytes_are_pinned() {
    let (_trace, snapshot) = golden_snapshot();
    let fixture = load_or_bless("snapshot_v9.bin", snapshot.bytes());
    assert_eq!(
        snapshot.bytes(),
        &fixture[..],
        "snapshot encoding drifted from the committed v9 fixture — \
         this is a wire format change and needs a VERSION bump"
    );
}

#[test]
fn golden_snapshot_restores_and_resumes() {
    let (trace, live) = golden_snapshot();
    let fixture = load_or_bless("snapshot_v9.bin", live.bytes());
    let committed = Snapshot::from_bytes(fixture);

    // The committed bytes restore, re-snapshot to themselves, and finish
    // the stream to the same result as the freshly taken snapshot.
    let oracle = Oracle::new(TimeWindows::paper_default());
    let mut from_fixture =
        Controller::restore(&oracle, &committed, |_| None).expect("committed snapshot restores");
    assert_eq!(from_fixture.snapshot(), committed);

    let mut from_live =
        Controller::restore(&oracle, &live, |_| None).expect("fresh snapshot restores");
    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    for request in &requests[requests.len() / 2..] {
        from_fixture.handle(*request);
        from_live.handle(*request);
    }
    assert_eq!(from_fixture.finalize(), from_live.finalize());
}

/// Where the `ServeConfig`'s probe mode sits in the golden frame.
const PROBE_MODE_BYTE: usize = 33;

/// A frame sealed while replays defaulted to `ProbeMode::Exhaustive`
/// carries its byte (0) where the fixture carries `Estimated`'s (1): it
/// still restores, keeps its byte, and measures as `Estimated`, so it
/// answers the rest of the stream exactly as the fixture does.
#[test]
fn a_frame_with_the_exhaustive_byte_restores_and_measures_as_estimated() {
    let (trace, live) = golden_snapshot();
    let fixture = load_or_bless("snapshot_v9.bin", live.bytes());
    assert_eq!(fixture[PROBE_MODE_BYTE], 1, "the fixture's probe mode");
    let mut exhaustive = fixture.clone();
    exhaustive[PROBE_MODE_BYTE] = 0;
    let exhaustive = Snapshot::from_bytes(exhaustive);

    let oracle = Oracle::new(TimeWindows::paper_default());
    let mut from_old =
        Controller::restore(&oracle, &exhaustive, |_| None).expect("an Exhaustive frame restores");
    assert_eq!(from_old.snapshot(), exhaustive);
    let mut from_fixture = Controller::restore(&oracle, &Snapshot::from_bytes(fixture), |_| None)
        .expect("committed snapshot restores");
    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    let tail = &requests[requests.len() / 2..];
    assert!(tail.iter().any(|r| matches!(r, Request::Probe { .. })));
    for request in tail {
        assert_eq!(from_old.handle(*request), from_fixture.handle(*request));
    }
    assert_eq!(from_old.finalize(), from_fixture.finalize());
}

#[test]
fn older_versioned_snapshots_are_rejected_structurally() {
    // A checkpoint sealed before a layout change carries the old version
    // in its header (1: the old `ServeConfig`; 2: accountant entries as
    // record references plus a record table; 3: whole demands per hosted
    // VM and two demand columns in the store; 4: the resident store's slot
    // columns and free list, `occupancy_timeline` inside `ServeConfig`; 5:
    // an admission-latency histogram and its sampling stride, and the
    // worker backend inside `ServeConfig`; 6: a second copy of the
    // heuristic and scan strategy, and lifetime placed/rejected counters,
    // in every scheduler dump; 7: a heuristic byte in `ServeConfig`, the
    // Formula 4 pool sums in every server dump, and a second copy of each
    // cluster's capacity beside its scheduler dump; 8: capacities, sums and
    // hosted rows as `f64` resource vectors, not grid units):
    // restoring it must fail with the typed version error, never
    // re-interpret the old layout.
    let (_trace, live) = golden_snapshot();
    let oracle = Oracle::new(TimeWindows::paper_default());
    for old in [1u16, 2, 3, 4, 5, 6, 7, 8] {
        let mut bytes = load_or_bless("snapshot_v9.bin", live.bytes());
        bytes[4..6].copy_from_slice(&old.to_le_bytes());
        let restored = Controller::restore(&oracle, &Snapshot::from_bytes(bytes), |_| None);
        assert_eq!(
            restored.err(),
            Some(WireError::Version {
                got: old,
                expected: coach_wire::VERSION,
            })
        );
    }
}

/// `(byte, bit)` flips of the fixture that leave two departures under one
/// `(time, seq)` with different ids: ascending as whole tuples, but no
/// order the calendar can pop in. Restore refuses each.
const SEQ_COLLISION_FLIPS: [(usize, u8); 6] = [
    (6674, 0),
    (6677, 0),
    (6942, 1),
    (6946, 1),
    (6954, 3),
    (6958, 3),
];

fn committed_fixture() -> Vec<u8> {
    std::fs::read(fixture_path("snapshot_v9.bin")).expect("committed fixture")
}

#[test]
fn departures_under_one_time_and_seq_are_refused() {
    let fixture = committed_fixture();
    let oracle = Oracle::new(TimeWindows::paper_default());
    for (byte, bit) in SEQ_COLLISION_FLIPS {
        let mut bytes = fixture.clone();
        bytes[byte] ^= 1 << bit;
        let restored = Controller::restore(&oracle, &Snapshot::from_bytes(bytes), |_| None);
        assert!(restored.is_err(), "byte {byte} bit {bit} restored");
    }
}

/// Every truncation and every single-bit flip of the committed fixture
/// restores or is refused; none panics. Ignored in the default run (about
/// 250k restores: seconds in release, minutes in debug); run it with
/// `cargo test --release -p coach-serve --test wire_golden -- --include-ignored`.
#[test]
#[ignore]
fn no_truncation_or_bit_flip_panics() {
    let fixture = committed_fixture();
    let oracle = Oracle::new(TimeWindows::paper_default());
    let restore = |bytes: Vec<u8>| {
        let snapshot = Snapshot::from_bytes(bytes);
        std::panic::catch_unwind(|| Controller::restore(&oracle, &snapshot, |_| None).is_ok())
    };
    let mut panicked = Vec::new();
    let (mut restored, mut refused) = (0usize, 0usize);
    let mut tally = |result: std::thread::Result<bool>, case: String| match result {
        Ok(true) => restored += 1,
        Ok(false) => refused += 1,
        Err(_) => panicked.push(case),
    };
    for len in 0..fixture.len() {
        tally(
            restore(fixture[..len].to_vec()),
            format!("truncated to {len}"),
        );
    }
    for byte in 0..fixture.len() {
        for bit in 0..8 {
            let mut bytes = fixture.clone();
            bytes[byte] ^= 1 << bit;
            tally(restore(bytes), format!("byte {byte} bit {bit}"));
        }
    }
    assert!(
        panicked.is_empty(),
        "{} panics: {panicked:?}",
        panicked.len()
    );
    eprintln!("{restored} restored, {refused} refused");
}
