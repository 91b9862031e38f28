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
    let fixture = load_or_bless("snapshot_v7.bin", snapshot.bytes());
    assert_eq!(
        snapshot.bytes(),
        &fixture[..],
        "snapshot encoding drifted from the committed v7 fixture — \
         this is a wire format change and needs a VERSION bump"
    );
}

#[test]
fn golden_snapshot_restores_and_resumes() {
    let (trace, live) = golden_snapshot();
    let fixture = load_or_bless("snapshot_v7.bin", live.bytes());
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
    // in every scheduler dump):
    // restoring it must fail with the typed version error, never
    // re-interpret the old layout.
    let (_trace, live) = golden_snapshot();
    let oracle = Oracle::new(TimeWindows::paper_default());
    for old in [1u16, 2, 3, 4, 5, 6] {
        let mut bytes = load_or_bless("snapshot_v7.bin", live.bytes());
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
