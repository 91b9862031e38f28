//! Snapshot/restore live servicing: draining a shard mid-stream, restoring
//! it into a freshly constructed controller, and resuming the stream must
//! be invisible — the final `PackingResult` is bit-identical to the
//! uninterrupted replay (and therefore to the batch experiment), at every
//! snapshot point, shard count, and policy.

mod common;

use coach_serve::{
    serve_trace_sharded, Controller, Request, RequestSource, ShardedController, Snapshot,
};
use coach_sim::{packing_experiment, Oracle, PolicyConfig};
use coach_trace::{generate, Trace, TraceConfig};
use coach_types::prelude::*;
use coach_wire::WireError;
use common::trace_from_spans;

/// Drain every shard at `split`, restore into a brand-new controller, and
/// finish the stream there; return the merged final result.
fn interrupted_replay(
    trace: &Trace,
    oracle: &Oracle,
    policy: PolicyConfig,
    fraction: f64,
    shards: usize,
    split: usize,
) -> coach_sim::PackingResult {
    let requests: Vec<Request> = RequestSource::replaying(trace).collect();
    let split = split.min(requests.len());

    let mut first = ShardedController::replaying(trace, oracle, policy, fraction, shards);
    first.handle_batch(&requests[..split]);
    let snapshots: Vec<Snapshot> = (0..first.shard_count())
        .map(|shard| first.drain_shard(shard))
        .collect();
    drop(first);

    // The upgrade: a fresh deployment of the same shape, seeded from the
    // drained snapshots, picks up the stream where the old one stopped.
    let mut second = ShardedController::replaying(trace, oracle, policy, fraction, shards);
    for (shard, snapshot) in snapshots.iter().enumerate() {
        second
            .resume_shard(shard, snapshot)
            .expect("drained snapshot restores");
    }
    second.handle_batch(&requests[split..]);
    second.finalize()
}

/// Snapshot→restore mid-stream equals the uninterrupted replay — across
/// shard counts {1, 2, 4}, all four paper policies, and three cut points
/// (early, middle, late).
#[test]
fn restore_mid_stream_matches_uninterrupted() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(4242)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let stream_len = RequestSource::replaying(&trace).count();
    for policy in PolicyConfig::paper_set() {
        let batch = packing_experiment(&trace, &oracle, policy, 0.7);
        for shards in [1usize, 2, 4] {
            let uninterrupted = serve_trace_sharded(&trace, &oracle, policy, 0.7, shards);
            assert_eq!(
                uninterrupted.accepted, batch.accepted,
                "{shards} shards {}: baseline anchors to batch",
                policy.label
            );
            for split in [1, stream_len / 2, stream_len - 1] {
                let resumed = interrupted_replay(&trace, &oracle, policy, 0.7, shards, split);
                assert_eq!(
                    resumed, uninterrupted,
                    "{shards} shards {} split {split}: restore is invisible",
                    policy.label
                );
            }
        }
    }
}

/// Snapshots are pure reads: taking one twice yields identical bytes, the
/// shard keeps serving afterwards, and restore→re-snapshot is a byte-level
/// fixed point.
#[test]
fn snapshot_is_nondestructive_and_roundtrips_bytes() {
    let trace = generate(&TraceConfig::small(777));
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    let split = requests.len() / 2;

    let mut controller = Controller::replaying(&trace, &oracle, coach, 0.6);
    for request in &requests[..split] {
        controller.handle(*request);
    }
    let s1 = controller.snapshot();
    let s2 = controller.snapshot();
    assert_eq!(s1, s2, "snapshot is a pure read");
    assert!(!s1.is_empty());

    let mut restored = Controller::restore(&oracle, &s1, |_| None).expect("snapshot restores");
    assert_eq!(
        restored.snapshot(),
        s1,
        "restore→re-snapshot is byte-identical"
    );

    // Both copies finish the stream and agree — and the original was not
    // perturbed by being snapshotted.
    for request in &requests[split..] {
        controller.handle(*request);
        restored.handle(*request);
    }
    assert_eq!(controller.finalize(), restored.finalize());
    assert_eq!(
        controller.snapshot(),
        restored.snapshot(),
        "same final bytes"
    );
}

/// A snapshot depends on the request stream and nothing else: two
/// independent controllers fed the same stream agree byte for byte at
/// every cut.
#[test]
fn snapshot_bytes_are_a_function_of_the_stream() {
    let trace = generate(&TraceConfig::small(778));
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    let mut a = Controller::replaying(&trace, &oracle, coach, 0.6);
    let mut b = Controller::replaying(&trace, &oracle, coach, 0.6);
    let mut fed = 0;
    for cut in [requests.len() / 4, requests.len() / 2, requests.len()] {
        for request in &requests[fed..cut] {
            assert_eq!(a.handle(*request), b.handle(*request));
        }
        fed = cut;
        assert_eq!(a.snapshot(), b.snapshot(), "bytes at request {cut}");
    }
}

/// Restore validates before it builds: a predictor with a different window
/// partition is rejected, as are truncated and corrupted snapshot bytes.
#[test]
fn restore_rejects_mismatched_or_corrupt_snapshots() {
    let trace = generate(&TraceConfig::small(31));
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let mut controller = Controller::replaying(&trace, &oracle, coach, 0.6);
    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    for request in &requests[..requests.len() / 2] {
        controller.handle(*request);
    }
    let snapshot = controller.snapshot();

    // Wrong predictor shape: the dump's window partition must match.
    let other = Oracle::new(TimeWindows::new(
        TimeWindows::paper_default().count() as u32 * 2,
    ));
    let Err(err) = Controller::restore(&other, &snapshot, |_| None) else {
        panic!("window mismatch rejected");
    };
    assert!(
        matches!(err, WireError::Invalid { .. }),
        "got {err:?}, want Invalid"
    );

    // Truncated bytes fail structurally, never panic.
    let truncated = Snapshot::from_bytes(snapshot.bytes()[..snapshot.len() / 2].to_vec());
    assert!(Controller::restore(&oracle, &truncated, |_| None).is_err());

    // A corrupted magic is rejected before any field decodes.
    let mut garbled = snapshot.bytes().to_vec();
    garbled[0] ^= 0xff;
    let garbled = Snapshot::from_bytes(garbled);
    assert!(matches!(
        Controller::restore(&oracle, &garbled, |_| None).err(),
        Some(WireError::Magic { .. })
    ));
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// A snapshot taken at a *random* stream position, restored into a
        /// fresh controller, finishes to the identical merged result —
        /// under random interleavings, every policy, and 1–2 shards.
        #[test]
        fn prop_restore_at_random_point_is_invisible(
            spans in prop::collection::vec((0u64..96, 0u64..200, 0u32..8), 1..40),
            policy_sel in 0usize..4,
            shards in 1usize..=2,
            cut in 0.0f64..1.0,
        ) {
            let trace = trace_from_spans(&spans, 6, 1300);
            let policy = PolicyConfig::paper_set()[policy_sel];
            let oracle = Oracle::new(TimeWindows::paper_default());
            let stream_len = RequestSource::replaying(&trace).count();
            let split = ((stream_len as f64) * cut) as usize;
            let uninterrupted =
                serve_trace_sharded(&trace, &oracle, policy, 0.7, shards);
            let resumed =
                interrupted_replay(&trace, &oracle, policy, 0.7, shards, split);
            prop_assert_eq!(resumed, uninterrupted);
        }
    }
}
