//! Streaming ingestion differential tests: the constant-memory stream path
//! (`StreamingTrace` → `StreamSource` → `ShardedController::run_stream`)
//! must be decision-identical to the materialized replay, and every
//! scenario combinator must match its hand-materialized equivalent when
//! served — at one shard and at four.

use coach_serve::scenario::{sku_mix, stream_arrivals, Evacuate, GroupFailure, Surge};
use coach_serve::{RequestSource, ServeConfig, ShardedController, StreamRequest, StreamSource};
use coach_sim::{Oracle, PolicyConfig, Predictor, ProbeMode};
use coach_trace::{generate, Cluster, StreamingTrace, TraceConfig};
use coach_types::prelude::*;

/// Four clusters so shard counts up to 4 are genuinely distinct.
fn four_cluster_config(seed: u64) -> TraceConfig {
    TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(seed)
    }
}

/// Serve an owning request sequence at `shards` through both entry points
/// — `run_stream` over the values, `run` over borrows of them; the two
/// must agree exactly — same segmentation, same float order.
fn assert_stream_equals_materialized(
    label: &str,
    clusters: &[Cluster],
    predictor: &dyn Predictor,
    config: ServeConfig,
    shards: usize,
    requests: &[StreamRequest],
) {
    let mut streamed = ShardedController::new(clusters, predictor, config, shards);
    let streamed_result = streamed.run_stream(requests.to_vec());
    let mut materialized = ShardedController::new(clusters, predictor, config, shards);
    let materialized_result = materialized.run(requests.iter().map(StreamRequest::as_request));
    assert_eq!(
        streamed_result, materialized_result,
        "{label}: {shards} shards"
    );
}

/// The full stream path over a `StreamingTrace` reproduces the materialized
/// replay exactly for every paper policy at shards {1, 2, 4}.
#[test]
fn stream_replay_matches_materialized_all_policies() {
    let config = four_cluster_config(31);
    let trace = generate(&config);
    let streaming = StreamingTrace::with_chunk_budget(&config, 64);
    assert_eq!(streaming.clusters(), &trace.clusters[..]);
    let oracle = Oracle::new(TimeWindows::paper_default());
    for policy in PolicyConfig::paper_set() {
        for shards in [1usize, 2, 4] {
            let mut materialized =
                ShardedController::replaying(&trace, &oracle, policy, 0.7, shards);
            let expected = materialized.run(RequestSource::replaying(&trace));
            let mut streamed = ShardedController::new(
                streaming.clusters(),
                &oracle,
                ServeConfig::replaying(policy, 0.7, trace.horizon),
                shards,
            );
            let got = streamed.run_stream(StreamSource::streaming(&streaming));
            assert_eq!(got, expected, "policy {} shards {shards}", policy.label);
        }
    }
}

/// Surge scenario: live combinator chain over the streaming generator,
/// decision-identical to its materialized equivalent at shards {1, 4}.
#[test]
fn surge_scenario_decision_identity() {
    let config = four_cluster_config(33);
    let streaming = StreamingTrace::new(&config);
    let horizon = config.horizon;
    let mid = Timestamp::from_ticks(horizon.ticks() / 2);
    let make = || {
        Surge::new(
            stream_arrivals(streaming.records()),
            2,
            mid,
            horizon,
            1 << 32,
        )
    };
    let requests: Vec<StreamRequest> = make().collect();
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let serve = ServeConfig::replaying(coach, 0.7, horizon);
    for shards in [1usize, 4] {
        assert_stream_equals_materialized(
            "surge",
            streaming.clusters(),
            &oracle,
            serve,
            shards,
            &requests,
        );
    }
    // And the live (uncollected) combinator agrees with its own
    // materialization end-to-end.
    let mut live = ShardedController::new(streaming.clusters(), &oracle, serve, 4);
    let live_result = live.run_stream(make());
    let mut collected = ShardedController::new(streaming.clusters(), &oracle, serve, 4);
    let collected_result = collected.run_stream(requests);
    assert_eq!(live_result, collected_result);
}

/// Evacuation scenario at shards {1, 4}: the drained cluster's VMs depart
/// at the evacuation time and re-routed arrivals land on the target.
#[test]
fn evacuation_scenario_decision_identity() {
    let config = four_cluster_config(35);
    let streaming = StreamingTrace::new(&config);
    let clusters = streaming.clusters().to_vec();
    let at = Timestamp::from_ticks(config.horizon.ticks() / 2);
    let requests: Vec<StreamRequest> = Evacuate::new(
        stream_arrivals(streaming.records()),
        clusters[0].id,
        at,
        clusters[1].id,
    )
    .collect();
    assert!(
        requests
            .iter()
            .any(|r| matches!(r, StreamRequest::Depart { .. })),
        "evacuation storm fired"
    );
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let serve = ServeConfig::replaying(coach, 0.7, config.horizon);
    for shards in [1usize, 4] {
        assert_stream_equals_materialized("evac", &clusters, &oracle, serve, shards, &requests);
    }
}

/// Correlated-group failure at shards {1, 4}: the re-placement storm (all
/// departs, then all re-arrivals at the failure time) serves identically
/// streamed and materialized.
#[test]
fn group_failure_scenario_decision_identity() {
    let config = four_cluster_config(37);
    let trace = generate(&config);
    let streaming = StreamingTrace::new(&config);
    // The busiest subscription makes the biggest storm.
    let mut counts = std::collections::HashMap::new();
    for rec in &trace.vms {
        *counts.entry(rec.subscription).or_insert(0usize) += 1;
    }
    let (&sub, _) = counts.iter().max_by_key(|(_, n)| **n).unwrap();
    let at = Timestamp::from_ticks(config.horizon.ticks() / 3);
    let requests: Vec<StreamRequest> =
        GroupFailure::new(stream_arrivals(streaming.records()), sub, at, 1 << 40).collect();
    assert!(
        requests
            .iter()
            .any(|r| matches!(r, StreamRequest::Depart { .. })),
        "failure storm fired"
    );
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let serve = ServeConfig::replaying(coach, 0.7, config.horizon);
    for shards in [1usize, 4] {
        assert_stream_equals_materialized(
            "group-fail",
            streaming.clusters(),
            &oracle,
            serve,
            shards,
            &requests,
        );
    }
}

/// A probe right after a correlated-group failure whose re-arrivals took
/// ids from `1 << 40`, the base the reference fill numbers its probes
/// from: under `Differential`, the fill on the scheduler clones skips the
/// ids the cluster already hosts instead of placing a duplicate, at shards
/// {1, 4}, streamed == materialized. The estimator numbers no probes; that
/// a probe leaves the live schedulers as it found them is
/// `a_probe_changes_no_snapshot_byte_but_its_count` in `controller.rs`.
#[test]
fn probe_after_group_failure_skips_hosted_ids() {
    let config = four_cluster_config(37);
    let streaming = StreamingTrace::new(&config);
    let records: Vec<_> = streaming.records().collect();
    let mut counts = std::collections::HashMap::new();
    for rec in &records {
        *counts.entry(rec.subscription).or_insert(0usize) += 1;
    }
    let (&sub, _) = counts.iter().max_by_key(|(_, n)| **n).unwrap();
    let at = Timestamp::from_ticks(config.horizon.ticks() / 3);
    let base = 1u64 << 40;
    let mut requests: Vec<StreamRequest> =
        GroupFailure::new(stream_arrivals(records.into_iter()), sub, at, base).collect();
    // The probe goes right behind the storm's last re-arrival, while every
    // revived VM is still resident.
    let last_revived = requests
        .iter()
        .rposition(|r| matches!(r, StreamRequest::Arrive(rec) if rec.id.raw() >= base))
        .expect("failure storm re-placed VMs");
    requests.insert(last_revived + 1, StreamRequest::Probe { now: at });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let serve = ServeConfig {
        probe_mode: ProbeMode::Differential,
        ..ServeConfig::replaying(coach, 0.7, config.horizon)
    };
    for shards in [1usize, 4] {
        let mut controller = ShardedController::new(streaming.clusters(), &oracle, serve, shards);
        let result = controller.run_stream(requests.clone());
        assert!(result.probe_capacity > 0.0, "the probe measured room");
        assert_stream_equals_materialized(
            "group-fail probe",
            streaming.clusters(),
            &oracle,
            serve,
            shards,
            &requests,
        );
    }
}

/// Heterogeneous-SKU scenario at shards {1, 4}: the same stream served on
/// the rotated fleet, streamed vs materialized.
#[test]
fn sku_mix_scenario_decision_identity() {
    let config = four_cluster_config(39);
    let streaming = StreamingTrace::new(&config);
    let rotated = sku_mix(streaming.clusters());
    for (before, after) in streaming.clusters().iter().zip(&rotated) {
        assert_ne!(before.hardware.capacity, after.hardware.capacity);
    }
    let requests: Vec<StreamRequest> = stream_arrivals(streaming.records()).collect();
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let serve = ServeConfig::replaying(coach, 0.7, config.horizon);
    for shards in [1usize, 4] {
        assert_stream_equals_materialized("sku-mix", &rotated, &oracle, serve, shards, &requests);
    }
}

/// The `serve.stream_*` counters land in the registry after a streaming
/// session.
#[test]
fn stream_counters_reach_registry() {
    let config = four_cluster_config(41);
    let streaming = StreamingTrace::new(&config);
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let serve = ServeConfig {
        telemetry: coach_serve::TelemetryConfig::Full,
        ..ServeConfig::replaying(coach, 0.7, config.horizon)
    };
    let mut controller = ShardedController::new(streaming.clusters(), &oracle, serve, 2);
    controller.run_stream(StreamSource::streaming(&streaming));
    let registry = controller.telemetry_registry().expect("telemetry armed");
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("coach_serve_stream_records_total", &[]),
        Some(streaming.len() as u64)
    );
    assert!(
        snapshot
            .counter("coach_serve_stream_segments_total", &[])
            .expect("segments counter registered")
            >= 1
    );
}

/// Two entry points, one dispatcher: `run` over a borrowed replay and
/// `run_stream` over its cloned equivalent produce the same result from
/// the same number of records in the same number of segments.
#[test]
fn run_and_run_stream_ship_the_same_segments() {
    let trace = generate(&four_cluster_config(43));
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let serve = ServeConfig {
        telemetry: coach_serve::TelemetryConfig::Full,
        ..ServeConfig::replaying(coach, 0.7, trace.horizon)
    };
    let shipped = |controller: &ShardedController| {
        let snapshot = controller
            .telemetry_registry()
            .expect("telemetry armed")
            .snapshot();
        (
            snapshot.counter("coach_serve_stream_records_total", &[]),
            snapshot.counter("coach_serve_stream_segments_total", &[]),
        )
    };
    for shards in [1usize, 2, 4] {
        let mut borrowed = ShardedController::new(&trace.clusters, &oracle, serve, shards);
        let borrowed_result = borrowed.run(RequestSource::replaying(&trace));
        let mut owned = ShardedController::new(&trace.clusters, &oracle, serve, shards);
        let owned_result =
            owned.run_stream(RequestSource::replaying(&trace).map(StreamRequest::from_request));
        assert_eq!(borrowed_result, owned_result, "{shards} shards");
        assert_eq!(shipped(&borrowed), shipped(&owned), "{shards} shards");
        assert_eq!(shipped(&owned).0, Some(trace.vms.len() as u64));
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Random chunk budgets: the chunked stream replay is bit-identical
        /// to the whole-slice `RequestSource` replay across the four paper
        /// policies and shard counts {1, 2, 4}.
        #[test]
        fn prop_chunked_stream_matches_whole_slice(
            budget in 1usize..4096,
            seed in 0u64..4,
            policy_sel in 0usize..4,
            shards_sel in 0usize..3,
        ) {
            let config = four_cluster_config(4300 + seed);
            let trace = generate(&config);
            let streaming = StreamingTrace::with_chunk_budget(&config, budget);
            prop_assert_eq!(streaming.clusters(), &trace.clusters[..]);
            let policy = PolicyConfig::paper_set()[policy_sel];
            let shards = [1usize, 2, 4][shards_sel];
            let oracle = Oracle::new(TimeWindows::paper_default());
            let mut materialized =
                ShardedController::replaying(&trace, &oracle, policy, 0.7, shards);
            let expected = materialized.run(RequestSource::replaying(&trace));
            let mut streamed = ShardedController::new(
                streaming.clusters(),
                &oracle,
                ServeConfig::replaying(policy, 0.7, trace.horizon),
                shards,
            );
            let got = streamed.run_stream(StreamSource::streaming(&streaming));
            prop_assert_eq!(got, expected);
        }
    }
}
