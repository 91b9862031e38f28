//! Differential tests: the online controller must reproduce the batch
//! replay exactly — same placements, same rejection count, same probe
//! capacity, same occupancy peak, same violation rates — across seeds,
//! policies, trace scales, shard counts, and random arrival/departure
//! interleavings.

mod common;

use coach_serve::{
    serve_trace, serve_trace_sharded, Controller, Request, RequestSource, Response, ServeConfig,
    ShardedController, TelemetryConfig,
};
use coach_sim::{packing_experiment, Oracle, PolicyConfig, ProbeMode};
use coach_trace::{generate, TraceConfig};
use coach_types::prelude::*;
use common::trace_from_spans;

/// Full-strict equality of every `PackingResult` field, with a precise
/// failure message.
fn assert_results_equal(
    label: &str,
    online: &coach_sim::PackingResult,
    batch: &coach_sim::PackingResult,
) {
    assert_eq!(online, batch, "{label}: online != batch");
}

/// Small traces: every policy × several seeds, bit-exact.
#[test]
fn online_matches_batch_small_all_policies() {
    for seed in [101u64, 202, 303] {
        let trace = generate(&TraceConfig::small(seed));
        for policy in PolicyConfig::paper_set() {
            let online = serve_trace(
                &trace,
                &Oracle::new(TimeWindows::paper_default()),
                policy,
                0.6,
            );
            let batch = packing_experiment(
                &trace,
                &Oracle::new(TimeWindows::paper_default()),
                policy,
                0.6,
            );
            assert_results_equal(
                &format!("seed {seed} policy {}", policy.label),
                &online,
                &batch,
            );
        }
    }
}

/// A medium-trace slice (denser clusters, real rejections) stays bit-exact.
#[test]
fn online_matches_batch_medium_slice() {
    let mut trace = generate(&TraceConfig::medium(7));
    trace.vms.truncate(8_000);
    for policy in [
        PolicyConfig::paper_set().remove(2), // Coach
        PolicyConfig::paper_set().remove(0), // None
    ] {
        let online = serve_trace(
            &trace,
            &Oracle::new(TimeWindows::paper_default()),
            policy,
            0.9,
        );
        let batch = packing_experiment(
            &trace,
            &Oracle::new(TimeWindows::paper_default()),
            policy,
            0.9,
        );
        assert_results_equal(
            &format!("medium slice policy {}", policy.label),
            &online,
            &batch,
        );
    }
}

/// Sharded replay on the persistent worker runtime: integer-exact
/// everywhere, ulp-tolerant only on the cross-shard floating-point
/// capacity sums.
#[test]
fn sharded_matches_batch() {
    // Four clusters so every shard count in 1..=4 is genuinely distinct.
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(404)
    });
    let coach = PolicyConfig::paper_set().remove(2);
    let batch = packing_experiment(
        &trace,
        &Oracle::new(TimeWindows::paper_default()),
        coach,
        0.7,
    );
    for shards in [1, 2, 3, 4] {
        let online = serve_trace_sharded(
            &trace,
            &Oracle::new(TimeWindows::paper_default()),
            coach,
            0.7,
            shards,
        );
        assert_eq!(online.accepted, batch.accepted, "{shards} shards");
        assert_eq!(online.rejected, batch.rejected, "{shards} shards");
        assert_eq!(
            online.probe_capacity, batch.probe_capacity,
            "{shards} shards"
        );
        assert_eq!(
            online.peak_servers_in_use, batch.peak_servers_in_use,
            "{shards} shards: merged-timeline peak"
        );
        assert_eq!(
            online.cpu_violation_rate, batch.cpu_violation_rate,
            "{shards} shards"
        );
        assert_eq!(
            online.mem_violation_rate, batch.mem_violation_rate,
            "{shards} shards"
        );
        let rel = (online.accepted_core_hours - batch.accepted_core_hours).abs()
            / batch.accepted_core_hours.max(1.0);
        assert!(rel < 1e-9, "{shards} shards: core-hours rel err {rel}");
        let rel = (online.accepted_gb_hours - batch.accepted_gb_hours).abs()
            / batch.accepted_gb_hours.max(1.0);
        assert!(rel < 1e-9, "{shards} shards: gb-hours rel err {rel}");
    }
}

/// Eight shards over eight clusters — one worker per cluster, the widest
/// fan-out any caller asks for — stay integer-exact against the
/// single-shard controller on the replay stream, probes included.
#[test]
fn eight_shards_match_single_shard() {
    let trace = generate(&TraceConfig {
        cluster_count: 8,
        ..TraceConfig::small(808)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let single = serve_trace(&trace, &oracle, coach, 0.7);
    let mut sharded = ShardedController::replaying(&trace, &oracle, coach, 0.7, 8);
    assert_eq!(sharded.shard_count(), 8, "eight genuinely distinct shards");
    let online = sharded.run(RequestSource::replaying(&trace));
    assert_eq!(online.accepted, single.accepted);
    assert_eq!(online.rejected, single.rejected);
    assert_eq!(online.probe_capacity, single.probe_capacity);
    assert_eq!(online.peak_servers_in_use, single.peak_servers_in_use);
    assert_eq!(online.cpu_violation_rate, single.cpu_violation_rate);
    assert_eq!(online.mem_violation_rate, single.mem_violation_rate);
}

/// `handle_batch` + `finalize` (two worker sessions) and `run` (one
/// session, responses discarded) produce the same merged result — and both
/// match the batch experiment.
#[test]
fn batch_and_streaming_sessions_agree() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(505)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let batch = packing_experiment(&trace, &oracle, coach, 0.7);
    for shards in [2, 4] {
        let mut batched = ShardedController::replaying(&trace, &oracle, coach, 0.7, shards);
        let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
        let responses = batched.handle_batch(&requests);
        assert_eq!(responses.len(), requests.len());
        let batched_result = batched.finalize();

        let mut streamed = ShardedController::replaying(&trace, &oracle, coach, 0.7, shards);
        let streamed_result = streamed.run(RequestSource::replaying(&trace));

        assert_eq!(batched_result, streamed_result, "{shards} shards");
        assert_eq!(streamed_result.accepted, batch.accepted, "{shards} shards");
        assert_eq!(streamed_result.rejected, batch.rejected, "{shards} shards");
        assert_eq!(
            streamed_result.peak_servers_in_use, batch.peak_servers_in_use,
            "{shards} shards"
        );
        assert_eq!(
            streamed_result.probe_capacity, batch.probe_capacity,
            "{shards} shards"
        );
    }
}

/// The probe estimator agrees with the exhaustive fill at every
/// measurement of the differential replay (`ProbeMode::Differential`
/// asserts equality inside the controller), and the replay stays
/// bit-identical to the batch experiment.
#[test]
fn probe_estimator_matches_exhaustive_in_replay() {
    let oracle = Oracle::new(TimeWindows::paper_default());
    for seed in [101u64, 202] {
        let trace = generate(&TraceConfig::small(seed));
        for policy in PolicyConfig::paper_set() {
            let mut config = ServeConfig::replaying(policy, 0.6, trace.horizon);
            config.probe_mode = ProbeMode::Differential;
            let mut controller = Controller::new(&trace.clusters, &oracle, config);
            for request in RequestSource::replaying(&trace) {
                controller.handle(request);
            }
            let online = controller.finalize();
            let batch = packing_experiment(&trace, &oracle, policy, 0.6);
            assert_results_equal(
                &format!("differential probes, seed {seed} policy {}", policy.label),
                &online,
                &batch,
            );
        }
    }
}

/// Mid-stream stats barriers through the worker runtime: merged reports
/// reconcile monotonically and the final result is unchanged by the extra
/// broadcasts.
#[test]
fn midstream_stats_merge_reconciles() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(606)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let batch = packing_experiment(&trace, &oracle, coach, 0.7);

    let mut sharded = ShardedController::replaying(&trace, &oracle, coach, 0.7, 3);
    let requests: Vec<Request> = RequestSource::replaying(&trace)
        .with_stats_every(SimDuration::from_hours(12))
        .collect();
    let responses = sharded.handle_batch(&requests);
    let stats: Vec<_> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Stats(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    assert!(stats.len() > 3, "cadence produced merged reports");
    for pair in stats.windows(2) {
        assert!(pair[0].now < pair[1].now, "reports advance in time");
        assert!(
            pair[0].accepted + pair[0].rejected <= pair[1].accepted + pair[1].rejected,
            "admission totals are monotone"
        );
        assert!(
            pair[0].peak_servers_in_use <= pair[1].peak_servers_in_use,
            "merged peak is monotone"
        );
    }
    let result = sharded.finalize();
    assert_eq!(result.accepted, batch.accepted);
    assert_eq!(result.rejected, batch.rejected);
    assert_eq!(result.peak_servers_in_use, batch.peak_servers_in_use);
    assert_eq!(result.probe_capacity, batch.probe_capacity);
}

/// Lane telemetry survives across sharded sessions: `lane_totals()` is
/// monotone from session to session and non-zero at the end, with batched
/// handoffs bounded by total sends.
#[test]
fn lane_telemetry_survives_sharded_merge() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(909)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let mut sharded = ShardedController::replaying(&trace, &oracle, coach, 0.7, 3);
    let requests: Vec<Request> = RequestSource::replaying(&trace)
        .with_stats_every(SimDuration::from_hours(12))
        .collect();
    let mut totals = Vec::new();
    for session in requests.chunks(requests.len().div_ceil(4)) {
        sharded.handle_batch(session);
        totals.push(sharded.lane_totals());
    }
    sharded.finalize();
    totals.push(sharded.lane_totals());
    for lanes in &totals {
        assert!(
            lanes.batched_sends <= lanes.sends,
            "a batched handoff carries at least one item"
        );
    }
    let last = totals.last().expect("sessions ran");
    assert!(last.sends > 0, "the sessions carried lane traffic");
    assert!(last.batched_sends > 0, "the sessions saw batched handoffs");
    for pair in totals.windows(2) {
        assert!(
            pair[0].sends <= pair[1].sends,
            "lane sends are monotone across sessions"
        );
        assert!(
            pair[0].batched_sends <= pair[1].batched_sends,
            "batched handoffs are monotone across sessions"
        );
        assert!(
            pair[0].wakeups <= pair[1].wakeups,
            "wakeups are monotone across sessions"
        );
    }

    // A single-shard controller runs on a worker lane: one send each way
    // per segment, token and finalize, whichever side derives.
    let config = ServeConfig {
        telemetry: TelemetryConfig::Full,
        ..ServeConfig::replaying(coach, 0.7, trace.horizon)
    };
    let mut single = ShardedController::new(&trace.clusters, &oracle, config, 1);
    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    let tokens = requests
        .iter()
        .filter(|r| !matches!(r, Request::Arrive(_)))
        .count() as u64;
    single.run(requests);
    let registry = single.telemetry_registry().expect("armed").snapshot();
    let segments = registry
        .counter("coach_serve_stream_segments_total", &[])
        .expect("segments counted");
    let lanes = single.lane_totals();
    assert_eq!(lanes.sends, 2 * (segments + tokens + 1));
}

/// Relative error of a cross-shard hour sum against its reference.
fn hours_rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.max(1.0)
}

/// Hold a cross-shard (core, GB) hour-sum pair to its reference within
/// 1e-9, then take the reference's values so the rest of the struct can
/// be compared exactly.
fn settle_hours(got: [&mut f64; 2], want: [f64; 2], label: &str) {
    for (g, w) in got.into_iter().zip(want) {
        let rel = hours_rel_err(*g, w);
        assert!(rel < 1e-9, "{label}: hour sum rel err {rel}");
        *g = w;
    }
}

/// The far corner of the knob matrix, all at once: 4 shards ×
/// differential probes (every measurement asserts estimator == exhaustive
/// inside the shard) × full telemetry, over a medium-trace slice. Anchors
/// to the batch experiment — integers exactly, the cross-shard hour sums
/// to 1e-9.
#[test]
fn differential_probes_full_telemetry_four_shards_match_batch() {
    let mut trace = generate(&TraceConfig::medium(7));
    trace.vms.truncate(8_000);
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let batch = packing_experiment(&trace, &oracle, coach, 0.9);

    let config = ServeConfig {
        probe_mode: ProbeMode::Differential,
        telemetry: TelemetryConfig::Full,
        ..ServeConfig::replaying(coach, 0.9, trace.horizon)
    };
    let mut controller = ShardedController::new(&trace.clusters, &oracle, config, 4);
    assert_eq!(
        controller.shard_count(),
        4,
        "four genuinely distinct shards"
    );
    let online = controller.run(RequestSource::replaying(&trace));

    assert_eq!(online.accepted, batch.accepted);
    assert_eq!(online.rejected, batch.rejected);
    assert_eq!(online.probe_capacity, batch.probe_capacity);
    assert_eq!(online.peak_servers_in_use, batch.peak_servers_in_use);
    assert_eq!(online.cpu_violation_rate, batch.cpu_violation_rate);
    assert_eq!(online.mem_violation_rate, batch.mem_violation_rate);
    let rel = hours_rel_err(online.accepted_core_hours, batch.accepted_core_hours);
    assert!(rel < 1e-9, "core-hours rel err {rel}");
    let rel = hours_rel_err(online.accepted_gb_hours, batch.accepted_gb_hours);
    assert!(rel < 1e-9, "gb-hours rel err {rel}");
}

/// Every request kind through the shard workers: arrivals interleaved
/// with a `Depart` of a resident VM, a `Depart` of a VM nobody admitted,
/// `Tick`, `Probe` and mid-stream `Stats`. At 2 and 4 shards every
/// response equals the 1-shard controller's — integers exactly, the
/// merged hour sums of a stats report to 1e-9 — and so does the final
/// result.
#[test]
fn every_request_kind_agrees_across_shard_counts() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(1717)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);

    let mut requests: Vec<Request> = Vec::new();
    let mut arrivals = 0u64;
    for request in RequestSource::replaying(&trace) {
        requests.push(request);
        let Request::Arrive(rec) = request else {
            continue;
        };
        arrivals += 1;
        if arrivals.is_multiple_of(40) {
            let now = rec.arrival;
            requests.extend([
                Request::Depart { vm: rec.id, now },
                Request::Depart {
                    vm: VmId::new(u64::MAX - arrivals),
                    now,
                },
                Request::Tick { now },
                Request::Stats { now },
            ]);
        }
    }

    let mut single = ShardedController::replaying(&trace, &oracle, coach, 0.7, 1);
    let expected = single.handle_batch(&requests);
    let expected_result = single.finalize();
    let exercised = |kind: &str, is_kind: fn(&Response) -> bool| {
        assert!(
            expected.iter().any(is_kind),
            "the stream exercised a {kind}"
        );
    };
    exercised("admission", |r| matches!(r, Response::Admission { .. }));
    exercised("resident depart", |r| {
        matches!(r, Response::Departed { found: true, .. })
    });
    exercised("unknown depart", |r| {
        matches!(r, Response::Departed { found: false, .. })
    });
    exercised("tick", |r| matches!(r, Response::Ticked));
    exercised("probe", |r| matches!(r, Response::ProbeCapacity(_)));
    exercised("stats", |r| matches!(r, Response::Stats(_)));

    for shards in [2usize, 4] {
        let mut sharded = ShardedController::replaying(&trace, &oracle, coach, 0.7, shards);
        assert_eq!(sharded.shard_count(), shards);
        let got = sharded.handle_batch(&requests);
        assert_eq!(got.len(), expected.len());
        for (i, (got, want)) in got.into_iter().zip(&expected).enumerate() {
            let got = match (got, want) {
                (Response::Stats(mut got), Response::Stats(want)) => {
                    settle_hours(
                        [&mut got.accepted_core_hours, &mut got.accepted_gb_hours],
                        [want.accepted_core_hours, want.accepted_gb_hours],
                        &format!("{shards} shards, request {i}"),
                    );
                    Response::Stats(got)
                }
                (got, _) => got,
            };
            assert_eq!(&got, want, "{shards} shards, request {i}");
        }

        let mut result = sharded.finalize();
        settle_hours(
            [
                &mut result.accepted_core_hours,
                &mut result.accepted_gb_hours,
            ],
            [
                expected_result.accepted_core_hours,
                expected_result.accepted_gb_hours,
            ],
            &format!("{shards} shards: finalize"),
        );
        assert_eq!(result, expected_result, "{shards} shards: finalize agrees");
    }
}

/// Streaming responses agree with the final counters: every arrival gets an
/// admission answer and the accept/reject tally reconciles.
#[test]
fn per_request_responses_reconcile() {
    let trace = generate(&TraceConfig::small(55));
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let mut controller = Controller::replaying(&trace, &oracle, coach, 0.6);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut probes = 0u64;
    for req in RequestSource::replaying(&trace) {
        match controller.handle(req) {
            Response::Admission { outcome, .. } => match outcome {
                coach_sched::PlacementOutcome::Placed(_) => accepted += 1,
                coach_sched::PlacementOutcome::Rejected => rejected += 1,
            },
            Response::ProbeCapacity(_) => probes += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    let result = controller.finalize();
    assert_eq!(result.accepted, accepted);
    assert_eq!(result.rejected, rejected);
    assert_eq!(probes, 3);
    assert_eq!(accepted + rejected, trace.vms.len() as u64);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random arrival/departure interleavings — including equal-time
        /// arrival+departure collisions and zero-length VMs — replay
        /// identically through the heap-driven online controller and the
        /// pre-sorted batch experiment.
        #[test]
        fn prop_heap_event_order_matches_batch(
            spans in prop::collection::vec((0u64..96, 0u64..200, 0u32..8), 1..60),
            policy_sel in 0usize..4,
            fraction_sel in 0usize..2,
        ) {
            let trace = trace_from_spans(&spans, 6, 900);
            let policy = PolicyConfig::paper_set()[policy_sel];
            let fraction = [0.5, 1.0][fraction_sel];
            let online = serve_trace(
                &trace,
                &Oracle::new(TimeWindows::paper_default()),
                policy,
                fraction,
            );
            let batch = packing_experiment(
                &trace,
                &Oracle::new(TimeWindows::paper_default()),
                policy,
                fraction,
            );
            prop_assert_eq!(online, batch);
        }

        /// The worker runtime stays integer-exact against the batch replay
        /// for every shard count in 1..=4 under random interleavings.
        #[test]
        fn prop_sharded_runtime_matches_batch(
            spans in prop::collection::vec((0u64..96, 0u64..200, 0u32..8), 1..40),
            policy_sel in 0usize..4,
            shards in 1usize..=4,
        ) {
            let trace = trace_from_spans(&spans, 6, 900);
            let policy = PolicyConfig::paper_set()[policy_sel];
            let sharded = serve_trace_sharded(
                &trace,
                &Oracle::new(TimeWindows::paper_default()),
                policy,
                0.7,
                shards,
            );
            let batch = packing_experiment(
                &trace,
                &Oracle::new(TimeWindows::paper_default()),
                policy,
                0.7,
            );
            prop_assert_eq!(sharded.accepted, batch.accepted);
            prop_assert_eq!(sharded.rejected, batch.rejected);
            prop_assert_eq!(sharded.probe_capacity, batch.probe_capacity);
            prop_assert_eq!(sharded.peak_servers_in_use, batch.peak_servers_in_use);
            prop_assert_eq!(sharded.cpu_violation_rate, batch.cpu_violation_rate);
            prop_assert_eq!(sharded.mem_violation_rate, batch.mem_violation_rate);
        }
    }
}
