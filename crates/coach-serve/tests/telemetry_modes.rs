//! Telemetry-mode differential tests: arming the registry (and the span
//! rings) must never change a decision, the registry's counters must agree
//! with the `StatsReport` and `lane_totals` views the serving layer
//! already exposes, and the exports must be well-formed.

use coach_serve::{
    Request, RequestSource, Response, ServeConfig, ShardedController, TelemetryConfig,
};
use coach_sim::{Oracle, PolicyConfig};
use coach_telemetry::chrome_trace;
use coach_trace::{generate, Trace, TraceConfig};
use coach_types::prelude::*;

fn small_trace(seed: u64) -> Trace {
    generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(seed)
    })
}

fn sharded<'a>(
    trace: &'a Trace,
    oracle: &'a Oracle,
    mode: TelemetryConfig,
    shards: usize,
) -> ShardedController<'a> {
    let coach = PolicyConfig::paper_set().remove(2);
    let config = ServeConfig {
        telemetry: mode,
        ..ServeConfig::replaying(coach, 0.7, trace.horizon)
    };
    ShardedController::new(&trace.clusters, oracle, config, shards)
}

/// Off and Full produce bit-identical decisions — the whole telemetry
/// subsystem is observation, never a participant.
#[test]
fn modes_are_decision_bit_identical() {
    let trace = small_trace(7001);
    let oracle = Oracle::new(TimeWindows::paper_default());
    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    let mut baseline = None;
    for mode in [TelemetryConfig::Off, TelemetryConfig::Full] {
        let mut controller = sharded(&trace, &oracle, mode, 3);
        let responses = controller.handle_batch(&requests);
        let result = controller.finalize();
        match &baseline {
            None => baseline = Some((responses, result)),
            Some((expect_responses, expect_result)) => {
                assert_eq!(
                    &responses, expect_responses,
                    "{mode:?}: responses identical"
                );
                assert_eq!(&result, expect_result, "{mode:?}: merged result identical");
            }
        }
    }
}

/// `Off` arms nothing: no registry, no rings.
#[test]
fn off_mode_exposes_no_registry() {
    let trace = small_trace(7002);
    let oracle = Oracle::new(TimeWindows::paper_default());
    let mut controller = sharded(&trace, &oracle, TelemetryConfig::Off, 2);
    controller.run(RequestSource::replaying(&trace));
    assert!(controller.telemetry_registry().is_none());
    assert!(controller.telemetry_span_rings().is_empty());
}

/// The registry's decision-derived counters are views over the same state
/// `StatsReport` already reports: summed across shard labels they must
/// equal the merged report's fields exactly. Its lane counters equal
/// `lane_totals()`.
#[test]
fn registry_counters_match_stats_report() {
    let trace = small_trace(7003);
    let oracle = Oracle::new(TimeWindows::paper_default());
    let mut controller = sharded(&trace, &oracle, TelemetryConfig::Full, 2);
    let mut requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    requests.push(Request::Stats { now: trace.horizon });
    let responses = controller.handle_batch(&requests);
    let Some(Response::Stats(report)) = responses.last() else {
        panic!("trailing stats request answered");
    };

    let registry = controller.telemetry_registry().expect("telemetry armed");
    let snapshot = registry.snapshot();
    let sum = |name: &str| -> u64 {
        snapshot
            .counters_with_prefix(name)
            .into_iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, _, v)| v)
            .sum()
    };
    assert_eq!(sum("coach_serve_accepted_total"), report.accepted);
    assert_eq!(sum("coach_serve_rejected_total"), report.rejected);
    assert_eq!(sum("coach_serve_departed_total"), report.departed);
    assert_eq!(
        sum("coach_serve_probe_capacity_total"),
        report.probe_capacity_total
    );
    // Ticks are broadcast: every shard absorbs every tick, the report
    // takes the max.
    assert_eq!(sum("coach_serve_ticks_total"), report.ticks * 2);
    // The lane counters mirror the controller's own totals.
    let lanes = controller.lane_totals();
    assert!(lanes.sends > 0, "a 2-shard session used its lanes");
    assert_eq!(sum("coach_serve_lane_sends_total"), lanes.sends);
    assert_eq!(
        sum("coach_serve_lane_batched_sends_total"),
        lanes.batched_sends
    );
    assert_eq!(sum("coach_serve_lane_wakeups_total"), lanes.wakeups);
    assert_eq!(sum("coach_serve_lane_full_stalls_total"), lanes.full_stalls);
}

/// Full mode records spans and every export renders: Prometheus text with
/// HELP/TYPE headers, JSONL one-object-per-line, and a Chrome trace that
/// is a single JSON object with complete-phase events.
#[test]
fn full_mode_spans_and_exports_render() {
    let trace = small_trace(7004);
    let oracle = Oracle::new(TimeWindows::paper_default());
    let mut controller = sharded(&trace, &oracle, TelemetryConfig::Full, 2);
    let mut requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    requests.push(Request::Stats { now: trace.horizon });
    controller.handle_batch(&requests);

    let registry = controller.telemetry_registry().expect("telemetry armed");
    let text = registry.render_text();
    assert!(text.contains("# HELP coach_serve_accepted_total"));
    assert!(text.contains("# TYPE coach_serve_admission_latency_ns histogram"));
    assert!(text.contains("policy=\""));
    let jsonl = registry.render_jsonl();
    assert!(jsonl.lines().count() >= 10, "one JSON object per series");
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line {line}"
        );
    }

    // 2 shard rings + the dispatcher ring, with barrier spans recorded.
    let rings = controller.telemetry_span_rings();
    assert_eq!(rings.len(), 3);
    let dispatcher_ring = rings.last().expect("dispatcher ring present");
    assert!(dispatcher_ring.count("dispatch.stage") > 0);
    assert!(dispatcher_ring.count("dispatch.drain") > 0);
    assert!(dispatcher_ring.count("dispatch.merge") > 0);
    assert!(
        rings[0].count("serve.stats") > 0,
        "shard rings hold broadcast-token spans"
    );

    let json = chrome_trace(rings.iter().copied());
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\""));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"name\":\"dispatch.drain\""));
    assert!(json.contains("\"ph\":\"X\""));
}
