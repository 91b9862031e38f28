//! The telemetry exports must be machine-readable: the Chrome trace and
//! every JSONL series line have to parse with a strict JSON parser that
//! shares no code with the exporter, and the Prometheus text must follow
//! the HELP/TYPE/sample line discipline.

use coach_bench::json::Json;
use coach_serve::{Request, RequestSource, ServeConfig, ShardedController, TelemetryConfig};
use coach_sim::{Oracle, PolicyConfig};
use coach_trace::{generate, TraceConfig};
use coach_types::prelude::*;

#[test]
fn exports_parse_with_the_trend_json_parser() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(9001)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let config = ServeConfig {
        telemetry: TelemetryConfig::Full,
        ..ServeConfig::replaying(coach, 0.7, trace.horizon)
    };
    let mut controller = ShardedController::new(&trace.clusters, &oracle, config, 2);
    let mut requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    requests.push(Request::Stats { now: trace.horizon });
    controller.handle_batch(&requests);
    controller.finalize();

    let registry = controller.telemetry_registry().expect("telemetry armed");

    // Chrome trace: one JSON object with a traceEvents array of
    // complete-phase events carrying the required keys.
    let rings = controller.telemetry_span_rings();
    assert!(!rings.is_empty(), "full mode records span rings");
    let trace_json = coach_telemetry::chrome_trace(rings.iter().copied());
    let doc = Json::parse(&trace_json).expect("chrome trace is valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array present");
    };
    assert!(!events.is_empty(), "the run produced span events");
    for event in events {
        assert_eq!(event.str("ph"), Some("X"), "complete-phase events");
        assert!(event.str("name").is_some());
        assert!(event.num("ts").is_some());
        assert!(event.num("dur").is_some());
        assert!(event.num("tid").is_some());
    }

    // JSONL: every line is an object naming its series.
    let jsonl = registry.render_jsonl();
    assert!(jsonl.lines().count() >= 10);
    for line in jsonl.lines() {
        let series = Json::parse(line).expect("JSONL line is valid JSON");
        assert!(series.str("name").is_some(), "series carries its name");
    }

    // Prometheus text: HELP/TYPE comment headers plus `name{labels} value`
    // sample lines, nothing else.
    let prom = registry.render_text();
    assert!(prom.contains("# HELP coach_serve_accepted_total"));
    for line in prom.lines().filter(|l| !l.is_empty()) {
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("HELP ") || comment.starts_with("TYPE "),
                "bad comment line {line:?}"
            );
        } else {
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok(),
                "sample value is numeric: {line:?}"
            );
        }
    }
}
