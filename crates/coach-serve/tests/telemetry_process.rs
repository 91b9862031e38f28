//! Cross-process telemetry equality: a process-backed deployment's merged
//! registry must report the same decision-derived counter series — name,
//! labels, and value — as the thread-backed deployment on the same stream.
//! Transport-dependent series (lanes, wire bytes, span drops, restarts)
//! legitimately differ between backends and are excluded.
//!
//! `harness = false`: the pool re-execs this binary as its shard workers.

use coach_serve::{Request, RequestSource, ServeConfig, ShardedController, TelemetryConfig};
use coach_sim::{Oracle, PolicyConfig};
use coach_telemetry::CounterSeries;
use coach_trace::{generate, Trace, TraceConfig};
use coach_types::prelude::*;

/// The counter families both backends must agree on exactly: pure
/// functions of the (bit-identical) decision stream.
const DECISION_COUNTERS: &[&str] = &[
    "coach_serve_accepted_total",
    "coach_serve_rejected_total",
    "coach_serve_departed_total",
    "coach_serve_ticks_total",
    "coach_serve_probe_measurements_total",
    "coach_serve_probe_capacity_total",
];

fn run_backend(trace: &Trace, backend: WorkerBackend, shards: usize) -> Vec<CounterSeries> {
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let config = ServeConfig {
        backend,
        telemetry: TelemetryConfig::Full,
        ..ServeConfig::replaying(coach, 0.7, trace.horizon)
    };
    let mut controller = ShardedController::new(&trace.clusters, &oracle, config, shards);
    let requests: Vec<Request> = RequestSource::replaying(trace).collect();
    controller.handle_batch(&requests);
    controller.finalize();
    let snapshot = controller
        .telemetry_registry()
        .expect("telemetry armed")
        .snapshot();
    let mut series: Vec<CounterSeries> = DECISION_COUNTERS
        .iter()
        .flat_map(|name| {
            snapshot
                .counters_with_prefix(name)
                .into_iter()
                .filter(move |(n, _, _)| n == name)
        })
        .collect();
    series.sort();
    series
}

fn thread_and_process_registries_agree() {
    let trace = generate(&TraceConfig {
        cluster_count: 8,
        ..TraceConfig::small(4242)
    });
    let shards = 4usize;
    let threaded = run_backend(&trace, WorkerBackend::Thread, shards);
    let processed = run_backend(&trace, WorkerBackend::Process, shards);
    assert!(
        threaded.iter().any(|(_, _, v)| *v > 0),
        "the stream produced nonzero decision counters"
    );
    assert_eq!(
        processed, threaded,
        "process-merged registry == thread registry, series for series"
    );
}

fn main() {
    // Children re-exec this binary: route them into the worker loop first.
    coach_serve::maybe_run_shard_worker();

    match std::panic::catch_unwind(thread_and_process_registries_agree) {
        Ok(()) => println!("test thread_and_process_registries_agree ... ok"),
        Err(_) => {
            println!("test thread_and_process_registries_agree ... FAILED");
            std::process::exit(1);
        }
    }
}
