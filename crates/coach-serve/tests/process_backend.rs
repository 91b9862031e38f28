//! Process-backend differential tests: supervised shard-worker *processes*
//! speaking coach-wire frames must be decision-identical to the in-process
//! thread backend — through clean replays, SIGKILL mid-stream, and
//! drain/resume live servicing.
//!
//! `harness = false`: the pool re-execs this very binary as its shard
//! workers, so `main` must call [`coach_serve::maybe_run_shard_worker`]
//! before any test logic.

use coach_serve::{
    serve_trace_sharded, Request, RequestSource, Response, ServeConfig, ShardedController,
    Snapshot, TelemetryConfig, SHARD_WORKER_ENV,
};
use coach_sim::{packing_experiment, NaiveReference, Oracle, PolicyConfig, ProbeMode};
use coach_trace::{generate, Trace, TraceConfig};
use coach_types::prelude::*;

/// A process-backed sharded controller replaying the batch semantics.
fn process_controller<'a>(
    trace: &'a Trace,
    oracle: &'a Oracle,
    policy: PolicyConfig,
    fraction: f64,
    shards: usize,
) -> ShardedController<'a> {
    let config = ServeConfig {
        backend: WorkerBackend::Process,
        ..ServeConfig::replaying(policy, fraction, trace.horizon)
    };
    ShardedController::new(&trace.clusters, oracle, config, shards)
}

/// Thread vs process: the same stream through supervised child processes
/// produces the identical merged `PackingResult` — every paper policy,
/// shard counts {1, 2, 4} — and both anchor to the batch experiment.
fn thread_vs_process_identity() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(2025)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    for policy in PolicyConfig::paper_set() {
        let batch = packing_experiment(&trace, &oracle, policy, 0.7);
        for shards in [1usize, 2, 4] {
            let threaded = serve_trace_sharded(&trace, &oracle, policy, 0.7, shards);
            let mut controller = process_controller(&trace, &oracle, policy, 0.7, shards);
            let processed = controller.run(RequestSource::replaying(&trace));
            assert_eq!(
                processed, threaded,
                "{shards} shards {}: process == thread",
                policy.label
            );
            assert_eq!(
                processed.accepted, batch.accepted,
                "{shards} shards {}: anchors to batch",
                policy.label
            );
            assert_eq!(
                controller.worker_restarts(),
                0,
                "clean replay never recovers"
            );
        }
    }
}

/// The far corner of the knob matrix, all at once: process backend × 4
/// shards × differential probes (every measurement asserts estimator ==
/// exhaustive inside the child) × full telemetry, over a medium-trace
/// slice. Anchors to the batch experiment — integers exactly, the
/// cross-shard hour sums to 1e-9 — and equals the thread backend under the
/// same knobs on the whole `PackingResult`.
fn process_differential_full_telemetry_four_shards() {
    let mut trace = generate(&TraceConfig::medium(7));
    trace.vms.truncate(8_000);
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let batch = packing_experiment(&trace, &oracle, coach, 0.9);

    let serve = |backend: WorkerBackend| {
        let config = ServeConfig {
            backend,
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
        let result = controller.run(RequestSource::replaying(&trace));
        assert_eq!(
            controller.worker_restarts(),
            0,
            "clean replay never recovers"
        );
        result
    };
    let processed = serve(WorkerBackend::Process);
    assert_eq!(processed, serve(WorkerBackend::Thread), "process == thread");

    assert_eq!(processed.accepted, batch.accepted);
    assert_eq!(processed.rejected, batch.rejected);
    assert_eq!(processed.probe_capacity, batch.probe_capacity);
    assert_eq!(processed.peak_servers_in_use, batch.peak_servers_in_use);
    assert_eq!(processed.cpu_violation_rate, batch.cpu_violation_rate);
    assert_eq!(processed.mem_violation_rate, batch.mem_violation_rate);
    let rel = (processed.accepted_core_hours - batch.accepted_core_hours).abs()
        / batch.accepted_core_hours.max(1.0);
    assert!(rel < 1e-9, "core-hours rel err {rel}");
    let rel = (processed.accepted_gb_hours - batch.accepted_gb_hours).abs()
        / batch.accepted_gb_hours.max(1.0);
    assert!(rel < 1e-9, "gb-hours rel err {rel}");
}

/// SIGKILL a live worker between sessions: checkpoint recovery respawns it
/// with its exact exported state, the stream finishes bit-identically to
/// the uninterrupted replay, and `worker_restarts` counts the restart.
fn sigkill_recovery_is_exact() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(911)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let shards = 2usize;
    let expected = serve_trace_sharded(&trace, &oracle, coach, 0.7, shards);

    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    let split = requests.len() / 2;
    let mut controller = process_controller(&trace, &oracle, coach, 0.7, shards);
    controller.handle_batch(&requests[..split]);

    // Murder shard 0's worker outright — no chance to flush or exit.
    let pid = controller.worker_pid(0).expect("process pool is live");
    let status = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("send SIGKILL");
    assert!(status.success(), "kill -9 {pid}");
    std::thread::sleep(std::time::Duration::from_millis(100));

    controller.handle_batch(&requests[split..]);
    assert!(
        controller.worker_restarts() >= 1,
        "the recovery is counted (got {})",
        controller.worker_restarts()
    );
    assert_ne!(
        controller.worker_pid(0),
        Some(pid),
        "recovery respawned a new child"
    );

    let result = controller.finalize();
    assert_eq!(result, expected, "recovery is decision-exact");
}

/// Drain/resume under the process backend: snapshots exported by live
/// children restore into another process-backed deployment whose children
/// are already serving (a shorter prefix of the stream), and the finished
/// stream matches the uninterrupted thread replay. A worker process serves
/// one controller for its lifetime, so each resume replaces the child — a
/// new pid, and not a recovery.
fn process_drain_resume_roundtrip() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(606)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let shards = 2usize;
    let expected = serve_trace_sharded(&trace, &oracle, coach, 0.7, shards);

    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
    let split = requests.len() / 2;
    let mut first = process_controller(&trace, &oracle, coach, 0.7, shards);
    first.handle_batch(&requests[..split]);
    let snapshots: Vec<Snapshot> = (0..first.shard_count())
        .map(|shard| first.drain_shard(shard))
        .collect();
    drop(first);

    let mut second = process_controller(&trace, &oracle, coach, 0.7, shards);
    second.handle_batch(&requests[..split / 2]);
    for (shard, snapshot) in snapshots.iter().enumerate() {
        let before = second.worker_pid(shard).expect("process pool is live");
        second
            .resume_shard(shard, snapshot)
            .expect("exported snapshot restores");
        assert_ne!(
            second.worker_pid(shard),
            Some(before),
            "shard {shard}: resume replaced the live child"
        );
    }
    assert_eq!(second.worker_restarts(), 0, "a resume is not a recovery");
    second.handle_batch(&requests[split..]);
    assert_eq!(second.finalize(), expected, "process drain/resume is exact");
}

/// Every request kind crosses both backends through the one worker step:
/// arrivals interleaved with a `Depart` of a resident VM, a `Depart` of a
/// VM nobody admitted, `Tick`, `Probe` and mid-stream `Stats`. Thread and
/// process answer identically, response for response, and finalize alike.
fn every_request_kind_agrees_across_backends() {
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

    for shards in [1usize, 2, 4] {
        let mut threaded = ShardedController::replaying(&trace, &oracle, coach, 0.7, shards);
        let mut processed = process_controller(&trace, &oracle, coach, 0.7, shards);
        let expected = threaded.handle_batch(&requests);
        let got = processed.handle_batch(&requests);
        assert_eq!(got.len(), requests.len());
        assert_eq!(got, expected, "{shards} shards: process == thread");
        let exercised = |kind: &str, is_kind: fn(&Response) -> bool| {
            assert!(
                got.iter().any(is_kind),
                "{shards} shards: the stream exercised a {kind}"
            );
        };
        exercised("resident depart", |r| {
            matches!(r, Response::Departed { found: true, .. })
        });
        exercised("unknown depart", |r| {
            matches!(r, Response::Departed { found: false, .. })
        });
        exercised("tick", |r| matches!(r, Response::Ticked));
        exercised("probe", |r| matches!(r, Response::ProbeCapacity(_)));
        exercised("stats", |r| matches!(r, Response::Stats(_)));
        assert_eq!(
            processed.finalize(),
            threaded.finalize(),
            "{shards} shards: finalize agrees"
        );
    }
}

/// A malformed worker env value is refused loudly instead of silently
/// becoming shard 0 (whose telemetry series it would collide with).
fn malformed_worker_env_is_refused() {
    let exe = std::env::current_exe().expect("resolve the test binary");
    let output = std::process::Command::new(exe)
        .env(SHARD_WORKER_ENV, "not-a-number")
        .stdin(std::process::Stdio::null())
        .output()
        .expect("re-exec the test binary as a worker");
    assert!(!output.status.success(), "a bad shard index exits non-zero");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(SHARD_WORKER_ENV) && stderr.contains("not-a-number"),
        "stderr names the variable and the value, got {stderr:?}"
    );
}

/// A child predicts with an Oracle over the predictor's windows, so a
/// process-backed controller refuses any other predictor at construction
/// — before a child exists — instead of serving the Oracle's decisions
/// under its name.
fn process_backend_refuses_a_predictor_it_cannot_reproduce() {
    let trace = generate(&TraceConfig::small(2025));
    let naive = NaiveReference::new(TimeWindows::paper_default());
    let config = ServeConfig {
        backend: WorkerBackend::Process,
        ..ServeConfig::replaying(PolicyConfig::paper_set().remove(2), 0.7, trace.horizon)
    };
    let refused = std::panic::catch_unwind(|| {
        ShardedController::new(&trace.clusters, &naive, config, 2);
    })
    .expect_err("NaiveReference x Process must panic");
    let message = refused
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(
        message.contains("process backend") && message.contains("NaiveReference"),
        "the message names the backend and the predictor, got {message:?}"
    );
    // Construction spawns nothing even when it succeeds: the pool comes up
    // at the first session.
    let oracle = Oracle::new(TimeWindows::paper_default());
    let accepted = ShardedController::new(&trace.clusters, &oracle, config, 2);
    assert_eq!(accepted.worker_pid(0), None);
}

fn run(name: &str, test: fn(), failures: &mut u32) {
    // One child may die mid-`recv` when its half of a killed pipe closes;
    // catch_unwind keeps the runner going and reports per-test.
    match std::panic::catch_unwind(test) {
        Ok(()) => println!("test {name} ... ok"),
        Err(_) => {
            println!("test {name} ... FAILED");
            *failures += 1;
        }
    }
}

fn main() {
    // Children re-exec this binary: route them into the worker loop before
    // anything else (never returns for a worker).
    coach_serve::maybe_run_shard_worker();

    let mut failures = 0u32;
    run(
        "thread_vs_process_identity",
        thread_vs_process_identity,
        &mut failures,
    );
    run(
        "process_differential_full_telemetry_four_shards",
        process_differential_full_telemetry_four_shards,
        &mut failures,
    );
    run(
        "sigkill_recovery_is_exact",
        sigkill_recovery_is_exact,
        &mut failures,
    );
    run(
        "process_drain_resume_roundtrip",
        process_drain_resume_roundtrip,
        &mut failures,
    );
    run(
        "every_request_kind_agrees_across_backends",
        every_request_kind_agrees_across_backends,
        &mut failures,
    );
    run(
        "process_backend_refuses_a_predictor_it_cannot_reproduce",
        process_backend_refuses_a_predictor_it_cannot_reproduce,
        &mut failures,
    );
    run(
        "malformed_worker_env_is_refused",
        malformed_worker_env_is_refused,
        &mut failures,
    );
    if failures > 0 {
        println!("{failures} process-backend test(s) FAILED");
        std::process::exit(1);
    }
    println!("process-backend tests: all ok");
}
