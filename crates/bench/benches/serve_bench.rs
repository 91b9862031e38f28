//! Serving-path rows the end-to-end benchmark (`examples/benchmark`) does
//! not yet carry: the cost of armed telemetry and of 2 h violation sampling
//! on the warm admission stream, and the process backend beside the thread
//! backend at two shards. Each iteration is one whole
//! `TraceConfig::paper_scale` stream (8 000 VMs) through a fresh
//! controller, so ns/iter ÷ 8 000 is ns per arrival. Printed by CI, not
//! gated.

use coach_predict::DemandPrediction;
use coach_serve::{Controller, RequestSource, ServeConfig, ShardedController, TelemetryConfig};
use coach_sim::{Oracle, PolicyConfig, Predictor, VIOLATION_SAMPLE_EVERY};
use coach_trace::{generate, Trace, TraceConfig, VmRecord};
use coach_types::prelude::*;
use criterion::{BatchSize, Criterion};

/// Request-time predictions served from a pre-derived table — the
/// production shape (offline training, O(1) request-time lookup), and what
/// leaves only admission on the clock.
struct Prederived {
    tw: TimeWindows,
    by_vm: Vec<Option<DemandPrediction>>,
}

impl Predictor for Prederived {
    fn time_windows(&self) -> TimeWindows {
        self.tw
    }

    fn predict(&self, vm: &VmRecord, _percentile: Percentile) -> Option<DemandPrediction> {
        self.by_vm[vm.id.raw() as usize].clone()
    }
}

/// The warm admission stream (no probes) through one `Controller`:
/// telemetry off vs fully armed with accounting reduced to the t=0 sample,
/// and telemetry off with a sample every 2 h — that row minus
/// `warm/telemetry_off` is the violation accountant's cost per arrival.
fn bench_warm_telemetry(c: &mut Criterion, trace: &Trace, coach: PolicyConfig) {
    let oracle = Oracle::new(TimeWindows::paper_default());
    let refs: Vec<&VmRecord> = trace.vms.iter().collect();
    let warm = Prederived {
        tw: oracle.time_windows(),
        by_vm: oracle.predict_batch(&refs, coach.percentile),
    };
    let once = trace.horizon.since(Timestamp::ZERO);
    for (name, telemetry, sample_every) in [
        ("warm/telemetry_off", TelemetryConfig::Off, once),
        ("warm/telemetry_full", TelemetryConfig::Full, once),
        (
            "warm/account_2h",
            TelemetryConfig::Off,
            VIOLATION_SAMPLE_EVERY,
        ),
    ] {
        let config = ServeConfig {
            sample_every,
            telemetry,
            ..ServeConfig::replaying(coach, 0.9, trace.horizon)
        };
        c.bench_function(name, |b| {
            b.iter_batched(
                || Controller::new(&trace.clusters, &warm, config),
                |mut controller| {
                    for request in RequestSource::new(&trace.vms, Vec::new()) {
                        controller.handle(request);
                    }
                    controller.finalize()
                },
                BatchSize::LargeInput,
            );
        });
    }
}

/// The replay stream (probes included) cold through two shard workers,
/// threads vs supervised child processes speaking coach-wire frames. The
/// workers are up before the clock starts; the process row still pays the
/// pipe hops, the session's checkpoint export and reaping the children.
fn bench_sharded_backends(c: &mut Criterion, trace: &Trace, coach: PolicyConfig) {
    let oracle = Oracle::new(TimeWindows::paper_default());
    for (name, backend) in [
        ("sharded2/thread", WorkerBackend::Thread),
        ("sharded2/process", WorkerBackend::Process),
    ] {
        let config = ServeConfig {
            sample_every: trace.horizon.since(Timestamp::ZERO),
            backend,
            ..ServeConfig::replaying(coach, 0.9, trace.horizon)
        };
        c.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut controller =
                        ShardedController::new(&trace.clusters, &oracle, config, 2);
                    // An empty session spawns the process pool.
                    controller.handle_batch(&[]);
                    controller
                },
                |mut controller| controller.run(RequestSource::replaying(trace)),
                BatchSize::LargeInput,
            );
        });
    }
}

fn main() {
    // The process row's pool re-execs this binary as its shard workers.
    coach_serve::maybe_run_shard_worker();

    let trace = generate(&TraceConfig::paper_scale(2026));
    let coach = PolicyConfig::paper_set().remove(2);
    let mut criterion = Criterion::default();
    bench_warm_telemetry(&mut criterion, &trace, coach);
    bench_sharded_backends(&mut criterion, &trace, coach);
}
