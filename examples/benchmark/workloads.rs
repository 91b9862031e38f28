//! The four workloads: what each sets up, what its timed region is, which
//! outputs it checks, and what its traced pass attributes to which layer.
//!
//! Load is a closed loop with one client: one thread replays a
//! simulated-time request stream as fast as the controller accepts it. The
//! program under test receives only generated inputs — a `TraceConfig`
//! seeded from `--seed` is the whole input.
//!
//! Every workload runs the same sequence: set up (repeated, median
//! reported), the untraced timed region (repeated while `--seconds` allows,
//! median reported), and — with tracing on — the same region once more
//! under the timing adapters, then the isolated scheduler and accountant
//! replays that split what the adapters could not see. A traced pass runs
//! the untraced region only as often as it runs the traced one, so that it
//! stays within the run budget.

use crate::harness::{
    ingest_peak_bytes_per_vm, median_wall_s, repeat, report, same_decisions, set_up, timed,
    trace_run, Budget, Decided, Log, Params, Rep, Serving, TracedRun,
};
use crate::metrics::{median, Layers, Report};
use crate::trace::{Scope, Stash, TimedIter};
use coach::predict::{DemandPrediction, ForestParams, ModelConfig, UtilizationModel};
use coach::serve::scenario::{Evacuate, GroupFailure, Surge};
use coach::serve::{
    Controller, RequestSource, ServeConfig, ShardedController, StreamRequest, StreamSource,
};
use coach::sim::{
    packing_experiment, paper_probe_times, Model, Oracle, PolicyConfig, Predictor, ProbeMode,
};
use coach::trace::{generate, StreamingTrace, Trace, TraceConfig, VmRecord};
use coach::types::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

pub type Workload = fn(&Params, Option<Scope<'_>>) -> Report;

pub const WORKLOADS: [(&str, Workload); 4] = [
    ("stream_cold", stream_cold),
    ("warm_admit", warm_admit),
    ("churn_sharded", churn_sharded),
    ("model_sweep", model_sweep),
];

// Sizes. The issue's reference sizes (1M / 600k / 20k) do not fit the run
// budget the benchmark contract gives one invocation; these are the largest
// that do, and `stream_cold` stays at the floor below which the generator's
// super-linear ingest stops showing.
const STREAM_COLD_VMS: usize = 500_000;
const WARM_ADMIT_VMS: usize = 100_000;
const CHURN_SHARDED_VMS: usize = 400_000;
const MODEL_SWEEP_VMS: usize = 8_000;

fn vms(params: &Params, full: usize) -> usize {
    if params.quick {
        full / 20
    } else {
        full
    }
}

/// The common base: `TraceConfig::medium` (14 days, 45 % of VMs running at
/// the start) with fifty VMs per subscription.
fn base_config(seed: u64, vm_count: usize, cluster_count: usize) -> TraceConfig {
    TraceConfig {
        vm_count,
        cluster_count,
        subscription_count: (vm_count / 50).max(1),
        ..TraceConfig::medium(seed)
    }
}

fn coach_policy() -> PolicyConfig {
    PolicyConfig::paper_set()[2]
}

fn envelope_hit_rate(oracle: &Oracle) -> f64 {
    let (hits, misses) = oracle.envelope_counters();
    hits as f64 / (hits + misses).max(1) as f64
}

/// `run_stream` over an owning request stream. With one shard the
/// dispatcher runs the controller inline on the calling thread.
fn serve_stream<'p>(
    serving: &Serving<'_>,
    predictor: &'p dyn Predictor,
    shards: usize,
    requests: impl Iterator<Item = StreamRequest>,
) -> (Rep, ShardedController<'p>) {
    let mut controller =
        ShardedController::new(serving.clusters, predictor, serving.config, shards);
    let rep = timed(|| controller.run_stream(requests));
    (rep, controller)
}

/// Every repetition of a single-thread region decides exactly the same.
fn repetitions_agree(log: &mut Log, reps: &[Rep]) {
    log.check(
        "every repetition returns the same PackingResult",
        reps.iter().all(|r| r.results == reps[0].results),
    );
}

// ---------------------------------------------------------------------------
// stream_cold
// ---------------------------------------------------------------------------

fn stream_cold(params: &Params, scope: Option<Scope<'_>>) -> Report {
    let trace_config = base_config(params.seed, vms(params, STREAM_COLD_VMS), 8);
    let tw = TimeWindows::paper_default();
    let config = ServeConfig::replaying(coach_policy(), 0.9, trace_config.horizon);
    let (streaming, setup) = set_up(|clock| {
        let streaming = clock.part("trace.plan_s", || StreamingTrace::new(&trace_config));
        let oracle = Oracle::new(tw);
        drop(ShardedController::new(
            streaming.clusters(),
            &oracle,
            config,
            1,
        ));
        streaming
    });
    let serving = Serving {
        clusters: streaming.clusters(),
        config,
        tw,
    };
    let mut log = Log::default();

    let seconds = if scope.is_some() { 0.0 } else { params.seconds };
    let reps = repeat(seconds, usize::MAX, || {
        // A fresh oracle per repetition: its memo must start cold.
        let oracle = Oracle::new(tw);
        let source = StreamSource::new(streaming.records(), Vec::new());
        serve_stream(&serving, &oracle, 1, source).0
    });
    repetitions_agree(&mut log, &reps);

    let per_layer = scope.map(|scope| {
        let mut layers = Layers::new();
        setup.write(&mut layers);

        let oracle = Oracle::new(tw);
        let (traced, rep) = trace_run(scope, &oracle, |predictor, meter| {
            let records = TimedIter::new(streaming.records(), meter);
            serve_stream(
                &serving,
                predictor,
                1,
                StreamSource::new(records, Vec::new()),
            )
            .0
        });
        log.check(
            "traced PackingResult == untraced",
            rep.results == reps[0].results,
        );
        layers.set("predict.envelope_hit_rate", envelope_hit_rate(&oracle));
        layers.set(
            "trace.peak_bytes_per_vm",
            ingest_peak_bytes_per_vm(&streaming, &mut log),
        );

        let requests: Vec<StreamRequest> =
            StreamSource::new(streaming.records(), Vec::new()).collect();
        let mut budget = Budget::default();
        budget.attribute(
            scope,
            &mut log,
            &serving,
            &traced,
            &rep.results[0],
            requests.iter().map(StreamRequest::as_request),
        );
        budget.write(&mut layers, reps[0].wall_s);
        layers
    });

    report(
        "stream_cold",
        params,
        &setup,
        &reps,
        Decided {
            attempted: streaming.len() as u64,
            headline: 0,
            probe_capacity: false,
            violation_rates: true,
            extra_capacity: None,
            results: &reps[0].results,
        },
        per_layer,
        log,
    )
}

// ---------------------------------------------------------------------------
// warm_admit
// ---------------------------------------------------------------------------

/// Request-time predictions served from a table derived once: the
/// production shape (offline training, O(1) lookup at admission).
struct Prederived {
    tw: TimeWindows,
    by_vm: Vec<Option<DemandPrediction>>,
}

impl Predictor for Prederived {
    fn time_windows(&self) -> TimeWindows {
        self.tw
    }

    fn predict(&self, vm: &VmRecord, _percentile: Percentile) -> Option<DemandPrediction> {
        self.by_vm.get(vm.id.raw() as usize).and_then(|p| p.clone())
    }
}

/// One admission pass: a fresh controller fed arrival by arrival through
/// `Controller::handle`. With `samples`, every eighth arrival is timed.
fn warm_pass(
    trace: &Trace,
    predictor: &dyn Predictor,
    config: ServeConfig,
    samples: Option<&mut Vec<u64>>,
) -> Rep {
    let mut controller = Controller::new(&trace.clusters, predictor, config);
    let source = RequestSource::new(&trace.vms, Vec::new());
    timed(|| {
        match samples {
            None => {
                for request in source {
                    controller.handle(request);
                }
            }
            Some(samples) => {
                for (i, request) in source.enumerate() {
                    if i % 8 == 0 {
                        let start = Instant::now();
                        controller.handle(request);
                        samples.push(start.elapsed().as_nanos() as u64);
                    } else {
                        controller.handle(request);
                    }
                }
            }
        }
        controller.finalize()
    })
}

fn warm_admit(params: &Params, scope: Option<Scope<'_>>) -> Report {
    let trace_config = base_config(params.seed, vms(params, WARM_ADMIT_VMS), 8);
    let tw = TimeWindows::paper_default();
    let coach = coach_policy();
    let ((trace, table, derive_hit_rate), setup) = set_up(|clock| {
        let trace = clock.part("trace.generate_s", || generate(&trace_config));
        let oracle = Oracle::new(tw);
        let by_vm = trace
            .vms
            .chunks(4096)
            .flat_map(|chunk| {
                let refs: Vec<&VmRecord> = chunk.iter().collect();
                oracle.predict_batch(&refs, coach.percentile)
            })
            .collect();
        let table = Prederived { tw, by_vm };
        (trace, table, envelope_hit_rate(&oracle))
    });
    // Sampling once over the whole horizon reduces accounting to
    // bookkeeping: this workload is placement plus the heap and the store.
    let config = ServeConfig {
        sample_every: trace.horizon.since(Timestamp::ZERO),
        ..ServeConfig::replaying(coach, 0.9, trace.horizon)
    };
    let mut log = Log::default();

    // A pass is short enough for the box's slow and fast phases to outlast
    // it, so an untraced run takes as many passes as `--seconds` holds.
    let passes = if params.quick || scope.is_some() {
        3
    } else {
        usize::MAX
    };
    let reps = repeat(params.seconds, passes, || {
        warm_pass(&trace, &table, config, None)
    });
    repetitions_agree(&mut log, &reps);

    let per_layer = scope.map(|scope| {
        let mut layers = Layers::new();
        setup.write(&mut layers);
        layers.set("predict.envelope_hit_rate", derive_hit_rate);

        let mut samples = Vec::new();
        let mut runs: Vec<(TracedRun, Rep)> = (0..reps.len())
            .map(|_| {
                trace_run(scope, &table, |predictor, _| {
                    warm_pass(&trace, predictor, config, Some(&mut samples))
                })
            })
            .collect();
        log.check(
            "traced PackingResult == untraced",
            runs.iter().all(|(_, rep)| rep.results == reps[0].results),
        );
        samples.sort_unstable();
        let quantile_us = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize] as f64 / 1e3;
        layers.set("serve.admit_p50_us", quantile_us(0.50));
        layers.set("serve.admit_p99_us", quantile_us(0.99));
        log.note(format!(
            "serve.admit_p50_us and _p99_us are exact quantiles of {} samples \
             (every 8th arrival of {} traced passes)",
            samples.len(),
            runs.len()
        ));

        // The budget is one pass: the median traced one.
        runs.sort_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s));
        let (traced, rep) = &runs[runs.len() / 2];
        let serving = Serving {
            clusters: &trace.clusters,
            config,
            tw,
        };
        let mut budget = Budget::default();
        budget.attribute(
            scope,
            &mut log,
            &serving,
            traced,
            &rep.results[0],
            RequestSource::new(&trace.vms, Vec::new()),
        );
        budget.write(&mut layers, median_wall_s(&reps));
        layers
    });

    report(
        "warm_admit",
        params,
        &setup,
        &reps,
        Decided {
            attempted: trace.vms.len() as u64,
            headline: 0,
            probe_capacity: false,
            violation_rates: false,
            extra_capacity: None,
            results: &reps[0].results,
        },
        per_layer,
        log,
    )
}

// ---------------------------------------------------------------------------
// churn_sharded
// ---------------------------------------------------------------------------

/// What `churn_sharded` needs beside the trace plan.
struct Churn {
    streaming: StreamingTrace,
    busiest: SubscriptionId,
}

impl Churn {
    /// Arrivals with probes and six-hourly stats barriers, a two-day ×2
    /// surge, the busiest subscription failing and re-arriving at once, and
    /// cluster 0 evacuated into cluster 1.
    fn requests<I>(&self, records: I) -> impl Iterator<Item = StreamRequest>
    where
        I: Iterator<Item = VmRecord>,
    {
        let clusters = self.streaming.clusters();
        let source = StreamSource::new(records, paper_probe_times(self.streaming.horizon()))
            .with_stats_every(SimDuration::from_hours(6));
        let surge = Surge::new(
            source,
            2,
            Timestamp::from_days(4),
            Timestamp::from_days(6),
            1 << 32,
        );
        let failure = GroupFailure::new(surge, self.busiest, Timestamp::from_days(8), 1 << 40);
        Evacuate::new(
            failure,
            clusters[0].id,
            Timestamp::from_days(10),
            clusters[1].id,
        )
    }

    /// Arrivals submitted: the trace's own plus the surge clones and the
    /// failed group's re-arrivals.
    fn arrivals(&self) -> u64 {
        self.requests(self.streaming.records())
            .filter(|r| matches!(r, StreamRequest::Arrive(_)))
            .count() as u64
    }
}

/// `Controller::snapshot` / `restore` on a single-thread replay paused at
/// `pause`, fed the traced run's own predictions.
fn wire_metrics(
    layers: &mut Layers,
    log: &mut Log,
    serving: &Serving<'_>,
    requests: &[StreamRequest],
    predictions: &Stash,
    pause: Timestamp,
) {
    struct Lookup<'a> {
        tw: TimeWindows,
        by_vm: HashMap<VmId, Option<&'a DemandPrediction>>,
    }
    impl Predictor for Lookup<'_> {
        fn time_windows(&self) -> TimeWindows {
            self.tw
        }
        fn predict(&self, vm: &VmRecord, _percentile: Percentile) -> Option<DemandPrediction> {
            self.by_vm[&vm.id].cloned()
        }
    }
    let lookup = Lookup {
        tw: serving.tw,
        by_vm: predictions
            .iter()
            .map(|(vm, p)| (*vm, p.as_deref()))
            .collect(),
    };
    let mut controller = Controller::new(serving.clusters, &lookup, serving.config);
    let mut records: HashMap<VmId, &VmRecord> = HashMap::new();
    for request in requests.iter().take_while(|r| r.time() < pause) {
        if let StreamRequest::Arrive(rec) = request {
            records.insert(rec.id, rec);
        }
        controller.handle(request.as_request());
    }

    let mut encode_s = Vec::new();
    let mut restore_s = Vec::new();
    let mut roundtrip = true;
    let mut bytes = 0usize;
    for _ in 0..3 {
        let start = Instant::now();
        let snapshot = controller.snapshot();
        encode_s.push(start.elapsed().as_secs_f64());
        bytes = snapshot.len();
        let start = Instant::now();
        let restored = Controller::restore(&lookup, &snapshot, |vm| records.get(&vm).copied());
        restore_s.push(start.elapsed().as_secs_f64());
        roundtrip &= restored.is_ok_and(|r| r.snapshot().bytes() == snapshot.bytes());
    }
    log.check(
        "snapshot -> restore -> snapshot is byte-identical",
        roundtrip,
    );
    layers.set("wire.snapshot_bytes", bytes as f64);
    layers.set("wire.encode_mb_s", bytes as f64 / 1e6 / median(&encode_s));
    layers.set("wire.restore_mb_s", bytes as f64 / 1e6 / median(&restore_s));
}

fn churn_sharded(params: &Params, scope: Option<Scope<'_>>) -> Report {
    let trace_config = base_config(params.seed, vms(params, CHURN_SHARDED_VMS), 8);
    let tw = TimeWindows::paper_default();
    let config = ServeConfig {
        probe_mode: ProbeMode::Estimated,
        ..ServeConfig::replaying(coach_policy(), 0.9, trace_config.horizon)
    };
    let (churn, setup) = set_up(|clock| {
        let streaming = clock.part("trace.plan_s", || StreamingTrace::new(&trace_config));
        // The busiest subscription makes the biggest re-placement storm;
        // one counting drain finds it. Ties go to the lowest id.
        let mut counts: BTreeMap<SubscriptionId, u64> = BTreeMap::new();
        for record in streaming.records() {
            *counts.entry(record.subscription).or_insert(0) += 1;
        }
        let busiest = counts
            .iter()
            .max_by_key(|(id, n)| (**n, std::cmp::Reverse(**id)))
            .map(|(id, _)| *id)
            .expect("a trace has subscriptions");
        let oracle = Oracle::new(tw);
        drop(ShardedController::new(
            streaming.clusters(),
            &oracle,
            config,
            2,
        ));
        Churn { streaming, busiest }
    });
    let serving = Serving {
        clusters: churn.streaming.clusters(),
        config,
        tw,
    };
    let mut log = Log::default();
    log.note(format!(
        "{} threads available; the run uses one generator thread and two shard workers",
        available_threads()
    ));

    let seconds = if scope.is_some() { 0.0 } else { params.seconds };
    let mut lanes = LaneStats::default();
    let reps = repeat(seconds, usize::MAX, || {
        let oracle = Oracle::new(tw);
        let requests = churn.requests(churn.streaming.records());
        let (rep, controller) = serve_stream(&serving, &oracle, 2, requests);
        lanes = controller.lane_totals();
        rep
    });
    // Shards sum their capacity-hours independently, so repetitions may
    // differ in the last ulp of those two sums and in nothing else.
    log.check(
        "every repetition decides the same",
        reps.iter()
            .all(|r| same_decisions(&r.results[0], &reps[0].results[0])),
    );

    let per_layer = scope.map(|scope| {
        let mut layers = Layers::new();
        setup.write(&mut layers);
        layers.set("runtime.lane_sends", lanes.sends as f64);
        layers.set("runtime.lane_batched_sends", lanes.batched_sends as f64);
        layers.set("runtime.lane_wakeups", lanes.wakeups as f64);
        layers.set("runtime.lane_full_stalls", lanes.full_stalls as f64);

        // The same two-shard run under the adapters shows what tracing
        // costs where `wall_s` is measured. Its busy times overlap across
        // threads, so the budget is taken from a single-thread replay.
        let traced_at = |shards: usize| {
            let oracle = Oracle::new(tw);
            let (traced, rep) = trace_run(scope, &oracle, |predictor, meter| {
                let records = TimedIter::new(churn.streaming.records(), meter);
                serve_stream(&serving, predictor, shards, churn.requests(records)).0
            });
            (traced, rep, envelope_hit_rate(&oracle))
        };
        let (_, sharded, _) = traced_at(2);
        let (traced, single, hit_rate) = traced_at(1);
        log.check(
            "2 shards == single-thread replay (integers exactly, float sums to 1e-9)",
            same_decisions(&reps[0].results[0], &single.results[0])
                && same_decisions(&sharded.results[0], &single.results[0]),
        );
        layers.set("predict.envelope_hit_rate", hit_rate);
        layers.set(
            "trace.peak_bytes_per_vm",
            ingest_peak_bytes_per_vm(&churn.streaming, &mut log),
        );

        let requests: Vec<StreamRequest> = churn.requests(churn.streaming.records()).collect();
        let mut budget = Budget::default();
        budget.attribute(
            scope,
            &mut log,
            &serving,
            &traced,
            &single.results[0],
            requests.iter().map(StreamRequest::as_request),
        );
        budget.write(&mut layers, reps[0].wall_s);
        // `write` set the single-thread replay against the two-shard run;
        // tracing's cost is the two-shard run against itself.
        layers.set(
            "budget.trace_overhead_share",
            (sharded.wall_s - reps[0].wall_s) / reps[0].wall_s,
        );
        layers.set("runtime.speedup_2_over_1", single.wall_s / reps[0].wall_s);
        wire_metrics(
            &mut layers,
            &mut log,
            &serving,
            &requests,
            &traced.predictions,
            Timestamp::from_days(7),
        );
        layers
    });

    report(
        "churn_sharded",
        params,
        &setup,
        &reps,
        Decided {
            attempted: churn.arrivals(),
            headline: 0,
            probe_capacity: true,
            violation_rates: true,
            extra_capacity: None,
            results: &reps[0].results,
        },
        per_layer,
        log,
    )
}

// ---------------------------------------------------------------------------
// model_sweep
// ---------------------------------------------------------------------------

struct Sweep {
    trace: Trace,
    model_p95: UtilizationModel,
    model_p50: UtilizationModel,
}

impl Sweep {
    /// The model a policy predicts with, as `fig20` picks it.
    fn model_for(&self, policy: &PolicyConfig) -> &UtilizationModel {
        if policy.percentile < Percentile::new(90.0) {
            &self.model_p50
        } else {
            &self.model_p95
        }
    }
}

fn model_sweep(params: &Params, scope: Option<Scope<'_>>) -> Report {
    let trace_config = TraceConfig {
        vm_count: vms(params, MODEL_SWEEP_VMS),
        ..TraceConfig::paper_scale(params.seed)
    };
    let tw = TimeWindows::paper_default();
    let policies = PolicyConfig::paper_set();
    let (sweep, setup) = set_up(|clock| {
        let trace = clock.part("trace.generate_s", || generate(&trace_config));
        let (model_p95, model_p50) = clock.part("predict.train_s", || {
            let (history, _) = trace.split_by_arrival(Timestamp::from_days(7));
            let train = |percentile| {
                UtilizationModel::train(
                    &history,
                    ModelConfig {
                        tw,
                        percentile,
                        forest: ForestParams {
                            n_trees: 24,
                            ..ForestParams::default()
                        },
                    },
                )
            };
            (train(Percentile::P95), train(Percentile::P50))
        });
        Sweep {
            trace,
            model_p95,
            model_p50,
        }
    });
    let trace = &sweep.trace;
    // The Fig 20 shape: every server, exhaustive probe fills.
    let serving = |policy: PolicyConfig| Serving {
        clusters: &trace.clusters,
        config: ServeConfig::replaying(policy, 1.0, trace.horizon),
        tw,
    };
    let run_policy = |predictor: &dyn Predictor, policy: PolicyConfig| {
        let mut controller =
            ShardedController::new(&trace.clusters, predictor, serving(policy).config, 1);
        timed(|| controller.run(RequestSource::replaying(trace)))
    };
    let mut log = Log::default();
    log.note("capacity, violation and server metrics are the Coach policy's".to_string());

    let max_reps = if params.quick || scope.is_some() {
        1
    } else {
        usize::MAX
    };
    let reps = repeat(params.seconds, max_reps, || {
        policies
            .iter()
            .map(|policy| run_policy(&Model::new(sweep.model_for(policy)), *policy))
            .reduce(Rep::then)
            .expect("four policies")
    });
    repetitions_agree(&mut log, &reps);

    let per_layer = scope.map(|scope| {
        let mut layers = Layers::new();
        setup.write(&mut layers);
        layers.set(
            "predict.model_bytes",
            (sweep.model_p95.approx_size_bytes() + sweep.model_p50.approx_size_bytes()) as f64,
        );

        let mut budget = Budget::default();
        let mut packing_s = 0.0;
        for (policy, untraced) in policies.iter().zip(&reps[0].results) {
            let model = Model::new(sweep.model_for(policy));
            let (traced, rep) =
                trace_run(scope, &model, |predictor, _| run_policy(predictor, *policy));
            log.check(
                format!("[{}] traced PackingResult == untraced", policy.label),
                rep.results[0] == *untraced,
            );
            budget.attribute(
                scope,
                &mut log,
                &serving(*policy),
                &traced,
                &rep.results[0],
                RequestSource::replaying(trace),
            );

            // The batch engine on the same model: the reference the online
            // result is held to, and the second replay engine's cost.
            let span = scope.open("sim.packing");
            let start = Instant::now();
            let batch = packing_experiment(trace, &model, *policy, 1.0);
            packing_s += start.elapsed().as_secs_f64();
            scope.close(span);
            log.check(
                format!("[{}] online == packing_experiment", policy.label),
                same_decisions(untraced, &batch),
            );
        }
        budget.write(&mut layers, reps[0].wall_s);
        layers.set("sim.packing_s", packing_s);
        layers.set(
            "sim.packing_ns_per_vm",
            packing_s * 1e9 / (policies.len() * trace.vms.len()) as f64,
        );
        layers
    });

    let results = &reps[0].results;
    let (none, coach) = (&results[0], &results[2]);
    report(
        "model_sweep",
        params,
        &setup,
        &reps,
        Decided {
            attempted: (policies.len() * trace.vms.len()) as u64,
            headline: 2,
            probe_capacity: true,
            violation_rates: true,
            extra_capacity: Some(coach.additional_capacity_vs(none)),
            results,
        },
        per_layer,
        log,
    )
}
