//! Prediction-stack benchmarks: forest training/inference and the local
//! predictor's 0.86 ms train/inference cycle (§4.5).

use coach_bench::small_eval_trace;
use coach_predict::{
    Ewma, ForestParams, LocalPredictor, Lstm, ModelConfig, RandomForest, TargetKind,
    UtilizationModel,
};
use coach_sim::{Model, Oracle, Predictor};
use coach_trace::{generate, TraceConfig, VmRecord};
use coach_types::{Percentile, ResourceKind, TimeWindows, Timestamp};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn training_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(1);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..12).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (x[0] * 0.4 + x[3] * 0.3).min(1.0))
        .collect();
    (xs, ys)
}

fn bench_forest(c: &mut Criterion) {
    let (xs, ys) = training_data(2000);
    c.bench_function("forest_train_2000rows", |b| {
        b.iter(|| {
            RandomForest::fit(
                &xs,
                &ys,
                ForestParams {
                    n_trees: 24,
                    ..ForestParams::default()
                },
            )
        })
    });
    let forest = RandomForest::fit(&xs, &ys, ForestParams::default());
    c.bench_function("forest_predict", |b| {
        b.iter(|| std::hint::black_box(forest.predict_bucketed(&xs[17])))
    });
    // One derive chunk's worth of rows (64 VMs x 6 windows) in one sweep:
    // divide by 384 for ns/row against `forest_predict`'s one row.
    let rows = &xs[..384];
    let mut out = Vec::new();
    c.bench_function("forest_predict_rows_384", |b| {
        b.iter(|| {
            forest.predict_rows(std::hint::black_box(rows), &mut out);
            std::hint::black_box(out[383])
        })
    });
}

/// The model the figures and the benchmark train: paper defaults, 24 trees.
fn model_config() -> ModelConfig {
    ModelConfig {
        forest: ForestParams {
            n_trees: 24,
            ..ForestParams::default()
        },
        ..ModelConfig::default()
    }
}

/// Training on the shape that is actually trained: `paper_scale(2026)`'s
/// history before day 7 (1,834 usable VMs, 11,004 rows per forest), the
/// benchmark's `model_sweep` set-up. Nine of its twelve columns take a
/// handful of values and one is constant — the opposite regime from
/// `forest_train_2000rows`' twelve uniform-random ones.
fn bench_training(c: &mut Criterion) {
    let trace = generate(&TraceConfig::paper_scale(2026));
    let (history, _) = trace.split_by_arrival(Timestamp::from_days(7));
    let config = model_config();
    let (xs, ys) = UtilizationModel::training_set(&history, &config, ResourceKind::Cpu);
    let ys = &ys[TargetKind::WindowMax.index()];
    // `iter_batched` times single calls; `iter` would run 67 of them.
    // One of a model's eight forests.
    c.bench_function("forest_train_model_shape", |b| {
        b.iter_batched(
            || (),
            |()| RandomForest::fit(&xs, ys, config.forest),
            BatchSize::LargeInput,
        )
    });
    c.bench_function("model_train_paper_scale", |b| {
        b.iter_batched(
            || (),
            |()| UtilizationModel::train(&history, config),
            BatchSize::LargeInput,
        )
    });
}

fn bench_model(c: &mut Criterion) {
    let trace = small_eval_trace();
    let history: Vec<_> = trace.vms.iter().collect();
    let model = UtilizationModel::train(&history, model_config());
    // The serving controller's chunk size: divide by 64 for ns/VM.
    let chunk = &history[..64];
    c.bench_function("model_predict_batch_64vms", |b| {
        b.iter(|| std::hint::black_box(model.predict_batch(std::hint::black_box(chunk))))
    });

    // The benchmark's `model_sweep` stream for one policy: `paper_scale(2026)`'s
    // 8,000 VMs in the controller's 64-VM chunks through one memoized
    // `Model`, fresh per iteration so each pays its first sight of every
    // key. Divide by 8,000 for ns/VM against the row above.
    let trace = generate(&TraceConfig::paper_scale(2026));
    let (history, _) = trace.split_by_arrival(Timestamp::from_days(7));
    let model = UtilizationModel::train(&history, model_config());
    let stream: Vec<&VmRecord> = trace.vms.iter().collect();
    c.bench_function("model_predict_stream_memo", |b| {
        b.iter(|| {
            let memoized = Model::new(&model);
            for chunk in stream.chunks(64) {
                std::hint::black_box(memoized.predict_batch(chunk, Percentile::P95));
            }
            memoized.memoized_keys()
        })
    });
}

/// The Oracle's derive kernel on its own, outside the end-to-end
/// benchmark: the exact policy (`window_stats` + `oracle_from_stats`)
/// against the order-statistic loop under its top-k exact stopping rule
/// (`oracle`, unbucketed, what fig19 reads) and under its decision-decided
/// one (`Oracle::predict`, what serving reads), over the same long-running
/// VMs of a `medium` trace. Each iteration derives one VM, cycling through
/// the set, so `ns/iter` is ns per VM; P95 reads 2 of 14 day maxima per
/// window, P50 reads 8, where the order-statistic loop has the least to
/// prune and must still not lose to the exact policy.
fn bench_oracle_derive(c: &mut Criterion) {
    let trace = generate(&TraceConfig::medium(7));
    let vms: Vec<&VmRecord> = trace.long_running().take(2048).collect();
    let tw = TimeWindows::paper_default();
    let oracle = Oracle::new(tw);
    let mut group = c.benchmark_group("oracle_derive");
    for (name, percentile) in [("p95", Percentile::P95), ("p50", Percentile::P50)] {
        group.bench_with_input(BenchmarkId::new("exact", name), &percentile, |b, &p| {
            let mut cycle = vms.iter().cycle();
            b.iter(|| {
                let stats = cycle.next().expect("non-empty").window_stats(tw);
                std::hint::black_box(UtilizationModel::oracle_from_stats(&stats, p))
            })
        });
        group.bench_with_input(
            BenchmarkId::new("order_statistic", name),
            &percentile,
            |b, &p| {
                let mut cycle = vms.iter().cycle();
                b.iter(|| {
                    let vm = cycle.next().expect("non-empty");
                    std::hint::black_box(UtilizationModel::oracle(vm, tw, p))
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("decision", name), &percentile, |b, &p| {
            let mut cycle = vms.iter().cycle();
            b.iter(|| std::hint::black_box(oracle.predict(cycle.next().expect("non-empty"), p)))
        });
    }
    group.finish();
}

fn bench_local_predictor(c: &mut Criterion) {
    c.bench_function("lstm_train_step", |b| {
        let mut net = Lstm::new(0x15F3);
        let window = [[0.4, 0.3]; 5];
        b.iter(|| net.train_step(&window, 0.5))
    });
    c.bench_function("ewma_observe", |b| {
        let mut e = Ewma::paper_default();
        b.iter(|| e.observe(0.4))
    });
    c.bench_function("local_predictor_5min_cycle", |b| {
        // One 5-minute window = 15 observations + 1 LSTM update.
        let mut lp = LocalPredictor::new(3);
        b.iter(|| {
            for _ in 0..15 {
                lp.observe(0.42);
            }
            std::hint::black_box(lp.predict_next_5min())
        })
    });
}

criterion_group!(
    benches,
    bench_forest,
    bench_training,
    bench_model,
    bench_oracle_derive,
    bench_local_predictor
);
criterion_main!(benches);
