//! Scheduling-overhead benchmarks (§4.5: the six extra bin-packing
//! dimensions add <1 ms per VM), the window-count ablation, the
//! headroom-index scaling matrix (servers × windows × occupancy), and one
//! server's place/remove against the number of VMs it hosts.

use coach_sched::{
    ClusterScheduler, PlacementHeuristic, PlacementOutcome, ScanStrategy, ServerState, VmDemand,
};
use coach_types::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn demand(i: u64, windows: usize) -> VmDemand {
    let requested = VmConfig::general_purpose(4).demand();
    let guaranteed = requested * 0.5;
    let window_max = (0..windows)
        .map(|w| {
            let f = 0.5 + 0.4 * ((w + i as usize) % windows) as f64 / windows as f64;
            requested * f
        })
        .collect();
    VmDemand {
        vm: VmId::new(i),
        requested,
        guaranteed,
        window_max,
    }
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm_placement");
    for windows in [1usize, 6, 24] {
        group.bench_with_input(
            BenchmarkId::new("place", format!("{windows}w")),
            &windows,
            |b, &windows| {
                let servers: Vec<ServerId> = (0..200).map(ServerId::new).collect();
                b.iter_batched(
                    || {
                        ClusterScheduler::new(
                            &servers,
                            HardwareConfig::general_purpose_gen4().capacity,
                            windows,
                        )
                    },
                    |mut sched| {
                        for i in 0..100u64 {
                            let _ = sched.place(demand(i, windows));
                        }
                        sched
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// Build a scheduler pre-filled to roughly `occupancy` of its guaranteed
/// memory, so the index has a realistic bucket distribution.
fn filled_scheduler(
    servers: usize,
    windows: usize,
    occupancy: f64,
    scan: ScanStrategy,
) -> ClusterScheduler {
    let ids: Vec<ServerId> = (0..servers as u64).map(ServerId::new).collect();
    let capacity = HardwareConfig::general_purpose_gen4().capacity;
    let mut sched =
        ClusterScheduler::with_strategy(&ids, capacity, windows, PlacementHeuristic::BestFit, scan);
    // Each demand guarantees 8 GB against the 384 GB gen4 server; high
    // occupancy targets may saturate per-window feasibility first, in which
    // case the surplus placements are simply rejected.
    let per_server = ((capacity.memory() * occupancy) / 8.0).round() as u64;
    for i in 0..per_server * servers as u64 {
        let _ = sched.place(demand(i, windows));
    }
    sched
}

/// The scaling matrix for the headroom index: one placement against
/// clusters of varying size, window count, and occupancy, for both the
/// indexed and the naive reference scan.
fn bench_index_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_scaling");
    for &(scan, tag) in &[
        (ScanStrategy::Indexed, "indexed"),
        (ScanStrategy::NaiveReference, "naive"),
    ] {
        for servers in [64usize, 512, 2048] {
            for windows in [1usize, 6] {
                for occupancy in [0.3f64, 0.9] {
                    let id = format!("{tag}/{servers}s_{windows}w_{occupancy}o");
                    group.bench_with_input(
                        BenchmarkId::new("place_remove", id),
                        &(servers, windows, occupancy),
                        |b, &(servers, windows, occupancy)| {
                            // One persistent scheduler; each iteration places
                            // a fresh demand and removes it again, so state
                            // (and the bucket distribution) stays put.
                            let mut sched = filled_scheduler(servers, windows, occupancy, scan);
                            let mut i = 1u64 << 32;
                            b.iter(|| {
                                i += 1;
                                let d = demand(i, windows);
                                let vm = d.vm;
                                if let PlacementOutcome::Placed(_) =
                                    std::hint::black_box(sched.place(d))
                                {
                                    sched.remove(vm);
                                }
                            });
                        },
                    );
                }
            }
        }
    }
    group.finish();
}

/// The allocation-free feasibility check, on its own: the W+1-dimensional
/// exact scan.
fn bench_can_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("can_fit");
    for windows in [1usize, 6, 24] {
        let mut state = ServerState::new(
            ServerId::new(0),
            HardwareConfig::general_purpose_gen4().capacity,
            windows,
        );
        for i in 0..12u64 {
            let _ = state.place(&demand(i, windows));
        }
        let probe = demand(999, windows);
        group.bench_with_input(
            BenchmarkId::new("exact", format!("{windows}w")),
            &windows,
            |b, _| b.iter(|| std::hint::black_box(state.can_fit(&probe))),
        );
    }
    group.finish();
}

/// One server's dense columns on their own: place one VM on, then remove
/// the oldest from, a six-window server hosting N. The demands are
/// one-window (no boxed maxima), so what grows with N is the id scan in
/// the duplicate check and in `remove`'s lookup — a hash probe before the
/// columns. Sixteen is what `stream_cold` averages; 256 is past where the
/// scan loses to the probe it replaced (about 130 on the reference box:
/// 116 / 145 / 314 ns here against the map's flat 200).
fn bench_server_columns(c: &mut Criterion) {
    let mut group = c.benchmark_group("server");
    let request = VmConfig::general_purpose(4).demand() * 0.01;
    for hosted in [16u64, 64, 256] {
        let mut state = ServerState::new(
            ServerId::new(0),
            HardwareConfig::general_purpose_gen4().capacity,
            6,
        );
        for i in 0..hosted {
            assert!(state.place(&VmDemand::unpredicted(VmId::new(i), request)));
        }
        let mut next = hosted;
        group.bench_with_input(BenchmarkId::new("place_remove", hosted), &hosted, |b, _| {
            b.iter(|| {
                let placed = state.place(&VmDemand::unpredicted(VmId::new(next), request));
                let removed = state.remove(VmId::new(next - hosted));
                next += 1;
                std::hint::black_box(placed && removed)
            })
        });
    }
    group.finish();
}

fn bench_formula4_ablation(c: &mut Criterion) {
    // Multiplexed (Formula 4) vs. summed VA pool accounting.
    let mut state = coach_sched::ServerState::new(
        ServerId::new(0),
        HardwareConfig::general_purpose_gen4().capacity,
        6,
    );
    for i in 0..20u64 {
        let _ = state.place(&demand(i, 6));
    }
    c.bench_function("pool_multiplexed_formula4", |b| {
        b.iter(|| std::hint::black_box(state.oversub_pool_memory()))
    });
    c.bench_function("pool_summed_baseline", |b| {
        b.iter(|| std::hint::black_box(state.oversub_pool_memory_summed()))
    });
}

criterion_group!(
    benches,
    bench_placement,
    bench_index_scaling,
    bench_can_fit,
    bench_server_columns,
    bench_formula4_ablation
);
criterion_main!(benches);
