//! §4.5: Coach platform overheads, measured on this machine.

use coach_bench::{figure_header, small_eval_trace};
use coach_node::memory::{MemoryServer, VmMemoryConfig};
use coach_predict::{ForestParams, LocalPredictor, ModelConfig, UtilizationModel};
use coach_sched::{ClusterScheduler, VmDemand};
use coach_sim::{Model, Predictor};
use coach_types::prelude::*;
use std::time::Instant;

fn main() {
    figure_header("§4.5", "Coach platform overheads (measured here vs. paper)");

    // --- Offline model training.
    let trace = small_eval_trace();
    let history: Vec<_> = trace.vms.iter().collect();
    let t0 = Instant::now();
    let model = UtilizationModel::train(
        &history,
        ModelConfig {
            forest: ForestParams {
                n_trees: 24,
                ..ForestParams::default()
            },
            ..ModelConfig::default()
        },
    );
    let train_time = t0.elapsed();
    // A rate, so the line below compares like with like: the two runs
    // differ in size by three orders of magnitude.
    println!(
        "model training: {} VMs, {} rows -> {:.2} s on {} threads ({:.0} rows/s), ~{:.1} MB model",
        history.len(),
        model.training_rows(),
        train_time.as_secs_f64(),
        available_threads(),
        model.training_rows() as f64 / train_time.as_secs_f64(),
        model.approx_size_bytes() as f64 / 1e6
    );
    println!(
        "  paper: ~1M VMs, 121 s daily offline training (~8,300 VMs/s; here {:.0} VMs/s), 186 MB model",
        history.len() as f64 / train_time.as_secs_f64()
    );

    // --- Request-time model inference: one VM per call, the serving
    // controller's 64-VM chunks, and those chunks through one memoized
    // `Model` (one forest walk per distinct feature key).
    let requests = &history[..640];
    let t0 = Instant::now();
    let one_by_one: Vec<_> = requests.iter().map(|vm| model.predict(vm)).collect();
    let per_vm_single = t0.elapsed().as_secs_f64() / requests.len() as f64;
    let t0 = Instant::now();
    let batched: Vec<_> = requests
        .chunks(64)
        .flat_map(|chunk| model.predict_batch(chunk))
        .collect();
    let per_vm_batched = t0.elapsed().as_secs_f64() / requests.len() as f64;
    let memoized = Model::new(&model);
    let t0 = Instant::now();
    let through_memo: Vec<_> = requests
        .chunks(64)
        .flat_map(|chunk| memoized.predict_batch(chunk, model.config().percentile))
        .collect();
    let per_vm_memoized = t0.elapsed().as_secs_f64() / requests.len() as f64;
    assert!(
        one_by_one == batched && batched == through_memo,
        "batched, memoized and per-VM inference disagree"
    );
    println!(
        "model inference: {:.1} us/VM one VM per call, {:.1} us/VM in 64-VM batches, \
         {:.1} us/VM memoized ({} distinct keys for {} group-known of {} VMs)",
        per_vm_single * 1e6,
        per_vm_batched * 1e6,
        per_vm_memoized * 1e6,
        memoized.memoized_keys(),
        through_memo.iter().flatten().count(),
        requests.len()
    );

    // --- Scheduling overhead per VM.
    let servers: Vec<ServerId> = (0..100).map(ServerId::new).collect();
    let mut sched =
        ClusterScheduler::new(&servers, HardwareConfig::general_purpose_gen4().capacity, 6);
    let t0 = Instant::now();
    let mut placed = 0u64;
    for i in 0..2000u64 {
        let d = VmDemand::unpredicted(VmId::new(i), VmConfig::general_purpose(2).demand() * 0.5);
        if matches!(sched.place(d), coach_sched::PlacementOutcome::Placed(_)) {
            placed += 1;
        }
    }
    let per_vm = t0.elapsed().as_secs_f64() / 2000.0;
    println!(
        "\nscheduling: {placed} placements over 100 servers x 6 windows -> {:.3} ms/VM",
        per_vm * 1e3
    );
    println!("  paper: the 6 extra dimensions add <1 ms per VM");

    // --- Local predictor.
    let mut lp = LocalPredictor::new(7);
    let t0 = Instant::now();
    for i in 0..15_000 {
        lp.observe(0.3 + 0.2 * ((i % 100) as f64 / 100.0));
    }
    let per_cycle = t0.elapsed().as_secs_f64() / 1000.0; // 1000 windows closed
    println!(
        "\nlocal predictor: {:.3} ms per 5-min train/inference cycle, {} KB state",
        per_cycle * 1e3,
        lp.size_bytes() / 1024
    );
    println!("  paper: 0.86 ms per cycle, ~25 KB per predictor");

    // --- Trim / extend bandwidth (model parameters, exercised).
    let mut srv = MemoryServer::new(512.0, 4.0);
    srv.set_pool_backing(64.0).unwrap();
    srv.add_vm(VmId::new(1), VmMemoryConfig::split(64.0, 4.0))
        .unwrap();
    srv.set_working_set(VmId::new(1), 40.0);
    for _ in 0..30 {
        srv.step(1.0);
    }
    srv.set_working_set(VmId::new(1), 4.0);
    srv.step(1.0);
    let trimmed = srv.trim(VmId::new(1), 100.0, 1.0);
    let extended = srv.extend_pool(100.0, 1.0);
    println!("\ntrim bandwidth: {trimmed:.1} GB/s (paper: 1.1 GB/s)");
    println!("extend bandwidth: {extended:.1} GB/s (paper: 15.7 GB/s)");

    // --- CVM tracking overhead (model arithmetic).
    let vm_gb = 32.0f64;
    let tracking_mb = vm_gb * 1024.0 / 4096.0; // 1 bit per 4 KB page -> 8 MB per 32 GB... bytes
    println!(
        "\naccess tracking for a {vm_gb:.0} GB VM: ~{tracking_mb:.0} MB (paper: 8 MB, 2 HT cores)"
    );
}
