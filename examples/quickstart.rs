//! Quickstart: bring up Coach over a cluster, train it on history, and
//! watch it oversubscribe incoming VMs.
//!
//! Run with: `cargo run --release --example quickstart`

use coach::prelude::*;
use coach::trace::{generate, TraceConfig};

fn main() {
    // --- 1. A Coach deployment with the paper's defaults:
    //        P95 predictions, six 4-hour windows, proactive mitigation.
    let mut coach = Coach::new(CoachConfig::default());
    let cluster = ClusterId::new(0);
    let servers = coach.register_cluster(cluster, HardwareConfig::general_purpose_gen4(), 8);
    println!(
        "cluster-0: {} servers of {}",
        servers.len(),
        HardwareConfig::general_purpose_gen4()
    );

    // --- 2. Train the utilization model on a week of (synthetic) history.
    let history = generate(&TraceConfig::small(7));
    let train: Vec<_> = history.vms.iter().collect();
    coach.train(&train);
    let model = coach.manager().model().expect("trained");
    println!(
        "model: {} training rows, {} groups, ~{} KB",
        model.training_rows(),
        model.group_count(),
        model.approx_size_bytes() / 1024
    );

    // --- 3. Request VMs from known customer groups; Coach predicts their
    //        temporal patterns and oversubscribes accordingly.
    let mut total_requested = ResourceVec::ZERO;
    let mut total_guaranteed = ResourceVec::ZERO;
    let mut placed = 0u32;
    for (i, old) in history.long_running().take(24).enumerate() {
        let request = VmRequest {
            id: VmId::new(10_000 + i as u64),
            config: old.config,
            subscription: old.subscription,
            subscription_type: old.subscription_type,
            offering: old.offering,
            arrival: Timestamp::from_days(7),
            opted_in: true,
        };
        match coach.request_vm(cluster, request) {
            Ok(server) => {
                placed += 1;
                let (_, srv) = coach.manager().placement_of(request.id).unwrap();
                assert_eq!(srv, server);
                total_requested += request.config.demand();
                // Inspect the provisioned split via the scheduler state.
                let state = coach
                    .manager()
                    .scheduler(cluster)
                    .unwrap()
                    .server(server)
                    .unwrap();
                let guaranteed = state.demand(request.id).unwrap().guaranteed.to_resources();
                total_guaranteed += guaranteed;
                if placed <= 5 {
                    println!(
                        "  {} ({}): guaranteed {:.1} cores / {:.1} GB of {} requested",
                        request.id,
                        request.config,
                        guaranteed.cpu(),
                        guaranteed.memory(),
                        request.config.demand(),
                    );
                }
            }
            Err(e) => println!("  request rejected: {e}"),
        }
    }

    let saved = total_requested.saturating_sub(&total_guaranteed);
    println!("\nplaced {placed} VMs: requested {total_requested}, guaranteed {total_guaranteed}");
    println!(
        "oversubscribed (allocated on demand from the shared pool): {:.1} cores, {:.1} GB ({:.0}% / {:.0}%)",
        saved.cpu(),
        saved.memory(),
        100.0 * saved.cpu() / total_requested.cpu(),
        100.0 * saved.memory() / total_requested.memory(),
    );

    // --- 4. Per-server memory pools (Formulas 3 and 4).
    println!("\nper-server memory pools (guaranteed + multiplexed oversubscribed):");
    for (server, guaranteed, pool) in coach.manager().memory_pools(cluster) {
        if guaranteed + pool > 0.0 {
            println!("  {server}: {guaranteed:.0} GB guaranteed, {pool:.0} GB oversubscribed pool");
        }
    }

    // --- 5. Run a minute of server time with live demand.
    for i in 0..placed as u64 {
        coach.set_vm_demand(VmId::new(10_000 + i), 4.0, 1.0);
    }
    let mut actions = 0;
    for _ in 0..60 {
        for (_, tick) in coach.tick() {
            actions += tick.actions.len();
        }
    }
    println!("\n60 s of runtime: {actions} mitigation actions (quiet cluster)");
}
