//! Integration tests spanning the whole workspace: trace generation →
//! prediction → scheduling → server runtime → mitigation.

use coach::predict::{ForestParams, ModelConfig, UtilizationModel};
use coach::prelude::*;
use coach::trace::{generate, TraceConfig};

fn small_forest() -> ForestParams {
    ForestParams {
        n_trees: 10,
        ..ForestParams::default()
    }
}

/// The full §3.1 workflow: train on history, create CoachVMs, place them,
/// and run the servers with live demand — nothing panics, every invariant
/// holds.
#[test]
fn full_pipeline_runs() {
    let history = generate(&TraceConfig::small(201));
    let train: Vec<_> = history.vms.iter().collect();

    let mut coach = Coach::new(CoachConfig {
        forest: small_forest(),
        ..CoachConfig::default()
    });
    let cluster = ClusterId::new(0);
    coach.register_cluster(cluster, HardwareConfig::general_purpose_gen4(), 6);
    coach.train(&train);

    // Allocate VMs modeled on historical ones.
    let mut placed = Vec::new();
    for (i, old) in history.long_running().take(30).enumerate() {
        let req = VmRequest {
            id: VmId::new(50_000 + i as u64),
            config: old.config,
            subscription: old.subscription,
            subscription_type: old.subscription_type,
            offering: old.offering,
            arrival: Timestamp::from_days(7),
            opted_in: true,
        };
        if let Ok(server) = coach.request_vm(cluster, req) {
            placed.push((req.id, server, old.config));
        }
    }
    assert!(placed.len() >= 10, "too few placements: {}", placed.len());

    // Drive demand and run a couple of minutes.
    for (id, _, config) in &placed {
        coach.set_vm_demand(*id, config.memory_gb * 0.4, f64::from(config.cores) * 0.3);
    }
    for _ in 0..120 {
        coach.tick();
    }

    // Per-server memory invariants hold after the run.
    for (_, server, _) in &placed {
        let s = coach.server(*server).expect("server exists");
        s.memory().check_invariants().expect("memory invariants");
    }

    // Deallocate everything.
    for (id, _, _) in &placed {
        assert!(coach.deallocate_vm(*id));
    }
    assert_eq!(coach.vm_count(), 0);
}

/// The trained model and the scheduler agree on Formulas 1–2: the demand
/// built from a prediction satisfies PA = max(PX), VA ≥ 0 per window.
#[test]
fn model_and_scheduler_formulas_agree() {
    let trace = generate(&TraceConfig::small(202));
    let (train, test) = trace.split_by_arrival(Timestamp::from_days(4));
    let model = UtilizationModel::train(
        &train,
        ModelConfig {
            forest: small_forest(),
            ..ModelConfig::default()
        },
    );

    let mut checked = 0;
    for vm in test.iter().take(60) {
        let Some(p) = model.predict(vm) else { continue };
        let demand = coach::sched::VmDemand::from_prediction(
            vm.id,
            vm.demand(),
            coach::sched::Policy::Coach,
            Some(&p),
        );
        assert!(demand.is_well_formed());
        // Formula 1: guaranteed = request × max(px), on the grid.
        let expected_pa = vm.demand().scale_by(&p.pa_fraction()).min(&vm.demand());
        let guaranteed = demand.guaranteed.to_resources();
        for kind in ResourceKind::ALL {
            assert!((guaranteed[kind] - expected_pa[kind]).abs() < 1e-9);
        }
        // Formula 2: VA per window is non-negative and bounded by request.
        for w in 0..demand.window_count() {
            let va = demand.va_demand(w);
            assert!(va.is_valid());
            assert!(va.fits_within(&vm.demand()));
        }
        checked += 1;
    }
    assert!(checked > 10, "only {checked} predictions checked");
}

/// Placing the trace through the None policy can never create violations;
/// the Coach policy's savings are real (guaranteed < requested).
#[test]
fn policy_replay_invariants() {
    use coach::sim::{packing_experiment, Oracle, PolicyConfig};
    let trace = generate(&TraceConfig::small(203));
    let preds = Oracle::new(TimeWindows::paper_default());
    let configs = PolicyConfig::paper_set();

    let none = packing_experiment(&trace, &preds, configs[0], 1.0);
    assert_eq!(none.mem_violation_rate, 0.0);

    let coach_r = packing_experiment(&trace, &preds, configs[2], 1.0);
    assert!(coach_r.probe_capacity >= none.probe_capacity);
    assert!(coach_r.accepted >= none.accepted);
}

/// A contention episode on a Coach server ends with the agent recovering
/// pool headroom (end-to-end node + agent + mitigation).
#[test]
fn contention_recovery_end_to_end() {
    use coach::node::mitigation::MitigationPolicy;
    use coach::workloads::mitigation_experiment;

    let run = mitigation_experiment(MitigationPolicy::migrate(true), 340);
    // After the second contention and mitigation, the latency VMs are back
    // near their baseline.
    let tail: f64 = run.cache_slowdown[320..].iter().sum::<f64>() / 20.0;
    assert!(tail < 1.4, "cache not recovered: {tail}");
}

/// Figure-harness smoke tests: every experiment entry point runs on a tiny
/// input without panicking and returns non-degenerate results.
#[test]
fn figure_harnesses_smoke() {
    use coach::trace::analytics;
    let trace = generate(&TraceConfig::small(204));

    assert_eq!(analytics::duration_profile(&trace).rows.len(), 10);
    assert!(!analytics::size_profile(&trace).by_cores.is_empty());
    let s = analytics::stranding(
        &trace,
        analytics::OversubMode::CpuMem,
        SimDuration::from_hours(24),
    );
    assert!(s.bottleneck_share_all.is_valid());
    assert!(!analytics::util_correlation(&trace).points.is_empty());
    let pv = analytics::peaks_valleys(&trace, ResourceKind::Cpu, TimeWindows::paper_default());
    assert_eq!(pv.per_day.len(), 7);
    let cells = coach::workloads::pa_va_sweep(32.0, 18.0, 8.0);
    assert!(cells.iter().any(|c| c.valid));
}
