//! Workspace-wiring smoke test: every name the `coach::prelude` facade
//! promises must keep resolving, and the per-subsystem re-exports must keep
//! pointing at the member crates. Guards the `Cargo.toml` dependency DAG and
//! the `src/lib.rs` re-export table against future crate renames.

use coach::prelude::*;

/// Every prelude type is nameable and constructible through the facade.
#[test]
fn prelude_reexports_resolve() {
    // coach-core surface.
    let mut coach = Coach::new(CoachConfig::default());
    let cluster = ClusterId::new(0);
    coach.register_cluster(cluster, HardwareConfig::general_purpose_gen4(), 2);
    assert_eq!(coach.vm_count(), 0);

    // coach-types prelude surface (spot-check the vocabulary types).
    let demand = ResourceVec::new(4.0, 16.0, 1.0, 64.0);
    assert!(demand.is_valid());
    assert_eq!(ResourceKind::ALL.len(), ResourceKind::COUNT);
    let tw = TimeWindows::paper_default();
    assert!(tw.count() > 0);
    let _ = Timestamp::from_days(1);
    let _ = VmId::new(7);
    let _ = ServerId::new(7);

    // The request type re-exported from coach-core stays constructible (and
    // Copy: tests rely on using a request after passing it by value).
    let req = VmRequest {
        id: VmId::new(1),
        config: VmConfig::general_purpose(2),
        subscription: SubscriptionId::new(1),
        subscription_type: SubscriptionType::External,
        offering: Offering::Iaas,
        arrival: Timestamp::ZERO,
        opted_in: true,
    };
    let copy = req;
    assert_eq!(copy.id, req.id);

    // coach-serve surface: the online controller is constructible through
    // the prelude and replays a trace end-to-end.
    let trace = coach::trace::generate(&coach::trace::TraceConfig::small(3));
    let oracle = coach::sim::Oracle::new(TimeWindows::paper_default());
    let policy = coach::sim::PolicyConfig::paper_set().remove(2);
    let mut controller = Controller::new(
        &trace.clusters,
        &oracle,
        ServeConfig::replaying(policy, 0.8, trace.horizon),
    );
    let mut admissions = 0;
    for request in RequestSource::replaying(&trace) {
        if let Response::Admission { .. } = controller.handle(request) {
            admissions += 1;
        }
    }
    assert_eq!(admissions, trace.vms.len());
    let report: StatsReport = controller.stats(trace.horizon);
    assert_eq!(report.accepted + report.rejected, trace.vms.len() as u64);
    let _ = ShardedController::replaying(&trace, &oracle, policy, 0.8, 2);
}

/// The facade's module re-exports point at the member crates: the same type
/// must be reachable through both paths.
#[test]
fn facade_modules_alias_member_crates() {
    fn same_type<T>(_: T, _: T) {}

    same_type(
        coach::types::ResourceVec::ZERO,
        coach_types::ResourceVec::ZERO,
    );
    same_type(
        coach::trace::TraceConfig::small(1),
        coach_trace::TraceConfig::small(1),
    );
    same_type(
        coach::predict::ForestParams::default(),
        coach_predict::ForestParams::default(),
    );
    same_type(
        coach::sched::PlacementHeuristic::BestFit,
        coach_sched::PlacementHeuristic::BestFit,
    );
    same_type(
        coach::node::monitor::MonitorConfig::default(),
        coach_node::monitor::MonitorConfig::default(),
    );
    same_type(
        coach::sim::Oracle::new(TimeWindows::paper_default()),
        coach_sim::Oracle::new(TimeWindows::paper_default()),
    );
    // The predictor trait stays object-safe through the facade.
    let oracle = coach::sim::Oracle::new(TimeWindows::paper_default());
    let _: &dyn coach::sim::Predictor = &oracle;
    same_type(
        coach::workloads::Workload::catalog(),
        coach_workloads::Workload::catalog(),
    );
    same_type(
        coach::core::CoachConfig::default(),
        coach_core::CoachConfig::default(),
    );
    let trace = coach_trace::generate(&coach_trace::TraceConfig::small(4));
    let oracle = coach_sim::Oracle::new(TimeWindows::paper_default());
    let policy = coach_sim::PolicyConfig::paper_set().remove(2);
    same_type(
        coach::serve::serve_trace(&trace, &oracle, policy, 1.0),
        coach_sim::packing_experiment(&trace, &oracle, policy, 1.0),
    );
}
