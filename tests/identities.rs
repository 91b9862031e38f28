//! The trace's and the serving path's identities, driven through the
//! `coach::` facade on a trace of 2,000 VMs: the streamed trace is the
//! materialized one, the online controller decides what the batch replay
//! decides, two shards decide what one does, and a scheduler's state is a
//! function of what it hosts, not of the order it was placed and emptied
//! in. Each case runs in well under two seconds in a debug build.

use coach::sched::{ClusterScheduler, PlacementOutcome, Policy, VmDemand};
use coach::serve::{Controller, Request, RequestSource, Response, ShardedController};
use coach::sim::{packing_experiment, Oracle, PackingResult, PolicyConfig, Predictor};
use coach::trace::{generate, StreamingTrace, Trace, TraceConfig, DEFAULT_CHUNK_BUDGET};
use coach::types::prelude::*;

/// Two thousand VMs over three clusters for a week.
fn config() -> TraceConfig {
    TraceConfig {
        vm_count: 2_000,
        ..TraceConfig::small(48)
    }
}

fn trace() -> Trace {
    generate(&config())
}

/// The streaming generator yields `generate`'s clusters and records
/// exactly, whatever its chunk budget: the default one (one bucket over
/// every arrival), one that splits the arrivals after `t = 0` into several
/// multi-tick buckets, and 1, where every tick is a bucket of its own.
#[test]
fn streamed_trace_equals_materialized() {
    let batch = trace();
    let several = 300;
    let later = batch.vms.iter().filter(|vm| vm.arrival.ticks() > 0);
    let mut per_tick = std::collections::HashMap::new();
    for vm in later.clone() {
        *per_tick.entry(vm.arrival).or_insert(0usize) += 1;
    }
    // More than two budgets' worth of later arrivals, no tick holding half
    // a budget: at least three buckets, each closed only when more than
    // half full, so each spans several ticks.
    assert!(later.count() > 2 * several);
    assert!(per_tick.values().all(|&n| 2 * n < several));

    for budget in [DEFAULT_CHUNK_BUDGET, several, 1] {
        let streaming = StreamingTrace::with_chunk_budget(&config(), budget);
        assert_eq!(streaming.clusters(), &batch.clusters[..], "budget {budget}");
        let records: Vec<_> = streaming.records().collect();
        assert!(records == batch.vms, "budget {budget}: records differ");
    }
}

/// The per-item online controller, request by request, finalizes to the
/// batch replay's `PackingResult`, field for field, under every paper
/// policy.
#[test]
fn online_controller_equals_packing_experiment() {
    let trace = trace();
    let oracle = Oracle::new(TimeWindows::paper_default());
    for policy in PolicyConfig::paper_set() {
        let mut controller = Controller::replaying(&trace, &oracle, policy, 0.6);
        for request in RequestSource::replaying(&trace) {
            controller.handle(request);
        }
        let online = controller.finalize();
        let batch = packing_experiment(&trace, &oracle, policy, 0.6);
        assert!(online.accepted > 0 && online.rejected > 0, "{online:?}");
        assert_eq!(online, batch, "{}", policy.label);
    }
}

/// Two shards answer every request as one shard does, and finalize to the
/// same counts; the accepted hours are float sums merged in shard order,
/// so they agree to a relative 1e-12.
#[test]
fn two_shards_equal_one() {
    let trace = trace();
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let requests: Vec<Request> = RequestSource::replaying(&trace).collect();

    let mut one = ShardedController::replaying(&trace, &oracle, coach, 0.6, 1);
    let expected: Vec<Response> = one.handle_batch(&requests);
    let expected_result = one.finalize();
    let mut two = ShardedController::replaying(&trace, &oracle, coach, 0.6, 2);
    assert_eq!(two.shard_count(), 2);
    let got = two.handle_batch(&requests);
    assert_eq!(got, expected);
    let got_result = two.finalize();

    let hours = |r: &PackingResult| [r.accepted_core_hours, r.accepted_gb_hours];
    for (got, want) in hours(&got_result).into_iter().zip(hours(&expected_result)) {
        assert!((got - want).abs() <= 1e-12 * want.abs(), "{got} != {want}");
    }
    let counts = |r: &PackingResult| {
        (
            r.accepted,
            r.rejected,
            r.probe_capacity,
            r.peak_servers_in_use,
            r.cpu_violation_rate,
            r.mem_violation_rate,
        )
    };
    assert_eq!(counts(&got_result), counts(&expected_result));
}

/// One resident set, reached two ways: in arrival order with a third of
/// the VMs removed again afterwards, and in reverse order with those VMs
/// placed first and removed in reverse. Each VM is pinned to the server it
/// took the first time. The two schedulers are equal — their servers'
/// sums and rows, and their feasibility tables' rows (`FitRow`s), which
/// `ClusterScheduler`'s equality compares. Sums kept in `f64` would differ
/// in their last bits between the two orders.
#[test]
fn a_resident_set_reads_the_same_rows_whatever_order_built_it() {
    let trace = trace();
    let tw = TimeWindows::paper_default();
    let oracle = Oracle::new(tw);
    let cluster = &trace.clusters[0];
    let demands: Vec<VmDemand> = trace
        .vms
        .iter()
        .filter(|vm| vm.cluster == cluster.id)
        .map(|vm| {
            let prediction = oracle.predict(vm, Percentile::P95);
            VmDemand::from_prediction(vm.id, vm.demand(), Policy::Coach, prediction.as_ref())
        })
        .collect();
    let fresh = || ClusterScheduler::new(&cluster.servers, cluster.hardware.capacity, tw.count());

    let mut forward = fresh();
    let (mut residents, mut churn) = (Vec::new(), Vec::new());
    for (i, demand) in demands.iter().enumerate() {
        if let PlacementOutcome::Placed(server) = forward.place(demand) {
            if i % 3 == 0 {
                churn.push((demand, server));
            } else {
                residents.push((demand, server));
            }
        }
    }
    assert!(residents.len() > 100 && churn.len() > 50);
    for (demand, _) in &churn {
        assert!(forward.remove(demand.vm).is_some());
    }

    // Every VM `forward` placed was hosted at once before the removals, so
    // any subset fits its server in any order.
    let mut reversed = fresh();
    let pin = |sched: &mut ClusterScheduler, demand: &VmDemand, server: ServerId| {
        let others: Vec<ServerId> = cluster
            .servers
            .iter()
            .copied()
            .filter(|&s| s != server)
            .collect();
        assert_eq!(
            sched.place_excluding(demand, &others),
            PlacementOutcome::Placed(server)
        );
    };
    for &(demand, server) in churn.iter().rev().chain(residents.iter().rev()) {
        pin(&mut reversed, demand, server);
    }
    for (demand, _) in churn.iter().rev() {
        assert!(reversed.remove(demand.vm).is_some());
    }

    assert_eq!(forward.vm_count(), residents.len());
    assert!(forward == reversed, "the two orders left different state");
    for (a, b) in forward.servers().iter().zip(reversed.servers()) {
        assert_eq!(a.dump(), b.dump());
    }
}
