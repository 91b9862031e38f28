//! Fig 19: long-term prediction accuracy — over-allocation error and
//! under-allocation rate per prediction percentile.
//!
//! Train the model on the first week's VMs, predict the second week's, and
//! compare against each VM's *ideal allocation* (the oracle percentiles of
//! its own observed series). Over-allocation = resources that could have
//! been saved; under-allocation = predicted guaranteed portion below the
//! ideal (the dangerous direction, which Coach's design minimizes).

use crate::prediction::{Model, Predictor};
use coach_predict::{ForestParams, ModelConfig, UtilizationModel};
use coach_trace::Trace;
use coach_types::prelude::*;

/// Fig 19 result for one percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyResult {
    /// Percentile evaluated.
    pub percentile: Percentile,
    /// Mean CPU over-allocation over the evaluated VMs: `max(0, predicted
    /// PA − ideal PA)` per VM, in units of the VM's requested CPU (0.05 is
    /// 5 % of the VM's size, not of its allocation).
    pub cpu_over_allocation: f64,
    /// Mean memory over-allocation, as [`Self::cpu_over_allocation`]: in
    /// units of the VM's requested memory.
    pub mem_over_allocation: f64,
    /// Fraction of the evaluated VMs whose predicted CPU PA is more than
    /// one 5 % bucket of the VM's requested CPU below the ideal (smaller
    /// gaps cannot change an allocation, so they are not counted).
    pub cpu_under_allocations: f64,
    /// Fraction of the evaluated VMs whose predicted memory PA is more than
    /// one 5 % bucket of the VM's requested memory below the ideal.
    pub mem_under_allocations: f64,
    /// Number of VMs evaluated.
    pub vms_evaluated: usize,
}

/// Run the Fig 19 accuracy experiment for one percentile: train the forest
/// on VMs arriving before `split` and evaluate it via
/// [`predictor_accuracy`].
///
/// # Panics
///
/// Panics if the trace has no usable training VMs before `split`.
pub fn prediction_accuracy(
    trace: &Trace,
    percentile: Percentile,
    split: Timestamp,
    forest: ForestParams,
) -> AccuracyResult {
    let (train, _) = trace.split_by_arrival(split);
    let model = UtilizationModel::train(
        &train,
        ModelConfig {
            tw: TimeWindows::paper_default(),
            percentile,
            forest,
        },
    );
    predictor_accuracy(trace, &Model::new(&model), percentile, split)
}

/// Evaluate **any** prediction source against the ideal allocation: compare
/// its guaranteed (PA) fractions with the lazy oracle's for every
/// long-running VM arriving at or after `split`.
pub fn predictor_accuracy(
    trace: &Trace,
    predictor: &dyn Predictor,
    percentile: Percentile,
    split: Timestamp,
) -> AccuracyResult {
    let tw = predictor.time_windows();
    let mut over = [0.0f64; 2];
    let mut under = [0usize; 2];
    let mut n = 0usize;
    // Under-allocation tolerance: one 5% bucket (the platform's own
    // granularity; sub-bucket differences cannot change an allocation).
    const TOL: f64 = 0.05;

    for vm in trace.vms.iter().filter(|vm| vm.arrival >= split) {
        if vm.lifetime() < SimDuration::from_days(1) {
            continue;
        }
        let Some(pred) = predictor.predict(vm, percentile) else {
            continue;
        };
        let ideal = UtilizationModel::oracle(vm, tw, percentile);
        let pred_pa = pred.pa_fraction();
        let ideal_pa = ideal.pa();
        for (slot, kind) in [(0, ResourceKind::Cpu), (1, ResourceKind::Memory)] {
            let diff = pred_pa[kind] - ideal_pa[kind];
            if diff > 0.0 {
                over[slot] += diff;
            }
            if diff < -TOL {
                under[slot] += 1;
            }
        }
        n += 1;
    }

    let n_f = n.max(1) as f64;
    AccuracyResult {
        percentile,
        cpu_over_allocation: over[0] / n_f,
        mem_over_allocation: over[1] / n_f,
        cpu_under_allocations: under[0] as f64 / n_f,
        mem_under_allocations: under[1] as f64 / n_f,
        vms_evaluated: n,
    }
}

/// The paper's three percentile points (Fig 19).
pub fn accuracy_sweep(
    trace: &Trace,
    split: Timestamp,
    forest: ForestParams,
) -> Vec<AccuracyResult> {
    [
        Percentile::P95,
        Percentile::new(90.0),
        Percentile::new(85.0),
    ]
    .into_iter()
    .map(|p| prediction_accuracy(trace, p, split, forest))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_trace::{generate, TraceConfig};

    fn small_forest() -> ForestParams {
        ForestParams {
            n_trees: 12,
            ..ForestParams::default()
        }
    }

    #[test]
    fn accuracy_in_plausible_ranges() {
        let trace = generate(&TraceConfig::paper_scale(97));
        let r = prediction_accuracy(
            &trace,
            Percentile::P95,
            Timestamp::from_days(7),
            small_forest(),
        );
        assert!(
            r.vms_evaluated > 50,
            "only {} VMs evaluated",
            r.vms_evaluated
        );
        // Over-allocation is bounded (paper: 19-30%); allow a wide band but
        // require it to be non-trivial and far from catastrophic.
        assert!(
            (0.0..0.6).contains(&r.cpu_over_allocation),
            "cpu over {}",
            r.cpu_over_allocation
        );
        assert!(
            (0.0..0.6).contains(&r.mem_over_allocation),
            "mem over {}",
            r.mem_over_allocation
        );
        // Under-allocations are rare (paper: CPU 3-8%, memory 1-2%).
        assert!(
            r.cpu_under_allocations < 0.25,
            "cpu under {}",
            r.cpu_under_allocations
        );
        assert!(
            r.mem_under_allocations < 0.15,
            "mem under {}",
            r.mem_under_allocations
        );
        // Memory is more predictable than CPU (narrow ranges).
        assert!(r.mem_under_allocations <= r.cpu_under_allocations + 0.02);
    }

    #[test]
    fn lower_percentile_reduces_over_allocation() {
        let trace = generate(&TraceConfig::paper_scale(98));
        let sweep = accuracy_sweep(&trace, Timestamp::from_days(7), small_forest());
        assert_eq!(sweep.len(), 3);
        // Paper Fig 19a: "As we decrease the prediction percentile, the
        // [over-allocation] error decreases."
        assert!(
            sweep[2].mem_over_allocation <= sweep[0].mem_over_allocation + 0.02,
            "P85 {} vs P95 {}",
            sweep[2].mem_over_allocation,
            sweep[0].mem_over_allocation
        );
    }
}
