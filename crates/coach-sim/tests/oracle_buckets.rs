//! The serving `Oracle` derives through the decision-decided stopping rule
//! (`VmRecord::window_decision_buckets`) and returns its prediction in
//! decision form. Nothing it returns may differ by a bit from the decision
//! form of the two paths it stands in for: `bucket_up` of the unbucketed
//! exact-rule oracle that fig19 reads, and the eager materializing
//! `NaiveReference`.

use coach_predict::{DemandPrediction, UtilizationModel};
use coach_sim::{NaiveReference, Oracle, Predictor};
use coach_trace::{generate, TraceConfig};
use coach_types::prelude::*;

#[test]
fn oracle_is_the_decision_form_of_the_exact_path() {
    let tw = TimeWindows::paper_default();
    let (oracle, naive) = (Oracle::new(tw), NaiveReference::new(tw));
    for seed in 31..=33 {
        let trace = generate(&TraceConfig::small(seed));
        let mut compared = 0usize;
        for percentile in [Percentile::P95, Percentile::P50, Percentile::P80] {
            for vm in &trace.vms {
                let got = oracle.predict(vm, percentile);
                assert_eq!(
                    got,
                    naive.predict(vm, percentile).map(|p| p.decision_form()),
                    "seed {seed} vm {} {percentile}: Oracle != decision form of NaiveReference",
                    vm.id
                );
                let Some(got) = got else { continue };
                let exact = UtilizationModel::oracle(vm, tw, percentile);
                let exact = DemandPrediction::from_buckets(tw, exact.bucket_up());
                assert_eq!(
                    got,
                    exact.decision_form(),
                    "seed {seed} vm {} {percentile}: Oracle != decision form of bucket_up(exact rule)",
                    vm.id
                );
                compared += 1;
            }
        }
        assert!(compared > 100, "seed {seed}: only {compared} comparisons");
    }
}
