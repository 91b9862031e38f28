//! The serving `Oracle` derives through the bucket-decided stopping rule
//! (`VmRecord::window_peak_buckets`). Nothing it returns may differ by a
//! bit from the two paths it stands in for: `bucket_up` of the unbucketed
//! exact-rule oracle that fig19 reads, and the eager materializing
//! `NaiveReference`.

use coach_predict::UtilizationModel;
use coach_sim::{NaiveReference, Oracle, Predictor};
use coach_trace::{generate, TraceConfig};
use coach_types::prelude::*;

#[test]
fn oracle_is_the_bucketed_exact_path_bit_for_bit() {
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
                    naive.predict(vm, percentile),
                    "seed {seed} vm {} {percentile}: Oracle != NaiveReference",
                    vm.id
                );
                let Some(got) = got else { continue };
                let mut exact = UtilizationModel::oracle(vm, tw, percentile);
                for v in exact.pmax.iter_mut().chain(exact.px.iter_mut()) {
                    for kind in ResourceKind::ALL {
                        v[kind] = bucket_up(v[kind]);
                    }
                }
                assert_eq!(
                    got, exact,
                    "seed {seed} vm {} {percentile}: Oracle != bucket_up(exact rule)",
                    vm.id
                );
                compared += 1;
            }
        }
        assert!(compared > 100, "seed {seed}: only {compared} comparisons");
    }
}
