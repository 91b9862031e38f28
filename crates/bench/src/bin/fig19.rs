//! Figure 19: long-term prediction accuracy (over-allocation error and
//! under-allocation rate).

use coach_bench::{figure_header, pct, small_eval_trace};
use coach_predict::ForestParams;
use coach_sim::accuracy_sweep;
use coach_types::prelude::*;

fn main() {
    figure_header(
        "Figure 19",
        "prediction over-allocation and under-allocations",
    );
    let trace = small_eval_trace();
    let sweep = accuracy_sweep(
        &trace,
        Timestamp::from_days(7),
        ForestParams {
            n_trees: 24,
            ..ForestParams::default()
        },
    );
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>14} {:>8}",
        "pctl", "CPU over", "Mem over", "CPU under", "Mem under", "VMs"
    );
    for r in &sweep {
        println!(
            "{:>6} {:>10} {:>12} {:>12} {:>14} {:>8}",
            r.percentile.to_string(),
            pct(r.cpu_over_allocation),
            pct(r.mem_over_allocation),
            pct(r.cpu_under_allocations),
            pct(r.mem_under_allocations),
            r.vms_evaluated
        );
    }
    println!("\nover: mean max(0, predicted - ideal guaranteed share) per VM, in units of");
    println!("the VM's requested size; under: share of VMs more than one 5% bucket of");
    println!("their size below the ideal.");
    println!("paper: over-allocation 23-30% CPU / 19-24% memory of the allocation,");
    println!("decreasing with the percentile; under-allocations rare (CPU 3-8%, memory 1-2%).");
}
