//! Fig 17: the packing-vs-performance trade-off between the PA (guaranteed)
//! and VA (oversubscribed) memory portions.
//!
//! For a prediction percentile PX and a window partition, the VM's
//! guaranteed allocation inside window `w` is `bucket_up(PX of window w's
//! samples across days)`, rounded up to a 5 % bucket. This is the
//! per-window trade-off study that precedes Formula 1's cross-window max.
//! The reproduction preserves the paper's operative claims: measured
//! oversubscribed accesses stay far below the `(100 − PX) %` worst case
//! (the 5 % rounding absorbs most of the tail), higher percentiles reduce
//! accesses, and the window length matters much more at low percentiles.
//! (The sign of the window-length effect depends on the allocation
//! estimator, so the tests below pin the spread between window lengths,
//! not its direction.)
//!
//! Assuming the VM uniformly accesses its utilized memory, the fraction of
//! accesses hitting the oversubscribed portion at a tick with utilization
//! `u` is `max(0, u − alloc) / u`. Fig 17a reports the mean over all VMs per
//! (percentile, window length); Fig 17b the per-VM CDF at 4-hour windows.

use crate::model::Trace;
use coach_types::prelude::*;

/// Result of the Fig 17 computation for one (percentile, partition) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct OversubAccessResult {
    /// Prediction percentile used for the PA allocation.
    pub percentile: Percentile,
    /// Window partition.
    pub tw: TimeWindows,
    /// Mean fraction of accesses landing in the VA portion, across VMs.
    pub mean_oversub_access: f64,
    /// Per-VM oversubscribed access fraction (for the Fig 17b CDF).
    pub per_vm: Vec<f64>,
    /// The naive upper bound `(100 − PX) / 100` ("Worst" line of Fig 17a).
    pub worst_case: f64,
}

impl OversubAccessResult {
    /// Fraction of VMs whose oversubscribed access share is below `th`.
    pub fn fraction_below(&self, th: f64) -> f64 {
        if self.per_vm.is_empty() {
            return 0.0;
        }
        self.per_vm.iter().filter(|&&v| v < th).count() as f64 / self.per_vm.len() as f64
    }
}

/// Compute the expected oversubscribed (VA) access share for every
/// long-running VM's memory under a PX / window-partition choice.
pub fn oversub_access(
    trace: &Trace,
    percentile: Percentile,
    tw: TimeWindows,
) -> OversubAccessResult {
    let mut per_vm = Vec::new();

    for vm in trace.long_running() {
        // Per-tick access accounting needs the raw samples: eager opt-in.
        let series = vm.materialized();
        let s = series.get(ResourceKind::Memory);

        // Per-window guaranteed allocation: the PX of that window's samples
        // (across all days), conservatively rounded up to a 5 % bucket.
        let alloc_per_window: Vec<f64> = tw
            .indices()
            .map(|w| bucket_up(f64::from(s.window_percentile(tw, w, percentile))))
            .collect();

        // Uniform-access assumption: oversub share at tick = (u − alloc)+/u.
        let mut acc = 0.0f64;
        let mut n = 0usize;
        for (i, &u) in s.samples().iter().enumerate() {
            let t = Timestamp::from_ticks(s.start().ticks() + i as u64);
            let alloc = alloc_per_window[tw.window_of(t)];
            let u = f64::from(u);
            if u > 0.0 {
                acc += ((u - alloc).max(0.0)) / u;
            }
            n += 1;
        }
        if n > 0 {
            per_vm.push(acc / n as f64);
        }
    }

    let mean = if per_vm.is_empty() {
        0.0
    } else {
        per_vm.iter().sum::<f64>() / per_vm.len() as f64
    };

    OversubAccessResult {
        percentile,
        tw,
        mean_oversub_access: mean,
        per_vm,
        worst_case: 1.0 - percentile.fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, TraceConfig};

    fn trace() -> Trace {
        generate(&TraceConfig::small(71))
    }

    #[test]
    fn access_share_below_worst_case() {
        // Fig 17a headline: measured VA accesses are far below (100−PX)%.
        let t = trace();
        for p in [
            Percentile::new(75.0),
            Percentile::new(85.0),
            Percentile::P95,
        ] {
            let r = oversub_access(&t, p, TimeWindows::paper_default());
            assert!(
                r.mean_oversub_access <= r.worst_case + 1e-9,
                "{}: mean {} vs worst {}",
                p,
                r.mean_oversub_access,
                r.worst_case
            );
        }
    }

    #[test]
    fn higher_percentile_fewer_oversub_accesses() {
        let t = trace();
        let tw = TimeWindows::paper_default();
        let p80 = oversub_access(&t, Percentile::new(80.0), tw);
        let p95 = oversub_access(&t, Percentile::P95, tw);
        assert!(
            p95.mean_oversub_access <= p80.mean_oversub_access + 1e-9,
            "p95 {} vs p80 {}",
            p95.mean_oversub_access,
            p80.mean_oversub_access
        );
    }

    #[test]
    fn window_length_matters_more_at_low_percentiles() {
        // Fig 17a: "For lower percentiles, the time window length is more
        // important" — the spread between window lengths widens as the
        // percentile drops.
        let t = trace();
        let spread = |p: Percentile| {
            let vals: Vec<f64> = [1u32, 4, 24]
                .iter()
                .map(|w| oversub_access(&t, p, TimeWindows::new(*w)).mean_oversub_access)
                .collect();
            let max = vals.iter().cloned().fold(0.0, f64::max);
            let min = vals.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(
            spread(Percentile::new(65.0)) >= spread(Percentile::P95) - 1e-9,
            "low-percentile spread {} < high-percentile spread {}",
            spread(Percentile::new(65.0)),
            spread(Percentile::P95)
        );
    }

    #[test]
    fn p95_keeps_va_accesses_tiny() {
        // Paper: P95 + 4-hour windows keeps oversub accesses ≪ 5 %; and at
        // P80 99 % of VMs have < 5 % VA accesses (Fig 17b).
        let t = generate(&TraceConfig::paper_scale(72));
        let p95 = oversub_access(&t, Percentile::P95, TimeWindows::paper_default());
        assert!(
            p95.mean_oversub_access < 0.05,
            "mean {}",
            p95.mean_oversub_access
        );
        let p80 = oversub_access(&t, Percentile::P80, TimeWindows::paper_default());
        assert!(
            p80.fraction_below(0.05) > 0.9,
            "only {} of VMs below 5%",
            p80.fraction_below(0.05)
        );
    }
}
