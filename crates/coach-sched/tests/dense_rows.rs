//! The dense per-server columns against the server as it was before them:
//! whole demands in a map, the sums maintained by reading them back out.
//! Both sides add and subtract on the integer grid, so they must agree
//! exactly.

use coach_sched::{HostedDemand, ServerState, VmDemand};
use coach_types::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

const WINDOWS: usize = 6;

/// The reference: `place` / `remove` as they were when a server kept a
/// `HashMap<VmId, VmDemand>`.
struct MapModel {
    capacity: Units,
    guaranteed_sum: Units,
    window_sum: Vec<Units>,
    vms: HashMap<VmId, VmDemand>,
}

impl MapModel {
    fn window(d: &VmDemand, w: usize) -> Units {
        d.window_max[if d.window_count() == 1 { 0 } else { w }]
    }

    fn place(&mut self, d: VmDemand) -> bool {
        let fits = (self.guaranteed_sum + d.guaranteed).fits(&self.capacity)
            && (0..WINDOWS)
                .all(|w| (self.window_sum[w] + Self::window(&d, w)).fits(&self.capacity));
        if self.vms.contains_key(&d.vm) || !fits {
            return false;
        }
        self.guaranteed_sum += d.guaranteed;
        for w in 0..WINDOWS {
            self.window_sum[w] += Self::window(&d, w);
        }
        self.vms.insert(d.vm, d);
        true
    }

    fn remove(&mut self, vm: VmId) -> bool {
        let Some(d) = self.vms.remove(&vm) else {
            return false;
        };
        self.guaranteed_sum -= d.guaranteed;
        for w in 0..WINDOWS {
            self.window_sum[w] -= Self::window(&d, w);
        }
        true
    }

    /// Formula 4's pools folded fresh over the hosted VMs, in GB: the
    /// multiplexed `max_w Σ VA(vm, w)` and the summed `Σ max_w VA(vm, w)`.
    fn va_pools(&self) -> (f64, f64) {
        let va = |d: &VmDemand, w| Self::window(d, w).saturating_sub(&d.guaranteed).0[1];
        let multiplexed = (0..WINDOWS)
            .map(|w| self.vms.values().map(|d| u64::from(va(d, w))).sum::<u64>())
            .max()
            .unwrap_or(0);
        let summed: u64 = self
            .vms
            .values()
            .map(|d| (0..WINDOWS).map(|w| u64::from(va(d, w))).max().unwrap_or(0))
            .sum();
        let gb = |units: u64| units as f64 / 20.0;
        (gb(multiplexed), gb(summed))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Random place / duplicate-place / remove / remove-unknown over one-
    /// and six-window demands: every sum equals the map model's exactly
    /// after every step, the Formula 4 pools equal a fresh fold over the
    /// model's VMs, the dump lists exactly the model's VMs, and a server
    /// rebuilt from the dump equals the live one whatever order the
    /// departures left its columns in.
    #[test]
    fn dense_rows_match_a_map_model(
        ops in prop::collection::vec(
            (0u8..3, 0u64..12, 0u8..2, prop::collection::vec(0.05f64..1.0, WINDOWS + 1)),
            1..60,
        ),
    ) {
        let capacity = ResourceVec::new(32.0, 128.0, 16.0, 1024.0);
        let mut live = ServerState::new(ServerId::new(0), capacity, WINDOWS);
        let mut model = MapModel {
            capacity: Units::round_down(&capacity),
            guaranteed_sum: Units::ZERO,
            window_sum: vec![Units::ZERO; WINDOWS],
            vms: HashMap::new(),
        };
        for (kind, vm, one_window, fracs) in ops {
            let vm = VmId::new(vm);
            if kind == 2 {
                prop_assert_eq!(live.remove(vm), model.remove(vm));
            } else {
                let requested = ResourceVec::new(8.0, 32.0, 4.0, 256.0);
                let guaranteed = Units::round_up(&(requested * fracs[WINDOWS]));
                let n = if one_window == 1 { 1 } else { WINDOWS };
                let d = VmDemand {
                    vm,
                    requested,
                    guaranteed,
                    window_max: fracs[..n]
                        .iter()
                        .map(|f| Units::round_up(&(requested * *f)).max(&guaranteed))
                        .collect(),
                };
                prop_assert_eq!(live.place(&d), model.place(d));
            }

            let dump = live.dump();
            prop_assert_eq!(dump.guaranteed_sum, model.guaranteed_sum);
            prop_assert_eq!(&dump.window_sum, &model.window_sum);
            let (multiplexed, summed) = model.va_pools();
            prop_assert_eq!(live.oversub_pool_memory(), multiplexed);
            prop_assert_eq!(live.oversub_pool_memory_summed(), summed);

            let mut expected: Vec<(VmId, HostedDemand)> = model
                .vms
                .values()
                .map(|d| (d.vm, HostedDemand::new(d.guaranteed, &d.window_max)))
                .collect();
            expected.sort_unstable_by_key(|(vm, _)| *vm);
            prop_assert_eq!(&dump.vms, &expected);
            prop_assert!(ServerState::from_dump(dump) == live);
        }
    }
}
