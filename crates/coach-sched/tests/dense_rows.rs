//! The dense per-server columns against the server as it was before them:
//! whole demands in a map, the sums maintained by reading them back out.

use coach_sched::{HostedDemand, ServerState, VmDemand};
use coach_types::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

const WINDOWS: usize = 6;

/// The reference: `place` / `remove` as they were when a server kept a
/// `HashMap<VmId, VmDemand>`.
struct MapModel {
    capacity: ResourceVec,
    guaranteed_sum: ResourceVec,
    window_sum: Vec<ResourceVec>,
    va_mem_sum: Vec<f64>,
    va_peak_mem_sum: f64,
    vms: HashMap<VmId, VmDemand>,
}

impl MapModel {
    fn window(d: &VmDemand, w: usize) -> ResourceVec {
        d.window_max[if d.window_count() == 1 { 0 } else { w }]
    }

    fn place(&mut self, d: VmDemand) -> bool {
        let fits = (self.guaranteed_sum + d.guaranteed).fits_within(&self.capacity)
            && (0..WINDOWS)
                .all(|w| (self.window_sum[w] + Self::window(&d, w)).fits_within(&self.capacity));
        if self.vms.contains_key(&d.vm) || !fits {
            return false;
        }
        self.guaranteed_sum += d.guaranteed;
        let mut va_peak = 0.0f64;
        for w in 0..WINDOWS {
            let wd = Self::window(&d, w);
            self.window_sum[w] += wd;
            let va = (wd.memory() - d.guaranteed.memory()).max(0.0);
            self.va_mem_sum[w] += va;
            va_peak = va_peak.max(va);
        }
        self.va_peak_mem_sum += va_peak;
        self.vms.insert(d.vm, d);
        true
    }

    fn remove(&mut self, vm: VmId) -> bool {
        let Some(d) = self.vms.remove(&vm) else {
            return false;
        };
        self.guaranteed_sum -= d.guaranteed;
        let mut va_peak = 0.0f64;
        for w in 0..WINDOWS {
            let wd = Self::window(&d, w);
            self.window_sum[w] = (self.window_sum[w] - wd).max(&ResourceVec::ZERO);
            let va = (wd.memory() - d.guaranteed.memory()).max(0.0);
            self.va_mem_sum[w] = (self.va_mem_sum[w] - va).max(0.0);
            va_peak = va_peak.max(va);
        }
        self.guaranteed_sum = self.guaranteed_sum.max(&ResourceVec::ZERO);
        self.va_peak_mem_sum = (self.va_peak_mem_sum - va_peak).max(0.0);
        true
    }
}

fn bits(v: &ResourceVec) -> [u64; ResourceKind::COUNT] {
    v.0.map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Random place / duplicate-place / remove / remove-unknown over one-
    /// and six-window demands: every sum equals the map model's bit for
    /// bit after every step, the dump lists exactly the model's VMs, and a
    /// server rebuilt from the dump equals the live one whatever order the
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
            capacity,
            guaranteed_sum: ResourceVec::ZERO,
            window_sum: vec![ResourceVec::ZERO; WINDOWS],
            va_mem_sum: vec![0.0; WINDOWS],
            va_peak_mem_sum: 0.0,
            vms: HashMap::new(),
        };
        for (kind, vm, one_window, fracs) in ops {
            let vm = VmId::new(vm);
            if kind == 2 {
                prop_assert_eq!(live.remove(vm), model.remove(vm));
            } else {
                let requested = ResourceVec::new(8.0, 32.0, 4.0, 256.0);
                let guaranteed = requested * fracs[WINDOWS];
                let n = if one_window == 1 { 1 } else { WINDOWS };
                let d = VmDemand {
                    vm,
                    requested,
                    guaranteed,
                    window_max: fracs[..n]
                        .iter()
                        .map(|f| (requested * *f).max(&guaranteed))
                        .collect(),
                };
                prop_assert_eq!(live.place(&d), model.place(d));
            }

            let dump = live.dump();
            prop_assert_eq!(bits(&dump.guaranteed_sum), bits(&model.guaranteed_sum));
            for w in 0..WINDOWS {
                prop_assert_eq!(bits(&dump.window_sum[w]), bits(&model.window_sum[w]));
                prop_assert_eq!(dump.va_mem_sum[w].to_bits(), model.va_mem_sum[w].to_bits());
            }
            prop_assert_eq!(dump.va_peak_mem_sum.to_bits(), model.va_peak_mem_sum.to_bits());

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
