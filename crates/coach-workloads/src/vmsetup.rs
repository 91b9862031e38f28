//! The four VM configurations of the §4.2 performance study and the
//! performance model that converts memory behavior into key-metric
//! slowdowns.

use crate::catalog::{KeyMetric, Workload};
use coach_node::memory::VmMemoryConfig;
use coach_types::bucket_up;

/// The §4.2 VM configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmSetup {
    /// Fully guaranteed (all PA): the baseline.
    Gpvm,
    /// Coach's PA/VA split from the P95 working-set prediction.
    Cvm,
    /// Coach's split with the guaranteed portion under-allocated by 1 GB.
    CvmFloor,
    /// Fully oversubscribed (all VA).
    Ovm,
}

impl VmSetup {
    /// All setups in the paper's plotting order.
    pub const ALL: [VmSetup; 4] = [VmSetup::Gpvm, VmSetup::Cvm, VmSetup::CvmFloor, VmSetup::Ovm];

    /// The memory shape this setup gives a workload's VM.
    ///
    /// Coach's PA sizing follows §3.3: the P95 of observed utilization
    /// (steady working set + oscillation ≈ P95 of the samples), rounded up
    /// to a 5 % bucket of the VM size.
    pub fn memory_config(self, w: &Workload) -> VmMemoryConfig {
        let size = w.vm_size_gb;
        match self {
            VmSetup::Gpvm => VmMemoryConfig::fully_guaranteed(size),
            VmSetup::Ovm => VmMemoryConfig::fully_oversubscribed(size),
            VmSetup::Cvm => {
                let p95 = (w.working_set_gb + w.oscillation_gb) / size;
                VmMemoryConfig::split(size, (bucket_up(p95) * size).min(size))
            }
            VmSetup::CvmFloor => {
                let cvm = VmSetup::Cvm.memory_config(w);
                VmMemoryConfig::split(size, (cvm.pa_gb - 1.0).max(0.0))
            }
        }
    }
}

impl std::fmt::Display for VmSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VmSetup::Gpvm => "GPVM",
            VmSetup::Cvm => "CVM",
            VmSetup::CvmFloor => "CVM-Floor",
            VmSetup::Ovm => "OVM",
        })
    }
}

/// Per-workload performance-model coefficients.
///
/// Two penalty channels map memory behavior onto the key metric (both
/// saturating, exponent ¼ — small spills already hurt tail latency, but the
/// effect grows sublinearly):
///
/// * **spill**: the fraction of the working set living in the VA portion.
///   Latency-critical workloads access that memory on their request path
///   (§4.2's explanation of KV-Store/Cache degradation).
/// * **alloc**: on-demand allocation churn landing in the VA portion — the
///   "limited memory reuse and frequent turnover stress the lower TLB reach
///   and on-demand allocation" effect that makes LLM-FT the most sensitive
///   batch workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Amplitude of the spill penalty.
    pub spill_amp: f64,
    /// Amplitude of the allocation-churn penalty.
    pub alloc_amp: f64,
    /// Amplification of backing-store paging slowdown into the metric.
    pub disk_amp: f64,
}

impl PerfModel {
    /// Calibrated coefficients per Table 2 workload (the
    /// targets are the §4.2 numbers: CVM ≤ 10 %, KV-Store OVM ≈ 2.35×,
    /// CVM-Floor ≈ 1.8× for KV-Store, LLM-FT CVM ≈ 1.24×).
    pub fn for_workload(w: &Workload) -> PerfModel {
        let (spill_amp, alloc_amp) = match w.name {
            "Cache" => (1.10, 0.10),
            "Database" => (0.30, 0.05),
            "Big Data" => (0.20, 0.10),
            "Web" => (0.40, 0.05),
            "KV-Store" => (1.45, 0.10),
            "Graph" => (0.15, 0.05),
            "Microservice" => (0.80, 0.10),
            "LLM-FT" => (0.30, 0.50),
            "Video Conf" => (0.30, 0.10),
            _ => (0.50, 0.10),
        };
        let disk_amp = match w.metric {
            KeyMetric::TailLatencyMs => 10.0,
            _ => 3.0,
        };
        PerfModel {
            spill_amp,
            alloc_amp,
            disk_amp,
        }
    }

    /// Memory slowdown factor for one observation.
    ///
    /// * `spill_frac` — fraction of the working set resident in VA;
    /// * `va_share` — VA fraction of the VM's address space (drives where
    ///   churned allocations land);
    /// * `paging_slowdown` — the raw slowdown reported by the memory
    ///   substrate (≥ 1.0; > 1.0 only when the pool is short and accesses
    ///   hit the backing store).
    pub fn slowdown(&self, spill_frac: f64, va_share: f64, paging_slowdown: f64) -> f64 {
        let spill = if spill_frac > 1e-9 {
            self.spill_amp * spill_frac.clamp(0.0, 1.0).powf(0.25)
        } else {
            0.0
        };
        let alloc = if va_share > 1e-9 {
            self.alloc_amp * va_share.clamp(0.0, 1.0).powf(0.25)
        } else {
            0.0
        };
        1.0 + spill + alloc + self.disk_amp * (paging_slowdown.max(1.0) - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_configs_partition_vm_size() {
        for w in Workload::catalog() {
            for setup in VmSetup::ALL {
                let c = setup.memory_config(&w);
                assert!(
                    (c.pa_gb + c.va_gb - c.size_gb).abs() < 1e-9,
                    "{} {setup}",
                    w.name
                );
                assert!(c.pa_gb >= 0.0 && c.va_gb >= 0.0);
            }
        }
    }

    #[test]
    fn cvm_pa_covers_p95_working_set() {
        for w in Workload::catalog() {
            let c = VmSetup::Cvm.memory_config(&w);
            assert!(
                c.pa_gb + 1e-9 >= w.working_set_gb + w.oscillation_gb,
                "{}: pa {} < p95 wss {}",
                w.name,
                c.pa_gb,
                w.working_set_gb + w.oscillation_gb
            );
        }
    }

    #[test]
    fn floor_is_one_gb_under_cvm() {
        let w = Workload::by_name("KV-Store").unwrap();
        let cvm = VmSetup::Cvm.memory_config(&w);
        let floor = VmSetup::CvmFloor.memory_config(&w);
        assert!((cvm.pa_gb - floor.pa_gb - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gpvm_and_ovm_extremes() {
        let w = Workload::by_name("Cache").unwrap();
        assert_eq!(VmSetup::Gpvm.memory_config(&w).va_gb, 0.0);
        assert_eq!(VmSetup::Ovm.memory_config(&w).pa_gb, 0.0);
    }

    #[test]
    fn slowdown_is_monotone_in_all_channels() {
        let m = PerfModel::for_workload(&Workload::by_name("KV-Store").unwrap());
        assert_eq!(m.slowdown(0.0, 0.0, 1.0), 1.0);
        assert!(m.slowdown(0.1, 0.0, 1.0) < m.slowdown(0.5, 0.0, 1.0));
        assert!(m.slowdown(0.0, 0.1, 1.0) < m.slowdown(0.0, 0.9, 1.0));
        assert!(m.slowdown(0.0, 0.0, 1.2) > m.slowdown(0.0, 0.0, 1.0));
    }

    #[test]
    fn small_spills_already_hurt_tail_latency() {
        // The ^0.25 saturation: a 1% spill produces a sizeable fraction of
        // the full-spill penalty (the §4.2 CVM-Floor effect).
        let m = PerfModel::for_workload(&Workload::by_name("KV-Store").unwrap());
        let small = m.slowdown(0.01, 0.0, 1.0) - 1.0;
        let full = m.slowdown(1.0, 0.0, 1.0) - 1.0;
        assert!(small > 0.25 * full, "small {small} vs full {full}");
    }

    #[test]
    fn disk_amplification_larger_for_latency_metrics() {
        let kv = PerfModel::for_workload(&Workload::by_name("KV-Store").unwrap());
        let graph = PerfModel::for_workload(&Workload::by_name("Graph").unwrap());
        assert!(kv.disk_amp > graph.disk_amp);
    }
}
