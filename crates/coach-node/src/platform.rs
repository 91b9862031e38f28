//! Platform-management compatibility models (§3.2): live migration and
//! VM-preserving host updates for CoachVMs with VA-backed memory.
//!
//! These are timing models — they answer "how long does the operation take
//! and how much downtime does the VM see?", which is what the compatibility
//! argument in the paper rests on: paging in trimmed cold memory happens in
//! the pre-copy phase, so VA-backing does **not** extend VM downtime.

use crate::memory::VmMemoryState;

/// Bandwidths for migration/host-update timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformParams {
    /// Network copy bandwidth for live migration, GB/s.
    pub migration_gb_per_sec: f64,
    /// Page-in bandwidth for trimmed memory, GB/s.
    pub page_in_gb_per_sec: f64,
    /// Fraction of memory re-dirtied during one pre-copy pass.
    pub dirty_fraction_per_pass: f64,
    /// Serialization cost of VA-backing metadata for host updates, seconds
    /// per GB of VA memory ("negligible overhead", §3.2).
    pub va_metadata_secs_per_gb: f64,
    /// Pause/resume fixed cost of a VM-preserving host update, seconds.
    pub host_update_pause_secs: f64,
}

impl Default for PlatformParams {
    fn default() -> Self {
        PlatformParams {
            migration_gb_per_sec: 1.5,
            page_in_gb_per_sec: 2.5,
            dirty_fraction_per_pass: 0.05,
            va_metadata_secs_per_gb: 0.001,
            host_update_pause_secs: 2.0,
        }
    }
}

/// Timing breakdown of a live migration (pre-copy model, §3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationTiming {
    /// Seconds spent paging in trimmed cold memory (overlapped with
    /// pre-copy).
    pub page_in_secs: f64,
    /// Seconds of pre-copy network transfer.
    pub precopy_secs: f64,
    /// Stop-and-copy downtime, seconds.
    pub downtime_secs: f64,
    /// Total wall-clock seconds.
    pub total_secs: f64,
}

/// Compute the live-migration timing for a VM memory state.
///
/// The trimmed (paged-out) portion must be paged in before it can be
/// copied, but this overlaps with the pre-copy of the resident portion, so
/// downtime only covers the final dirty pass — identical to a PA-only VM.
pub fn live_migration_timing(vm: &VmMemoryState, params: &PlatformParams) -> MigrationTiming {
    let resident_gb = vm.config.pa_gb + vm.resident_va_gb;
    let trimmed_gb = vm.unbacked_gb();
    let page_in_secs = trimmed_gb / params.page_in_gb_per_sec;
    let copy_secs = (resident_gb + trimmed_gb) / params.migration_gb_per_sec;
    // Page-in overlaps the copy; the longer of the two dominates.
    let precopy_secs = copy_secs.max(page_in_secs);
    // Final pass copies the re-dirtied fraction with the VM paused.
    let downtime_secs =
        (resident_gb + trimmed_gb) * params.dirty_fraction_per_pass / params.migration_gb_per_sec;
    MigrationTiming {
        page_in_secs,
        precopy_secs,
        downtime_secs,
        total_secs: precopy_secs + downtime_secs,
    }
}

/// Timing of a VM-preserving host update (§3.2): VMs pause, host reboots,
/// VMs resume; PA memory survives directly, VA memory needs its management
/// metadata persisted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostUpdateTiming {
    /// Seconds to persist VA-backing metadata.
    pub metadata_secs: f64,
    /// VM pause duration, seconds.
    pub pause_secs: f64,
    /// Total seconds of VM impact.
    pub total_secs: f64,
}

/// Compute host-update timing for a set of VM memory states.
pub fn host_update_timing(vms: &[&VmMemoryState], params: &PlatformParams) -> HostUpdateTiming {
    let va_total: f64 = vms.iter().map(|v| v.config.va_gb).sum();
    let metadata_secs = va_total * params.va_metadata_secs_per_gb;
    HostUpdateTiming {
        metadata_secs,
        pause_secs: params.host_update_pause_secs,
        total_secs: metadata_secs + params.host_update_pause_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::VmMemoryConfig;

    fn vm_state(pa: f64, resident: f64, wss: f64) -> VmMemoryState {
        VmMemoryState {
            config: VmMemoryConfig::split(32.0, pa),
            working_set_gb: wss,
            resident_va_gb: resident,
        }
    }

    #[test]
    fn downtime_independent_of_trimmed_memory() {
        // Two VMs with the same footprint; one has most memory trimmed out.
        let params = PlatformParams::default();
        let resident = vm_state(16.0, 10.0, 26.0);
        let trimmed = vm_state(16.0, 2.0, 26.0);
        let a = live_migration_timing(&resident, &params);
        let b = live_migration_timing(&trimmed, &params);
        // Downtime covers only the dirty pass of the same total memory.
        assert!((a.downtime_secs - b.downtime_secs).abs() < 1e-9);
        // But the trimmed VM pays page-in inside pre-copy, never downtime.
        assert!(b.page_in_secs > 0.0);
        assert!(b.precopy_secs >= b.page_in_secs);
    }

    #[test]
    fn bigger_vms_take_longer() {
        let params = PlatformParams::default();
        let small = live_migration_timing(&vm_state(4.0, 2.0, 6.0), &params);
        let big = live_migration_timing(&vm_state(16.0, 10.0, 26.0), &params);
        assert!(big.total_secs > small.total_secs);
    }

    #[test]
    fn host_update_metadata_is_negligible() {
        let params = PlatformParams::default();
        let v1 = vm_state(8.0, 4.0, 12.0);
        let v2 = vm_state(16.0, 2.0, 18.0);
        let t = host_update_timing(&[&v1, &v2], &params);
        // §3.2: persisting VA structures has "negligible overhead" —
        // well under a second for tens of GB of VA.
        assert!(t.metadata_secs < 0.1, "metadata {}s", t.metadata_secs);
        assert!(t.total_secs < 3.0);
    }

    #[test]
    fn fully_pa_vm_has_zero_page_in() {
        let params = PlatformParams::default();
        let v = VmMemoryState {
            config: VmMemoryConfig::fully_guaranteed(32.0),
            working_set_gb: 20.0,
            resident_va_gb: 0.0,
        };
        let t = live_migration_timing(&v, &params);
        assert_eq!(t.page_in_secs, 0.0);
    }
}
