//! VM and server hardware configurations.
//!
//! Azure sells VMs in discrete sizes with fixed GB/core ratios (§2.2: "5
//! resource ratios, 9 sizes, 6 generations, 4 specialized types"). The
//! mismatch between VM ratios and server ratios is what causes *stranding*
//! (Fig 1b), so both sides are first-class here.

use crate::resource::ResourceVec;
use std::fmt;

/// Service model of the VM. IaaS VMs tend to run hotter than PaaS (§3.3,
/// prediction features).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Offering {
    /// Infrastructure-as-a-service: opaque customer VM.
    Iaas,
    /// Platform-as-a-service: platform-managed workload.
    Paas,
}

impl fmt::Display for Offering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Offering::Iaas => "IaaS",
            Offering::Paas => "PaaS",
        })
    }
}

/// Subscription type — a customer-specific prediction feature (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubscriptionType {
    /// Internal production subscription.
    InternalProduction,
    /// Internal test subscription.
    InternalTest,
    /// Third-party customer subscription.
    External,
}

impl fmt::Display for SubscriptionType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SubscriptionType::InternalProduction => "internal-prod",
            SubscriptionType::InternalTest => "internal-test",
            SubscriptionType::External => "external",
        })
    }
}

/// A VM size: the resources the customer requested.
///
/// # Example
///
/// ```
/// use coach_types::VmConfig;
/// let vm = VmConfig::new(8, 32.0, 4.0, 256.0);
/// assert_eq!(vm.gb_per_core(), 4.0);
/// assert_eq!(vm.demand().memory(), 32.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmConfig {
    /// vCPUs normalized to cores.
    pub cores: u32,
    /// Memory in GB.
    pub memory_gb: f64,
    /// Network bandwidth in Gbps.
    pub network_gbps: f64,
    /// Local SSD in GB.
    pub ssd_gb: f64,
}

impl VmConfig {
    /// Construct an arbitrary configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or any quantity is negative/non-finite.
    pub fn new(cores: u32, memory_gb: f64, network_gbps: f64, ssd_gb: f64) -> Self {
        assert!(cores > 0, "a VM needs at least one core");
        let cfg = VmConfig {
            cores,
            memory_gb,
            network_gbps,
            ssd_gb,
        };
        assert!(
            cfg.demand().is_valid(),
            "VM resources must be finite and >= 0"
        );
        cfg
    }

    /// The most typical Azure configuration: general-purpose, 4 GB/core
    /// (§2.2 cites the D-series 4 GB/core ratio as the stranding probe).
    /// Network and SSD scale with cores.
    pub fn general_purpose(cores: u32) -> Self {
        VmConfig::new(
            cores,
            cores as f64 * 4.0,
            cores as f64 * 0.5,
            cores as f64 * 16.0,
        )
    }

    /// Requested resources as a vector.
    pub fn demand(&self) -> ResourceVec {
        ResourceVec::new(
            f64::from(self.cores),
            self.memory_gb,
            self.network_gbps,
            self.ssd_gb,
        )
    }

    /// GB of memory per core.
    pub fn gb_per_core(&self) -> f64 {
        self.memory_gb / f64::from(self.cores)
    }

    /// A compact key identifying the configuration family+size, used as a
    /// grouping feature by the prediction model (Fig 12 "VM configuration").
    pub fn config_key(&self) -> u64 {
        // cores and GB uniquely identify the discrete catalog entries.
        (u64::from(self.cores) << 32) | (self.memory_gb as u64)
    }
}

impl fmt::Display for VmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}c/{}GB", self.cores, self.memory_gb)
    }
}

/// Physical server hardware: capacity vector plus catalog metadata.
///
/// The trace spans "four hardware generations, including Intel and AMD"
/// (§2 methodology). Generations differ in their GB/core ratio, which is
/// what makes some clusters CPU-bottlenecked and others memory-bottlenecked
/// (Fig 5).
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareConfig {
    /// Human-readable generation name.
    pub name: String,
    /// Total server capacity.
    pub capacity: ResourceVec,
}

impl HardwareConfig {
    /// Construct a named hardware configuration.
    ///
    /// # Panics
    ///
    /// Panics if the capacity vector is invalid or all-zero.
    pub fn new(name: impl Into<String>, capacity: ResourceVec) -> Self {
        assert!(
            capacity.is_valid() && !capacity.is_zero(),
            "capacity must be positive"
        );
        HardwareConfig {
            name: name.into(),
            capacity,
        }
    }

    /// Gen-4 general-purpose: 96 cores, 384 GB (4 GB/core), 40 Gbps, 4 TB SSD.
    pub fn general_purpose_gen4() -> Self {
        HardwareConfig::new("gen4-gp", ResourceVec::new(96.0, 384.0, 40.0, 4096.0))
    }

    /// Gen-5 general-purpose: 120 cores, 480 GB, 50 Gbps, 6 TB SSD.
    pub fn general_purpose_gen5() -> Self {
        HardwareConfig::new("gen5-gp", ResourceVec::new(120.0, 480.0, 50.0, 6144.0))
    }

    /// Memory-lean: plenty of cores/network but only 2.67 GB/core — such
    /// clusters are memory-bottlenecked like C4 in Fig 5.
    pub fn memory_lean() -> Self {
        HardwareConfig::new("gen4-lean", ResourceVec::new(96.0, 256.0, 40.0, 4096.0))
    }

    /// Memory-rich: 8 GB/core — CPU becomes the bottleneck like C1 in Fig 5.
    pub fn memory_rich() -> Self {
        HardwareConfig::new("gen4-rich", ResourceVec::new(64.0, 512.0, 40.0, 4096.0))
    }

    /// GB of memory per core.
    pub fn gb_per_core(&self) -> f64 {
        self.capacity.memory() / self.capacity.cpu()
    }
}

impl fmt::Display for HardwareConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ratios() {
        assert_eq!(VmConfig::general_purpose(4).gb_per_core(), 4.0);
    }

    #[test]
    fn demand_vector_matches_fields() {
        let vm = VmConfig::new(8, 32.0, 4.0, 256.0);
        let d = vm.demand();
        assert_eq!(d.cpu(), 8.0);
        assert_eq!(d.memory(), 32.0);
        assert_eq!(d.network(), 4.0);
        assert_eq!(d.ssd(), 256.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = VmConfig::new(0, 4.0, 1.0, 16.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_memory_rejected() {
        let _ = VmConfig::new(2, -4.0, 1.0, 16.0);
    }

    #[test]
    fn config_key_distinguishes_sizes() {
        let a = VmConfig::general_purpose(4);
        let b = VmConfig::general_purpose(8);
        let c = VmConfig::new(4, 64.0, 2.0, 64.0);
        assert_ne!(a.config_key(), b.config_key());
        assert_ne!(a.config_key(), c.config_key());
        assert_eq!(a.config_key(), VmConfig::general_purpose(4).config_key());
    }

    #[test]
    fn hardware_ratios_spread() {
        assert!(HardwareConfig::memory_lean().gb_per_core() < 3.0);
        assert!(HardwareConfig::memory_rich().gb_per_core() >= 8.0);
        assert_eq!(HardwareConfig::general_purpose_gen4().gb_per_core(), 4.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = HardwareConfig::new("bad", ResourceVec::ZERO);
    }

    #[test]
    fn display_forms() {
        assert_eq!(VmConfig::general_purpose(4).to_string(), "4c/16GB");
        assert!(HardwareConfig::memory_rich()
            .to_string()
            .contains("gen4-rich"));
        assert_eq!(Offering::Iaas.to_string(), "IaaS");
        assert_eq!(SubscriptionType::External.to_string(), "external");
    }
}
