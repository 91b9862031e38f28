//! The server-local substrate of Coach: PA/VA memory management, CPU
//! groups, monitoring, two-level contention prediction, and
//! reactive/proactive mitigation (§3.2–§3.4).
//!
//! The crate simulates, at 1-second resolution, the Hyper-V mechanisms the
//! production system relies on — PA-backed guaranteed memory, VA-backed
//! oversubscribed memory behind a zNUMA node, a shared oversubscribed pool
//! with an NVMe backing store, cold-page trimming, pool extension, and live
//! migration — so that the contention experiments (Fig 15/18/21) can run on
//! any machine.
//!
//! # Example
//!
//! ```
//! use coach_node::memory::{MemoryServer, VmMemoryConfig};
//! use coach_node::agent::OversubscriptionAgent;
//! use coach_node::mitigation::MitigationPolicy;
//! use coach_node::monitor::MonitorConfig;
//! use coach_types::VmId;
//!
//! let mut server = MemoryServer::new(64.0, 4.0);
//! server.set_pool_backing(8.0)?;
//! server.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 3.0))?;
//!
//! let mut agent = OversubscriptionAgent::new(
//!     MonitorConfig::default(),
//!     MitigationPolicy::extend(true),
//!     0.5,
//! );
//! agent.add_vm(VmId::new(1));
//!
//! server.set_working_set(VmId::new(1), 6.0);
//! let stats = server.step(1.0);
//! agent.step(0.0, &mut server, &stats, 0.0, 0.0);
//! # Ok::<(), coach_node::memory::MemoryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod cpu;
pub mod memory;
pub mod mitigation;
pub mod monitor;

pub use agent::OversubscriptionAgent;
pub use cpu::CpuGroups;
pub use memory::{MemoryError, MemoryServer, VmMemoryConfig, VmMemoryState, VmMemoryStats};
pub use mitigation::{MitigationAction, MitigationEngine, MitigationPolicy};
pub use monitor::{ContentionEvent, ContentionKind, Monitor, MonitorConfig};
