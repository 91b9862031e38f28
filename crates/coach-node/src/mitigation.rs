//! The mitigation component: reactive and proactive contention remediation
//! (§3.4, evaluated in Fig 21).
//!
//! Local mitigations first (cheap): **trim** cold pages to free pool space,
//! then **extend** the pool with unallocated server memory. When local
//! measures cannot restore headroom, the global mitigation — **live
//! migration** of the most disruptive VM — kicks in. Migration is modelled
//! with the pre-copy behavior of §3.2: trimmed/cold memory must be paged in
//! during pre-copy, so reclaiming its resources takes the longest.

use crate::memory::MemoryServer;
use coach_types::VmId;

/// Which mitigation actions a policy may take (Fig 21's six policies are
/// `{Trim, Extend, Migrate} × {Reactive, Proactive}`; `Extend` implies trim
/// first, `Migrate` implies trim+extend first, matching the paper's
/// escalation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MitigationPolicy {
    /// Trim cold pages.
    pub trim: bool,
    /// Extend the pool from unallocated memory.
    pub extend: bool,
    /// Live-migrate a VM away.
    pub migrate: bool,
    /// Act on predicted contention (proactive) rather than only observed.
    pub proactive: bool,
}

impl MitigationPolicy {
    /// No mitigation at all (the `None` baseline).
    pub fn none() -> Self {
        MitigationPolicy {
            trim: false,
            extend: false,
            migrate: false,
            proactive: false,
        }
    }

    /// Trim only.
    pub fn trim_only(proactive: bool) -> Self {
        MitigationPolicy {
            trim: true,
            extend: false,
            migrate: false,
            proactive,
        }
    }

    /// Trim, then extend.
    pub fn extend(proactive: bool) -> Self {
        MitigationPolicy {
            trim: true,
            extend: true,
            migrate: false,
            proactive,
        }
    }

    /// Trim, then extend, then migrate.
    pub fn migrate(proactive: bool) -> Self {
        MitigationPolicy {
            trim: true,
            extend: true,
            migrate: true,
            proactive,
        }
    }

    /// Display label matching the paper's legend.
    pub fn label(&self) -> String {
        let base = if self.migrate {
            "Migrate"
        } else if self.extend {
            "Extend"
        } else if self.trim {
            "Trim"
        } else {
            return "None".to_string();
        };
        format!(
            "{base}-{}",
            if self.proactive {
                "Proactive"
            } else {
                "Reactive"
            }
        )
    }
}

/// An action the engine took this step (for experiment logging).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MitigationAction {
    /// Trimmed this many GB from a VM.
    Trimmed {
        /// Victim VM.
        vm: VmId,
        /// GB trimmed.
        gb: f64,
    },
    /// Extended the pool by this many GB.
    Extended {
        /// GB added to the pool backing.
        gb: f64,
    },
    /// Started migrating a VM.
    MigrationStarted {
        /// VM being migrated.
        vm: VmId,
        /// Estimated seconds to completion.
        eta_secs: f64,
    },
    /// Migration finished; resources reclaimed.
    MigrationCompleted {
        /// The migrated VM.
        vm: VmId,
    },
}

/// In-flight migration bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Migration {
    vm: VmId,
    remaining_gb: f64,
}

/// Migration bandwidth, GB/s (live-migration copy over the datacenter NIC).
const MIGRATION_GB_PER_SEC: f64 = 1.5;

/// The mitigation engine for one server.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationEngine {
    policy: MitigationPolicy,
    in_flight: Option<Migration>,
    /// Pool headroom (GB) the engine tries to maintain while triggered.
    target_headroom_gb: f64,
    triggered: bool,
}

impl MitigationEngine {
    /// Create an engine maintaining `target_headroom_gb` of pool headroom
    /// once triggered.
    pub fn new(policy: MitigationPolicy, target_headroom_gb: f64) -> Self {
        MitigationEngine {
            policy,
            in_flight: None,
            target_headroom_gb: target_headroom_gb.max(0.0),
            triggered: false,
        }
    }

    /// The policy.
    pub fn policy(&self) -> MitigationPolicy {
        self.policy
    }

    /// Arm the engine (called by the agent on a contention event).
    pub fn trigger(&mut self) {
        self.triggered = true;
    }

    /// Run one second of mitigation work. Returns the actions taken.
    ///
    /// Escalation order per the paper: trim cold memory first; if no cold
    /// memory remains and headroom is still short, extend the pool; if the
    /// pool cannot be extended, migrate the busiest VM. Migration frees
    /// resources only on completion ("the memory cannot be reclaimed until
    /// the VM is migrated").
    pub fn step(&mut self, server: &mut MemoryServer, dt: f64) -> Vec<MitigationAction> {
        let mut actions = Vec::new();

        // Progress any in-flight migration regardless of trigger state.
        if let Some(mut mig) = self.in_flight {
            mig.remaining_gb -= MIGRATION_GB_PER_SEC * dt;
            if mig.remaining_gb <= 0.0 {
                // Completion: the VM leaves, freeing PA + pool pages.
                let _ = server.remove_vm(mig.vm);
                actions.push(MitigationAction::MigrationCompleted { vm: mig.vm });
                self.in_flight = None;
            } else {
                self.in_flight = Some(mig);
            }
        }

        if !self.triggered {
            return actions;
        }

        let shortfall = |server: &MemoryServer| -> f64 {
            // Unbacked demand plus the headroom target, minus free pool.
            let unbacked: f64 = server
                .vm_ids()
                .map(|id| server.vm(id).map_or(0.0, |v| v.unbacked_gb()))
                .sum();
            (unbacked + self.target_headroom_gb - server.pool_free_gb()).max(0.0)
        };

        let mut need = shortfall(server);
        if need <= 1e-9 {
            // Recovered.
            self.triggered = false;
            return actions;
        }

        // 1) Trim cold pages (largest cold stock first).
        if self.policy.trim && need > 0.0 {
            let mut victims: Vec<(VmId, f64)> = server
                .vm_ids()
                .map(|id| (id, server.vm(id).map_or(0.0, |v| v.cold_va_gb())))
                .collect();
            victims.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            for (vm, cold) in victims {
                if need <= 0.0 {
                    break;
                }
                if cold <= 1e-9 {
                    continue;
                }
                let trimmed = server.trim(vm, need, dt);
                if trimmed > 0.0 {
                    actions.push(MitigationAction::Trimmed { vm, gb: trimmed });
                    need -= trimmed;
                }
            }
        }

        // 2) Extend the pool from unallocated memory.
        if self.policy.extend && need > 0.0 {
            let added = server.extend_pool(need, dt);
            if added > 0.0 {
                actions.push(MitigationAction::Extended { gb: added });
                need -= added;
            }
        }

        // 3) Migrate the VM with the largest VA demand ("busier VMs cause
        //    more contention"), if nothing else worked and none in flight.
        if self.policy.migrate && need > 0.0 && self.in_flight.is_none() {
            let candidate = server
                .vm_ids()
                .map(|id| {
                    let v = server.vm(id).expect("listed id");
                    // Pre-copy must move PA + resident VA + paged-out cold
                    // memory (page-in during pre-copy, §3.2).
                    let move_gb = v.config.pa_gb + v.va_demand_gb();
                    (id, v.va_demand_gb(), move_gb)
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            if let Some((vm, _, move_gb)) = candidate {
                self.in_flight = Some(Migration {
                    vm,
                    remaining_gb: move_gb,
                });
                actions.push(MitigationAction::MigrationStarted {
                    vm,
                    eta_secs: move_gb / MIGRATION_GB_PER_SEC,
                });
            }
        }

        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::VmMemoryConfig;

    /// 32 GB server, 6 GB pool, one quiet VM with cold memory and one
    /// demanding VM.
    fn pressured_server() -> MemoryServer {
        let mut s = MemoryServer::new(32.0, 2.0);
        s.set_pool_backing(6.0).unwrap();
        s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 3.0))
            .unwrap();
        s.add_vm(VmId::new(2), VmMemoryConfig::split(8.0, 1.0))
            .unwrap();
        // VM1 uses 3 GB of pool, VM2 uses 3 GB: pool exhausted.
        s.set_working_set(VmId::new(1), 6.0);
        s.set_working_set(VmId::new(2), 4.0);
        for _ in 0..5 {
            s.step(1.0);
        }
        s
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(MitigationPolicy::none().label(), "None");
        assert_eq!(MitigationPolicy::trim_only(false).label(), "Trim-Reactive");
        assert_eq!(MitigationPolicy::extend(true).label(), "Extend-Proactive");
        assert_eq!(MitigationPolicy::migrate(false).label(), "Migrate-Reactive");
    }

    #[test]
    fn trim_resolves_when_cold_memory_exists() {
        let mut s = pressured_server();
        // VM1's working set drops back under PA: its 3 GB of resident VA
        // turn cold. VM2 then grows 2 GB beyond the exhausted pool.
        s.set_working_set(VmId::new(1), 2.0);
        s.set_working_set(VmId::new(2), 6.0);
        s.step(1.0);
        // The host pager already reclaimed up to 1.1 GB of the 3 GB stock.
        assert!(s.total_cold_gb() > 1.5, "cold stock expected");
        let mut engine = MitigationEngine::new(MitigationPolicy::trim_only(false), 0.5);
        engine.trigger();
        let mut trimmed_any = false;
        for _ in 0..30 {
            for a in engine.step(&mut s, 1.0) {
                if matches!(a, MitigationAction::Trimmed { .. }) {
                    trimmed_any = true;
                }
            }
            s.step(1.0);
        }
        assert!(trimmed_any, "expected trim actions");
        // Trimming VM1's cold pages freed enough pool for VM2.
        assert!(s.vm(VmId::new(2)).unwrap().unbacked_gb() < 1e-6);
        assert!(!engine.triggered, "engine should stand down");
    }

    #[test]
    fn extend_resolves_pool_exhaustion() {
        let mut s = pressured_server();
        s.set_working_set(VmId::new(2), 8.0); // 7 GB demand, pool only 6
        s.step(1.0);
        let mut engine = MitigationEngine::new(MitigationPolicy::extend(false), 0.5);
        engine.trigger();
        let mut extended = 0.0;
        for _ in 0..10 {
            for a in engine.step(&mut s, 1.0) {
                if let MitigationAction::Extended { gb } = a {
                    extended += gb;
                }
            }
            s.step(1.0);
        }
        assert!(extended > 3.0, "extended only {extended} GB");
        // Contention resolved: demand fully backed.
        let v2 = s.vm(VmId::new(2)).unwrap();
        assert!(v2.unbacked_gb() < 1e-6);
        assert!(!engine.triggered, "engine should stand down");
    }

    #[test]
    fn migration_frees_resources_only_on_completion() {
        let mut s = MemoryServer::new(16.0, 2.0);
        s.set_pool_backing(13.0).unwrap(); // leaves ~0 unallocated after PA
        s.add_vm(VmId::new(1), VmMemoryConfig::split(8.0, 0.5))
            .unwrap();
        s.add_vm(VmId::new(2), VmMemoryConfig::split(8.0, 0.5))
            .unwrap();
        s.set_working_set(VmId::new(1), 8.0);
        s.set_working_set(VmId::new(2), 8.0);
        for _ in 0..10 {
            s.step(1.0);
        }
        // 15 GB demand vs 13 GB pool: shortfall that extend cannot cover.
        let mut engine = MitigationEngine::new(MitigationPolicy::migrate(false), 0.5);
        engine.trigger();
        let first = engine.step(&mut s, 1.0);
        assert!(
            first
                .iter()
                .any(|a| matches!(a, MitigationAction::MigrationStarted { .. })),
            "expected migration start, got {first:?}"
        );
        let vm_count_before = s.vm_ids().count();
        assert_eq!(vm_count_before, 2, "nothing freed yet");
        // Drive to completion.
        let mut completed = false;
        for _ in 0..60 {
            for a in engine.step(&mut s, 1.0) {
                if matches!(a, MitigationAction::MigrationCompleted { .. }) {
                    completed = true;
                }
            }
            s.step(1.0);
        }
        assert!(completed, "migration should complete");
        assert_eq!(s.vm_ids().count(), 1);
    }

    #[test]
    fn none_policy_takes_no_action() {
        let mut s = pressured_server();
        s.set_working_set(VmId::new(2), 8.0);
        s.step(1.0);
        let mut engine = MitigationEngine::new(MitigationPolicy::none(), 0.5);
        engine.trigger();
        for _ in 0..5 {
            assert!(engine.step(&mut s, 1.0).is_empty());
            s.step(1.0);
        }
        // Still contended.
        assert!(s.vm(VmId::new(2)).unwrap().unbacked_gb() > 0.0);
    }

    #[test]
    fn engine_stands_down_when_headroom_restored() {
        let mut s = pressured_server();
        let mut engine = MitigationEngine::new(MitigationPolicy::extend(false), 0.25);
        engine.trigger();
        for _ in 0..10 {
            engine.step(&mut s, 1.0);
            s.step(1.0);
            if !engine.triggered {
                return;
            }
        }
        panic!("engine never stood down");
    }
}
