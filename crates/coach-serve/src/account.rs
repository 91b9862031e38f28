//! Incremental violation/telemetry accounting at event granularity.
//!
//! The batch experiment ([`coach_sim::packing_experiment`]) counts
//! violations in a *post-replay sweep*: it materializes a placement map for
//! every VM, groups it by server, re-sorts each server's lifetimes, and
//! walks the whole horizon per server. At million-VM scale that pass
//! dominates the replay (ROADMAP: the Fig 20 bottleneck).
//!
//! The online accountant maintains the same per-server Formula 3/4 running
//! sums *during* the event stream instead. The trick that makes it both
//! incremental and **bit-identical** to the batch sweep: between two
//! events on a server its resident set is constant, so utilization samples
//! falling in that gap can be evaluated lazily — in arrival order, with the
//! exact same floating-point operation order the batch sweep uses — the
//! next time that server sees an event (or at a flush point: tick, stats
//! query, finalization). Per-event work is bounded by the samples elapsed
//! on that one server times its resident VMs; nothing is re-scanned per
//! probe and no global placement map, per-server sort, or second pass over
//! the trace exists at all.

use coach_sched::VmDemand;
use coach_trace::VmRecord;
use coach_types::prelude::*;
use std::collections::{HashMap, VecDeque};

/// A placed VM as the accountant tracks it: the record (for closed-form
/// utilization queries), its guaranteed memory, and its per-window demand
/// maxima (inline for ≤ 6 windows — no heap per VM).
///
/// The record is *owned* (a `VmRecord` is a flat value — cloning is a
/// memcpy, no heap), so the accountant's lifetime is decoupled from the
/// request stream's: records can arrive from transient chunk buffers (the
/// streaming ingestion path) and are freed when the entry retires.
#[derive(Debug, Clone)]
struct VmEntry {
    rec: VmRecord,
    guar_mem: f64,
    windows: WindowVec,
    /// Effective departure: the record's, unless an explicit early
    /// departure overrode it.
    depart: Timestamp,
}

impl VmEntry {
    /// Formula 2's oversubscribed memory in window `w` — identical
    /// arithmetic to `VmDemand::va_demand(w).memory()`.
    #[inline]
    fn va_mem(&self, w: usize) -> f64 {
        (self.windows[w].memory() - self.guar_mem).max(0.0)
    }
}

/// One server's incremental sampling state.
#[derive(Debug, Clone)]
struct ServerAccount {
    capacity: ResourceVec,
    /// The next utilization sample to evaluate.
    next_sample: Timestamp,
    /// Placed VMs not yet admitted by the sampler, in (arrival, seq) order
    /// — the order placements happen in, so no sort is ever needed.
    pending: VecDeque<VmEntry>,
    /// VMs admitted by the sampler and not yet retired, in admission order.
    resident: Vec<VmEntry>,
    /// Formula 3 running sum: Σ guaranteed memory over `resident`.
    pa_sum: f64,
    /// Formula 4 running sums: Σ VA memory per window over `resident`.
    va_sums: Vec<f64>,
    samples: u64,
    cpu_violations: u64,
    mem_violations: u64,
}

impl ServerAccount {
    fn new(capacity: ResourceVec) -> Self {
        ServerAccount {
            capacity,
            next_sample: Timestamp::ZERO,
            pending: VecDeque::new(),
            resident: Vec::new(),
            pa_sum: 0.0,
            va_sums: Vec::new(),
            samples: 0,
            cpu_violations: 0,
            mem_violations: 0,
        }
    }

    /// Evaluate every sample strictly before `up_to` (and before the
    /// horizon). Admission, retirement, summation, and comparison order all
    /// mirror the batch sweep exactly.
    fn catch_up(&mut self, up_to: Timestamp, horizon: Timestamp, sample_every: SimDuration) {
        let bound = up_to.min(horizon);
        while self.next_sample < bound {
            let t = self.next_sample;
            // Admit VMs that have arrived by now, skipping any that already
            // departed between samples (they never touch the sums — exactly
            // as the batch sweep skips them).
            while self.pending.front().is_some_and(|e| e.rec.arrival <= t) {
                let e = self.pending.pop_front().expect("front exists");
                if e.depart > t {
                    self.pa_sum += e.guar_mem;
                    if self.va_sums.len() < e.windows.len() {
                        self.va_sums.resize(e.windows.len(), 0.0);
                    }
                    for w in 0..e.windows.len() {
                        self.va_sums[w] += e.va_mem(w);
                    }
                    self.resident.push(e);
                }
            }
            // Retire the departed, subtracting their sums in resident order.
            let (pa_sum, va_sums) = (&mut self.pa_sum, &mut self.va_sums);
            self.resident.retain(|e| {
                if e.depart <= t {
                    *pa_sum -= e.guar_mem;
                    for (w, sum) in va_sums.iter_mut().enumerate().take(e.windows.len()) {
                        *sum -= e.va_mem(w);
                    }
                    false
                } else {
                    true
                }
            });

            if !self.resident.is_empty() {
                self.samples += 1;
                // Only CPU and memory are compared below, so only they are
                // sampled: each sum takes `VmRecord::used_at`'s terms for
                // its resource, in resident order, and keeps that float
                // trajectory (a VM not alive at `t` adds +0.0 there).
                let (mut used_cpu, mut used_mem) = (0.0f64, 0.0f64);
                for e in &self.resident {
                    if e.rec.alive_at(t) {
                        let demand = e.rec.demand();
                        used_cpu += demand.cpu() * e.rec.profile.util_at(ResourceKind::Cpu, t);
                        used_mem +=
                            demand.memory() * e.rec.profile.util_at(ResourceKind::Memory, t);
                    }
                }
                if used_cpu > 0.5 * self.capacity.cpu() {
                    self.cpu_violations += 1;
                }
                // Memory contention: the working set exceeds the *backed*
                // memory — guaranteed (Formula 3) plus the multiplexed pool
                // (Formula 4) — capped at physical capacity. max(0) clamps
                // floating-point dust from the incremental sums.
                let pool = self.va_sums.iter().copied().fold(0.0, f64::max);
                let backed = (self.pa_sum.max(0.0) + pool).min(self.capacity.memory());
                if used_mem > backed + 1e-9 {
                    self.mem_violations += 1;
                }
            }
            self.next_sample += sample_every;
        }
    }
}

/// The cluster-wide incremental accountant: per-server Formula 3/4 running
/// sums plus CPU/memory violation counters, maintained at event
/// granularity.
#[derive(Debug, Clone)]
pub struct ViolationAccountant {
    sample_every: SimDuration,
    horizon: Timestamp,
    servers: HashMap<ServerId, ServerAccount>,
}

impl ViolationAccountant {
    /// An accountant sampling every `sample_every` up to `horizon`.
    pub fn new(sample_every: SimDuration, horizon: Timestamp) -> Self {
        assert!(sample_every.ticks() > 0, "sample cadence must be positive");
        ViolationAccountant {
            sample_every,
            horizon,
            servers: HashMap::new(),
        }
    }

    /// Record a placement. Also opportunistically evaluates the samples the
    /// placement's server has pending (its state was constant since its
    /// previous event), which keeps per-server queues short.
    pub fn on_placed(
        &mut self,
        server: ServerId,
        capacity: ResourceVec,
        rec: &VmRecord,
        demand: &VmDemand,
    ) {
        let account = self
            .servers
            .entry(server)
            .or_insert_with(|| ServerAccount::new(capacity));
        account.catch_up(rec.arrival, self.horizon, self.sample_every);
        account.pending.push_back(VmEntry {
            rec: rec.clone(),
            guar_mem: demand.guaranteed.memory(),
            windows: demand.window_max.clone(),
            depart: rec.departure,
        });
    }

    /// Record an explicit early departure at `now`: samples before `now`
    /// still see the VM, later ones do not.
    pub fn on_early_departure(&mut self, server: ServerId, vm: VmId, now: Timestamp) {
        let Some(account) = self.servers.get_mut(&server) else {
            return;
        };
        account.catch_up(now, self.horizon, self.sample_every);
        for e in account
            .pending
            .iter_mut()
            .chain(account.resident.iter_mut())
        {
            if e.rec.id == vm {
                e.depart = e.depart.min(now);
            }
        }
    }

    /// Evaluate all servers' samples strictly before `now`.
    pub fn advance(&mut self, now: Timestamp) {
        for account in self.servers.values_mut() {
            account.catch_up(now, self.horizon, self.sample_every);
        }
    }

    /// Evaluate every remaining sample up to the horizon.
    pub fn finish(&mut self) {
        self.advance(Timestamp::from_ticks(u64::MAX));
    }

    /// Aggregate `(samples, cpu_violations, mem_violations)` so far.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.servers.values().fold((0, 0, 0), |(s, c, m), a| {
            (s + a.samples, c + a.cpu_violations, m + a.mem_violations)
        })
    }

    /// Copy out the full sampling state for the snapshot codec.
    ///
    /// Servers are emitted sorted by id (the `HashMap` order is
    /// per-process), but each server's `pending`/`resident` entry order is
    /// preserved **verbatim**: admission, retirement, and the Formula 3/4
    /// running sums all execute in entry order, so reordering here would
    /// change floating-point results after a restore. The running sums
    /// themselves travel as raw bits and are never recomputed.
    pub(crate) fn dump(&self) -> AccountantDump {
        let mut servers: Vec<ServerAccountDump> = self
            .servers
            .iter()
            .map(|(&server, a)| ServerAccountDump {
                server,
                capacity: a.capacity,
                next_sample: a.next_sample,
                pending: a.pending.iter().map(VmEntry::dump).collect(),
                resident: a.resident.iter().map(VmEntry::dump).collect(),
                pa_sum: a.pa_sum,
                va_sums: a.va_sums.clone(),
                samples: a.samples,
                cpu_violations: a.cpu_violations,
                mem_violations: a.mem_violations,
            })
            .collect();
        servers.sort_unstable_by_key(|s| s.server);
        AccountantDump { servers }
    }

    /// Every VM record the sampling state references, deduplicated, in
    /// dump order — the snapshot's embedded record table.
    pub(crate) fn referenced_records(&self) -> Vec<&VmRecord> {
        let mut seen = std::collections::HashSet::new();
        let mut records = Vec::new();
        let mut ids: Vec<ServerId> = self.servers.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let a = &self.servers[&id];
            for e in a.pending.iter().chain(a.resident.iter()) {
                if seen.insert(e.rec.id) {
                    records.push(&e.rec);
                }
            }
        }
        records
    }

    /// Rebuild an accountant from a dump, re-resolving each entry's record
    /// reference through `resolve` (a trace lookup on the parent side, the
    /// snapshot's leaked record table inside a process worker).
    ///
    /// # Panics
    ///
    /// Panics if `resolve` cannot produce a record for a referenced VM or
    /// the dump names a server twice — the snapshot and the record source
    /// disagree, and resampling from partial state would silently corrupt
    /// the violation counters.
    pub(crate) fn from_dump<'r>(
        sample_every: SimDuration,
        horizon: Timestamp,
        dump: AccountantDump,
        resolve: &impl Fn(VmId) -> Option<&'r VmRecord>,
    ) -> ViolationAccountant {
        assert!(sample_every.ticks() > 0, "sample cadence must be positive");
        let revive = |e: &VmEntryDump| -> VmEntry {
            let rec = resolve(e.vm)
                .unwrap_or_else(|| panic!("snapshot references unresolvable VM {:?}", e.vm));
            VmEntry {
                rec: rec.clone(),
                guar_mem: e.guar_mem,
                windows: e.windows.clone(),
                depart: e.depart,
            }
        };
        let mut servers = HashMap::with_capacity(dump.servers.len());
        for s in &dump.servers {
            let account = ServerAccount {
                capacity: s.capacity,
                next_sample: s.next_sample,
                pending: s.pending.iter().map(revive).collect(),
                resident: s.resident.iter().map(revive).collect(),
                pa_sum: s.pa_sum,
                va_sums: s.va_sums.clone(),
                samples: s.samples,
                cpu_violations: s.cpu_violations,
                mem_violations: s.mem_violations,
            };
            let previous = servers.insert(s.server, account);
            assert!(
                previous.is_none(),
                "accountant dump names server {:?} twice",
                s.server
            );
        }
        ViolationAccountant {
            sample_every,
            horizon,
            servers,
        }
    }
}

impl VmEntry {
    /// The wire-facing image of this entry (the record becomes an id).
    fn dump(&self) -> VmEntryDump {
        VmEntryDump {
            vm: self.rec.id,
            guar_mem: self.guar_mem,
            windows: self.windows.clone(),
            depart: self.depart,
        }
    }
}

/// One tracked VM as it crosses the wire: the `&VmRecord` collapses to its
/// id and is re-resolved on restore.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VmEntryDump {
    pub vm: VmId,
    pub guar_mem: f64,
    pub windows: WindowVec,
    pub depart: Timestamp,
}

/// One server's sampling state on the wire. Entry order in
/// `pending`/`resident` is decision-bearing (see
/// [`ViolationAccountant::dump`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServerAccountDump {
    pub server: ServerId,
    pub capacity: ResourceVec,
    pub next_sample: Timestamp,
    pub pending: Vec<VmEntryDump>,
    pub resident: Vec<VmEntryDump>,
    pub pa_sum: f64,
    pub va_sums: Vec<f64>,
    pub samples: u64,
    pub cpu_violations: u64,
    pub mem_violations: u64,
}

/// The accountant's wire image: per-server states sorted by server id.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AccountantDump {
    pub servers: Vec<ServerAccountDump>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_trace::{generate, TraceConfig};

    /// The accountant applied to a whole placed-everywhere toy stream must
    /// agree with first-principles sampling.
    #[test]
    fn counts_match_direct_sampling_on_one_server() {
        let trace = generate(&TraceConfig::small(7));
        let horizon = trace.horizon;
        let every = SimDuration::from_hours(2);
        let server = ServerId::new(0);
        let capacity = ResourceVec::new(16.0, 64.0, 40.0, 4096.0);

        // Put the first 12 VMs (by arrival) all on one tiny server.
        let mut acc = ViolationAccountant::new(every, horizon);
        let vms: Vec<&VmRecord> = trace.vms.iter().take(12).collect();
        for vm in &vms {
            let demand = VmDemand::unpredicted(vm.id, vm.demand());
            acc.on_placed(server, capacity, vm, &demand);
        }
        acc.finish();
        let (samples, cpu, mem) = acc.totals();

        // First principles: walk every sample, rebuilding state from scratch.
        let (mut e_samples, mut e_cpu, mut e_mem) = (0u64, 0u64, 0u64);
        let mut t = Timestamp::ZERO;
        while t < horizon {
            let alive: Vec<&&VmRecord> = vms.iter().filter(|v| v.alive_at(t)).collect();
            if !alive.is_empty() {
                e_samples += 1;
                let mut used = ResourceVec::ZERO;
                let mut pa = 0.0;
                for v in &alive {
                    used += v.used_at(t);
                    pa += v.demand().memory(); // unpredicted: fully guaranteed
                }
                if used.cpu() > 0.5 * capacity.cpu() {
                    e_cpu += 1;
                }
                let backed = pa.min(capacity.memory());
                if used.memory() > backed + 1e-9 {
                    e_mem += 1;
                }
            }
            t += every;
        }
        assert_eq!(samples, e_samples);
        assert_eq!(cpu, e_cpu);
        assert_eq!(mem, e_mem);
    }

    #[test]
    fn early_departure_shortens_residency() {
        let trace = generate(&TraceConfig::small(9));
        let vm = trace
            .vms
            .iter()
            .find(|v| v.lifetime() > SimDuration::from_days(2))
            .expect("a long vm");
        let server = ServerId::new(0);
        let capacity = ResourceVec::new(96.0, 384.0, 40.0, 4096.0);
        let every = SimDuration::from_hours(2);

        let mut full = ViolationAccountant::new(every, trace.horizon);
        full.on_placed(
            server,
            capacity,
            vm,
            &VmDemand::unpredicted(vm.id, vm.demand()),
        );
        full.finish();

        let mut early = ViolationAccountant::new(every, trace.horizon);
        early.on_placed(
            server,
            capacity,
            vm,
            &VmDemand::unpredicted(vm.id, vm.demand()),
        );
        early.on_early_departure(server, vm.id, vm.arrival + SimDuration::from_hours(4));
        early.finish();

        assert!(early.totals().0 < full.totals().0);
    }

    #[test]
    fn dump_restore_resumes_bit_identically() {
        let trace = generate(&TraceConfig::small(11));
        let capacity = ResourceVec::new(48.0, 192.0, 40.0, 4096.0);
        let every = SimDuration::from_hours(2);

        let mut acc = ViolationAccountant::new(every, trace.horizon);
        for (i, vm) in trace.vms.iter().take(30).enumerate() {
            let demand = VmDemand::unpredicted(vm.id, vm.demand());
            acc.on_placed(ServerId::new((i % 3) as u64), capacity, vm, &demand);
        }
        // Catch up partway so both queues and the running sums are nonempty.
        acc.advance(Timestamp::from_ticks(trace.horizon.ticks() / 2));

        let dump = acc.dump();
        let by_id: std::collections::HashMap<VmId, &VmRecord> =
            trace.vms.iter().map(|v| (v.id, v)).collect();
        let mut restored =
            ViolationAccountant::from_dump(every, trace.horizon, dump.clone(), &|vm| {
                by_id.get(&vm).copied()
            });
        assert_eq!(restored.dump(), dump, "restore re-dumps identically");

        // Both halves finish to the horizon with identical counters: the
        // restored sums continued from the same bits in the same order.
        acc.finish();
        restored.finish();
        assert_eq!(restored.totals(), acc.totals());
        assert_eq!(restored.dump(), acc.dump());
    }

    #[test]
    #[should_panic(expected = "unresolvable VM")]
    fn restore_with_missing_record_panics() {
        let trace = generate(&TraceConfig::small(11));
        let every = SimDuration::from_hours(2);
        let mut acc = ViolationAccountant::new(every, trace.horizon);
        let vm = &trace.vms[0];
        acc.on_placed(
            ServerId::new(0),
            ResourceVec::new(48.0, 192.0, 40.0, 4096.0),
            vm,
            &VmDemand::unpredicted(vm.id, vm.demand()),
        );
        let dump = acc.dump();
        let _ = ViolationAccountant::from_dump(every, trace.horizon, dump, &|_| None);
    }
}
