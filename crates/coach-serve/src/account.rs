//! Incremental violation/telemetry accounting at event granularity.
//!
//! The batch experiment ([`coach_sim::packing_experiment`]) counts
//! violations in a *post-replay sweep*: it materializes a placement map for
//! every VM, groups it by server, re-sorts each server's lifetimes, and
//! walks the whole horizon per server. At million-VM scale that pass
//! dominates the replay (ROADMAP: the Fig 20 bottleneck).
//!
//! The online accountant maintains the same per-server Formula 3/4 running
//! sums *during* the event stream instead, and stays **bit-identical** to
//! the batch sweep. Every server is sampled on one shared grid (`0`,
//! `sample_every`, ...). Events arrive in time order, so once the stream's
//! clock has passed `t`, the sample at `t` has seen every event it can and
//! may be evaluated at any later moment — in arrival order, with the exact
//! floating-point operation order the batch sweep uses. A server is caught
//! up when it sees a placement or an early departure, at a flush point
//! (tick, stats query, finalization), and — so that an idle server cannot
//! sit on departed VMs — once per `SWEEP_SAMPLES` samples by a sweep that
//! is phased over the clock: at each new tick the servers of that tick's
//! residue class (`index mod SWEEP_SAMPLES · sample_every`) catch up,
//! which spreads the sampling work evenly over the stream instead of
//! stalling it once per sample, and lets a server evaluate several samples
//! per visit while its entries are in cache. No global placement map,
//! per-server sort, or second pass over the trace exists at all.
//!
//! **What a sample evaluates.** A sample compares two sums with two
//! thresholds: the admitted VMs' CPU use with half the CPU capacity, and
//! their memory use with the backed memory (Formulas 3–4). Each server
//! caches, per resource, the sum of `req · ceiling` over its admitted VMs
//! (`UtilSampler::ceilings`: the profile's utilization with every hashed or
//! cosine factor at its maximum), recomputed whenever a sample changes the
//! admitted set. A resource's exact sum — a cosine and up to three hashes
//! per VM — is taken only when its ceiling sum crosses the threshold. That
//! changes no count: term by term `req · util ≤ req · ceiling` for
//! `req ≥ 0`, and a float sum taken in one order is monotone in every
//! term, so an exact sum above the threshold has a ceiling sum above it
//! too.
//!
//! **What it keeps, and for how long.** State is a function of what is
//! resident, not of what has streamed. A tracked VM is a 128-byte
//! `VmEntry` holding exactly what a sample reads — no trace record, no
//! demand vector — so the accountant borrows nothing from the request
//! stream. What repeats across entries is kept once: the sampler's
//! per-template half ([`SamplerShape`]: the pattern class and each
//! resource's bump width, noise, weekend factor and drift) sits in a
//! reference-counted table that every entry indexes, next to the per-VM
//! half in the entry; and a Formula 2 VA vector whose values are all
//! `+0.0` (most of them: memory's peak rarely exceeds its guaranteed
//! share) is kept as its length alone. A snapshot carries every entry
//! whole (`EntryDump`). An entry is dropped at the first sample at or
//! after its departure, which its server evaluates within
//! `SWEEP_SAMPLES + 1` samples of that departure (one at a flush point); a
//! VM no remaining sample can see (it departs by its server's next sample,
//! or that sample is past the horizon) is never stored; a shape leaves the
//! table with its last entry; and nothing outlives the last sample. Each
//! server keeps one buffer of entries. It grows by a quarter of its length
//! when full (`push_by_quarter`), not by doubling, and when a sample
//! leaves it less than a quarter full it shrinks to its length plus a
//! quarter: every server holds its peak at once when the t=0 cohort
//! lands, so doubling's slack would be paid on all of them together.

use coach_sched::VmDemand;
use coach_trace::{SamplerShape, SamplerVm, UtilSampler, VmRecord};
use coach_types::prelude::*;
use coach_types::{push_by_quarter, BuildIdHasher};
use coach_wire::WireError;
use std::collections::HashMap;

/// What an elided VA vector reads: `+0.0`, as many as its length says.
static ZEROS: [f64; u8::MAX as usize] = [0.0; u8::MAX as usize];

/// A VA vector as an entry keeps it: `(None, len)` when every value's
/// bits are `+0.0` and `len` fits the count, else the values themselves.
/// A `-0.0`, a NaN or a negative value is kept as it is.
fn elide(va_mem: impl Iterator<Item = f64> + Clone) -> (Option<Box<[f64]>>, u8) {
    match u8::try_from(va_mem.clone().count()) {
        Ok(len) if va_mem.clone().all(|v| v.to_bits() == 0) => (None, len),
        _ => (Some(va_mem.collect()), 0),
    }
}

/// A placed VM as the accountant tracks it: exactly what a sample reads,
/// with its sampler's per-template half in the accountant's
/// [`ShapeTable`].
#[derive(Debug, Clone)]
pub(crate) struct VmEntry {
    pub id: VmId,
    pub arrival: Timestamp,
    /// Effective departure: the record's, unless an explicit early
    /// departure overrode it.
    pub depart: Timestamp,
    /// Requested CPU and memory (what utilization fractions scale).
    pub req_cpu: f64,
    pub req_mem: f64,
    /// Formula 1's guaranteed memory.
    pub guar_mem: f64,
    /// Formula 2's oversubscribed memory per window, GB, subtracted on the
    /// grid — `VmDemand::va_demand(w).memory()` — or `None` for
    /// `zeros` values that are all `+0.0`.
    va_mem: Option<Box<[f64]>>,
    zeros: u8,
    /// The sampler's per-VM half; `shape` is its per-template half's slot.
    util: SamplerVm,
    shape: u32,
}

const _: () = assert!(std::mem::size_of::<VmEntry>() <= 128);

impl VmEntry {
    fn new(rec: &VmRecord, demand: &VmDemand, shapes: &mut ShapeTable) -> Self {
        let requested = rec.demand();
        let guar_mem = demand.guaranteed.memory_gb();
        let (va_mem, zeros) = elide(
            demand
                .window_max
                .iter()
                .map(|w| w.saturating_sub(&demand.guaranteed).memory_gb()),
        );
        let (shape, util) = rec.profile.sampler().split();
        VmEntry {
            id: rec.id,
            arrival: rec.arrival,
            depart: rec.departure,
            req_cpu: requested.cpu(),
            req_mem: requested.memory(),
            guar_mem,
            va_mem,
            zeros,
            util,
            shape: shapes.intern(shape),
        }
    }

    /// A dumped entry, its shape interned in `shapes`.
    fn restore(dump: EntryDump, shapes: &mut ShapeTable) -> Self {
        let (va_mem, zeros) = elide(dump.va_mem.iter().copied());
        let (shape, util) = dump.util.split();
        VmEntry {
            id: dump.id,
            arrival: dump.arrival,
            depart: dump.depart,
            req_cpu: dump.req_cpu,
            req_mem: dump.req_mem,
            guar_mem: dump.guar_mem,
            va_mem,
            zeros,
            util,
            shape: shapes.intern(shape),
        }
    }

    /// Formula 2's VA memory per window.
    fn va_mem(&self) -> &[f64] {
        match &self.va_mem {
            Some(vals) => vals,
            None => &ZEROS[..self.zeros as usize],
        }
    }

    /// The whole sampler: `VmProfile::util_at`'s bits.
    fn util(&self, shapes: &ShapeTable) -> UtilSampler {
        UtilSampler::join(&shapes.shapes[self.shape as usize], &self.util)
    }

    fn dump(&self, shapes: &ShapeTable) -> EntryDump {
        EntryDump {
            id: self.id,
            arrival: self.arrival,
            depart: self.depart,
            req_cpu: self.req_cpu,
            req_mem: self.req_mem,
            guar_mem: self.guar_mem,
            va_mem: self.va_mem().to_vec(),
            util: self.util(shapes),
        }
    }
}

/// The distinct sampler shapes the tracked entries point at, each kept
/// once with a count of the entries that point at it. A shape leaves with
/// its last entry, and the table starts afresh once it is empty, so what it
/// holds is a function of what is tracked. Shapes are keyed by their bits
/// under the fixed [`BuildIdHasher`]: they are the trace model's template
/// parameters, which the platform assigns, not values a tenant picks.
#[derive(Debug, Clone, Default)]
struct ShapeTable {
    shapes: Vec<SamplerShape>,
    refs: Vec<u32>,
    /// Slots whose shape left, for the next new shape.
    free: Vec<u32>,
    slots: HashMap<[u64; 9], u32, BuildIdHasher>,
}

impl ShapeTable {
    /// The slot holding `shape`, with one more reference.
    fn intern(&mut self, shape: SamplerShape) -> u32 {
        let (shapes, refs, free) = (&mut self.shapes, &mut self.refs, &mut self.free);
        let slot = *self
            .slots
            .entry(shape.bits())
            .or_insert_with(|| match free.pop() {
                Some(slot) => {
                    shapes[slot as usize] = shape;
                    slot
                }
                None => {
                    shapes.push(shape);
                    refs.push(0);
                    (shapes.len() - 1) as u32
                }
            });
        self.refs[slot as usize] += 1;
        slot
    }

    /// Drop one reference to `slot`'s shape.
    fn release(&mut self, slot: u32) {
        let refs = &mut self.refs[slot as usize];
        *refs -= 1;
        if *refs > 0 {
            return;
        }
        if self.slots.len() == 1 {
            *self = ShapeTable::default();
        } else {
            self.slots.remove(&self.shapes[slot as usize].bits());
            self.free.push(slot);
        }
    }
}

/// One server's incremental sampling state.
#[derive(Debug, Clone)]
pub(crate) struct ServerAccount {
    pub server: ServerId,
    pub capacity: ResourceVec,
    /// The next utilization sample to evaluate.
    pub next_sample: Timestamp,
    /// The tracked VMs in one buffer. `entries[..admitted]` are those the
    /// sampler has admitted and not yet retired, in admission order; the
    /// rest are placed but not yet sampled, in (arrival, seq) order — the
    /// order placements happen in, so no sort is ever needed.
    pub entries: Vec<VmEntry>,
    pub admitted: usize,
    /// Formula 3 running sum: Σ guaranteed memory over the admitted.
    pub pa_sum: f64,
    /// Formula 4 running sums: Σ VA memory per window over the admitted.
    pub va_sums: Vec<f64>,
    /// Σ `req_cpu · cpu ceiling` and Σ `req_mem · memory ceiling` over the
    /// admitted, in admission order ([`ceiling_sums`]): summed anew
    /// whenever a sample changes the admitted prefix, never updated
    /// incrementally, so they are a pure function of that prefix — derived
    /// on decode, not carried on the wire.
    pub ceiling_sums: [f64; 2],
    pub samples: u64,
    pub cpu_violations: u64,
    pub mem_violations: u64,
}

impl ServerAccount {
    fn new(server: ServerId, capacity: ResourceVec) -> Self {
        ServerAccount {
            server,
            capacity,
            next_sample: Timestamp::ZERO,
            entries: Vec::new(),
            admitted: 0,
            pa_sum: 0.0,
            va_sums: Vec::new(),
            ceiling_sums: [0.0; 2],
            samples: 0,
            cpu_violations: 0,
            mem_violations: 0,
        }
    }

    /// The account with every entry whole.
    fn dump(&self, shapes: &ShapeTable) -> ServerDump {
        ServerDump {
            server: self.server,
            capacity: self.capacity,
            next_sample: self.next_sample,
            entries: self.entries.iter().map(|e| e.dump(shapes)).collect(),
            admitted: self.admitted,
            pa_sum: self.pa_sum,
            va_sums: self.va_sums.clone(),
            samples: self.samples,
            cpu_violations: self.cpu_violations,
            mem_violations: self.mem_violations,
        }
    }

    /// A dumped account, its entries' shapes interned in `shapes`.
    fn restore(dump: ServerDump, shapes: &mut ShapeTable) -> Self {
        let mut account = ServerAccount {
            server: dump.server,
            capacity: dump.capacity,
            next_sample: dump.next_sample,
            entries: dump
                .entries
                .into_iter()
                .map(|e| VmEntry::restore(e, shapes))
                .collect(),
            admitted: dump.admitted,
            pa_sum: dump.pa_sum,
            va_sums: dump.va_sums,
            ceiling_sums: [0.0; 2],
            samples: dump.samples,
            cpu_violations: dump.cpu_violations,
            mem_violations: dump.mem_violations,
        };
        account.sum_ceilings(shapes);
        account
    }

    /// Derive the ceiling sums from the admitted prefix (a dump carries
    /// none).
    fn sum_ceilings(&mut self, shapes: &ShapeTable) {
        self.ceiling_sums = ceiling_sums(&self.entries[..self.admitted], shapes);
    }

    /// Evaluate every sample strictly before `up_to` (and before the
    /// horizon).
    fn catch_up(
        &mut self,
        up_to: Timestamp,
        horizon: Timestamp,
        sample_every: SimDuration,
        shapes: &mut ShapeTable,
        work: &mut AccountWork,
    ) {
        let bound = up_to.min(horizon);
        while self.next_sample < bound {
            if self.entries.is_empty() {
                // Nothing to sample until the next placement (`samples`
                // counts only non-empty servers): skip to the first grid
                // point at or after the bound.
                let ticks = bound.ticks().next_multiple_of(sample_every.ticks());
                self.next_sample = Timestamp::from_ticks(ticks);
                break;
            }
            self.sample(self.next_sample, shapes, work);
            self.next_sample += sample_every;
        }
        if self.next_sample >= horizon && !self.entries.is_empty() {
            // Past the last sample nothing reads an entry again.
            for e in &self.entries {
                shapes.release(e.shape);
            }
            self.entries = Vec::new();
            self.admitted = 0;
            self.ceiling_sums = [0.0; 2];
        }
    }

    /// Evaluate the sample at `t`. Admission, retirement, summation, and
    /// comparison order all mirror the batch sweep exactly: every addition
    /// in placement order, then every subtraction in admission order.
    fn sample(&mut self, t: Timestamp, shapes: &mut ShapeTable, work: &mut AccountWork) {
        // Admit VMs that have arrived by now, skipping any that already
        // departed (an early departure before the VM's first sample: it
        // never touches the sums — exactly as the batch sweep skips it).
        let was_admitted = self.admitted;
        let mut arrived = was_admitted;
        while let Some(e) = self.entries.get(arrived).filter(|e| e.arrival <= t) {
            if e.depart > t {
                self.pa_sum += e.guar_mem;
                let va = e.va_mem();
                if self.va_sums.len() < va.len() {
                    self.va_sums.resize(va.len(), 0.0);
                }
                for (sum, v) in self.va_sums.iter_mut().zip(va) {
                    *sum += v;
                }
            }
            arrived += 1;
        }
        // Retire the departed, subtracting what was added for them.
        let (pa_sum, va_sums) = (&mut self.pa_sum, &mut self.va_sums);
        let (mut index, mut kept, mut changed) = (0, 0, false);
        self.entries.retain(|e| {
            let i = index;
            index += 1;
            if i >= arrived {
                return true;
            }
            // The admitted prefix changes when one of it retires or an
            // arrival joins it.
            let keep = e.depart > t;
            changed |= keep != (i < was_admitted);
            if keep {
                kept += 1;
                return true;
            }
            if i < was_admitted {
                *pa_sum -= e.guar_mem;
                for (sum, v) in va_sums.iter_mut().zip(e.va_mem()) {
                    *sum -= v;
                }
            }
            shapes.release(e.shape);
            false
        });
        self.admitted = kept;
        let len = self.entries.len();
        if len * 4 < self.entries.capacity() {
            self.entries.shrink_to(len + len / 4);
        }
        if changed {
            self.sum_ceilings(shapes);
            work.ceiling_recomputes += 1;
        }

        let resident = &self.entries[..self.admitted];
        if !resident.is_empty() {
            self.samples += 1;
            work.samples += 1;
            work.entries_sampled += resident.len() as u64;
            // Only CPU and memory are compared below, so only they are
            // sampled, and each only when its ceiling sum can cross its
            // threshold: each sum takes `VmRecord::used_at`'s terms for its
            // resource, in admission order, and keeps that float
            // trajectory. (Every admitted VM is alive at `t`: it arrived
            // by `t` and the retirement above left `depart > t`.)
            let cpu_limit = 0.5 * self.capacity.cpu();
            if self.ceiling_sums[0] > cpu_limit {
                work.cpu_exact += 1;
                let used = resident
                    .iter()
                    .fold(0.0, |sum, e| sum + e.req_cpu * e.util(shapes).cpu_at(t));
                if used > cpu_limit {
                    self.cpu_violations += 1;
                }
            }
            // Memory contention: the working set exceeds the *backed*
            // memory — guaranteed (Formula 3) plus the multiplexed pool
            // (Formula 4) — capped at physical capacity. max(0) clamps
            // floating-point dust from the incremental sums.
            let pool = self.va_sums.iter().copied().fold(0.0, f64::max);
            let backed = (self.pa_sum.max(0.0) + pool).min(self.capacity.memory());
            let mem_limit = backed + 1e-9;
            if self.ceiling_sums[1] > mem_limit {
                work.mem_exact += 1;
                let used = resident
                    .iter()
                    .fold(0.0, |sum, e| sum + e.req_mem * e.util(shapes).memory_at(t));
                if used > mem_limit {
                    self.mem_violations += 1;
                }
            }
        }
    }
}

/// `[Σ req_cpu · cpu ceiling, Σ req_mem · memory ceiling]` over `admitted`,
/// in its order. Term by term `req · util ≤ req · ceiling` for `req ≥ 0`,
/// and a float sum taken in one order is monotone in every term, so each
/// bounds the exact sum a sample would take: a sample whose ceiling sum
/// does not cross a threshold cannot cross it either. A term the sign
/// argument does not cover (a negative or NaN request, or `∞ · 0`) is
/// `+∞`, so its server is always sampled exactly.
fn ceiling_sums(admitted: &[VmEntry], shapes: &ShapeTable) -> [f64; 2] {
    let term = |req: f64, ceiling: f64| {
        let term = req * ceiling;
        if req >= 0.0 && term >= 0.0 {
            term
        } else {
            f64::INFINITY
        }
    };
    admitted.iter().fold([0.0; 2], |[cpu, mem], e| {
        let (cpu_ceiling, mem_ceiling) = e.util(shapes).ceilings();
        [
            cpu + term(e.req_cpu, cpu_ceiling),
            mem + term(e.req_mem, mem_ceiling),
        ]
    })
}

/// How much sampling work an accountant has done since it was built or
/// restored — exact counts, a function of the event stream alone. Like
/// `ClusterScheduler::work`'s they are observations: not in the dump, not
/// in any equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccountWork {
    /// Samples evaluated: one per server and grid point with at least one
    /// admitted VM, as the violation rates count them.
    pub samples: u64,
    /// Admitted entries summed over those samples: what evaluating every
    /// sample exactly would read.
    pub entries_sampled: u64,
    /// Samples whose CPU ceiling sum crossed half the CPU capacity, so
    /// every admitted entry's CPU was sampled.
    pub cpu_exact: u64,
    /// Samples whose memory ceiling sum crossed the backed memory, so
    /// every admitted entry's memory was sampled.
    pub mem_exact: u64,
    /// Samples that changed an admitted prefix and summed its ceilings
    /// anew.
    pub ceiling_recomputes: u64,
}

/// How many samples a server may fall behind before the phased sweep
/// reaches it. Every visit streams the server's entries through the cache
/// once, so visiting per sample makes the accountant's memory traffic — and
/// with it the run's sensitivity to whatever else shares the cache — several
/// times that of evaluating a few samples per visit; the price is departed
/// VMs tracked for up to this many samples longer (16 h at the 2 h default:
/// about a tenth more entries than residents on the medium trace once the
/// t=0 cohort's first day is over, and never more than that cohort).
const SWEEP_SAMPLES: u64 = 8;

/// The cluster-wide incremental accountant: per-server Formula 3/4 running
/// sums plus CPU/memory violation counters, maintained at event
/// granularity.
#[derive(Debug, Clone)]
pub struct ViolationAccountant {
    sample_every: SimDuration,
    horizon: Timestamp,
    /// The clock the phased sweep has reached: every server whose residue
    /// class came up at or before it has caught up to that moment.
    swept_to: Timestamp,
    /// Per-server states in first-placement order — the order the phased
    /// sweep strides over, and the dump's.
    servers: Vec<ServerAccount>,
    index: IdMap<ServerId, u32>,
    /// The per-template halves of the tracked entries' samplers.
    shapes: ShapeTable,
    work: AccountWork,
}

impl ViolationAccountant {
    /// An accountant sampling every `sample_every` up to `horizon`.
    pub fn new(sample_every: SimDuration, horizon: Timestamp) -> Self {
        assert!(sample_every.ticks() > 0, "sample cadence must be positive");
        ViolationAccountant {
            sample_every,
            horizon,
            swept_to: Timestamp::ZERO,
            servers: Vec::new(),
            index: IdMap::default(),
            shapes: ShapeTable::default(),
            work: AccountWork::default(),
        }
    }

    /// Move the phased sweep's clock to `now`: the servers in the residue
    /// class of each tick it passes catch up to `now`, so no server goes
    /// [`SWEEP_SAMPLES`] samples without catching up. Once the clock is past the
    /// last sample every server is due at once, and none is afterwards.
    fn sweep(&mut self, now: Timestamp) {
        if now <= self.swept_to {
            return;
        }
        let every = self.sample_every.ticks();
        let last_sample = self.horizon.ticks().saturating_sub(1) / every * every;
        let (from, to) = (self.swept_to.ticks() + 1, now.ticks());
        if from > last_sample + 1 {
            return;
        }
        self.swept_to = now;
        let period = every.saturating_mul(SWEEP_SAMPLES);
        if to > last_sample || to - from >= period - 1 {
            return self.advance(now);
        }
        for tick in from..=to {
            let class = (tick % period) as usize;
            for account in self.servers.iter_mut().skip(class).step_by(period as usize) {
                account.catch_up(
                    now,
                    self.horizon,
                    self.sample_every,
                    &mut self.shapes,
                    &mut self.work,
                );
            }
        }
    }

    /// Record a placement at `rec.arrival`.
    pub fn on_placed(
        &mut self,
        server: ServerId,
        capacity: ResourceVec,
        rec: &VmRecord,
        demand: &VmDemand,
    ) {
        self.sweep(rec.arrival);
        let next = self.servers.len();
        let i = *self.index.entry(server).or_insert(next as u32) as usize;
        if i == next {
            self.servers.push(ServerAccount::new(server, capacity));
        }
        let account = &mut self.servers[i];
        account.catch_up(
            rec.arrival,
            self.horizon,
            self.sample_every,
            &mut self.shapes,
            &mut self.work,
        );
        // The first sample that could admit this VM is the server's next.
        // If the VM is gone by then, or there is no such sample, no sample
        // ever reads it (the batch sweep skips it the same way).
        if rec.departure > account.next_sample && account.next_sample < self.horizon {
            let entry = VmEntry::new(rec, demand, &mut self.shapes);
            push_by_quarter(&mut account.entries, entry);
        }
    }

    /// Record an explicit early departure at `now`: samples before `now`
    /// still see the VM, later ones do not.
    pub fn on_early_departure(&mut self, server: ServerId, vm: VmId, now: Timestamp) {
        self.sweep(now);
        let Some(&i) = self.index.get(&server) else {
            return;
        };
        let account = &mut self.servers[i as usize];
        account.catch_up(
            now,
            self.horizon,
            self.sample_every,
            &mut self.shapes,
            &mut self.work,
        );
        for e in account.entries.iter_mut().filter(|e| e.id == vm) {
            e.depart = e.depart.min(now);
        }
    }

    /// Evaluate all servers' samples strictly before `now`.
    pub fn advance(&mut self, now: Timestamp) {
        for account in &mut self.servers {
            account.catch_up(
                now,
                self.horizon,
                self.sample_every,
                &mut self.shapes,
                &mut self.work,
            );
        }
        self.swept_to = self.swept_to.max(now);
    }

    /// Evaluate every remaining sample up to the horizon.
    pub fn finish(&mut self) {
        self.advance(Timestamp::from_ticks(u64::MAX));
    }

    /// Aggregate `(samples, cpu_violations, mem_violations)` so far.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.servers.iter().fold((0, 0, 0), |(s, c, m), a| {
            (s + a.samples, c + a.cpu_violations, m + a.mem_violations)
        })
    }

    /// The sampling work done so far (see [`AccountWork`]).
    pub fn work(&self) -> AccountWork {
        self.work
    }

    /// How many VMs the accountant holds an entry for right now. After a
    /// flush at `now` ([`Self::advance`]): at most the residents plus
    /// those that departed within the last `sample_every`.
    pub fn tracked(&self) -> usize {
        self.servers.iter().map(|a| a.entries.len()).sum()
    }

    /// Copy out the full sampling state for the snapshot codec, every
    /// entry whole: its sampler joined from the shape table and its VA
    /// vector at its length, so a dump — and equality of dumps — never sees
    /// a table slot.
    ///
    /// Servers travel in first-placement order — a function of the event
    /// stream, not of the index map's layout — and each server's entry
    /// order is preserved **verbatim**: admission, retirement, and the
    /// Formula 3/4 running sums all execute in entry order, so reordering
    /// here would change floating-point results after a restore. The
    /// running sums themselves travel as raw bits and are never
    /// recomputed.
    pub(crate) fn dump(&self) -> AccountantDump {
        AccountantDump {
            swept_to: self.swept_to,
            servers: self
                .servers
                .iter()
                .map(|account| account.dump(&self.shapes))
                .collect(),
        }
    }

    /// Rebuild an accountant from a dump. `sample_every` must be positive
    /// (the caller checks it with the rest of the config). A dump that
    /// names a server twice is refused — resampling from partial state
    /// would silently corrupt the violation counters — and so is one whose
    /// next sample is off the `sample_every` grid, which no uninterrupted
    /// run samples at.
    pub(crate) fn from_dump(
        sample_every: SimDuration,
        horizon: Timestamp,
        dump: AccountantDump,
    ) -> Result<ViolationAccountant, WireError> {
        let mut index = IdMap::with_capacity_and_hasher(dump.servers.len(), Default::default());
        for (i, account) in dump.servers.iter().enumerate() {
            if index.insert(account.server, i as u32).is_some() {
                return Err(WireError::Invalid {
                    context: "AccountantDump names a server twice",
                });
            }
            if !account
                .next_sample
                .ticks()
                .is_multiple_of(sample_every.ticks())
            {
                return Err(WireError::Invalid {
                    context: "AccountantDump sample grid",
                });
            }
        }
        let mut shapes = ShapeTable::default();
        let servers = dump
            .servers
            .into_iter()
            .map(|account| ServerAccount::restore(account, &mut shapes))
            .collect();
        Ok(ViolationAccountant {
            sample_every,
            horizon,
            swept_to: dump.swept_to,
            servers,
            index,
            shapes,
            work: AccountWork::default(),
        })
    }
}

/// The accountant's wire image: the phased sweep's clock and the
/// per-server states in first-placement order. Entry order within a
/// server is decision-bearing (see [`ViolationAccountant::dump`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AccountantDump {
    pub swept_to: Timestamp,
    pub servers: Vec<ServerDump>,
}

/// A [`ServerAccount`] as a dump carries it: everything but the ceiling
/// sums, which restoring derives.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServerDump {
    pub server: ServerId,
    pub capacity: ResourceVec,
    pub next_sample: Timestamp,
    pub entries: Vec<EntryDump>,
    pub admitted: usize,
    pub pa_sum: f64,
    pub va_sums: Vec<f64>,
    pub samples: u64,
    pub cpu_violations: u64,
    pub mem_violations: u64,
}

/// A [`VmEntry`] as a dump carries it: the whole [`UtilSampler`] and the VA
/// vector at its length.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EntryDump {
    pub id: VmId,
    pub arrival: Timestamp,
    pub depart: Timestamp,
    pub req_cpu: f64,
    pub req_mem: f64,
    pub guar_mem: f64,
    pub va_mem: Vec<f64>,
    pub util: UtilSampler,
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_sched::Policy;
    use coach_sim::{Oracle, Predictor};
    use coach_trace::{generate, TraceConfig};

    /// First principles: walk every sample, rebuilding state from scratch —
    /// `(samples, cpu_violations, mem_violations)` for `vms` (records
    /// carrying their effective departure, in placement order) all on one
    /// server, with Formula 3/4's backed memory summed from each demand.
    fn direct_counts(
        vms: &[(VmRecord, VmDemand)],
        capacity: ResourceVec,
        every: SimDuration,
        horizon: Timestamp,
    ) -> (u64, u64, u64) {
        let windows = vms.iter().map(|(_, d)| d.window_count()).max().unwrap_or(1);
        let (mut e_samples, mut e_cpu, mut e_mem) = (0u64, 0u64, 0u64);
        let mut t = Timestamp::ZERO;
        while t < horizon {
            let alive: Vec<_> = vms.iter().filter(|(v, _)| v.alive_at(t)).collect();
            if !alive.is_empty() {
                e_samples += 1;
                let mut used = ResourceVec::ZERO;
                let mut pa = 0.0;
                let mut va = vec![0.0; windows];
                for (v, d) in &alive {
                    used += v.used_at(t);
                    pa += d.guaranteed.memory_gb();
                    for (sum, w) in va.iter_mut().zip(d.window_max.iter()) {
                        *sum += w.saturating_sub(&d.guaranteed).memory_gb();
                    }
                }
                if used.cpu() > 0.5 * capacity.cpu() {
                    e_cpu += 1;
                }
                let pool = va.into_iter().fold(0.0, f64::max);
                let backed = (pa.max(0.0) + pool).min(capacity.memory());
                if used.memory() > backed + 1e-9 {
                    e_mem += 1;
                }
            }
            t += every;
        }
        (e_samples, e_cpu, e_mem)
    }

    /// The accountant applied to a whole placed-everywhere toy stream must
    /// agree with first-principles sampling.
    #[test]
    fn counts_match_direct_sampling_on_one_server() {
        let trace = generate(&TraceConfig::small(7));
        let horizon = trace.horizon;
        let every = SimDuration::from_hours(2);
        let server = ServerId::new(0);
        let capacity = ResourceVec::new(16.0, 64.0, 40.0, 4096.0);

        // Put the first 12 VMs (by arrival) all on one tiny server,
        // unpredicted: fully guaranteed.
        let mut acc = ViolationAccountant::new(every, horizon);
        let vms: Vec<(VmRecord, VmDemand)> = trace
            .vms
            .iter()
            .take(12)
            .map(|vm| (vm.clone(), VmDemand::unpredicted(vm.id, vm.demand())))
            .collect();
        for (vm, demand) in &vms {
            acc.on_placed(server, capacity, vm, demand);
        }
        acc.finish();
        assert_eq!(acc.totals(), direct_counts(&vms, capacity, every, horizon));
    }

    /// The work counters on one fixed stream, pinned: a change to what a
    /// sample evaluates shows here as an exact before/after. (Without the
    /// ceiling screen both exact counts would equal `samples`.)
    #[test]
    fn account_work_is_exact_on_a_fixed_trace() {
        let trace = generate(&TraceConfig::small(7));
        let oracle = Oracle::new(TimeWindows::paper_default());
        let capacity = ResourceVec::new(32.0, 128.0, 40.0, 4096.0);
        let mut acc = ViolationAccountant::new(SimDuration::from_hours(2), trace.horizon);
        for (i, vm) in trace.vms.iter().enumerate() {
            let prediction = oracle.predict(vm, Percentile::P95);
            let demand =
                VmDemand::from_prediction(vm.id, vm.demand(), Policy::Coach, prediction.as_ref());
            acc.on_placed(ServerId::new((i % 8) as u64), capacity, vm, &demand);
        }
        acc.finish();
        let work = acc.work();
        assert_eq!(work.samples, acc.totals().0);
        assert_eq!(
            (work, acc.totals()),
            (
                AccountWork {
                    samples: 672,
                    entries_sampled: 2548,
                    cpu_exact: 157,
                    mem_exact: 116,
                    ceiling_recomputes: 164,
                },
                (672, 33, 22)
            )
        );
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
        // Catch up partway so the admitted prefix, the not-yet-sampled
        // tail and the running sums are all nonempty.
        acc.advance(Timestamp::from_ticks(trace.horizon.ticks() / 2));

        let dump = acc.dump();
        let mut restored =
            ViolationAccountant::from_dump(every, trace.horizon, dump.clone()).expect("valid dump");
        assert_eq!(restored.dump(), dump, "restore re-dumps identically");

        // Both halves finish to the horizon with identical counters: the
        // restored sums continued from the same bits in the same order.
        acc.finish();
        restored.finish();
        assert_eq!(restored.totals(), acc.totals());
        assert_eq!(restored.dump(), acc.dump());
    }

    /// A server that never sees another event still gives its departed
    /// VMs back: the phased sweep reaches it within `SWEEP_SAMPLES`
    /// samples, with no flush.
    #[test]
    fn an_idle_server_is_swept_without_a_flush() {
        let trace = generate(&TraceConfig::small(7));
        let capacity = ResourceVec::new(96.0, 384.0, 40.0, 4096.0);
        let mut acc = ViolationAccountant::new(SimDuration::from_hours(2), trace.horizon);
        let place = |acc: &mut ViolationAccountant, server, arrival, hours| {
            let mut rec = trace.vms[0].clone();
            rec.arrival = Timestamp::from_hours(arrival);
            rec.departure = Timestamp::from_hours(arrival + hours);
            let demand = VmDemand::unpredicted(rec.id, rec.demand());
            acc.on_placed(ServerId::new(server), capacity, &rec, &demand);
        };
        place(&mut acc, 0, 0, 3);
        // The stream moves on to server 1 (zero-length VMs: never stored).
        let turn = 2 * SWEEP_SAMPLES;
        for hour in 1..turn {
            place(&mut acc, 1, hour, 0);
            assert_eq!(
                acc.tracked(),
                1,
                "hour {hour}: server 0's turn is at {turn} h"
            );
        }
        place(&mut acc, 1, turn, 0);
        assert_eq!(acc.tracked(), 0, "retired by the 4 h sample");
        assert_eq!(acc.totals().0, 2, "the 0 h and 2 h samples saw it");
    }

    /// One server's dump holding an admitted entry and one arriving at
    /// the next sample, both with VA vector `va` and `vm`'s sampler, and
    /// running sums of `-0.0`.
    fn one_server_dump(vm: &VmRecord, va: &[f64]) -> AccountantDump {
        let entry = |arrival| EntryDump {
            id: vm.id,
            arrival,
            depart: Timestamp::from_days(30),
            req_cpu: 2.0,
            req_mem: 8.0,
            guar_mem: 4.0,
            va_mem: va.to_vec(),
            util: vm.profile.sampler(),
        };
        AccountantDump {
            swept_to: Timestamp::ZERO,
            servers: vec![ServerDump {
                server: ServerId::new(3),
                capacity: ResourceVec::new(96.0, 384.0, 40.0, 4096.0),
                next_sample: Timestamp::from_hours(2),
                entries: vec![entry(Timestamp::ZERO), entry(Timestamp::from_hours(1))],
                admitted: 1,
                pa_sum: -0.0,
                va_sums: vec![-0.0; va.len()],
                samples: 1,
                cpu_violations: 0,
                mem_violations: 0,
            }],
        }
    }

    /// A VA vector whose values are all `+0.0` is kept as its length, up
    /// to 255; any other is kept as it is. Either way a decoded entry
    /// re-encodes byte for byte, and admitting an elided vector still adds
    /// its zeros: a `-0.0` running sum turns `+0.0`, as it always did.
    #[test]
    fn hostile_va_vectors_reencode_byte_identically() {
        let trace = generate(&TraceConfig::small(7));
        let nan = f64::from_bits(f64::NAN.to_bits() | 5);
        let vectors: [Vec<f64>; 9] = [
            vec![-0.0],
            vec![0.0, nan, 0.0],
            vec![0.0, -2.5],
            vec![0.0],
            vec![0.0; 6],
            vec![0.0; 8],
            (0..8).map(f64::from).collect(),
            vec![0.0; 300],
            vec![],
        ];
        let (every, horizon) = (SimDuration::from_hours(2), trace.horizon);
        for va in vectors {
            let bytes = coach_wire::seal_frame(&one_server_dump(&trace.vms[0], &va));
            let dump = coach_wire::open_frame(&bytes).expect("a valid frame");
            let mut acc = ViolationAccountant::from_dump(every, horizon, dump).expect("valid");
            assert_eq!(coach_wire::seal_frame(&acc.dump()), bytes, "{va:?}");

            let elided = va.len() <= 255 && va.iter().all(|v| v.to_bits() == 0);
            for e in &acc.servers[0].entries {
                assert_eq!(e.va_mem.is_none(), elided, "{va:?}");
                assert_eq!(e.va_mem().len(), va.len());
            }
            acc.advance(Timestamp::from_hours(3));
            let sums = &acc.servers[0].va_sums;
            for (sum, v) in sums.iter().zip(&va) {
                assert_eq!(sum.to_bits(), (-0.0 + v).to_bits(), "{va:?}");
            }
        }
    }

    /// The shape table holds one reference per tracked entry and no shape
    /// no entry points at, through placements, flushes and a restore, and
    /// is empty once sampling is over; VMs of one template share a shape.
    #[test]
    fn the_shape_table_follows_what_is_tracked() {
        let trace = generate(&TraceConfig::small(13));
        let capacity = ResourceVec::new(96.0, 384.0, 40.0, 4096.0);
        let check = |acc: &ViolationAccountant| {
            let refs: usize = acc.shapes.refs.iter().map(|&r| r as usize).sum();
            assert_eq!(refs, acc.tracked());
            assert!(acc.shapes.slots.len() <= acc.tracked());
        };
        let mut acc = ViolationAccountant::new(SimDuration::from_hours(2), trace.horizon);
        let (mut shared, mut restored) = (false, false);
        for (i, vm) in trace.vms.iter().enumerate() {
            let demand = VmDemand::unpredicted(vm.id, vm.demand());
            acc.on_placed(ServerId::new((i % 5) as u64), capacity, vm, &demand);
            check(&acc);
            shared |= acc.shapes.slots.len() < acc.tracked();
            if i % 16 == 15 {
                acc.advance(vm.arrival);
                check(&acc);
            }
            if !restored && acc.tracked() > 50 {
                let copy =
                    ViolationAccountant::from_dump(acc.sample_every, acc.horizon, acc.dump())
                        .expect("valid dump");
                check(&copy);
                assert_eq!(copy.shapes.slots.len(), acc.shapes.slots.len());
                assert_eq!(copy.dump(), acc.dump());
                restored = true;
            }
        }
        assert!(shared && restored);
        acc.finish();
        assert_eq!(acc.tracked(), 0);
        assert_eq!(acc.shapes.slots.len(), 0);
        assert!(acc.shapes.refs.is_empty());
    }

    /// With the cadence at or past the horizon only the t=0 sample exists:
    /// once it is evaluated nothing is tracked, and later placements are
    /// never stored. Under a real cadence `finish` leaves nothing behind.
    #[test]
    fn no_entry_survives_the_last_sample() {
        let trace = generate(&TraceConfig::small(13));
        let capacity = ResourceVec::new(96.0, 384.0, 40.0, 4096.0);
        let place_all = |acc: &mut ViolationAccountant| {
            for (i, vm) in trace.vms.iter().enumerate() {
                let demand = VmDemand::unpredicted(vm.id, vm.demand());
                acc.on_placed(ServerId::new((i % 5) as u64), capacity, vm, &demand);
                if vm.arrival > Timestamp::ZERO {
                    assert_eq!(acc.tracked(), 0, "sampling is over after t=0");
                }
            }
        };
        let mut off = ViolationAccountant::new(trace.horizon.since(Timestamp::ZERO), trace.horizon);
        place_all(&mut off);
        let at_zero = trace.vms.iter().filter(|v| v.arrival == Timestamp::ZERO);
        assert_eq!(off.totals().0, at_zero.count().min(5) as u64);

        let mut on = ViolationAccountant::new(SimDuration::from_hours(2), trace.horizon);
        let mut peak = 0;
        for (i, vm) in trace.vms.iter().enumerate() {
            let demand = VmDemand::unpredicted(vm.id, vm.demand());
            on.on_placed(ServerId::new((i % 5) as u64), capacity, vm, &demand);
            peak = peak.max(on.tracked());
        }
        assert!(peak > 0);
        on.finish();
        assert_eq!(on.tracked(), 0);
    }

    /// A server's entries grow by a quarter, and once most of them depart
    /// the shrink leaves at most a quarter of the survivors' length empty.
    #[test]
    fn a_drained_buffer_keeps_at_most_a_quarter_of_slack() {
        let trace = generate(&TraceConfig::small(13));
        let capacity = ResourceVec::new(96.0, 384.0, 40.0, 4096.0);
        let mut acc = ViolationAccountant::new(SimDuration::from_hours(2), trace.horizon);
        for (i, vm) in trace.vms.iter().enumerate() {
            // Everyone arrives at t=0; nine in ten leave before the 2 h sample.
            let mut vm = vm.clone();
            vm.arrival = Timestamp::ZERO;
            vm.departure = if i % 10 == 0 {
                trace.horizon
            } else {
                Timestamp::from_hours(1)
            };
            let demand = VmDemand::unpredicted(vm.id, vm.demand());
            acc.on_placed(ServerId::new(0), capacity, &vm, &demand);
            let entries = &acc.servers[0].entries;
            assert!(entries.capacity() <= entries.len() + entries.len() / 4 + 1);
        }
        let placed = acc.tracked();
        assert_eq!(placed, trace.vms.len());
        acc.advance(Timestamp::from_hours(4));
        let entries = &acc.servers[0].entries;
        assert_eq!(entries.len(), placed.div_ceil(10));
        assert!(
            entries.capacity() <= entries.len() + entries.len() / 4,
            "{} slots kept for {} entries",
            entries.capacity(),
            entries.len()
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use std::cell::Cell;

        thread_local! {
            /// What `ceiling_screen_cases` saw over all its cases: CPU and
            /// memory violations, samples, and the samples on which each
            /// resource was sampled exactly.
            static SCREEN_TALLY: Cell<[u64; 5]> = const { Cell::new([0; 5]) };
        }

        /// One accountant call, `gap` ticks after the previous one.
        #[derive(Debug, Clone)]
        enum Step {
            Place { vm: usize, server: u64 },
            Depart { placed: usize },
            Advance,
        }

        fn steps() -> impl Strategy<Value = Vec<(u64, Step)>> {
            let step = (0u8..7, 0usize..64, 0u64..3).prop_map(|(kind, vm, server)| match kind {
                0..=3 => Step::Place { vm, server },
                4 => Step::Depart { placed: vm },
                _ => Step::Advance,
            });
            prop::collection::vec((0u64..40, step), 1..60)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// Catching up is time-consistent: `advance(t)` injected at
            /// random non-decreasing times changes neither the counters
            /// nor a byte of the final state.
            #[test]
            fn catch_up_is_time_consistent(steps in steps(), seed in 0u64..8) {
                let trace = generate(&TraceConfig::small(100 + seed));
                let capacity = ResourceVec::new(24.0, 96.0, 40.0, 4096.0);
                let every = SimDuration::from_hours(2);
                let run = |with_advances: bool| {
                    let mut acc = ViolationAccountant::new(every, trace.horizon);
                    let mut now = Timestamp::ZERO;
                    let mut placed: Vec<(ServerId, VmId)> = Vec::new();
                    for (gap, step) in &steps {
                        now += SimDuration::from_ticks(*gap);
                        match step {
                            Step::Place { vm, server } => {
                                // The trace's profile and lifetime, arriving now.
                                let mut rec = trace.vms[*vm].clone();
                                rec.departure = now + rec.lifetime();
                                rec.arrival = now;
                                rec.id = VmId::new(placed.len() as u64);
                                let demand = VmDemand::unpredicted(rec.id, rec.demand());
                                let server = ServerId::new(*server);
                                acc.on_placed(server, capacity, &rec, &demand);
                                placed.push((server, rec.id));
                            }
                            Step::Depart { placed: i } => {
                                if let Some(&(server, vm)) = placed.get(*i) {
                                    acc.on_early_departure(server, vm, now);
                                }
                            }
                            Step::Advance if with_advances => acc.advance(now),
                            Step::Advance => {}
                        }
                    }
                    acc.finish();
                    (acc.totals(), coach_wire::seal_frame(&acc.dump()))
                };
                prop_assert_eq!(run(true), run(false));
            }
        }

        /// The ceiling screen changes no count (`ceiling_screen_cases`),
        /// over cases where both violation kinds occur and the screen
        /// decides samples on its own.
        #[test]
        fn ceiling_screen_changes_no_count() {
            ceiling_screen_cases();
            let [cpu, mem, samples, cpu_exact, mem_exact] = SCREEN_TALLY.with(Cell::get);
            assert!(cpu > 0 && mem > 0, "{cpu} CPU and {mem} memory violations");
            assert!(
                cpu_exact < samples && mem_exact < samples,
                "of {samples} samples, CPU exact on {cpu_exact}, memory on {mem_exact}"
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Coach-policy VMs packed onto one small server, some leaving
            /// early: the screened accountant counts what first-principles
            /// sampling counts.
            fn ceiling_screen_cases(
                seed in 0u64..64,
                take in 8usize..40,
                cpu in 4u32..32,
                memory in 16u32..128,
                cuts in prop::collection::vec((0usize..40, 0u64..1000), 0..16),
            ) {
                let trace = generate(&TraceConfig::small(seed));
                let oracle = Oracle::new(TimeWindows::paper_default());
                let capacity = ResourceVec::new(f64::from(cpu), f64::from(memory), 40.0, 4096.0);
                let every = SimDuration::from_hours(2);
                let server = ServerId::new(0);
                let vms: Vec<(VmRecord, VmDemand)> = trace
                    .vms
                    .iter()
                    .take(take)
                    .map(|vm| {
                        let prediction = oracle.predict(vm, Percentile::P95);
                        let demand = VmDemand::from_prediction(
                            vm.id,
                            vm.demand(),
                            Policy::Coach,
                            prediction.as_ref(),
                        );
                        (vm.clone(), demand)
                    })
                    .collect();
                // `(time, early departure?, vm)`, placements first at equal
                // times; the reference sees each VM's effective departure.
                let mut events: Vec<(Timestamp, bool, usize)> = vms
                    .iter()
                    .enumerate()
                    .map(|(i, (vm, _))| (vm.arrival, false, i))
                    .collect();
                let mut effective = vms.clone();
                for (i, permille) in cuts {
                    let (vm, _) = &mut effective[i % vms.len()];
                    let ticks = vm.lifetime().ticks() * permille / 1000;
                    let now = vm.arrival + SimDuration::from_ticks(ticks);
                    vm.departure = vm.departure.min(now);
                    events.push((now, true, i % vms.len()));
                }
                events.sort_by_key(|&(t, _, _)| t);

                let mut acc = ViolationAccountant::new(every, trace.horizon);
                for (now, early, i) in events {
                    let (vm, demand) = &vms[i];
                    if early {
                        acc.on_early_departure(server, vm.id, now);
                    } else {
                        acc.on_placed(server, capacity, vm, demand);
                    }
                }
                acc.finish();
                let (samples, cpu, mem) = acc.totals();
                prop_assert_eq!(
                    (samples, cpu, mem),
                    direct_counts(&effective, capacity, every, trace.horizon)
                );
                let work = acc.work();
                SCREEN_TALLY.with(|tally| {
                    let [c, m, s, ce, me] = tally.get();
                    tally.set([
                        c + cpu,
                        m + mem,
                        s + work.samples,
                        ce + work.cpu_exact,
                        me + work.mem_exact,
                    ]);
                });
            }

            /// The entry's sampler returns `VmProfile::util_at`'s bits.
            #[test]
            fn slim_entry_samples_like_the_record(
                seed in 0u64..64,
                vm in 0usize..200,
                ticks in prop::collection::vec(0u64..(28 * TICKS_PER_DAY), 1..32),
            ) {
                let trace = generate(&TraceConfig::small(seed));
                let rec = &trace.vms[vm % trace.vms.len()];
                let demand = VmDemand::unpredicted(rec.id, rec.demand());
                let mut shapes = ShapeTable::default();
                let entry = VmEntry::new(rec, &demand, &mut shapes);
                let util = entry.util(&shapes);
                for t in ticks.into_iter().map(Timestamp::from_ticks) {
                    let cpu = rec.profile.util_at(ResourceKind::Cpu, t);
                    let mem = rec.profile.util_at(ResourceKind::Memory, t);
                    prop_assert_eq!(util.cpu_at(t).to_bits(), cpu.to_bits());
                    prop_assert_eq!(util.memory_at(t).to_bits(), mem.to_bits());
                    prop_assert_eq!(
                        (entry.req_cpu * cpu).to_bits(),
                        (rec.demand().cpu() * cpu).to_bits()
                    );
                }
            }
        }
    }
}
