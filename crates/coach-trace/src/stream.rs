//! Constant-memory streaming trace generation.
//!
//! [`StreamingTrace`] yields the exact same arrival-ordered [`VmRecord`]
//! sequence as [`generate`](crate::generate) without ever materializing the
//! whole `Vec<VmRecord>`. The trick is that the generator's randomness is a
//! single sequential [`SmallRng`] stream: snapshotting the RNG state after
//! the subscription draw lets us re-scan the *skeleton* sequence (arrival,
//! departure, subscription and the index of its size among the
//! subscription's preferred sizes — 16 bytes per VM) as many times as we
//! like, each pass bit-identical to the last.
//!
//! The pipeline is:
//!
//! 1. **Counting pass** — one skeleton scan builds a per-tick arrival
//!    histogram (the horizon is a few thousand ticks, so this is tiny). A
//!    trace of at most `chunk_budget` VMs skips it and the bucketing: it is
//!    one bucket over the whole horizon.
//! 2. **Bucketing** — consecutive ticks are greedily grouped into buckets of
//!    at most `chunk_budget` arrivals. A single tick whose arrival count
//!    exceeds the budget (the initial `t = 0` cohort always does at scale)
//!    becomes a singleton bucket.
//! 3. **Placement pass** — the buckets are replayed once through the shared
//!    `PlacementMachine` to discover the final per-cluster server lists,
//!    which downstream consumers (controller construction) need up front,
//!    and the *plan*: the server slot within its cluster of every VM, in
//!    emission order (a `u32` each).
//! 4. **Record pass** — [`StreamingTrace::records`] replays the buckets
//!    again, this time emitting full [`VmRecord`]s lazily. It reads each
//!    VM's server from the plan, so it places nothing: no first fit and no
//!    departures.
//!
//! Why this is bit-identical to the materialized path: the batch generator
//! sorts skeletons by arrival with a *stable* sort, so ties at equal arrival
//! keep draw order. A multi-tick bucket collects its (at most
//! `chunk_budget`) skeletons in draw order and stable-sorts them by arrival
//! — exactly the global sort restricted to the bucket's tick range. A
//! single-tick bucket needs no sort or buffer at all: every skeleton in it
//! has the same arrival, so draw order *is* emission order, and records
//! stream straight through. The placement pass walks the same sequence as
//! the batch generator's loop, so its slots are the batch trace's servers.
//!
//! Ingestion memory is 4 B per VM of plan, built once during construction,
//! plus at most one bucket's skeleton buffer (`O(chunk_budget)`, 16 B per
//! skeleton) plus the per-group behavior-template cache. The plan is the
//! only part that grows with trace length. The placement pass's index lives
//! only during construction: per server a 32 B free vector, an 8 B fit mask
//! and one bit for each demand shape its cluster has seen (at most 28), and
//! a departure calendar of 8 B per resident VM and 4 B per tick.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use coach_types::prelude::*;

use crate::gen::{
    build_clusters, draw_skeleton, draw_subscriptions, horizon_ticks, template_seed_for,
    PlacementMachine, Skeleton, Subscription, TraceConfig,
};
use crate::model::{Cluster, VmRecord};
use crate::profile::BehaviorTemplate;

/// Default per-chunk skeleton budget (`1 << 19` = 524 288 arrivals).
///
/// A multi-tick bucket buffers its skeletons, 16 bytes each (the two
/// times as `u32` ticks, the subscription index and the index of the VM
/// size in that subscription's preferred sizes — not whole
/// [`VmRecord`]s), so the buffer stays under 8 MB whatever the trace
/// length. A trace of at most this many VMs is a single bucket, buffered
/// for the whole record pass: 500k VMs keep 500k × 16 B = 8 MB live from
/// the first record to the last. A smaller budget costs set-up time, since
/// every multi-tick bucket re-draws the whole skeleton sequence. The
/// budget bounds the buffer only: the plan (4 B per VM, see the module
/// docs) grows with the trace whatever the budget.
pub const DEFAULT_CHUNK_BUDGET: usize = 1 << 19;

/// A contiguous tick range `[lo, hi)` holding `count` arrivals.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    lo: u64,
    hi: u64,
    count: u64,
}

impl Bucket {
    /// Single-tick buckets stream skeletons without buffering: equal
    /// arrivals keep draw order, which is already the global tie order.
    fn is_single_tick(&self) -> bool {
        self.hi == self.lo + 1
    }
}

/// A lazily-evaluated trace: same clusters and record sequence as
/// [`generate`](crate::generate), bounded memory.
///
/// Construction runs the counting and placement passes (so
/// [`clusters`](Self::clusters) is final and complete, and every VM's
/// server is planned); records are only produced when the iterator from
/// [`records`](Self::records) is driven.
///
/// ```
/// use coach_trace::{generate, StreamingTrace, TraceConfig};
///
/// let config = TraceConfig::small(7);
/// let streaming = StreamingTrace::new(&config);
/// let batch = generate(&config);
/// assert_eq!(streaming.clusters(), &batch.clusters[..]);
/// let collected: Vec<_> = streaming.records().collect();
/// assert_eq!(collected, batch.vms);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingTrace {
    config: TraceConfig,
    /// Final clusters, server lists fully grown by the placement pass.
    clusters: Vec<Cluster>,
    buckets: Vec<Bucket>,
    /// The plan: `slots[k]` is the `k`-th emitted VM's index into its
    /// cluster's final server list, as the placement pass found it.
    slots: Vec<u32>,
    subscriptions: Vec<Subscription>,
    /// RNG state snapshotted right after the subscription draw; every
    /// skeleton scan clones this so the draw sequence replays exactly.
    rng0: SmallRng,
}

impl StreamingTrace {
    /// A streaming generator with the [`DEFAULT_CHUNK_BUDGET`].
    pub fn new(config: &TraceConfig) -> Self {
        Self::with_chunk_budget(config, DEFAULT_CHUNK_BUDGET)
    }

    /// A streaming generator with an explicit per-chunk arrival budget.
    ///
    /// Any budget (even 1) produces the identical record sequence — smaller
    /// budgets trade more skeleton re-scans for a smaller buffer. Panics if
    /// `chunk_budget` is zero or the config is degenerate.
    pub fn with_chunk_budget(config: &TraceConfig, chunk_budget: usize) -> Self {
        assert!(chunk_budget > 0, "chunk budget must be positive");
        assert!(config.vm_count > 0 && config.cluster_count > 0);
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let subscriptions = draw_subscriptions(&mut rng, config);
        let rng0 = rng.clone();

        // A trace within the budget is one bucket over the whole horizon,
        // so it needs no counting pass.
        let horizon_ticks = horizon_ticks(config);
        let buckets = if config.vm_count <= chunk_budget {
            vec![Bucket {
                lo: 0,
                hi: horizon_ticks,
                count: config.vm_count as u64,
            }]
        } else {
            partition(
                &arrival_histogram(&rng0, &subscriptions, config, horizon_ticks),
                chunk_budget as u64,
            )
        };
        debug_assert_eq!(
            buckets.iter().map(|b| b.count).sum::<u64>(),
            config.vm_count as u64
        );

        // Placement pass: grow the final cluster server lists and plan
        // every VM's server.
        let mut this = StreamingTrace {
            config: config.clone(),
            clusters: build_clusters(config.cluster_count),
            buckets,
            slots: Vec::with_capacity(config.vm_count),
            subscriptions,
            rng0,
        };
        let mut machine = PlacementMachine::new(config.cluster_count, horizon_ticks);
        let mut cursor = SkeletonCursor::default();
        while let Some(run) = cursor.next_run(&this) {
            for sk in run {
                let sub = &this.subscriptions[sk.sub_idx as usize];
                let ci = sub.home_cluster;
                let hw = this.clusters[ci].hardware.capacity;
                let (slot, grew) = machine.place(ci, hw, sk, sk.config(sub));
                if let Some(id) = grew {
                    this.clusters[ci].servers.push(id);
                }
                let slot = u32::try_from(slot).expect("a cluster has fewer than 2^32 servers");
                this.slots.push(slot);
            }
        }
        this
    }

    /// The final clusters — identical to the materialized trace's, server
    /// lists included. Available before any record is produced.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Trace horizon, as in [`Trace::horizon`](crate::Trace).
    pub fn horizon(&self) -> Timestamp {
        self.config.horizon
    }

    /// Total number of records the stream will yield.
    pub fn len(&self) -> usize {
        self.config.vm_count
    }

    /// True when the trace has no records (never, for a valid config).
    pub fn is_empty(&self) -> bool {
        self.config.vm_count == 0
    }

    /// The generating configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// An arrival-ordered record iterator, bit-identical to
    /// [`generate`](crate::generate)`(config).vms`.
    ///
    /// Each call starts a fresh pass; passes are independent and
    /// deterministic.
    pub fn records(&self) -> StreamingRecords<'_> {
        StreamingRecords {
            stream: self,
            templates: HashMap::new(),
            cursor: SkeletonCursor::default(),
            run_pos: 0,
            vm_idx: 0,
        }
    }
}

/// The counting pass: per-tick arrivals, from one full skeleton draw.
fn arrival_histogram(
    rng0: &SmallRng,
    subscriptions: &[Subscription],
    config: &TraceConfig,
    horizon_ticks: u64,
) -> Vec<u64> {
    let mut hist = vec![0u64; horizon_ticks as usize];
    let mut rng = rng0.clone();
    for _ in 0..config.vm_count {
        let sk = draw_skeleton(&mut rng, subscriptions, config, horizon_ticks);
        hist[sk.arrival as usize] += 1;
    }
    hist
}

/// Greedy partition of ticks into buckets of at most `budget` arrivals.
/// Over-budget singleton ticks get their own (streaming) bucket; empty
/// ticks are skipped entirely.
fn partition(hist: &[u64], budget: u64) -> Vec<Bucket> {
    let mut buckets: Vec<Bucket> = Vec::new();
    let mut open: Option<Bucket> = None;
    for (t, &c) in hist.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let t = t as u64;
        if c > budget {
            if let Some(b) = open.take() {
                buckets.push(b);
            }
            buckets.push(Bucket {
                lo: t,
                hi: t + 1,
                count: c,
            });
            continue;
        }
        match open {
            Some(ref mut b) if b.count + c <= budget => {
                b.hi = t + 1;
                b.count += c;
            }
            _ => {
                if let Some(b) = open.take() {
                    buckets.push(b);
                }
                open = Some(Bucket {
                    lo: t,
                    hi: t + 1,
                    count: c,
                });
            }
        }
    }
    if let Some(b) = open.take() {
        buckets.push(b);
    }
    buckets
}

/// One pass over the skeleton sequence in global arrival order, handed out
/// in runs: a multi-tick bucket is one run (collected and stable-sorted up
/// front, at most `chunk_budget` skeletons); a single-tick bucket is
/// re-scanned and each match is a run of one (no buffer; draw order is
/// emission order). Both the construction-time placement pass and
/// [`StreamingTrace::records`] drive this walk; it reads only the stream's
/// buckets, subscriptions, config and RNG snapshot, so the placement pass
/// may grow the cluster lists and the plan while it holds a run.
#[derive(Default)]
struct SkeletonCursor {
    /// Index of the next bucket to open.
    next_bucket: usize,
    /// The open single-tick bucket's scan, if one is open: the RNG,
    /// skeletons drawn so far, and the bucket's tick.
    scan: Option<(SmallRng, usize, u64)>,
    /// The current run; never empty once [`Self::next_run`] returned it.
    run: Vec<Skeleton>,
}

impl SkeletonCursor {
    fn next_run(&mut self, st: &StreamingTrace) -> Option<&[Skeleton]> {
        // Checked to fit a `u32` when the stream was constructed.
        let horizon_ticks = st.config.horizon.ticks();
        let draw =
            |rng: &mut SmallRng| draw_skeleton(rng, &st.subscriptions, &st.config, horizon_ticks);
        loop {
            if let Some((rng, drawn, tick)) = &mut self.scan {
                self.run.clear();
                while *drawn < st.config.vm_count {
                    let sk = draw(rng);
                    *drawn += 1;
                    if u64::from(sk.arrival) == *tick {
                        self.run.push(sk);
                        return Some(&self.run);
                    }
                }
                self.scan = None;
            }
            // Free a finished bucket's buffer before the next one's is
            // collected, so at most one is ever live.
            self.run = Vec::new();
            let bucket = *st.buckets.get(self.next_bucket)?;
            self.next_bucket += 1;
            let mut rng = st.rng0.clone();
            if bucket.is_single_tick() {
                self.scan = Some((rng, 0, bucket.lo));
                continue;
            }
            self.run.reserve_exact(bucket.count as usize);
            for _ in 0..st.config.vm_count {
                let sk = draw(&mut rng);
                if (bucket.lo..bucket.hi).contains(&u64::from(sk.arrival)) {
                    self.run.push(sk);
                }
            }
            self.run.sort_by_key(|sk| sk.arrival); // stable: ties keep draw order
            return Some(&self.run);
        }
    }
}

/// Lazy record iterator over a [`StreamingTrace`].
///
/// Yields exactly [`StreamingTrace::len`] records in `(arrival, id)` order;
/// `size_hint` is exact.
pub struct StreamingRecords<'a> {
    stream: &'a StreamingTrace,
    templates: HashMap<(u64, u64), BehaviorTemplate>,
    cursor: SkeletonCursor,
    /// Skeletons of the cursor's current run already emitted.
    run_pos: usize,
    vm_idx: u64,
}

impl StreamingRecords<'_> {
    /// Materialize a skeleton's record. Mirrors the batch generator's loop
    /// body exactly, with the server read from the plan the construction
    /// pass made and resolved against the final cluster lists.
    fn emit(&mut self, sk: &Skeleton) -> VmRecord {
        let st = self.stream;
        let sub = &st.subscriptions[sk.sub_idx as usize];
        let vm_config = sk.config(sub);
        let cluster_idx = sub.home_cluster;
        let vm_idx = self.vm_idx;
        self.vm_idx += 1;
        let srv_idx = st.slots[vm_idx as usize] as usize;

        let group_key = (sub.id.raw(), vm_config.config_key());
        let template = self.templates.entry(group_key).or_insert_with(|| {
            let mut trng = SmallRng::seed_from_u64(template_seed_for(st.config.seed, group_key));
            BehaviorTemplate::sample(&mut trng)
        });
        let profile = template.instantiate(st.config.seed ^ (vm_idx << 1));

        VmRecord {
            id: VmId::new(vm_idx),
            subscription: sub.id,
            subscription_type: sub.sub_type,
            offering: sub.offering,
            config: vm_config,
            cluster: st.clusters[cluster_idx].id,
            server: st.clusters[cluster_idx].servers[srv_idx],
            arrival: sk.arrival(),
            departure: sk.departure(),
            profile,
        }
    }
}

impl Iterator for StreamingRecords<'_> {
    type Item = VmRecord;

    fn next(&mut self) -> Option<VmRecord> {
        if self.run_pos == self.cursor.run.len() {
            self.run_pos = 0;
            self.cursor.next_run(self.stream)?;
        }
        let sk = self.cursor.run[self.run_pos];
        self.run_pos += 1;
        Some(self.emit(&sk))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.stream.config.vm_count - self.vm_idx as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for StreamingRecords<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn streaming_matches_materialized() {
        let config = TraceConfig::small(7);
        let batch = generate(&config);
        let streaming = StreamingTrace::new(&config);
        assert_eq!(streaming.clusters(), &batch.clusters[..]);
        assert_eq!(streaming.len(), batch.vms.len());
        let collected: Vec<VmRecord> = streaming.records().collect();
        assert_eq!(collected, batch.vms);
    }

    #[test]
    fn tiny_chunk_budgets_are_still_identical() {
        let config = TraceConfig::small(11);
        let batch = generate(&config);
        for budget in [1usize, 3, 17, 100, 1 << 20] {
            let streaming = StreamingTrace::with_chunk_budget(&config, budget);
            assert_eq!(streaming.clusters(), &batch.clusters[..], "budget {budget}");
            let collected: Vec<VmRecord> = streaming.records().collect();
            assert_eq!(collected, batch.vms, "budget {budget}");
        }
    }

    /// A trace whose VMs all arrive at `t = 0`: within the budget it is
    /// one bucket over the horizon, buffered and stably sorted; over the
    /// budget the counting pass finds one over-budget tick, streamed
    /// unbuffered. Both equal `generate`.
    #[test]
    fn a_one_tick_trace_buffered_equals_streamed() {
        let config = TraceConfig {
            initial_fraction: 1.0,
            ..TraceConfig::small(17)
        };
        let batch = generate(&config);
        assert!(batch.vms.iter().all(|vm| vm.arrival.ticks() == 0));
        for (budget, single_tick) in [(config.vm_count, false), (config.vm_count - 1, true)] {
            let streaming = StreamingTrace::with_chunk_budget(&config, budget);
            assert_eq!(streaming.buckets.len(), 1);
            assert_eq!(streaming.buckets[0].is_single_tick(), single_tick);
            assert_eq!(streaming.clusters(), &batch.clusters[..], "budget {budget}");
            let collected: Vec<VmRecord> = streaming.records().collect();
            assert_eq!(collected, batch.vms, "budget {budget}");
        }
    }

    /// The plan is the placement: one slot per VM, each a valid index
    /// into its VM's cluster's final server list, naming the server its
    /// record carries. Single-tick buckets (budget 1) plan as they stream.
    #[test]
    fn plan_holds_one_valid_slot_per_vm() {
        let config = TraceConfig::small(13);
        for budget in [DEFAULT_CHUNK_BUDGET, 1] {
            let streaming = StreamingTrace::with_chunk_budget(&config, budget);
            assert_eq!(streaming.slots.len(), config.vm_count, "budget {budget}");
            for (vm, &slot) in streaming.records().zip(&streaming.slots) {
                let cluster = streaming
                    .clusters()
                    .iter()
                    .find(|c| c.id == vm.cluster)
                    .expect("a record's cluster is in the trace");
                let slot = usize::try_from(slot).expect("a slot fits in usize");
                assert!(slot < cluster.servers.len(), "budget {budget}: {}", vm.id);
                assert_eq!(
                    cluster.servers[slot], vm.server,
                    "budget {budget}: {}",
                    vm.id
                );
            }
        }
    }

    /// 64-bit FNV-1a over a stream of words (each fed little-endian).
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn word(&mut self, w: u64) {
            for byte in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn server_lists(&mut self, clusters: &[Cluster]) {
            for cluster in clusters {
                self.word(cluster.id.raw());
                self.word(cluster.servers.len() as u64);
                for server in &cluster.servers {
                    self.word(server.raw());
                }
            }
        }

        /// Every field of a record, floats by bit pattern.
        fn record(&mut self, vm: &VmRecord) {
            self.word(vm.id.raw());
            self.word(vm.subscription.raw());
            self.word(vm.subscription_type as u64);
            self.word(vm.offering as u64);
            self.word(u64::from(vm.config.cores));
            self.word(vm.config.memory_gb.to_bits());
            self.word(vm.config.network_gbps.to_bits());
            self.word(vm.config.ssd_gb.to_bits());
            self.word(vm.cluster.raw());
            self.word(vm.server.raw());
            self.word(vm.arrival.ticks());
            self.word(vm.departure.ticks());
            self.word(vm.profile.kind as u64);
            self.word(vm.profile.noise_seed);
            for p in &vm.profile.per_resource {
                for f in [
                    p.base,
                    p.amplitude,
                    p.peak_hour,
                    p.peak_width_hours,
                    p.noise,
                    p.weekend_factor,
                    p.daily_drift,
                ] {
                    self.word(f.to_bits());
                }
            }
        }
    }

    #[test]
    fn trace_digest_is_stable() {
        // Pins the generators' output bit for bit: any change to the draw
        // order, the first-fit placement or the template jitter moves these.
        let batch = generate(&TraceConfig::small(1));
        let mut h = Fnv::new();
        for vm in &batch.vms {
            h.record(vm);
        }
        h.server_lists(&batch.clusters);
        assert_eq!(h.0, 13_744_125_390_847_439_038, "generate(small(1))");

        let streaming = StreamingTrace::new(&TraceConfig::medium(7));
        let mut h = Fnv::new();
        for vm in streaming.records() {
            h.record(&vm);
        }
        h.server_lists(streaming.clusters());
        assert_eq!(h.0, 8_256_388_341_943_253_780, "StreamingTrace(medium(7))");
    }

    #[test]
    #[should_panic(expected = "does not fit a skeleton's u32 times")]
    fn a_horizon_past_u32_ticks_is_refused() {
        StreamingTrace::new(&TraceConfig {
            horizon: Timestamp::from_ticks(1 << 32),
            ..TraceConfig::small(1)
        });
    }

    #[test]
    fn repeated_passes_are_deterministic() {
        let config = TraceConfig::small(3);
        let streaming = StreamingTrace::with_chunk_budget(&config, 64);
        let a: Vec<VmRecord> = streaming.records().collect();
        let b: Vec<VmRecord> = streaming.records().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn size_hint_is_exact() {
        let config = TraceConfig::small(5);
        let streaming = StreamingTrace::with_chunk_budget(&config, 128);
        let mut it = streaming.records();
        let total = streaming.len();
        assert_eq!(it.size_hint(), (total, Some(total)));
        it.next().unwrap();
        assert_eq!(it.size_hint(), (total - 1, Some(total - 1)));
        assert_eq!(it.count() + 1, total);
    }

    #[test]
    fn bucket_counts_cover_every_vm() {
        let config = TraceConfig::small(9);
        let streaming = StreamingTrace::with_chunk_budget(&config, 50);
        let total: u64 = streaming.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, config.vm_count as u64);
        for w in streaming.buckets.windows(2) {
            assert!(w[0].hi <= w[1].lo, "buckets must be ordered and disjoint");
        }
        for b in &streaming.buckets {
            assert!(b.is_single_tick() || b.count <= 50);
        }
    }
}
