//! Synthetic Azure-like trace generator.
//!
//! Substitutes for the paper's proprietary two-week trace of >1M opaque VMs
//! (§2 methodology). Every marginal the paper reports is a calibration
//! target; the §2 analytics ([`crate::analytics`]) measure them back. The
//! generator is fully deterministic in the seed.

use crate::model::{Cluster, Trace, VmRecord};
use crate::profile::BehaviorTemplate;
use coach_types::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// RNG seed; identical seeds yield identical traces.
    pub seed: u64,
    /// Number of VM allocations to generate.
    pub vm_count: usize,
    /// Observation horizon (paper: two weeks).
    pub horizon: Timestamp,
    /// Number of clusters (paper: ten).
    pub cluster_count: usize,
    /// Approximate number of customer subscriptions.
    pub subscription_count: usize,
    /// Fraction of VMs already running at trace start.
    pub initial_fraction: f64,
}

impl TraceConfig {
    /// A small trace for unit tests (~200 VMs, 3 clusters, 1 week).
    pub fn small(seed: u64) -> Self {
        TraceConfig {
            seed,
            vm_count: 200,
            horizon: Timestamp::from_days(7),
            cluster_count: 3,
            subscription_count: 24,
            initial_fraction: 0.45,
        }
    }

    /// A mid-size trace for performance work (100k VMs over four dense
    /// ~1000-server clusters, 2 weeks) — the scale `examples/benchmark`'s
    /// workloads are multiples of.
    pub fn medium(seed: u64) -> Self {
        TraceConfig {
            seed,
            vm_count: 100_000,
            horizon: Timestamp::from_days(14),
            cluster_count: 4,
            subscription_count: 2000,
            initial_fraction: 0.45,
        }
    }

    /// The default evaluation-scale trace (~8000 VMs, 10 clusters, 2 weeks).
    pub fn paper_scale(seed: u64) -> Self {
        TraceConfig {
            seed,
            vm_count: 8000,
            horizon: Timestamp::from_days(14),
            cluster_count: 10,
            subscription_count: 400,
            initial_fraction: 0.45,
        }
    }

    /// The ten-million-VM trace. Deliberately *not* materializable in
    /// sensible memory as a `Vec<VmRecord>` — this is the scale the
    /// streaming generator ([`crate::StreamingTrace`]) exists for; the
    /// ignored `ten_million_vms_stream_end_to_end` test in `coach-bench`
    /// streams it end-to-end.
    pub fn huge(seed: u64) -> Self {
        TraceConfig {
            seed,
            vm_count: 10_000_000,
            horizon: Timestamp::from_days(14),
            cluster_count: 10,
            subscription_count: 200_000,
            initial_fraction: 0.45,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::paper_scale(0)
    }
}

/// Per-subscription generator state.
#[derive(Debug, Clone)]
pub(crate) struct Subscription {
    pub(crate) id: SubscriptionId,
    pub(crate) sub_type: SubscriptionType,
    pub(crate) offering: Offering,
    pub(crate) home_cluster: usize,
    /// The small set of VM sizes this customer deploys.
    pub(crate) preferred_configs: Vec<VmConfig>,
}

/// A VM before placement: when it runs, how big it is, who owns it — 16
/// bytes, since a streamed trace of up to `DEFAULT_CHUNK_BUDGET` VMs
/// buffers all of its skeletons at once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Skeleton {
    /// Arrival tick ([`horizon_ticks`] fits every tick in a `u32`).
    pub(crate) arrival: u32,
    /// Departure tick, after the arrival and at most the horizon.
    pub(crate) departure: u32,
    pub(crate) sub_idx: u32,
    /// The drawn size's index in its subscription's `preferred_configs`.
    config_idx: u8,
}

const _: () = assert!(std::mem::size_of::<Skeleton>() == 16);

impl Skeleton {
    pub(crate) fn arrival(&self) -> Timestamp {
        Timestamp::from_ticks(u64::from(self.arrival))
    }

    pub(crate) fn departure(&self) -> Timestamp {
        Timestamp::from_ticks(u64::from(self.departure))
    }

    /// The VM size, resolved against its subscription.
    pub(crate) fn config(&self, sub: &Subscription) -> VmConfig {
        sub.preferred_configs[usize::from(self.config_idx)]
    }
}

/// The horizon in ticks, asserted to fit a [`Skeleton`]'s `u32` times.
pub(crate) fn horizon_ticks(config: &TraceConfig) -> u64 {
    let ticks = config.horizon.ticks();
    assert!(
        u32::try_from(ticks).is_ok(),
        "a horizon of {ticks} ticks does not fit a skeleton's u32 times"
    );
    ticks
}

/// The cluster skeleton shared by the materialized and streaming
/// generators: heterogeneous hardware, empty server lists (servers grow
/// on demand during placement).
pub(crate) fn build_clusters(cluster_count: usize) -> Vec<Cluster> {
    let hardware_mix = [
        HardwareConfig::general_purpose_gen4(),
        HardwareConfig::general_purpose_gen5(),
        HardwareConfig::memory_lean(),
        HardwareConfig::memory_rich(),
    ];
    (0..cluster_count)
        .map(|i| Cluster {
            id: ClusterId::new(i as u64),
            hardware: hardware_mix[i % hardware_mix.len()].clone(),
            servers: Vec::new(),
        })
        .collect()
}

/// Draw the subscription table. Consumes exactly the draw sequence the
/// materialized generator uses, so a streaming pass that clones the RNG
/// *after* this call replays the identical skeleton stream.
pub(crate) fn draw_subscriptions(rng: &mut SmallRng, config: &TraceConfig) -> Vec<Subscription> {
    (0..config.subscription_count.max(1))
        .map(|i| {
            let n_cfg = rng.gen_range(1..=3);
            let preferred_configs = (0..n_cfg).map(|_| sample_config(rng)).collect();
            Subscription {
                id: SubscriptionId::new(i as u64),
                sub_type: match rng.gen_range(0..10) {
                    0..=1 => SubscriptionType::InternalProduction,
                    2 => SubscriptionType::InternalTest,
                    _ => SubscriptionType::External,
                },
                offering: if rng.gen_bool(0.7) {
                    Offering::Iaas
                } else {
                    Offering::Paas
                },
                home_cluster: rng.gen_range(0..config.cluster_count),
                preferred_configs,
            }
        })
        .collect()
}

/// Draw one VM skeleton — the loop body both generators share. Every RNG
/// call happens in a fixed order, so skeleton `i` is a pure function of
/// the post-subscription RNG state and `i`. `horizon_ticks` comes from
/// [`horizon_ticks`], so every tick fits a `u32`.
pub(crate) fn draw_skeleton(
    rng: &mut SmallRng,
    subscriptions: &[Subscription],
    config: &TraceConfig,
    horizon_ticks: u64,
) -> Skeleton {
    // Zipf-ish subscription popularity: square a uniform draw.
    let u: f64 = rng.gen::<f64>();
    let sub_idx = (((u * u) * subscriptions.len() as f64) as usize).min(subscriptions.len() - 1);
    let sub = &subscriptions[sub_idx];
    let config_idx = rng.gen_range(0..sub.preferred_configs.len());
    let vm_config = sub.preferred_configs[config_idx];

    let arrival = if rng.gen_bool(config.initial_fraction) {
        0
    } else {
        rng.gen_range(0..horizon_ticks)
    };
    let lifetime = sample_lifetime(rng, vm_config);
    let departure = (arrival + lifetime.ticks()).min(horizon_ticks);
    let tick = |t: u64| u32::try_from(t).expect("horizon_ticks fits a u32");
    Skeleton {
        arrival: tick(arrival),
        departure: tick(departure.max(arrival + 1)),
        sub_idx: u32::try_from(sub_idx).expect("fewer than 2^32 subscriptions"),
        config_idx: u8::try_from(config_idx).expect("at most three preferred sizes"),
    }
}

/// The deterministic behavior-template seed for a `(subscription, config)`
/// group — a pure function of the trace seed and the group key, so both
/// generators materialize identical templates regardless of the order
/// groups are first seen in.
pub(crate) fn template_seed_for(seed: u64, group_key: (u64, u64)) -> u64 {
    seed.wrapping_mul(0x5851_F42D_4C95_7F2D)
        .wrapping_add(group_key.0.wrapping_mul(31))
        .wrapping_add(group_key.1)
}

/// The first-fit placement state machine shared by both generators: per
/// cluster, the free vectors, one fit bitset per demand shape and a
/// calendar of departures. Skeletons must be fed in the global `(arrival,
/// draw index)` order; servers grow on demand with globally sequential ids.
///
/// First fit is "the lowest server index whose free vector the demand
/// `fits_within`". A linear scan over the free vectors found it, but the
/// scan grew with the fleet: 112, 544 and 2,140 servers per VM at 100k,
/// 500k and 2M VMs, about 3 % of the servers every time. The index answers
/// the same question exactly, and the trace stays the same to the bit:
///
/// - *Same predicate on the same values.* A VM's demand comes from the
///   size catalog, so a cluster sees at most [`MAX_SHAPES`] distinct demand
///   vectors (shapes). Each shape keeps a bitset whose bit `i` is
///   `demand.fits_within(&free[i])`, recomputed for every shape whenever
///   `free[i]` changes. The lowest set bit is the scan's answer, the 1e-9
///   tolerance of `fits_within` included.
/// - *Releases in heap order.* The departure heap this replaced popped,
///   before each arrival, every entry with departure ≤ arrival in
///   `(tick, server, demand bits)` order. The calendar releases whole ticks
///   in order and sorts each tick's entries by `(server, demand bits)`
///   first, so every free vector gets the same `+=` in the same order
///   (float addition is order-sensitive). Every arrival comes before the
///   horizon, so a VM departing at the horizon is never released and is
///   not stored.
pub(crate) struct PlacementMachine {
    places: Vec<Placement>,
    next_server_id: u64,
}

/// The most distinct demand vectors one cluster may see: a server's fit
/// mask is a `u64`, one bit per shape.
const MAX_SHAPES: usize = 64;

const _: () = assert!(CORES.len() * GB_PER_CORE.len() <= MAX_SHAPES);

/// Bits of a calendar entry that name the shape; the rest name the server.
const SHAPE_BITS: u32 = MAX_SHAPES.trailing_zeros();

/// One cluster's free vectors and the indexes over them.
struct Placement {
    free: Vec<ResourceVec>,
    /// `masks[i]` has bit `k` set when shape `k` fits server `i`: the
    /// transpose of the bitsets, kept so a change to `free[i]` touches only
    /// the bitsets whose bit flips.
    masks: Vec<u64>,
    /// Every demand vector placed in this cluster so far, in first-seen
    /// order, and its `f64` bits (the intern key).
    shapes: Vec<(ResourceVec, [u64; 4])>,
    /// `fits[k]`: the servers shape `k` fits on.
    fits: Vec<FitSet>,
    departures: Calendar,
    /// Ticks below this one are released.
    released: usize,
    /// The tick being released, sorted; kept to reuse its buffer.
    due: Vec<u32>,
}

/// Marks the end of a [`Calendar`] list.
const NIL: u32 = u32::MAX;

/// The VMs that depart at each tick before the horizon, as `server <<
/// SHAPE_BITS | shape`: one singly linked list per tick, threaded through
/// one node array whose released nodes are reused. It allocates a few
/// buffers however many VMs pass through, where a buffer per tick left
/// the allocator's free lists so churned that the Oracle derive after
/// `generate` ran about a quarter slower.
struct Calendar {
    /// `head[t]`: the first node of tick `t`'s list, or `NIL`.
    head: Vec<u32>,
    /// `(entry, next node)`.
    nodes: Vec<(u32, u32)>,
    /// The first released node, chained through `next`, or `NIL`.
    spare: u32,
}

impl Calendar {
    fn new(horizon_ticks: usize) -> Self {
        Calendar {
            head: vec![NIL; horizon_ticks],
            nodes: Vec::new(),
            spare: NIL,
        }
    }

    /// File `entry` under `tick`; a tick at or past the horizon is never
    /// released, so nothing is stored for it.
    fn push(&mut self, tick: usize, entry: u32) {
        let Some(head) = self.head.get_mut(tick) else {
            return;
        };
        let node = if self.spare == NIL {
            self.nodes.push((entry, *head));
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 resident VMs")
        } else {
            let node = self.spare;
            self.spare = self.nodes[node as usize].1;
            self.nodes[node as usize] = (entry, *head);
            node
        };
        *head = node;
    }

    /// Move tick `tick`'s entries into `out`, releasing their nodes.
    fn take(&mut self, tick: usize, out: &mut Vec<u32>) {
        let mut node = std::mem::replace(&mut self.head[tick], NIL);
        while node != NIL {
            let (entry, next) = self.nodes[node as usize];
            out.push(entry);
            self.nodes[node as usize].1 = self.spare;
            self.spare = node;
            node = next;
        }
    }
}

/// A two-level bitset: `words` holds one bit per server, and `summary`
/// one bit per non-zero word, so the lowest set bit takes a summary scan
/// (a word per 4,096 servers) and one word read.
#[derive(Default)]
struct FitSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl FitSet {
    /// Flip bit `i`.
    fn flip(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
            self.summary.resize(w / 64 + 1, 0);
        }
        let word = &mut self.words[w];
        let was_empty = *word == 0;
        *word ^= 1 << (i % 64);
        if was_empty || *word == 0 {
            self.summary[w / 64] ^= 1 << (w % 64);
        }
    }

    /// The lowest set bit.
    fn first(&self) -> Option<usize> {
        let (s, &sw) = self.summary.iter().enumerate().find(|&(_, &sw)| sw != 0)?;
        let w = s * 64 + sw.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }
}

impl Placement {
    fn new(horizon_ticks: usize) -> Self {
        Placement {
            free: Vec::new(),
            masks: Vec::new(),
            shapes: Vec::new(),
            fits: Vec::new(),
            departures: Calendar::new(horizon_ticks),
            released: 0,
            due: Vec::new(),
        }
    }

    /// The shapes that fit `free`, one bit each.
    fn mask(&self, free: &ResourceVec) -> u64 {
        self.shapes
            .iter()
            .enumerate()
            .fold(0, |m, (k, (demand, _))| {
                m | u64::from(demand.fits_within(free)) << k
            })
    }

    /// The index of `demand`'s shape, interned on first sight with one
    /// scan of the free vectors.
    fn intern(&mut self, demand: ResourceVec) -> usize {
        let bits = demand.0.map(f64::to_bits);
        if let Some(k) = self.shapes.iter().position(|&(_, b)| b == bits) {
            return k;
        }
        let k = self.shapes.len();
        assert!(
            k < MAX_SHAPES,
            "a cluster sees at most {MAX_SHAPES} demand shapes"
        );
        let mut fits = FitSet::default();
        for (i, (f, mask)) in self.free.iter().zip(&mut self.masks).enumerate() {
            if demand.fits_within(f) {
                fits.flip(i);
                *mask |= 1 << k;
            }
        }
        self.shapes.push((demand, bits));
        self.fits.push(fits);
        k
    }

    /// Bring server `i`'s bit in every shape's bitset up to date with
    /// `free[i]`.
    fn refit(&mut self, i: usize) {
        let mask = self.mask(&self.free[i]);
        let mut flips = mask ^ self.masks[i];
        self.masks[i] = mask;
        while flips != 0 {
            self.fits[flips.trailing_zeros() as usize].flip(i);
            flips &= flips - 1;
        }
    }

    /// Release every VM that departs at or before `tick`, in the departure
    /// heap's `(tick, server, demand bits)` order.
    fn release_through(&mut self, tick: u32, hw_capacity: ResourceVec) {
        let shape_of = |e: u32| (e & (MAX_SHAPES as u32 - 1)) as usize;
        while self.released <= tick as usize {
            let mut due = std::mem::take(&mut self.due);
            due.clear();
            self.departures.take(self.released, &mut due);
            self.released += 1;
            let shapes = &self.shapes;
            due.sort_unstable_by_key(|&e| (e >> SHAPE_BITS, shapes[shape_of(e)].1));
            for run in due.chunk_by(|a, b| a >> SHAPE_BITS == b >> SHAPE_BITS) {
                let srv = (run[0] >> SHAPE_BITS) as usize;
                for &e in run {
                    self.free[srv] += self.shapes[shape_of(e)].0;
                    self.free[srv] = self.free[srv].min(&hw_capacity);
                }
                self.refit(srv);
            }
            self.due = due;
        }
    }
}

impl PlacementMachine {
    /// A machine for `cluster_count` clusters whose arrivals all come
    /// before tick `horizon_ticks`.
    pub(crate) fn new(cluster_count: usize, horizon_ticks: u64) -> Self {
        let ticks = usize::try_from(horizon_ticks).expect("the horizon fits in memory");
        PlacementMachine {
            places: (0..cluster_count).map(|_| Placement::new(ticks)).collect(),
            next_server_id: 0,
        }
    }

    /// Place one skeleton into `cluster_idx` (its subscription's home
    /// cluster): release departed VMs, first-fit, grow on miss. Returns the
    /// server *slot* within the cluster and, when the cluster grew, the id
    /// of the newly provisioned server.
    pub(crate) fn place(
        &mut self,
        cluster_idx: usize,
        hw_capacity: ResourceVec,
        sk: &Skeleton,
        vm_config: VmConfig,
    ) -> (usize, Option<ServerId>) {
        let place = &mut self.places[cluster_idx];
        place.release_through(sk.arrival, hw_capacity);

        // First-fit into an existing server; grow the cluster if none fits.
        let demand = vm_config.demand();
        let shape = place.intern(demand);
        let (srv_idx, grew) = match place.fits[shape].first() {
            Some(idx) => (idx, None),
            None => {
                place.free.push(hw_capacity);
                place.masks.push(0);
                let id = ServerId::new(self.next_server_id);
                self.next_server_id += 1;
                (place.free.len() - 1, Some(id))
            }
        };
        place.free[srv_idx] -= demand;
        place.refit(srv_idx);
        let entry = u32::try_from(srv_idx << SHAPE_BITS)
            .expect("a cluster has fewer than 2^26 servers")
            | shape as u32;
        place.departures.push(sk.departure as usize, entry);
        (srv_idx, grew)
    }
}

/// Generate a complete trace from the configuration.
///
/// # Example
///
/// ```
/// use coach_trace::{generate, TraceConfig};
/// let trace = generate(&TraceConfig::small(1));
/// assert_eq!(trace.vms.len(), 200);
/// assert_eq!(trace.clusters.len(), 3);
/// ```
///
/// # Panics
///
/// Panics if `vm_count` or `cluster_count` is zero.
pub fn generate(config: &TraceConfig) -> Trace {
    assert!(config.vm_count > 0 && config.cluster_count > 0);
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // --- Clusters: heterogeneous hardware so that different clusters have
    // different bottleneck resources (Fig 5: C1 CPU-bound, C4 memory-bound).
    let mut clusters = build_clusters(config.cluster_count);

    // --- Subscriptions with stable behavior and preferred configurations.
    let subscriptions = draw_subscriptions(&mut rng, config);

    // --- Draw VM skeletons (arrival, lifetime, size, subscription).
    let horizon_ticks = horizon_ticks(config);
    let skeletons: Vec<Skeleton> = (0..config.vm_count)
        .map(|_| draw_skeleton(&mut rng, &subscriptions, config, horizon_ticks))
        .collect();

    // --- Place in arrival order with first-fit; clusters grow on demand.
    // The sort is stable, so equal arrivals keep draw order — the invariant
    // the streaming generator's bucketed re-draw relies on.
    let mut order: Vec<usize> = (0..skeletons.len()).collect();
    order.sort_by_key(|&i| skeletons[i].arrival);

    let mut machine = PlacementMachine::new(config.cluster_count, horizon_ticks);

    // Behavior templates are per subscription × configuration group, created
    // lazily — this is what makes group history predictive (Fig 12).
    let mut templates: HashMap<(u64, u64), BehaviorTemplate> = HashMap::new();

    let mut vms = Vec::with_capacity(skeletons.len());

    for (vm_idx, &i) in order.iter().enumerate() {
        let sk = &skeletons[i];
        let sub = &subscriptions[sk.sub_idx as usize];
        let vm_config = sk.config(sub);
        let cluster_idx = sub.home_cluster;
        let hw_capacity = clusters[cluster_idx].hardware.capacity;
        let (srv_idx, grew) = machine.place(cluster_idx, hw_capacity, sk, vm_config);
        if let Some(id) = grew {
            clusters[cluster_idx].servers.push(id);
        }

        // Behavior: group template + per-VM jitter.
        let group_key = (sub.id.raw(), vm_config.config_key());
        let template = templates.entry(group_key).or_insert_with(|| {
            let mut trng = SmallRng::seed_from_u64(template_seed_for(config.seed, group_key));
            BehaviorTemplate::sample(&mut trng)
        });
        let profile = template.instantiate(config.seed ^ ((vm_idx as u64) << 1));

        vms.push(VmRecord {
            id: VmId::new(vm_idx as u64),
            subscription: sub.id,
            subscription_type: sub.sub_type,
            offering: sub.offering,
            config: vm_config,
            cluster: clusters[cluster_idx].id,
            server: clusters[cluster_idx].servers[srv_idx],
            arrival: sk.arrival(),
            departure: sk.departure(),
            profile,
        });
    }

    vms.sort_by_key(|vm| (vm.arrival, vm.id));

    Trace {
        clusters,
        vms,
        horizon: config.horizon,
    }
}

/// The size catalog's core counts and GB-per-core ratios, with their
/// draw weights: 28 sizes.
const CORES: [(u32, u32); 7] = [
    (1, 22),
    (2, 26),
    (4, 30),
    (8, 12),
    (16, 6),
    (32, 3),
    (40, 1),
];
const GB_PER_CORE: [(f64, u32); 4] = [(2.0, 20), (4.0, 60), (8.0, 12), (16.0, 8)];

/// VM size catalog draw. Calibration targets (§2.1, Fig 3): median 4 cores /
/// < 16 GB; ~20 % of VMs ≥ 32 GB holding ~60 % of GB-hours.
fn sample_config(rng: &mut SmallRng) -> VmConfig {
    let cores = *weighted_choice(rng, &CORES);
    let gb_per_core = *weighted_choice(rng, &GB_PER_CORE);
    catalog_size(cores, gb_per_core)
}

/// One catalog size. 0.25 Gbps and 16 GB of local SSD per core: network is
/// plentiful but can bind once CPU+memory are oversubscribed (Fig 5); SSD
/// almost never binds (<1% of the time in the paper) and strands the most
/// (Fig 4).
fn catalog_size(cores: u32, gb_per_core: f64) -> VmConfig {
    VmConfig::new(
        cores,
        f64::from(cores) * gb_per_core,
        f64::from(cores) * 0.25,
        f64::from(cores) * 16.0,
    )
}

/// Every size the generator draws, each once: the catalog's seven core
/// counts × four GB-per-core ratios.
pub fn catalog_sizes() -> impl Iterator<Item = VmConfig> {
    CORES.iter().flat_map(|&(cores, _)| {
        GB_PER_CORE
            .iter()
            .map(move |&(gb_per_core, _)| catalog_size(cores, gb_per_core))
    })
}

/// Lifetime draw. Calibration targets (§2.1, Fig 2): ~28 % of VMs last
/// > 1 day but hold ~96 % of core-hours. Larger VMs skew longer, which pushes
/// > the GB-hour share of big VMs up (Fig 3).
fn sample_lifetime(rng: &mut SmallRng, config: VmConfig) -> SimDuration {
    let long_prob = if config.memory_gb >= 32.0 { 0.45 } else { 0.26 };
    if rng.gen_bool(long_prob) {
        // Long-running: log-uniform between 1 and 14 days.
        let log_min = (TICKS_PER_DAY as f64).ln();
        let log_max = (14.0 * TICKS_PER_DAY as f64).ln();
        let ticks = (rng.gen_range(log_min..log_max)).exp() as u64;
        SimDuration::from_ticks(ticks.max(TICKS_PER_DAY + 1))
    } else {
        // Short: log-uniform between 5 minutes and 1 day.
        let log_max = (TICKS_PER_DAY as f64).ln();
        let ticks = (rng.gen_range(0.0..log_max)).exp() as u64;
        SimDuration::from_ticks(ticks.max(1))
    }
}

fn weighted_choice<'a, T>(rng: &mut SmallRng, items: &'a [(T, u32)]) -> &'a T {
    let total: u32 = items.iter().map(|(_, w)| w).sum();
    let mut draw = rng.gen_range(0..total);
    for (item, w) in items {
        if draw < *w {
            return item;
        }
        draw -= w;
    }
    &items[items.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear first fit and the heap-ordered releases the index
    /// replaced, kept as the reference it is held to.
    #[derive(Default)]
    struct LinearReference {
        free: Vec<ResourceVec>,
        /// `(departure tick, server, demand bits)`, unsorted until a
        /// release pops the smallest first.
        departures: Vec<(u32, usize, [u64; 4])>,
    }

    impl LinearReference {
        fn release_through(&mut self, tick: u32, hw: ResourceVec) {
            self.departures.sort_unstable_by(|a, b| b.cmp(a));
            while let Some(&(dep, srv, bits)) = self.departures.last() {
                if dep > tick {
                    break;
                }
                self.departures.pop();
                self.free[srv] += ResourceVec(bits.map(f64::from_bits));
                self.free[srv] = self.free[srv].min(&hw);
            }
        }

        fn place(&mut self, hw: ResourceVec, sk: &Skeleton, demand: ResourceVec) -> (usize, bool) {
            self.release_through(sk.arrival, hw);
            let found = self.free.iter().position(|f| demand.fits_within(f));
            let srv = found.unwrap_or_else(|| {
                self.free.push(hw);
                self.free.len() - 1
            });
            self.free[srv] -= demand;
            let bits = demand.0.map(f64::to_bits);
            self.departures.push((sk.departure, srv, bits));
            (srv, found.is_none())
        }
    }

    fn skeleton(arrival: u32, departure: u32) -> Skeleton {
        Skeleton {
            arrival,
            departure,
            sub_idx: 0,
            config_idx: 0,
        }
    }

    /// Every shape's bitset and every server's mask equal a fresh
    /// evaluation of `fits_within`, and the lowest set bit is the linear
    /// scan's answer.
    fn index_is_exact(placement: &Placement) -> Result<(), String> {
        for (k, (demand, _)) in placement.shapes.iter().enumerate() {
            let scan = placement.free.iter().position(|f| demand.fits_within(f));
            prop_assert_eq!(placement.fits[k].first(), scan);
            for (i, f) in placement.free.iter().enumerate() {
                let bit = placement.fits[k]
                    .words
                    .get(i / 64)
                    .map_or(0, |w| w >> (i % 64) & 1);
                let fits = demand.fits_within(f);
                prop_assert!((bit == 1) == fits, "shape {k} server {i}: bit {bit}");
                prop_assert!(
                    placement.masks[i] >> k & 1 == bit,
                    "shape {k} server {i}: mask"
                );
            }
            for (w, &word) in placement.fits[k].words.iter().enumerate() {
                let summary = placement.fits[k].summary[w / 64] >> (w % 64) & 1;
                prop_assert!((summary == 1) == (word != 0), "shape {k} word {w}");
            }
        }
        Ok(())
    }

    /// Four demand shapes whose memory sits a whole number of times under
    /// the servers' memory, give or take `slack`.
    fn shapes_and_capacity(slack: f64) -> ([VmConfig; 4], ResourceVec) {
        let shapes = [
            VmConfig::new(1, 0.7, 0.25, 16.0),
            VmConfig::new(2, 1.3, 0.5, 32.0),
            VmConfig::new(1, 0.1, 0.25, 16.0),
            VmConfig::new(4, 2.9, 1.0, 64.0),
        ];
        (
            shapes,
            ResourceVec::new(16.0, 3.0 * 0.7 + slack, 8.0, 512.0),
        )
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random place / release / grow sequences on two clusters: the
        /// index places every VM where the linear scan does, the free
        /// vectors agree to the bit, and the index stays exact. Memory
        /// capacity sits within 1e-9 of a multiple of a demand (either side
        /// of `fits_within`'s tolerance), and shape `k` first arrives after
        /// step `8 k`, when servers already exist.
        #[test]
        fn prop_indexed_first_fit_matches_linear_scan(
            steps in prop::collection::vec((0u32..3, 0usize..4, 1u32..40, 0usize..2), 1..160),
            slack_idx in 0usize..6,
        ) {
            let slack = [-2e-9, -1e-9, -0.6e-9, 0.0, 0.6e-9, 2e-9][slack_idx];
            let (shapes, hw) = shapes_and_capacity(slack);
            let mut tick = 0u32;
            let plan: Vec<(Skeleton, usize, usize)> = steps
                .iter()
                .enumerate()
                .map(|(n, &(dt, shape, life, cluster))| {
                    tick += dt;
                    (skeleton(tick, tick + life), shape.min(n / 8), cluster)
                })
                .collect();
            let mut machine = PlacementMachine::new(2, u64::from(tick) + 1);
            let mut reference = [LinearReference::default(), LinearReference::default()];
            for (sk, shape, cluster) in &plan {
                let config = shapes[*shape];
                let (srv, grew) = machine.place(*cluster, hw, sk, config);
                let expected = reference[*cluster].place(hw, sk, config.demand());
                prop_assert_eq!((srv, grew.is_some()), expected);
                for (place, reference) in machine.places.iter().zip(&reference) {
                    let bits = |f: &[ResourceVec]| -> Vec<[u64; 4]> {
                        f.iter().map(|v| v.0.map(f64::to_bits)).collect()
                    };
                    prop_assert_eq!(bits(&place.free), bits(&reference.free));
                    index_is_exact(place)?;
                }
            }
            // Releasing the rest up to the last arrival agrees too.
            for (place, reference) in machine.places.iter_mut().zip(&mut reference) {
                place.release_through(tick, hw);
                reference.release_through(tick, hw);
                prop_assert_eq!(&place.free, &reference.free);
                index_is_exact(place)?;
            }
        }
    }

    /// Two VMs on one server that depart at the same tick are released in
    /// the heap's order (smaller demand bits first), not in the order they
    /// were placed: float `+=` rounds differently the other way round.
    #[test]
    fn same_tick_departures_release_in_heap_order() {
        let hw = ResourceVec::new(16.0, 10.0, 8.0, 512.0);
        let big = VmConfig::new(1, 1.3, 0.25, 16.0);
        let small = VmConfig::new(1, 0.7, 0.25, 16.0);
        let mut machine = PlacementMachine::new(1, 6);
        assert_eq!(machine.place(0, hw, &skeleton(0, 5), big).0, 0);
        assert_eq!(machine.place(0, hw, &skeleton(0, 5), small).0, 0);
        let left = machine.places[0].free[0].memory();
        assert_eq!(left, (10.0 - 1.3) - 0.7);

        machine.places[0].release_through(5, hw);
        let heap_order = (left + 0.7) + 1.3;
        let placement_order = (left + 1.3) + 0.7;
        assert_ne!(heap_order.to_bits(), placement_order.to_bits());
        let freed = machine.places[0].free[0];
        assert_eq!(freed.memory().to_bits(), heap_order.to_bits());
        assert_eq!(freed, hw.min(&freed));
        index_is_exact(&machine.places[0]).unwrap();
    }

    /// A departure at the horizon is never released, so the calendar
    /// stores nothing for it.
    #[test]
    fn departures_at_the_horizon_are_not_stored() {
        let hw = ResourceVec::new(16.0, 10.0, 8.0, 512.0);
        let vm = VmConfig::new(1, 1.0, 0.25, 16.0);
        let mut machine = PlacementMachine::new(1, 4);
        machine.place(0, hw, &skeleton(0, 3), vm);
        machine.place(0, hw, &skeleton(1, 4), vm);
        let calendar = &mut machine.places[0].departures;
        let stored: Vec<usize> = (0..4)
            .map(|t| {
                let mut due = Vec::new();
                calendar.take(t, &mut due);
                due.len()
            })
            .collect();
        assert_eq!(stored, [0, 0, 0, 1]);
        assert_eq!(calendar.nodes.len(), 1);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&TraceConfig::small(5));
        let b = generate(&TraceConfig::small(5));
        assert_eq!(a, b);
        let c = generate(&TraceConfig::small(6));
        assert_ne!(a, c);
    }

    #[test]
    fn vms_sorted_and_within_horizon() {
        let t = generate(&TraceConfig::small(1));
        for w in t.vms.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for vm in &t.vms {
            assert!(vm.departure <= t.horizon);
            assert!(vm.arrival < vm.departure);
        }
    }

    #[test]
    fn placement_never_overcommits_allocation() {
        let t = generate(&TraceConfig::small(2));
        for probe_h in [0u64, 24, 72, 120] {
            let probe = Timestamp::from_hours(probe_h);
            let mut per_server: HashMap<ServerId, ResourceVec> = HashMap::new();
            for vm in t.alive_at(probe) {
                *per_server.entry(vm.server).or_insert(ResourceVec::ZERO) += vm.demand();
            }
            for (srv, alloc) in per_server {
                let cluster = t
                    .clusters
                    .iter()
                    .find(|c| c.servers.contains(&srv))
                    .expect("server belongs to a cluster");
                assert!(
                    alloc.fits_within(&cluster.hardware.capacity),
                    "server {srv} overcommitted: {alloc} > {}",
                    cluster.hardware.capacity
                );
            }
        }
    }

    #[test]
    fn lifetime_marginals_match_paper() {
        let t = generate(&TraceConfig::paper_scale(3));
        let n = t.vms.len() as f64;
        let long: Vec<_> = t.vms.iter().filter(|v| v.is_long_running()).collect();
        let long_frac = long.len() as f64 / n;
        // Paper: 28% of VMs last > 1 day. Generator clips lifetimes at the
        // 2-week horizon so late arrivals can't be long; accept 15-45%.
        assert!(
            (0.15..0.45).contains(&long_frac),
            "long-running fraction {long_frac}"
        );

        let total_core_hours: f64 = t.vms.iter().map(|v| v.resource_hours().cpu()).sum();
        let long_core_hours: f64 = long.iter().map(|v| v.resource_hours().cpu()).sum();
        let share = long_core_hours / total_core_hours;
        // Paper: ~96%. Accept > 85%.
        assert!(share > 0.85, "long-running core-hour share {share}");
    }

    #[test]
    fn size_marginals_match_paper() {
        let t = generate(&TraceConfig::paper_scale(4));
        let n = t.vms.len() as f64;
        let big = t.vms.iter().filter(|v| v.config.memory_gb >= 32.0);
        let big_frac = big.clone().count() as f64 / n;
        // Paper: ~20% of VMs are >= 32 GB. Accept 10-40%.
        assert!(
            (0.10..0.40).contains(&big_frac),
            "big VM fraction {big_frac}"
        );

        let total_gb_hours: f64 = t.vms.iter().map(|v| v.resource_hours().memory()).sum();
        let big_gb_hours: f64 = big.map(|v| v.resource_hours().memory()).sum();
        let share = big_gb_hours / total_gb_hours;
        // Paper: >60% of GB-hours. Accept > 0.45.
        assert!(share > 0.45, "big VM GB-hour share {share}");

        let mut cores: Vec<u32> = t.vms.iter().map(|v| v.config.cores).collect();
        cores.sort_unstable();
        assert!(cores[cores.len() / 2] <= 4, "median cores too large");
    }

    #[test]
    fn subscriptions_reuse_configs_and_clusters() {
        let t = generate(&TraceConfig::small(7));
        let mut per_sub: HashMap<SubscriptionId, (Vec<u64>, Vec<ClusterId>)> = HashMap::new();
        for vm in &t.vms {
            let e = per_sub.entry(vm.subscription).or_default();
            e.0.push(vm.config.config_key());
            e.1.push(vm.cluster);
        }
        for (_, (configs, clusters_of_sub)) in per_sub {
            let uniq_cfg: std::collections::HashSet<_> = configs.iter().collect();
            assert!(uniq_cfg.len() <= 3, "subscription uses too many configs");
            let uniq_cl: std::collections::HashSet<_> = clusters_of_sub.iter().collect();
            assert_eq!(uniq_cl.len(), 1, "subscription spans clusters");
        }
    }

    #[test]
    fn clusters_have_diverse_ratios() {
        let t = generate(&TraceConfig::paper_scale(8));
        let ratios: Vec<f64> = t
            .clusters
            .iter()
            .map(|c| c.hardware.gb_per_core())
            .collect();
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 2.0, "cluster ratios not diverse: {ratios:?}");
    }

    #[test]
    fn same_group_uses_same_template() {
        // Two VMs of the same subscription+config must share temporal shape:
        // their peak hours should be within jitter of each other.
        let t = generate(&TraceConfig::small(9));
        let mut by_group: HashMap<u64, Vec<&VmRecord>> = HashMap::new();
        for vm in &t.vms {
            by_group
                .entry(vm.group_by_subscription_and_config())
                .or_default()
                .push(vm);
        }
        let mut checked = 0;
        for (_, vms) in by_group {
            if vms.len() < 2 {
                continue;
            }
            let a = &vms[0].profile.per_resource[0];
            let b = &vms[1].profile.per_resource[0];
            let mut d = (a.peak_hour - b.peak_hour).abs();
            if d > 12.0 {
                d = 24.0 - d;
            }
            assert!(
                d < 2.0,
                "same-group peak hours differ: {} vs {}",
                a.peak_hour,
                b.peak_hour
            );
            checked += 1;
        }
        assert!(checked > 5, "too few multi-VM groups: {checked}");
    }
}
