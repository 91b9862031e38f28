//! The cluster-level, long-term utilization model (§3.3).
//!
//! A random forest predicts, for each new VM, the **maximum** and the **PX
//! percentile** (default P95) utilization of every resource in every time
//! window, in 5 % buckets. Features are exactly the paper's: VM-specific
//! (configuration, weekday of allocation, offering) and customer-specific
//! (subscription type, history of previous VMs in the same subscription ×
//! configuration group). All inputs come from platform telemetry — no user
//! input.
//!
//! VMs whose group has no history are *not* oversubscribed (the model
//! returns `None`), the paper's conservative fallback.

use crate::forest::{ForestParams, RandomForest};
use crate::tree::Columns;
use coach_trace::VmRecord;
use coach_types::prelude::*;
use std::collections::HashMap;

/// Number of features fed to the forest.
pub const FEATURE_COUNT: usize = 12;

/// What a forest predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetKind {
    /// The maximum utilization in the window (`Pmax_t` of Formula 2).
    WindowMax,
    /// The PX percentile of the window's per-day maxima (`PX_t` of
    /// Formula 1).
    WindowPercentile,
}

impl TargetKind {
    /// Number of targets.
    pub const COUNT: usize = 2;

    /// Dense index (0..COUNT) for array-backed storage.
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Window partition (paper default: 6×4 h).
    pub tw: TimeWindows,
    /// Prediction percentile for the guaranteed portion (paper: P95).
    pub percentile: Percentile,
    /// Forest hyperparameters.
    pub forest: ForestParams,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            tw: TimeWindows::paper_default(),
            percentile: Percentile::P95,
            forest: ForestParams::default(),
        }
    }
}

/// Predicted per-window demand fractions for one VM.
///
/// The per-window vectors live in inline-capable [`WindowVec`]s: for every
/// shipped partition (≤ 6 windows) a prediction is a single flat value with
/// no heap allocation, which is what lets million-VM demand derivation run
/// allocation-free per VM.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandPrediction {
    /// Window partition the predictions are made for.
    pub tw: TimeWindows,
    /// Predicted maximum utilization per window (bucketed up).
    pub pmax: WindowVec,
    /// Predicted PX utilization per window (bucketed up).
    pub px: WindowVec,
}

impl DemandPrediction {
    /// `Pmax_t` is the lifetime window max, `PX_t` the percentile of the
    /// per-day window maxima (Formulas 1–2).
    fn from_peaks(tw: TimeWindows, peaks: WindowPeaks) -> Self {
        DemandPrediction {
            tw,
            pmax: peaks.lifetime_max,
            px: peaks.percentile,
        }
    }

    /// Formula (1): the guaranteed (PA) fraction per resource = the max of
    /// the PX predictions across windows.
    pub fn pa_fraction(&self) -> ResourceVec {
        self.px.iter().fold(ResourceVec::ZERO, |acc, v| acc.max(v))
    }

    /// Formula (2): per-window oversubscribed (VA) fraction per resource.
    pub fn va_fraction(&self, window: usize) -> ResourceVec {
        self.pmax[window].saturating_sub(&self.pa_fraction())
    }
}

/// Per-group (subscription × configuration) historical statistics.
#[derive(Debug, Clone, PartialEq, Default)]
struct GroupStats {
    /// Number of historical VMs.
    count: usize,
    /// Mean per-day window max, per resource × window.
    mean: Vec<ResourceVec>,
    /// Mean lifetime peak per resource.
    mean_peak: ResourceVec,
}

/// The trained model: group history + one forest per (resource, target).
#[derive(Debug, Clone)]
pub struct UtilizationModel {
    config: ModelConfig,
    groups: HashMap<u64, GroupStats>,
    /// Indexed `[kind.index()][target.index()]`.
    forests: [[RandomForest; TargetKind::COUNT]; ResourceKind::COUNT],
    training_rows: usize,
}

impl UtilizationModel {
    /// Train on historical VM records (the paper trains daily, offline, on
    /// aggregated telemetry; §4.5). Only VMs with ≥ 1 full day of data
    /// contribute targets.
    ///
    /// # Panics
    ///
    /// Panics if `history` contains no usable (≥ 1 day) VM.
    pub fn train(history: &[&VmRecord], config: ModelConfig) -> Self {
        Self::train_on(history, config, available_threads())
    }

    /// [`UtilizationModel::train`] on up to `threads` workers; the model
    /// does not depend on `threads`.
    fn train_on(history: &[&VmRecord], config: ModelConfig, threads: usize) -> Self {
        let (groups, usable) = group_history(history, config.tw, threads);
        let usable = resolve_groups(&groups, &usable);
        let mut rows = 0usize;
        let forests = ResourceKind::ALL.map(|kind| {
            let (xs, ys) = resource_training_set(&usable, kind, &config);
            rows += TargetKind::COUNT * xs.len();
            // A resource's two targets share one feature matrix.
            let xs = Columns::from_rows(&xs);
            ys.map(|y| RandomForest::fit_columns(&xs, &y, config.forest, threads))
        });

        UtilizationModel {
            config,
            groups,
            forests,
            training_rows: rows,
        }
    }

    /// The feature rows [`UtilizationModel::train`] fits `kind`'s two
    /// forests on, and their targets indexed by [`TargetKind::index`] — for
    /// benches that time [`RandomForest::fit`] on the shape that is actually
    /// trained.
    ///
    /// # Panics
    ///
    /// Panics if `history` contains no usable (≥ 1 day) VM.
    pub fn training_set(
        history: &[&VmRecord],
        config: &ModelConfig,
        kind: ResourceKind,
    ) -> (Vec<[f64; FEATURE_COUNT]>, [Vec<f64>; TargetKind::COUNT]) {
        let (groups, usable) = group_history(history, config.tw, available_threads());
        resource_training_set(&resolve_groups(&groups, &usable), kind, config)
    }

    /// Predict per-window demand for a new VM, or `None` if its group has no
    /// history (the conservative no-oversubscription fallback).
    pub fn predict(&self, vm: &VmRecord) -> Option<DemandPrediction> {
        self.predict_meta(&VmMeta::from(vm))
    }

    /// Predict from request-time metadata alone (no observed series needed)
    /// — what the cluster manager calls when a VM creation request arrives.
    pub fn predict_meta(&self, vm: &VmMeta) -> Option<DemandPrediction> {
        self.predict_metas(std::slice::from_ref(vm))
            .pop()
            .expect("one slot per input")
    }

    /// [`UtilizationModel::predict`] for a whole batch: one slot per input
    /// VM, in input order, each exactly what `predict` returns for that VM.
    /// Every forest sees the batch's feature rows in a single
    /// [`RandomForest::predict_rows`] sweep.
    pub fn predict_batch(&self, vms: &[&VmRecord]) -> Vec<Option<DemandPrediction>> {
        let metas: Vec<VmMeta> = vms.iter().map(|vm| VmMeta::from(*vm)).collect();
        self.predict_metas(&metas)
    }

    /// The one prediction routine: per resource, build the feature rows of
    /// every group-known VM × window once, run that resource's two forests
    /// over them, and scatter the bucketed results into the VMs' slots.
    fn predict_metas(&self, vms: &[VmMeta]) -> Vec<Option<DemandPrediction>> {
        let tw = self.config.tw;
        let stats: Vec<Option<&GroupStats>> = vms
            .iter()
            .map(|vm| self.groups.get(&vm.group_key()))
            .collect();
        let blank = DemandPrediction {
            tw,
            pmax: WindowVec::from_elem(ResourceVec::ZERO, tw.count()),
            px: WindowVec::from_elem(ResourceVec::ZERO, tw.count()),
        };
        let mut out: Vec<Option<DemandPrediction>> =
            stats.iter().map(|s| s.map(|_| blank.clone())).collect();

        let mut rows = Vec::new();
        let (mut raw_max, mut raw_px) = (Vec::new(), Vec::new());
        let bucketed = |raw: f64| bucket_up(raw.clamp(0.0, 1.0));
        for kind in ResourceKind::ALL {
            rows.clear();
            for (vm, stats) in vms.iter().zip(&stats) {
                if let Some(stats) = stats {
                    rows.extend(tw.indices().map(|w| features(vm, kind, w, stats)));
                }
            }
            let forests = &self.forests[kind.index()];
            forests[TargetKind::WindowMax.index()].predict_rows(&rows, &mut raw_max);
            forests[TargetKind::WindowPercentile.index()].predict_rows(&rows, &mut raw_px);

            // Rows were pushed in slot order, one per window of each known VM.
            let mut raw = raw_max.iter().zip(&raw_px);
            for p in out.iter_mut().flatten() {
                for w in tw.indices() {
                    let (&vmax, &vpx) = raw.next().expect("one raw pair per row");
                    let vpx = bucketed(vpx);
                    p.px[w][kind] = vpx;
                    // Invariant: the max prediction dominates the percentile.
                    p.pmax[w][kind] = bucketed(vmax).max(vpx);
                }
            }
        }
        out
    }

    /// The *oracle* prediction computed from a VM's own utilization — the
    /// "ideal allocation" baseline of the Fig 19 accuracy experiment.
    ///
    /// Derived through [`VmRecord::window_peaks`]: Formulas 1–2 read two
    /// numbers per window and resource, and the profile's order-statistic
    /// scan derives exactly those — most `(day, window)` cells are never
    /// resolved, and no series is materialized. The result is
    /// bit-identical to [`UtilizationModel::oracle_from_stats`] over the
    /// exact [`VmRecord::window_stats`] (held equal by
    /// `oracle_equals_oracle_from_exact_stats`);
    /// [`UtilizationModel::oracle_eager`] is the retained materializing
    /// path for differential testing.
    pub fn oracle(vm: &VmRecord, tw: TimeWindows, percentile: Percentile) -> DemandPrediction {
        DemandPrediction::from_peaks(tw, vm.window_peaks(tw, percentile))
    }

    /// [`UtilizationModel::oracle`] through the pre-redesign eager pipeline,
    /// ported verbatim: materialize the full 5-minute series, build nested
    /// per-day `Option` grids per resource, collect a maxima vector per
    /// `(window, resource)`, and take its fold/percentile. Kept only as the
    /// reference the lazy path is differentially tested against (and as the
    /// baseline the derivation-speedup floor measures).
    pub fn oracle_eager(
        vm: &VmRecord,
        tw: TimeWindows,
        percentile: Percentile,
    ) -> DemandPrediction {
        // The old `UtilSeries::window_max_per_day`, preserved here after
        // its replacement by the flat one-pass `WindowStats`.
        fn window_max_per_day(s: &UtilSeries, tw: TimeWindows) -> Vec<Vec<Option<f32>>> {
            if s.is_empty() {
                return Vec::new();
            }
            let first_day = s.start().day();
            let last_day = Timestamp::from_ticks(s.end().ticks().saturating_sub(1)).day();
            let days = (last_day - first_day + 1) as usize;
            let mut out = vec![vec![None; tw.count()]; days];
            for (i, &v) in s.samples().iter().enumerate() {
                let t = Timestamp::from_ticks(s.start().ticks() + i as u64);
                let d = (t.day() - first_day) as usize;
                let w = tw.window_of(t);
                let slot = &mut out[d][w];
                *slot = Some(slot.map_or(v, |prev: f32| prev.max(v)));
            }
            out
        }

        // The old `window_maxima`: per-(day, window) `ResourceVec` grid,
        // uncovered windows as zero.
        let series = vm.materialized();
        let mut per_day: Vec<Vec<ResourceVec>> = Vec::new();
        for kind in ResourceKind::ALL {
            let grid = window_max_per_day(series.get(kind), tw);
            if per_day.is_empty() {
                per_day = vec![vec![ResourceVec::ZERO; tw.count()]; grid.len()];
            }
            for (d, day) in grid.iter().enumerate() {
                for (w, v) in day.iter().enumerate() {
                    per_day[d][w][kind] = f64::from(v.unwrap_or(0.0));
                }
            }
        }

        let mut pmax = WindowVec::new();
        let mut px = WindowVec::new();
        for w in tw.indices() {
            let mut vmax = ResourceVec::ZERO;
            let mut vpx = ResourceVec::ZERO;
            for kind in ResourceKind::ALL {
                let maxima: Vec<f32> = per_day.iter().map(|d| d[w][kind] as f32).collect();
                vmax[kind] = f64::from(maxima.iter().copied().fold(0.0f32, f32::max));
                vpx[kind] = f64::from(coach_types::series::percentile_of(&maxima, percentile));
            }
            pmax.push(vmax);
            px.push(vpx);
        }
        DemandPrediction { tw, pmax, px }
    }

    /// Build the oracle prediction from precomputed window statistics —
    /// `Pmax_t` is the lifetime window max, `PX_t` the percentile of the
    /// per-day window maxima (Formulas 1–2).
    pub fn oracle_from_stats(
        stats: &ResourceWindowStats,
        percentile: Percentile,
    ) -> DemandPrediction {
        DemandPrediction::from_peaks(stats.tw(), WindowPeaks::from_stats(stats, percentile))
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of (feature row, target) pairs used in training.
    pub fn training_rows(&self) -> usize {
        self.training_rows
    }

    /// Approximate model memory (forests + group table), §4.5.
    pub fn approx_size_bytes(&self) -> usize {
        let forest_bytes: usize = self
            .forests
            .iter()
            .flatten()
            .map(RandomForest::approx_size_bytes)
            .sum();
        let group_bytes = self.groups.len()
            * (std::mem::size_of::<u64>()
                + std::mem::size_of::<GroupStats>()
                + self.config.tw.count() * std::mem::size_of::<ResourceVec>());
        forest_bytes + group_bytes
    }

    /// Number of groups with history.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

/// Pass 1 of training: the usable (≥ 1 day) VMs with their window
/// statistics, and the group statistics over them (these are also
/// features). Window statistics are derived lazily from each VM's profile —
/// training never materializes a utilization series — one VM per worker at
/// a time.
fn group_history(
    history: &[&VmRecord],
    tw: TimeWindows,
    threads: usize,
) -> (HashMap<u64, GroupStats>, Vec<(VmMeta, ResourceWindowStats)>) {
    let long_enough: Vec<&VmRecord> = history
        .iter()
        .copied()
        .filter(|vm| vm.lifetime() >= SimDuration::from_days(1))
        .collect();
    assert!(
        !long_enough.is_empty(),
        "no usable training VMs (need >= 1 day)"
    );
    let window_stats = par_map_threads(&long_enough, threads, |vm| vm.window_stats(tw));
    let usable: Vec<(VmMeta, ResourceWindowStats)> = long_enough
        .into_iter()
        .map(VmMeta::from)
        .zip(window_stats)
        .collect();

    let mut groups: HashMap<u64, GroupStats> = HashMap::new();
    for (vm, stats) in &usable {
        let entry = groups.entry(vm.group_key()).or_insert_with(|| GroupStats {
            count: 0,
            mean: vec![ResourceVec::ZERO; tw.count()],
            mean_peak: ResourceVec::ZERO,
        });
        // Per-VM mean of per-day window maxima; peak across all.
        let mut vm_mean = vec![ResourceVec::ZERO; tw.count()];
        let mut vm_peak = ResourceVec::ZERO;
        let days = stats.days().max(1) as f64;
        for d in 0..stats.days() {
            for (w, slot) in vm_mean.iter_mut().enumerate() {
                let v = stats.day_window_max(d, w);
                *slot += v / days;
                vm_peak = vm_peak.max(&v);
            }
        }
        // Incremental mean over VMs.
        let n = entry.count as f64;
        for (mean, vm) in entry.mean.iter_mut().zip(&vm_mean) {
            *mean = (*mean * n + *vm) / (n + 1.0);
        }
        entry.mean_peak = (entry.mean_peak * n + vm_peak) / (n + 1.0);
        entry.count += 1;
    }
    (groups, usable)
}

/// Each usable VM beside its group's statistics, looked up once for all
/// four resources.
fn resolve_groups<'a>(
    groups: &'a HashMap<u64, GroupStats>,
    usable: &'a [(VmMeta, ResourceWindowStats)],
) -> Vec<(&'a VmMeta, &'a GroupStats, &'a ResourceWindowStats)> {
    usable
        .iter()
        .map(|(vm, window_stats)| (vm, &groups[&vm.group_key()], window_stats))
        .collect()
}

/// Pass 2 of training, for one resource: a feature row and both targets per
/// usable VM × window. Features must only use *other* VMs' history in
/// principle; using the full-pass group means is a standard simplification
/// that keeps training O(n).
fn resource_training_set(
    usable: &[(&VmMeta, &GroupStats, &ResourceWindowStats)],
    kind: ResourceKind,
    config: &ModelConfig,
) -> (Vec<[f64; FEATURE_COUNT]>, [Vec<f64>; TargetKind::COUNT]) {
    let mut xs = Vec::new();
    let mut ys = [const { Vec::new() }; TargetKind::COUNT];
    for (vm, group, window_stats) in usable {
        let ws = window_stats.get(kind);
        for w in config.tw.indices() {
            xs.push(features(vm, kind, w, group));
            // Targets straight from the windowed statistics.
            ys[TargetKind::WindowMax.index()].push(f64::from(ws.lifetime_max(w)));
            ys[TargetKind::WindowPercentile.index()]
                .push(f64::from(ws.maxima_percentile(w, config.percentile)));
        }
    }
    (xs, ys)
}

/// Request-time metadata of a VM: everything the prediction model may use
/// (§3.3 — "the existing platform telemetry already collects all these
/// inputs in the background, requiring no user input").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmMeta {
    /// Requested size.
    pub config: VmConfig,
    /// Customer subscription.
    pub subscription: SubscriptionId,
    /// Subscription type.
    pub subscription_type: SubscriptionType,
    /// Offering (IaaS/PaaS).
    pub offering: Offering,
    /// Allocation time (weekday features).
    pub arrival: Timestamp,
}

impl VmMeta {
    /// The subscription × configuration grouping key (Fig 12's grouping 3).
    pub fn group_key(&self) -> u64 {
        self.subscription
            .raw()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.config.config_key())
    }
}

impl From<&VmRecord> for VmMeta {
    fn from(vm: &VmRecord) -> VmMeta {
        VmMeta {
            config: vm.config,
            subscription: vm.subscription,
            subscription_type: vm.subscription_type,
            offering: vm.offering,
            arrival: vm.arrival,
        }
    }
}

/// Build the feature row for (VM, resource, window).
fn features(
    vm: &VmMeta,
    kind: ResourceKind,
    window: usize,
    group: &GroupStats,
) -> [f64; FEATURE_COUNT] {
    let weekday = vm.arrival.weekday();
    [
        f64::from(vm.config.cores).ln(),
        vm.config.memory_gb.ln(),
        vm.config.gb_per_core(),
        weekday.index() as f64,
        if vm.arrival.is_weekend() { 1.0 } else { 0.0 },
        match vm.offering {
            Offering::Iaas => 1.0,
            Offering::Paas => 0.0,
        },
        match vm.subscription_type {
            SubscriptionType::InternalProduction => 0.0,
            SubscriptionType::InternalTest => 1.0,
            SubscriptionType::External => 2.0,
        },
        window as f64,
        kind.index() as f64,
        (1.0 + group.count as f64).ln(),
        group.mean[window][kind],
        group.mean_peak[kind],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_trace::{generate, TraceConfig};

    fn trained() -> (coach_trace::Trace, UtilizationModel) {
        let trace = generate(&TraceConfig::small(81));
        let (train, _) = trace.split_by_arrival(Timestamp::from_days(4));
        let model = UtilizationModel::train(&train, small_forest(Percentile::P95));
        (trace, model)
    }

    /// `predict_batch` == per-item `predict`, slot for slot, on a batch
    /// that interleaves unknown-group VMs (their `None`s keep their
    /// positions) and is not a multiple of the lane width, for a P95 and a
    /// P50 model.
    #[test]
    fn predict_batch_matches_per_item_predict() {
        let trace = generate(&TraceConfig::small(84));
        let (train, test) = trace.split_by_arrival(Timestamp::from_days(4));
        for percentile in [Percentile::P95, Percentile::P50] {
            let model = UtilizationModel::train(
                &train,
                ModelConfig {
                    percentile,
                    forest: ForestParams {
                        n_trees: 6,
                        ..ForestParams::default()
                    },
                    ..ModelConfig::default()
                },
            );
            let mut batch: Vec<VmRecord> = Vec::new();
            for (i, vm) in test.iter().take(75).enumerate() {
                let mut vm = (*vm).clone();
                if i % 3 == 1 {
                    vm.subscription = SubscriptionId::new(9_000_000 + i as u64);
                }
                batch.push(vm);
            }
            let refs: Vec<&VmRecord> = batch.iter().collect();
            let got = model.predict_batch(&refs);
            assert_eq!(got.len(), refs.len());
            let want: Vec<_> = refs.iter().map(|vm| model.predict(vm)).collect();
            assert_eq!(got, want, "{percentile:?}");
            let known = want.iter().flatten().count();
            assert!(known > 10, "only {known} group-known VMs in the batch");
            assert!(want.iter().skip(1).step_by(3).all(Option::is_none));
            assert!(model.predict_batch(&[]).is_empty());
        }
    }

    fn small_forest(percentile: Percentile) -> ModelConfig {
        ModelConfig {
            percentile,
            forest: ForestParams {
                n_trees: 12,
                ..ForestParams::default()
            },
            ..ModelConfig::default()
        }
    }

    /// Same trees as PR 21, which trained them serially from row-major
    /// rows: the constants were recorded at that commit. FNV-1a over every
    /// bucketed `pmax` / `px` bit the model predicts for `small(81)`'s 200
    /// VMs (`u64::MAX` for an unknown group), then over every forest's raw
    /// output for the group-known rows, plus the model's size. A change that
    /// grows different trees on purpose (histogram-binned splits, ROADMAP's
    /// parked item) re-records these and says so.
    #[test]
    fn trained_model_matches_pinned_digest() {
        let trace = generate(&TraceConfig::small(81));
        let (train, _) = trace.split_by_arrival(Timestamp::from_days(4));
        let all: Vec<&VmRecord> = trace.vms.iter().collect();
        let metas: Vec<VmMeta> = all.iter().map(|vm| VmMeta::from(*vm)).collect();
        for (percentile, digest, bytes) in [
            (Percentile::P95, 159_043_370_127_182_459_u64, 166_800),
            (Percentile::P50, 3_546_127_260_220_190_663_u64, 167_856),
        ] {
            let model = UtilizationModel::train(&train, small_forest(percentile));
            let mut h = 0xcbf2_9ce4_8422_2325_u64;
            let mut word = |w: u64| {
                for byte in w.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            for p in model.predict_batch(&all) {
                let Some(p) = p else {
                    word(u64::MAX);
                    continue;
                };
                for w in p.tw.indices() {
                    for kind in ResourceKind::ALL {
                        word(p.pmax[w][kind].to_bits());
                        word(p.px[w][kind].to_bits());
                    }
                }
            }
            let mut raw = Vec::new();
            for kind in ResourceKind::ALL {
                let mut rows = Vec::new();
                for meta in &metas {
                    if let Some(stats) = model.groups.get(&meta.group_key()) {
                        rows.extend(
                            model
                                .config
                                .tw
                                .indices()
                                .map(|w| features(meta, kind, w, stats)),
                        );
                    }
                }
                for forest in &model.forests[kind.index()] {
                    forest.predict_rows(&rows, &mut raw);
                    raw.iter().for_each(|v| word(v.to_bits()));
                }
            }
            assert_eq!(
                (h, model.approx_size_bytes()),
                (digest, bytes),
                "{percentile:?}"
            );
        }
    }

    /// The worker count decides who fits a tree, not what is fitted.
    #[test]
    fn train_is_thread_count_invariant() {
        let trace = generate(&TraceConfig::small(81));
        let (train, _) = trace.split_by_arrival(Timestamp::from_days(4));
        let all: Vec<&VmRecord> = trace.vms.iter().collect();
        let config = small_forest(Percentile::P95);
        let serial = UtilizationModel::train_on(&train, config, 1);
        let four = UtilizationModel::train_on(&train, config, 4);
        assert_eq!(serial.forests, four.forests);
        assert_eq!(serial.groups, four.groups);
        let predicted = serial.predict_batch(&all);
        assert_eq!(predicted, four.predict_batch(&all));
        assert!(predicted.iter().flatten().count() > 100);
    }

    #[test]
    fn predictions_are_bucketed_and_consistent() {
        let (trace, model) = trained();
        let mut predicted = 0;
        for vm in trace.vms.iter().rev().take(50) {
            let Some(p) = model.predict(vm) else { continue };
            predicted += 1;
            assert_eq!(p.pmax.len(), 6);
            for w in 0..6 {
                for kind in ResourceKind::ALL {
                    let m = p.pmax[w][kind];
                    let x = p.px[w][kind];
                    assert!((0.0..=1.0).contains(&m));
                    assert!(m >= x - 1e-9, "max {m} < px {x}");
                    // 5% bucket grid.
                    assert!((m * 20.0 - (m * 20.0).round()).abs() < 1e-6);
                }
            }
            // Formula 1/2 invariants.
            let pa = p.pa_fraction();
            for w in 0..6 {
                assert!(p.px[w].fits_within(&pa));
                assert!(p.va_fraction(w).is_valid());
            }
        }
        assert!(predicted > 5, "model predicted only {predicted} VMs");
    }

    #[test]
    fn unknown_group_returns_none() {
        let (trace, model) = trained();
        let mut vm = trace.vms[0].clone();
        vm.subscription = SubscriptionId::new(9_999_999);
        assert!(model.predict(&vm).is_none());
    }

    #[test]
    fn oracle_invariants() {
        let trace = generate(&TraceConfig::small(83));
        let vm = trace.long_running().next().unwrap();
        let o = UtilizationModel::oracle(vm, TimeWindows::paper_default(), Percentile::P95);
        for w in 0..6 {
            for kind in ResourceKind::ALL {
                assert!(o.pmax[w][kind] >= o.px[w][kind] - 1e-6);
            }
        }
    }

    /// The order-statistic derive against the exact statistics, one layer
    /// above the kernel's own proptests: every VM of a trace (short ones
    /// included — `oracle` itself has no lifetime cut-off), three
    /// percentiles, exact `==` on the whole prediction.
    #[test]
    fn oracle_equals_oracle_from_exact_stats() {
        let trace = generate(&TraceConfig::small(85));
        let tw = TimeWindows::paper_default();
        for percentile in [Percentile::P50, Percentile::P80, Percentile::P95] {
            for vm in &trace.vms {
                assert_eq!(
                    UtilizationModel::oracle(vm, tw, percentile),
                    UtilizationModel::oracle_from_stats(&vm.window_stats(tw), percentile),
                    "vm {} {percentile}",
                    vm.id
                );
            }
        }
        assert!(trace.long_running().count() > 50);
    }

    #[test]
    fn predictions_track_oracle_for_memory() {
        // The model must beat a naive 100%-allocation guess: mean absolute
        // error vs the oracle PA fraction should be well under 0.5.
        let (trace, model) = trained();
        let tw = TimeWindows::paper_default();
        let mut err_sum = 0.0;
        let mut n = 0usize;
        for vm in trace.long_running() {
            if vm.arrival < Timestamp::from_days(4) {
                continue; // training half
            }
            let Some(p) = model.predict(vm) else { continue };
            let o = UtilizationModel::oracle(vm, tw, Percentile::P95);
            err_sum += (p.pa_fraction()[ResourceKind::Memory]
                - o.pa_fraction()[ResourceKind::Memory])
                .abs();
            n += 1;
        }
        assert!(n > 3, "too few test VMs: {n}");
        let mae = err_sum / n as f64;
        assert!(mae < 0.25, "memory PA MAE too high: {mae}");
    }

    #[test]
    fn model_size_and_rows_reported() {
        let (_, model) = trained();
        assert!(model.training_rows() > 0);
        assert!(model.approx_size_bytes() > 0);
        assert!(model.group_count() > 0);
    }

    #[test]
    #[should_panic(expected = "usable")]
    fn training_needs_long_vms() {
        let _ = UtilizationModel::train(&[], ModelConfig::default());
    }
}
