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
//!
//! # Inference
//!
//! Nothing in a feature row is particular to one VM: every VM of a group
//! that arrives on the same weekday (with the same exact size, offering and
//! subscription type) gets the same 24 rows per resource, hence the same
//! prediction to the bit. So the one prediction routine walks the forests
//! once per distinct *key*, not once per VM, and remembers the answer in a
//! [`PredictionMemo`].
//!
//! * **The key is complete.** It holds exactly what `features` and the
//!   group lookup read: [`VmMeta::group_key`]; `cores` and the bits of
//!   `memory_gb` (`ln(cores)`, `ln(memory)` and `gb_per_core` come from
//!   these, and `config_key` truncates memory, so the group alone does not
//!   pin them); the weekday of arrival (`is_weekend` is a function of it);
//!   the offering and the subscription type. Network, SSD, the subscription
//!   beyond its group and the arrival beyond its weekday are read by
//!   nothing. `memo_key_covers_every_feature_input` perturbs each field in
//!   turn and holds equal keys to equal rows.
//! * **An entry is the prediction's buckets**: `2 × W` [`ResourceBuckets`]
//!   (`Pmax_t` per window, then `PX_t`), one byte per window × resource ×
//!   target — exactly what a [`DemandPrediction`] holds, without its
//!   window partition and inline-buffer framing. A slot is the entry's
//!   indices copied into a prediction: nothing is converted, so a memoized
//!   answer is the computed one by construction
//!   (`memoized_predictions_equal_fresh` holds random chunkings through one
//!   memo to the pre-memo routine, slot for slot).
//! * **Per batch**: a VM whose group has no history gets `None` and is
//!   never memoized; every other VM's key is looked up; feature rows are
//!   built for the misses only, once per key even when it repeats within
//!   the batch, and walked in the same tree-major
//!   [`RandomForest::predict_rows`] sweep; every slot is copied from its
//!   entry. `predict`, `predict_meta` and `predict_batch` run this with a
//!   fresh memo (so they dedup within the call); `coach_sim::Model` keeps
//!   one for its lifetime through
//!   [`UtilizationModel::predict_batch_memoized`].
//! * **Locking.** A shared memo sits in a `Mutex` held to look up and to
//!   insert, never across a forest walk. Two callers that miss the same key
//!   both compute it and the first insert is kept (the second is
//!   `debug_assert`ed equal). Only complete entries are inserted, so a
//!   panic, or a poisoned lock (recovered: every update leaves the memo
//!   valid), never leaves a half-filled entry to be served.
//! * **Bound.** At most one entry per distinct key among the group-known
//!   VMs predicted — groups with history × their exact sizes × 7 weekdays ×
//!   offerings × subscription types — however long the stream; each is
//!   48 B of buckets (6 windows) plus a 32 B table slot. There is no cap,
//!   option or knob.
//!
//! On the benchmark's `model_sweep` (8,000 VMs, four policies, 2-core box)
//! seed 2026's 7,229 group-known VMs hold 2,387 distinct keys (seed 7:
//! 7,278 and 2,435), so each policy's run walks the forests a third as
//! often: traced `predict.busy_s` 0.79 → 0.30 s (`predict.ns_per_vm`
//! 24.7 → 9.3 µs), `wall_s` halved (medians 0.99 → 0.50 s and
//! 1.21 → 0.47 s over two sets of ten pairs, change ahead 20/20),
//! `peak_bytes_per_vm` 93.5 → 96.7 B (CHANGES.md, PR 25, lists every
//! pair).
//!
//! Two designs not to build: memoizing whole `DemandPrediction`s (120 B
//! each against an entry's 48 B at six windows, for ~2.4k keys per
//! `model_sweep` policy run whose `peak_bytes_per_vm` the memo counts in;
//! at 456 B per prediction it pushed that metric past its 25 % bound), and
//! deduplicating only within one 64-VM derive chunk (the
//! chunks together still hold 6,497 distinct keys among the 7,229
//! group-known VMs: 10 % saved — the duplicates are spread across the
//! whole stream).

use crate::forest::{ForestParams, RandomForest};
use crate::tree::Columns;
use coach_trace::VmRecord;
use coach_types::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

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

/// Predicted per-window demand for one VM, as 5 % bucket indices.
///
/// Each value is a [`ResourceBuckets`] — one [`Bucket`] per resource — in
/// an inline-capable [`WindowVec`]: for every shipped partition (≤ 6
/// windows) a prediction is a single flat value of 120 B with no heap
/// allocation (at most 128 B as an `Option`, asserted at compile time),
/// which is what lets million-VM demand derivation run allocation-free
/// per VM. Downstream, a demand scales the request by the indices in
/// integers; [`DemandPrediction::pa_fraction`] and
/// [`DemandPrediction::va_fraction`] read them back as the fractions the
/// buckets encode ([`Bucket::fraction`]).
///
/// # What a decision reads
///
/// Every consumer reads a prediction through Formulas 1–2 only:
/// [`DemandPrediction::pa_fraction`] (`PA`, the largest `PX_t`),
/// [`DemandPrediction::va_fraction`] (each window's `Pmax_t` above `PA`),
/// and `coach_sched::VmDemand::from_prediction`, which builds the guarantee
/// from `PA`, each window's maximum from `max(Pmax_t, PA)`, and a
/// single-rate allocation from the largest `Pmax_t`. So two predictions
/// with the same [`DemandPrediction::decision_form`] make the same
/// decisions — under `Single` as long as `Pmax_t ≥ PX_t` in every window,
/// which holds for an oracle's peaks. The serving `coach_sim::Oracle`
/// returns predictions already in decision form; the model's forests do
/// not.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandPrediction {
    /// Window partition the predictions are made for.
    pub tw: TimeWindows,
    /// Predicted maximum utilization per window, as its bucket.
    pub pmax: WindowVec<ResourceBuckets>,
    /// Predicted PX utilization per window, as its bucket.
    pub px: WindowVec<ResourceBuckets>,
}

const _: () = assert!(std::mem::size_of::<Option<DemandPrediction>>() <= 128);

impl DemandPrediction {
    /// `Pmax_t` is the lifetime window max, `PX_t` the percentile of the
    /// per-day window maxima (Formulas 1–2), each as its bucket.
    pub fn from_buckets(tw: TimeWindows, buckets: WindowBuckets) -> Self {
        DemandPrediction {
            tw,
            pmax: buckets.lifetime_max,
            px: buckets.percentile,
        }
    }

    /// Formula (1) in buckets: per resource the largest `PX_t`.
    pub fn pa(&self) -> ResourceBuckets {
        self.px
            .iter()
            .fold(ResourceBuckets::default(), |acc, v| acc.max(v))
    }

    /// Formula (1): the guaranteed (PA) fraction per resource = the max of
    /// the PX predictions across windows.
    pub fn pa_fraction(&self) -> ResourceVec {
        self.pa().fractions()
    }

    /// Formula (2): per-window oversubscribed (VA) fraction per resource.
    pub fn va_fraction(&self, window: usize) -> ResourceVec {
        self.pmax[window]
            .fractions()
            .saturating_sub(&self.pa_fraction())
    }

    /// The *decision form*: per resource, every window's `PX_t` set to `PA`
    /// ([`DemandPrediction::pa`]) and its `Pmax_t` raised to
    /// `max(Pmax_t, PA)` — [`WindowBuckets::decision_form`]. `PA` and every
    /// [`DemandPrediction::va_fraction`] are unchanged, to the bit.
    pub fn decision_form(self) -> Self {
        let buckets = WindowBuckets {
            lifetime_max: self.pmax,
            percentile: self.px,
        }
        .decision_form();
        DemandPrediction::from_buckets(self.tw, buckets)
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
        self.predict_metas(std::slice::from_ref(vm), &Mutex::default())
            .pop()
            .expect("one slot per input")
    }

    /// [`UtilizationModel::predict`] for a whole batch: one slot per input
    /// VM, in input order, each exactly what `predict` returns for that VM.
    /// Every forest sees the rows of the batch's distinct keys in a single
    /// [`RandomForest::predict_rows`] sweep.
    pub fn predict_batch(&self, vms: &[&VmRecord]) -> Vec<Option<DemandPrediction>> {
        self.predict_batch_memoized(vms, &Mutex::default())
    }

    /// [`UtilizationModel::predict_batch`] through a memo that outlives the
    /// call: a key `memo` already holds is not walked again, and the keys
    /// this batch walks are added to it. Safe to call from several threads
    /// sharing one memo; the lock is never held across a forest walk. The
    /// memo must only ever be used with this model.
    pub fn predict_batch_memoized(
        &self,
        vms: &[&VmRecord],
        memo: &Mutex<PredictionMemo>,
    ) -> Vec<Option<DemandPrediction>> {
        let metas: Vec<VmMeta> = vms.iter().map(|vm| VmMeta::from(*vm)).collect();
        self.predict_metas(&metas, memo)
    }

    /// The one prediction routine (module docs, "Inference"): resolve each
    /// VM's key, copy the entries `memo` holds, walk each resource's two
    /// forests once over the feature rows of the keys it lacks, add those
    /// entries to `memo`, and copy every slot out of its entry.
    fn predict_metas(
        &self,
        vms: &[VmMeta],
        memo: &Mutex<PredictionMemo>,
    ) -> Vec<Option<DemandPrediction>> {
        let stride = self.entry_len();
        // One entry per distinct key of this batch, copied or computed.
        let mut local: Vec<ResourceBuckets> = Vec::new();
        let mut seen: HashMap<MemoKey, usize> = HashMap::new();
        let mut misses: Vec<Miss<'_>> = Vec::new();
        let slots: Vec<Option<usize>> = {
            let held = memo.lock().unwrap_or_else(PoisonError::into_inner);
            vms.iter()
                .map(|vm| {
                    let key = MemoKey::of(vm);
                    // A group without history gets `None`, never an entry.
                    let group = self.groups.get(&key.group)?;
                    Some(*seen.entry(key).or_insert_with(|| {
                        let entry = local.len() / stride;
                        match held.get(&key, stride) {
                            Some(buckets) => local.extend_from_slice(buckets),
                            None => {
                                local.resize(local.len() + stride, ResourceBuckets::default());
                                misses.push(Miss {
                                    entry,
                                    key,
                                    vm,
                                    group,
                                });
                            }
                        }
                        entry
                    }))
                })
                .collect()
        };

        if !misses.is_empty() {
            self.walk(&misses, &mut local);
            let mut held = memo.lock().unwrap_or_else(PoisonError::into_inner);
            for miss in &misses {
                held.insert(miss.key, &local[miss.entry * stride..][..stride]);
            }
        }
        let windows = self.config.tw.count();
        slots
            .iter()
            .map(|slot| {
                slot.map(|e| {
                    let (pmax, px) = local[e * stride..][..stride].split_at(windows);
                    DemandPrediction {
                        tw: self.config.tw,
                        pmax: pmax.iter().copied().collect(),
                        px: px.iter().copied().collect(),
                    }
                })
            })
            .collect()
    }

    /// Windows' buckets per memo entry: `TargetKind::COUNT × windows`,
    /// `Pmax_t` first.
    fn entry_len(&self) -> usize {
        TargetKind::COUNT * self.config.tw.count()
    }

    /// Where `(target, window)` sits in an entry.
    fn slot_of(&self, target: TargetKind, window: usize) -> usize {
        target.index() * self.config.tw.count() + window
    }

    /// Per resource, build the feature rows of every miss × window, run
    /// that resource's two forests over them in one tree-major sweep each,
    /// and write the bucketed results into the misses' entries of `local`.
    fn walk(&self, misses: &[Miss<'_>], local: &mut [ResourceBuckets]) {
        let tw = self.config.tw;
        let stride = self.entry_len();
        let mut rows = Vec::with_capacity(misses.len() * tw.count());
        let (mut raw_max, mut raw_px) = (Vec::new(), Vec::new());
        let bucketed = |raw: f64| Bucket::round_up(raw.clamp(0.0, 1.0));
        for kind in ResourceKind::ALL {
            rows.clear();
            for miss in misses {
                rows.extend(tw.indices().map(|w| features(miss.vm, kind, w, miss.group)));
            }
            let forests = &self.forests[kind.index()];
            forests[TargetKind::WindowMax.index()].predict_rows(&rows, &mut raw_max);
            forests[TargetKind::WindowPercentile.index()].predict_rows(&rows, &mut raw_px);

            // Rows were pushed in miss order, one per window of each miss.
            let mut raw = raw_max.iter().zip(&raw_px);
            for miss in misses {
                let entry = &mut local[miss.entry * stride..][..stride];
                for w in tw.indices() {
                    let (&vmax, &vpx) = raw.next().expect("one raw pair per row");
                    let vpx = bucketed(vpx);
                    entry[self.slot_of(TargetKind::WindowPercentile, w)][kind] = vpx;
                    // Invariant: the max prediction dominates the percentile.
                    entry[self.slot_of(TargetKind::WindowMax, w)][kind] = bucketed(vmax).max(vpx);
                }
            }
        }
    }

    /// The single-walk routine before the memo, verbatim: the reference
    /// `memoized_predictions_equal_fresh` holds the memo to.
    #[cfg(test)]
    fn predict_metas_reference(&self, vms: &[VmMeta]) -> Vec<Option<DemandPrediction>> {
        let tw = self.config.tw;
        let stats: Vec<Option<&GroupStats>> = vms
            .iter()
            .map(|vm| self.groups.get(&vm.group_key()))
            .collect();
        let blank = DemandPrediction {
            tw,
            pmax: WindowVec::from_elem(ResourceBuckets::default(), tw.count()),
            px: WindowVec::from_elem(ResourceBuckets::default(), tw.count()),
        };
        let mut out: Vec<Option<DemandPrediction>> =
            stats.iter().map(|s| s.map(|_| blank.clone())).collect();

        let mut rows = Vec::new();
        let (mut raw_max, mut raw_px) = (Vec::new(), Vec::new());
        let bucketed = |raw: f64| Bucket::round_up(raw.clamp(0.0, 1.0));
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
    ///
    /// Unbucketed: `Pmax_t` is the lifetime window max and `PX_t` the
    /// percentile of the per-day window maxima, as raw fractions.
    pub fn oracle(vm: &VmRecord, tw: TimeWindows, percentile: Percentile) -> WindowPeaks {
        vm.window_peaks(tw, percentile)
    }

    /// [`UtilizationModel::oracle`] through the pre-redesign eager pipeline,
    /// ported verbatim: materialize the full 5-minute series, build nested
    /// per-day `Option` grids per resource, collect a maxima vector per
    /// `(window, resource)`, and take its fold/percentile. Kept only as the
    /// reference the lazy path is differentially tested against (and as the
    /// baseline the derivation-speedup floor measures).
    pub fn oracle_eager(vm: &VmRecord, tw: TimeWindows, percentile: Percentile) -> WindowPeaks {
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
        WindowPeaks {
            lifetime_max: pmax,
            percentile: px,
        }
    }

    /// Build the oracle prediction from precomputed window statistics —
    /// `Pmax_t` is the lifetime window max, `PX_t` the percentile of the
    /// per-day window maxima (Formulas 1–2).
    pub fn oracle_from_stats(stats: &ResourceWindowStats, percentile: Percentile) -> WindowPeaks {
        WindowPeaks::from_stats(stats, percentile)
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

/// Exactly what [`features`] and the group lookup read of a [`VmMeta`]: two
/// VMs with equal keys get equal feature rows for every (resource, window)
/// and the same [`GroupStats`], hence the same prediction to the bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    /// [`VmMeta::group_key`]: whose history the rows read.
    group: u64,
    /// `ln(cores)`, `ln(memory)` and `gb_per_core` come from these two;
    /// `config_key` truncates memory, so the group does not pin them.
    cores: u32,
    memory_bits: u64,
    /// `is_weekend` is a function of the weekday.
    weekday: Weekday,
    offering: Offering,
    subscription_type: SubscriptionType,
}

impl MemoKey {
    fn of(vm: &VmMeta) -> MemoKey {
        MemoKey {
            group: vm.group_key(),
            cores: vm.config.cores,
            memory_bits: vm.config.memory_gb.to_bits(),
            weekday: vm.arrival.weekday(),
            offering: vm.offering,
            subscription_type: vm.subscription_type,
        }
    }
}

/// A key of the batch that no memo entry covers yet: the first VM that
/// carries it, and where its entry goes in the batch's buffer.
struct Miss<'a> {
    entry: usize,
    key: MemoKey,
    vm: &'a VmMeta,
    group: &'a GroupStats,
}

/// Bucketed predictions of one [`UtilizationModel`], one entry per distinct
/// key of its group-known VMs (module docs, "Inference").
///
/// An entry is `TargetKind::COUNT × windows` [`ResourceBuckets`], one byte
/// per resource — a prediction's indices without its framing. The memo is
/// bounded by the model, not the stream: at most one entry per (group with
/// history × exact configuration × weekday × offering × subscription type).
/// There is no size cap to set. Entries are the outputs of the model the
/// memo is used with, so a memo serves one model.
#[derive(Debug, Default)]
pub struct PredictionMemo {
    /// Key → entry number; entry `e` is `buckets[e * stride..][..stride]`.
    entries: HashMap<MemoKey, usize>,
    /// Every entry's buckets, `[target][window]`, back to back.
    buckets: Vec<ResourceBuckets>,
}

impl PredictionMemo {
    /// Number of memoized keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True until a group-known VM has been predicted through the memo.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn get(&self, key: &MemoKey, stride: usize) -> Option<&[ResourceBuckets]> {
        let &e = self.entries.get(key)?;
        Some(&self.buckets[e * stride..][..stride])
    }

    /// Keep `entry` for `key` unless a caller that missed the same key
    /// already did; both computed the same buckets.
    fn insert(&mut self, key: MemoKey, entry: &[ResourceBuckets]) {
        if let Some(kept) = self.get(&key, entry.len()) {
            debug_assert_eq!(kept, entry, "an entry depends only on its key");
            return;
        }
        // The buckets are in place before the key can lead to them.
        let e = self.buckets.len() / entry.len();
        self.buckets.extend_from_slice(entry);
        self.entries.insert(key, e);
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

    /// `small(81)`'s 200 VMs, a copy of every third under an unknown
    /// subscription, and a copy of every VM arriving on its weekday a week
    /// later at another hour (same key, other day and hour); the model;
    /// and the pre-memo routine's prediction for every slot.
    fn memo_fixture() -> &'static (Vec<VmMeta>, UtilizationModel, Vec<Option<DemandPrediction>>) {
        static FIXTURE: std::sync::OnceLock<(
            Vec<VmMeta>,
            UtilizationModel,
            Vec<Option<DemandPrediction>>,
        )> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let (trace, model) = trained();
            let mut metas: Vec<VmMeta> = trace.vms.iter().map(VmMeta::from).collect();
            for (i, vm) in trace.vms.iter().enumerate() {
                let mut meta = VmMeta::from(vm);
                if i % 3 == 0 {
                    let mut unknown = meta;
                    unknown.subscription = SubscriptionId::new(9_000_000 + i as u64);
                    metas.push(unknown);
                }
                let tick = (meta.arrival.tick_of_day() + 37 * i as u64) % TICKS_PER_DAY;
                meta.arrival = Timestamp::from_ticks(
                    Timestamp::from_days(meta.arrival.day() + 7).ticks() + tick,
                );
                metas.push(meta);
            }
            let want = model.predict_metas_reference(&metas);
            (metas, model, want)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// One memo fed the fixture's stream, rotated, in random chunks of
        /// 1–200 VMs: every slot equals the pre-memo routine's, and after
        /// each call the memo holds one entry per distinct group-known key
        /// seen so far.
        #[test]
        fn memoized_predictions_equal_fresh(
            start in 0usize..500,
            sizes in proptest::collection::vec(1usize..=200, 1..8),
        ) {
            let (metas, model, want) = memo_fixture();
            let order: Vec<usize> = (0..metas.len()).map(|i| (start + i) % metas.len()).collect();
            let memo = Mutex::default();
            let mut keys = std::collections::HashSet::new();
            let (mut at, mut known) = (0, 0);
            for &size in sizes.iter().cycle() {
                if at == order.len() {
                    break;
                }
                let chunk = &order[at..(at + size).min(order.len())];
                at += chunk.len();
                let batch: Vec<VmMeta> = chunk.iter().map(|&i| metas[i]).collect();
                let got = model.predict_metas(&batch, &memo);
                for (&i, got) in chunk.iter().zip(&got) {
                    proptest::prop_assert!(got == &want[i], "slot {}: {:?} != {:?}", i, got, want[i]);
                }
                for vm in &batch {
                    if model.groups.contains_key(&vm.group_key()) {
                        keys.insert(MemoKey::of(vm));
                        known += 1;
                    }
                }
                proptest::prop_assert_eq!(memo.lock().unwrap().len(), keys.len());
            }
            // The fixture repeats keys: the memo is smaller than the stream.
            proptest::prop_assert!(keys.len() < known, "{} keys, {} known", keys.len(), known);
        }
    }

    /// Each `VmMeta` field perturbed on its own: an equal key implies the
    /// same group and `to_bits`-equal feature rows for every (resource,
    /// window); a key that differs within one group differs in some row, so
    /// no field is in the key for nothing.
    #[test]
    fn memo_key_covers_every_feature_input() {
        let (trace, model) = trained();
        let base = trace
            .vms
            .iter()
            .map(VmMeta::from)
            .find(|vm| model.groups.contains_key(&vm.group_key()))
            .expect("a group-known VM");
        let rows = |vm: &VmMeta, group: &GroupStats| -> Vec<u64> {
            ResourceKind::ALL
                .into_iter()
                .flat_map(|kind| model.config.tw.indices().map(move |w| (kind, w)))
                .flat_map(|(kind, w)| features(vm, kind, w, group))
                .map(f64::to_bits)
                .collect()
        };
        let day_start = Timestamp::from_days(base.arrival.day());
        let other_hour = Timestamp::from_ticks(
            day_start.ticks() + (base.arrival.tick_of_day() + TICKS_PER_HOUR * 5) % TICKS_PER_DAY,
        );
        type Perturb = fn(&mut VmMeta, Timestamp);
        let cases: [(&str, Perturb, bool); 10] = [
            ("cores", |vm, _| vm.config.cores += 1, false),
            // `config_key` truncates memory: same group, other features.
            ("memory", |vm, _| vm.config.memory_gb += 0.25, false),
            ("network", |vm, _| vm.config.network_gbps += 1.0, true),
            ("ssd", |vm, _| vm.config.ssd_gb += 64.0, true),
            (
                "subscription",
                |vm, _| vm.subscription = SubscriptionId::new(vm.subscription.raw() + 1),
                false,
            ),
            (
                "subscription type",
                |vm, _| {
                    vm.subscription_type = match vm.subscription_type {
                        SubscriptionType::External => SubscriptionType::InternalTest,
                        _ => SubscriptionType::External,
                    }
                },
                false,
            ),
            (
                "offering",
                |vm, _| {
                    vm.offering = match vm.offering {
                        Offering::Iaas => Offering::Paas,
                        Offering::Paas => Offering::Iaas,
                    }
                },
                false,
            ),
            ("arrival within the day", |vm, t| vm.arrival = t, true),
            (
                "arrival a week later",
                |vm, _| vm.arrival += SimDuration::from_days(7),
                true,
            ),
            (
                "arrival on another weekday",
                |vm, _| vm.arrival += SimDuration::from_days(1),
                false,
            ),
        ];
        assert_ne!(other_hour, base.arrival);
        let group = &model.groups[&base.group_key()];
        for (name, perturb, same) in cases {
            let mut vm = base;
            perturb(&mut vm, other_hour);
            assert_ne!(vm, base, "{name}: no perturbation");
            let equal = MemoKey::of(&vm) == MemoKey::of(&base);
            assert_eq!(equal, same, "{name}");
            let same_group = vm.group_key() == base.group_key();
            if equal {
                assert!(same_group, "{name}: equal key, other group");
                assert_eq!(rows(&vm, group), rows(&base, group), "{name}");
            } else if same_group {
                assert_ne!(rows(&vm, group), rows(&base, group), "{name}");
            }
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
                        word(p.pmax[w][kind].fraction().to_bits());
                        word(p.px[w][kind].fraction().to_bits());
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
                    let m = p.pmax[w][kind].fraction();
                    let x = p.px[w][kind].fraction();
                    assert!((0.0..=1.0).contains(&m));
                    assert!(m >= x - 1e-9, "max {m} < px {x}");
                    // 5% bucket grid.
                    assert!((m * 20.0 - (m * 20.0).round()).abs() < 1e-6);
                }
            }
            // Formula 1/2 invariants.
            let pa = p.pa_fraction();
            for w in 0..6 {
                assert!(p.px[w].fractions().fits_within(&pa));
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
                assert!(o.lifetime_max[w][kind] >= o.percentile[w][kind] - 1e-6);
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
            err_sum += (p.pa_fraction()[ResourceKind::Memory] - o.pa()[ResourceKind::Memory]).abs();
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
