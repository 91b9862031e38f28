//! Prediction sources for the cluster simulations, behind the object-safe
//! [`Predictor`] trait.
//!
//! The experiments (`packing_experiment`, `policy_sweep`,
//! `predictor_accuracy`) take `&dyn Predictor`, so adding a new prediction
//! source is implementing one trait — no enum to extend, no experiment code
//! to touch. Three sources ship:
//!
//! * [`Oracle`] — percentiles of each VM's own utilization, derived
//!   *lazily* from the behavior profile's closed form on every call, and
//!   returned in decision form: only as far as Formulas 1–2's demand
//!   reads them ([`VmRecord::window_decision_buckets`],
//!   [`DemandPrediction::decision_form`]);
//! * [`Model`] — the trained long-term random forest (§3.3), walked once
//!   per distinct feature key and memoized;
//! * [`NaiveReference`] — the old eager path (materialize the 5-minute
//!   series, walk its samples), retained purely for differential testing
//!   against [`Oracle`]: its decision form is the Oracle's answer.

use coach_predict::{DemandPrediction, PredictionMemo, UtilizationModel};
use coach_trace::VmRecord;
use coach_types::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Where per-VM demand predictions come from.
///
/// Object-safe and `Sync` (experiments fan policies out across threads and
/// share one predictor). Implementations must be deterministic in
/// `(vm, percentile)` — replays assert decision identity across runs.
pub trait Predictor: Sync {
    /// The window partition predictions are expressed over.
    fn time_windows(&self) -> TimeWindows;

    /// Predict per-window demand fractions for a VM, or `None` for the
    /// conservative no-oversubscription fallback.
    ///
    /// `percentile` selects the PX of the guaranteed portion where the
    /// source supports it; model-backed sources use the percentile they
    /// were trained with (the model *is* the artifact under test).
    fn predict(&self, vm: &VmRecord, percentile: Percentile) -> Option<DemandPrediction>;

    /// Predict a whole batch of VMs at once, returning one slot per input
    /// VM **in input order**.
    ///
    /// The default forwards each VM to [`Predictor::predict`]. Sources with
    /// a cheaper batch form override it — [`Model`] walks the rows of the
    /// batch's not-yet-memoized keys through each tree of its forests
    /// while the tree is cache-resident —
    /// but every override must return exactly what the per-item loop
    /// would: `predict_batch` is a throughput entry point, never a
    /// semantic one (the `predict_batch_matches_per_item_loop`
    /// differential test holds all shipped sources to this).
    ///
    /// How the serving controller calls it: on one thread per session —
    /// the sharded dispatcher's, when a lone shard has a core to spare
    /// and its segments are derived before they are sent, otherwise the
    /// thread placing the shard (several shards may call one predictor
    /// at once — hence `Sync`); serially and in arrival-stream order for
    /// any one controller, so an implementation may keep call-order state
    /// (a recording wrapper's log); with unspecified batch boundaries — an
    /// implementation must not depend on where one batch ends and the
    /// next begins. A panic in here surfaces on the caller of the session
    /// with its own message.
    fn predict_batch(
        &self,
        vms: &[&VmRecord],
        percentile: Percentile,
    ) -> Vec<Option<DemandPrediction>> {
        vms.iter().map(|vm| self.predict(vm, percentile)).collect()
    }
}

/// Conservative 5 % bucket rounding, as the platform applies to every
/// oracle-derived fraction.
fn bucket_prediction(p: &mut DemandPrediction) {
    for v in p.pmax.iter_mut().chain(p.px.iter_mut()) {
        for kind in ResourceKind::ALL {
            v[kind] = bucket_up(v[kind]);
        }
    }
}

/// Short VMs (< 1 day) have no usable history and are never oversubscribed.
fn too_short(vm: &VmRecord) -> bool {
    vm.lifetime() < SimDuration::from_days(1)
}

/// Oracle percentiles computed from each VM's own future utilization — the
/// "ideal allocation" reference of Fig 19 and an upper bound for the
/// packing experiments.
///
/// Stateless: every call derives through
/// [`VmRecord::window_decision_buckets`], the order-statistic loop of the
/// lazy analytic scan under its decision-decided stopping rule, and returns
/// the prediction in decision form ([`DemandPrediction::decision_form`]):
/// per resource every window's `PX_t` reads `PA` and its `Pmax_t` reads
/// `max(Pmax_t, PA)`, which is all a demand reads of them. A window whose
/// bound on its cells rounds up to a bucket at or below the `PA` other
/// windows have fixed is never resolved; the rest resolve the largest
/// day maxima first, until both ends of each bound round up alike. The answer is bit-identical to the decision
/// form of the rounded-up peaks of the exact [`VmRecord::window_stats`] —
/// [`NaiveReference`] and `bucket_up` of the unbucketed exact-rule oracle,
/// each put in decision form, stay as the references that hold it to that.
#[derive(Debug)]
pub struct Oracle {
    tw: TimeWindows,
}

impl Oracle {
    /// An oracle over the given window partition.
    pub fn new(tw: TimeWindows) -> Self {
        Oracle { tw }
    }

    /// Always `(0, 0)`: the envelope cache these counters reported on is
    /// gone. Retained only because the frozen `examples/benchmark` calls
    /// it; the next `[benchmark]` PR removes the call and this method.
    pub fn envelope_counters(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Predictor for Oracle {
    fn time_windows(&self) -> TimeWindows {
        self.tw
    }

    fn predict(&self, vm: &VmRecord, percentile: Percentile) -> Option<DemandPrediction> {
        if too_short(vm) {
            return None;
        }
        let peaks = vm.window_decision_buckets(self.tw, percentile);
        Some(DemandPrediction {
            tw: self.tw,
            pmax: peaks.lifetime_max,
            px: peaks.percentile,
        })
    }
}

/// The trained long-term utilization model (§3.3); VMs without group
/// history get `None` (conservatively not oversubscribed).
///
/// Memoized: the model's features read only a VM's group, exact
/// configuration, weekday of arrival, offering and subscription type, so
/// the forests are walked once per distinct such key and every later VM
/// with that key is answered from a [`PredictionMemo`] of bucket indices
/// (`coach_predict::model`, "Inference"). The memo starts empty with every
/// [`Model::new`] and is bounded by the model, not the stream. Safe under
/// concurrent calls — a sharded controller or `policy_sweep` sharing one
/// `Model` — because the lock is held only to look up and to insert, never
/// across a forest walk; answers are the same whichever thread computed an
/// entry first.
#[derive(Debug)]
pub struct Model<'a> {
    model: &'a UtilizationModel,
    memo: Mutex<PredictionMemo>,
}

impl<'a> Model<'a> {
    /// Wrap a trained model, with an empty memo.
    pub fn new(model: &'a UtilizationModel) -> Self {
        Model {
            model,
            memo: Mutex::default(),
        }
    }

    /// Number of distinct keys memoized so far: how many VMs' worth of
    /// forest walks this predictor has done.
    pub fn memoized_keys(&self) -> usize {
        self.memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

impl Predictor for Model<'_> {
    fn time_windows(&self) -> TimeWindows {
        self.model.config().tw
    }

    /// The percentile argument is ignored: the model predicts at the
    /// percentile it was trained with (re-deriving from the oracle would
    /// bypass the artifact under test).
    fn predict(&self, vm: &VmRecord, percentile: Percentile) -> Option<DemandPrediction> {
        self.predict_batch(&[vm], percentile)
            .pop()
            .expect("one slot per input")
    }

    /// One tree-major sweep per forest over the feature rows of the batch's
    /// keys the memo lacks ([`UtilizationModel::predict_batch_memoized`]);
    /// `predict` is the one-VM case of the same routine.
    fn predict_batch(
        &self,
        vms: &[&VmRecord],
        _percentile: Percentile,
    ) -> Vec<Option<DemandPrediction>> {
        self.model.predict_batch_memoized(vms, &self.memo)
    }
}

/// The pre-redesign eager oracle: materialize each VM's full 5-minute
/// series and walk its samples, and keep every window's own peaks. Its
/// decision form is [`Oracle`]'s answer (the differential test
/// `lazy_oracle_matches_eager_reference` holds them equal), so it makes
/// the same decisions, at orders of magnitude the cost — it exists only as
/// the reference end of that comparison.
#[derive(Debug, Clone, Copy)]
pub struct NaiveReference {
    tw: TimeWindows,
}

impl NaiveReference {
    /// An eager reference oracle over the given window partition.
    pub fn new(tw: TimeWindows) -> Self {
        NaiveReference { tw }
    }
}

impl Predictor for NaiveReference {
    fn time_windows(&self) -> TimeWindows {
        self.tw
    }

    fn predict(&self, vm: &VmRecord, percentile: Percentile) -> Option<DemandPrediction> {
        if too_short(vm) {
            return None;
        }
        let mut p = UtilizationModel::oracle_eager(vm, self.tw, percentile);
        bucket_prediction(&mut p);
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_trace::{generate, TraceConfig};

    #[test]
    fn oracle_skips_short_vms_and_buckets_long_ones() {
        let trace = generate(&TraceConfig::small(95));
        let src = Oracle::new(TimeWindows::paper_default());
        let short = trace
            .vms
            .iter()
            .find(|v| v.lifetime() < SimDuration::from_days(1))
            .expect("a short vm");
        assert!(src.predict(short, Percentile::P95).is_none());

        let long = trace.long_running().next().expect("a long vm");
        let p = src.predict(long, Percentile::P95).expect("prediction");
        for v in p.pmax.iter().chain(p.px.iter()) {
            for kind in ResourceKind::ALL {
                let x = v[kind];
                assert!(
                    (x * 20.0 - (x * 20.0).round()).abs() < 1e-6,
                    "{x} not bucketed"
                );
            }
        }
        // Deterministic in `(vm, percentile)`.
        let again = src.predict(long, Percentile::P95).expect("prediction");
        assert_eq!(p, again);
    }

    #[test]
    fn lower_percentile_means_lower_pa() {
        let trace = generate(&TraceConfig::small(96));
        let src = Oracle::new(TimeWindows::paper_default());
        let vm = trace.long_running().next().unwrap();
        let p95 = src.predict(vm, Percentile::P95).unwrap();
        let p50 = src.predict(vm, Percentile::P50).unwrap();
        for kind in ResourceKind::ALL {
            assert!(
                p50.pa_fraction()[kind] <= p95.pa_fraction()[kind] + 1e-9,
                "{kind}: p50 pa > p95 pa"
            );
        }
    }

    /// Lazy oracle predictions equal the decision form of the eager
    /// materialized path and of `bucket_up` of the exact-rule oracle, bit
    /// for bit, for every long-running VM across several seeds and
    /// percentiles.
    #[test]
    fn lazy_oracle_matches_eager_reference() {
        let tw = TimeWindows::paper_default();
        for seed in [31u64, 32, 33] {
            let trace = generate(&TraceConfig::small(seed));
            let lazy = Oracle::new(tw);
            let eager = NaiveReference::new(tw);
            let mut compared = 0usize;
            for vm in &trace.vms {
                for percentile in [Percentile::P95, Percentile::P50] {
                    match (lazy.predict(vm, percentile), eager.predict(vm, percentile)) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            compared += 1;
                            let b = b.decision_form();
                            for w in tw.indices() {
                                for kind in ResourceKind::ALL {
                                    assert_eq!(
                                        a.pmax[w][kind].to_bits(),
                                        b.pmax[w][kind].to_bits(),
                                        "seed {seed} vm {} {kind} w{w} pmax: lazy {} eager {}",
                                        vm.id,
                                        a.pmax[w][kind],
                                        b.pmax[w][kind]
                                    );
                                    assert_eq!(
                                        a.px[w][kind].to_bits(),
                                        b.px[w][kind].to_bits(),
                                        "seed {seed} vm {} {kind} w{w} px: lazy {} eager {}",
                                        vm.id,
                                        a.px[w][kind],
                                        b.px[w][kind]
                                    );
                                }
                            }
                            // The exact-rule oracle fig19 reads, through the
                            // exact statistics it is pinned equal to
                            // (`oracle_equals_oracle_from_exact_stats`).
                            let mut exact = UtilizationModel::oracle_from_stats(
                                &vm.window_stats(tw),
                                percentile,
                            );
                            bucket_prediction(&mut exact);
                            assert_eq!(
                                a,
                                exact.decision_form(),
                                "seed {seed} vm {}: lazy != bucket_up(exact rule)",
                                vm.id
                            );
                        }
                        (a, b) => panic!(
                            "seed {seed} vm {}: lazy {:?} vs eager {:?}",
                            vm.id,
                            a.is_some(),
                            b.is_some()
                        ),
                    }
                }
            }
            assert!(compared > 50, "seed {seed}: only {compared} comparisons");
        }
    }

    fn small_model(vms: &[&VmRecord]) -> UtilizationModel {
        use coach_predict::{ForestParams, ModelConfig};

        UtilizationModel::train(
            vms,
            ModelConfig {
                tw: TimeWindows::paper_default(),
                percentile: Percentile::P95,
                forest: ForestParams {
                    n_trees: 4,
                    ..ForestParams::default()
                },
            },
        )
    }

    /// `predict_batch` is a throughput entry point, never a semantic one:
    /// for every shipped source it must equal the per-item loop exactly.
    /// `Model` (one forest sweep per batch, memoized) overrides it, so this
    /// differentially pins the override; `Oracle` and `NaiveReference`
    /// exercise the default loop. Each side gets a fresh source — one
    /// `Model` would answer the per-item side from the batch's own memo
    /// entries — and the model's answers must also be the unmemoized
    /// `UtilizationModel::predict`'s.
    #[test]
    fn predict_batch_matches_per_item_loop() {
        let tw = TimeWindows::paper_default();
        let trace = generate(&TraceConfig::small(97));
        let vms: Vec<&VmRecord> = trace.vms.iter().collect();
        let model = small_model(&vms);

        type Make<'a> = Box<dyn Fn() -> Box<dyn Predictor + 'a> + 'a>;
        let sources: Vec<(&str, Make<'_>)> = vec![
            ("oracle", Box::new(move || Box::new(Oracle::new(tw)))),
            ("model", Box::new(|| Box::new(Model::new(&model)))),
            ("naive", Box::new(move || Box::new(NaiveReference::new(tw)))),
        ];
        for (name, make) in sources {
            for percentile in [Percentile::P95, Percentile::P50] {
                let batch = make().predict_batch(&vms, percentile);
                assert_eq!(batch.len(), vms.len(), "{name}: batch length");
                let one_by_one = make();
                for (vm, got) in vms.iter().zip(&batch) {
                    let want = one_by_one.predict(vm, percentile);
                    assert_eq!(*got, want, "{name} vm {}: batch != per-item", vm.id);
                    if name == "model" {
                        assert_eq!(want, model.predict(vm), "vm {}: memo != fresh", vm.id);
                    }
                }
            }
        }
    }

    /// One `Model` called from four threads at once on overlapping chunks
    /// (each VM in two or three of them, so threads race to the same
    /// keys): every chunk's answer equals a serial run's, and a key two
    /// threads computed is kept once, so the shared memo holds as many
    /// keys as the serial one.
    #[test]
    fn a_shared_model_predicts_the_same_from_many_threads() {
        let trace = generate(&TraceConfig::small(98));
        let vms: Vec<&VmRecord> = trace.vms.iter().collect();
        let model = small_model(&vms);
        let chunks: Vec<&[&VmRecord]> = (0..vms.len())
            .step_by(23)
            .map(|start| &vms[start..(start + 61).min(vms.len())])
            .collect();

        let serial = Model::new(&model);
        let want: Vec<_> = chunks
            .iter()
            .map(|chunk| serial.predict_batch(chunk, Percentile::P95))
            .collect();
        let shared = Model::new(&model);
        let got = par_map_threads(&chunks, 4, |chunk| {
            shared.predict_batch(chunk, Percentile::P95)
        });
        assert_eq!(got, want);
        assert_eq!(shared.memoized_keys(), serial.memoized_keys());
        assert!(want.iter().flatten().flatten().count() > 100);
    }

    #[test]
    fn predictors_are_object_safe() {
        let oracle = Oracle::new(TimeWindows::paper_default());
        let reference = NaiveReference::new(TimeWindows::paper_default());
        let sources: Vec<&dyn Predictor> = vec![&oracle, &reference];
        for s in sources {
            assert_eq!(s.time_windows().count(), 6);
        }
    }
}
