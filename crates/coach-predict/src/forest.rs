//! Bagged random-forest regressor (§3.3).
//!
//! The paper chose a random forest over XGBoost/LightGBM because it is less
//! prone to overfitting, improving robustness and reducing underpredictions
//! — which matters because an underprediction risks contention (G2) while an
//! overprediction merely costs savings.
//!
//! # Inference
//!
//! [`RandomForest::predict_rows`] is the one traversal, and it runs
//! **tree-major**: the outer loop is over trees, the inner one over the
//! batch's rows (in lock-step blocks, see [`crate::tree`]). A tree of a
//! cluster-scale model is tens of kilobytes, so walking the whole batch
//! through it while it is cache-resident costs one fetch of the tree per
//! batch instead of one per row. [`RandomForest::predict`] is the one-row
//! batch.
//!
//! Tree-major order does not change a single bit of the result. Row `i`'s
//! sum starts at the additive identity `-0.0` (where `Iterator::sum`
//! starts) and receives tree 0's leaf, then tree 1's, … — the same
//! additions in the same order as the row-major
//! `trees.map(predict).sum()` — and is divided by the tree count once at
//! the end. Only the interleaving *between* rows differs, and rows share no
//! arithmetic.
//!
//! # Training
//!
//! [`RandomForest::fit`] has one sequential dependency, the forest's RNG
//! stream, and keeps it in order: it first draws, per tree and in tree
//! order, the bootstrap sample (`n` × `gen_range(0..n)`) and then the
//! tree's own seed (`gen()`) — exactly the draws the serial trainer made,
//! interleaved with its fits — and only then fits the trees, through
//! [`coach_types::par_map`], on every core the box has. A tree depends on
//! its draw and on nothing another tree computes, `par_map` returns results
//! in input order, and so the forest is the same `Vec` of the same trees at
//! any worker count (`parallel_fit_equals_serial_reference`,
//! `train_is_thread_count_invariant`); on a one-core box `par_map` is the
//! serial loop. [`crate::tree`] argues why each tree is, to the bit, the one
//! the serial row-major trainer grew.
//!
//! Shared by reference across the workers: the column-major training
//! matrix, transposed and ranked once per forest — once per *resource* in
//! [`crate::UtilizationModel::train`], whose two targets fit on the same
//! rows — and the targets. Owned by a worker while it fits a tree: the
//! tree's bootstrap columns, gathered from the matrix (12 B per row and
//! feature: the value and its rank), and one scratch. The draws cost 4 B
//! per row and tree for the duration of the fit.
//!
//! Measured on the 2-core reference box (`predict_bench`'s
//! `model_train_paper_scale`, the benchmark's `train` call: 1,834 usable
//! VMs, 8 forests × 24 trees × 11,004 rows): 2.0 s on the serial row-major
//! trainer, 1.0 s on the column-major one on one thread, 0.5 s on two.

use crate::tree::{Columns, RegressionTree, TreeParams};
use coach_types::{available_threads, par_map_threads, Bucket};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters.
    pub tree: TreeParams,
    /// RNG seed for bagging/feature subsampling.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 40,
            tree: TreeParams {
                max_depth: 12,
                min_samples_split: 8,
                min_samples_leaf: 2,
                max_features: None, // set from feature count at fit time
            },
            seed: 0x0C0A_C4F0,
        }
    }
}

/// A trained random-forest regressor predicting utilization fractions.
///
/// # Example
///
/// ```
/// use coach_predict::forest::{RandomForest, ForestParams};
/// let xs: Vec<[f64; 2]> = (0..200).map(|i| [(i % 10) as f64, i as f64 / 200.0]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| x[0] / 20.0).collect();
/// let forest = RandomForest::fit(&xs, &ys, ForestParams::default());
/// let p = forest.predict(&[8.0, 0.3]);
/// assert!((p - 0.4).abs() < 0.1);
///
/// // A batch is the same computation, to the bit.
/// let mut batch = Vec::new();
/// forest.predict_rows(&xs, &mut batch);
/// assert!(xs.iter().zip(&batch).all(|(x, &b)| forest.predict(x) == b));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fit a forest with bootstrap sampling and `max(1, F/3)` feature
    /// subsampling per split (the regression-forest default; an explicit
    /// `params.tree.max_features` overrides it), one tree per worker thread
    /// at a time (module docs, "Training").
    /// Rows are anything that views as a `[f64]` (`Vec<f64>`, `[f64; N]`).
    ///
    /// # Panics
    ///
    /// Panics on an empty training set, mismatched lengths, or a feature or
    /// target that is not finite (see [`RegressionTree::fit`]).
    pub fn fit<R: AsRef<[f64]>>(xs: &[R], ys: &[f64], params: ForestParams) -> Self {
        Self::fit_columns(&Columns::from_rows(xs), ys, params, available_threads())
    }

    /// [`RandomForest::fit`] over an already transposed matrix — a
    /// resource's two forests share one — on up to `threads` workers. The
    /// result does not depend on `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `ys` is not one finite target per row of `xs`.
    pub(crate) fn fit_columns(
        xs: &Columns,
        ys: &[f64],
        params: ForestParams,
        threads: usize,
    ) -> Self {
        xs.assert_targets(ys);
        let mut tree_params = params.tree;
        if tree_params.max_features.is_none() {
            // Default mtry for regression forests: max(1, F/3).
            tree_params.max_features = Some((xs.n_features() / 3).max(1));
        }

        // The forest's one RNG stream, consumed in tree order: a bootstrap
        // sample (with replacement), then the tree's own seed.
        let n = ys.len();
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let draws: Vec<(Vec<u32>, u64)> = (0..params.n_trees.max(1))
            .map(|_| {
                // `Columns` caps its row count at `u32::MAX`.
                let sample = (0..n).map(|_| rng.gen_range(0..n) as u32).collect();
                (sample, rng.gen())
            })
            .collect();

        let trees = par_map_threads(&draws, threads, |(sample, tree_seed)| {
            let bx = xs.gather(sample);
            let by: Vec<f64> = sample.iter().map(|&i| ys[i as usize]).collect();
            let mut tree_rng = SmallRng::seed_from_u64(*tree_seed);
            RegressionTree::grow(&bx, &by, &tree_params, Some(&mut tree_rng))
        });

        RandomForest { trees }
    }

    /// Mean prediction across trees for every row of a batch: `out` is
    /// cleared and receives one value per row, in row order. Bit-identical
    /// to calling [`RandomForest::predict`] per row (module docs).
    ///
    /// # Panics
    ///
    /// Panics if a row's length differs from the training feature count.
    pub fn predict_rows<R: AsRef<[f64]>>(&self, rows: &[R], out: &mut Vec<f64>) {
        let n_features = self.trees[0].n_features();
        assert!(
            rows.iter().all(|r| r.as_ref().len() == n_features),
            "feature count mismatch"
        );
        out.clear();
        out.resize(rows.len(), -0.0);
        for tree in &self.trees {
            tree.add_predictions(rows, out);
        }
        let n = self.trees.len() as f64;
        for sum in out.iter_mut() {
            *sum /= n;
        }
    }

    /// Mean prediction across trees.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut out = Vec::with_capacity(1);
        self.predict_rows(&[x], &mut out);
        out[0]
    }

    /// Prediction snapped *up* to the next 5 % bucket — the conservative
    /// form used for allocations (§3.3: "we conservatively round allocations
    /// up to 5% buckets").
    pub fn predict_bucketed(&self, x: &[f64]) -> Bucket {
        Bucket::round_up(self.predict(x).clamp(0.0, 1.0))
    }

    /// In-memory size of the node arenas in bytes (for the §4.5 overhead
    /// table).
    pub fn approx_size_bytes(&self) -> usize {
        self.trees.iter().map(RegressionTree::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::reference;
    use proptest::prelude::*;

    proptest! {
        /// Tree-major `predict_rows` == the row-major mean of the
        /// pre-flattening enum walks, to the bit, at every batch length.
        #[test]
        fn predict_rows_matches_row_major_reference(seed in 0u64..u64::MAX, n_trees in 1usize..6) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let arenas: Vec<_> = (0..n_trees)
                .map(|_| {
                    let shape = reference::SHAPES[rng.gen_range(0..reference::SHAPES.len())];
                    reference::random_tree(&mut rng, shape)
                })
                .collect();
            let forest = RandomForest {
                trees: arenas.iter().map(|a| reference::flatten(a)).collect(),
            };
            let mut got = vec![f64::NAN; 3]; // stale contents must not leak
            for len in reference::BATCH_LENS {
                let rows = reference::random_rows(&mut rng, len);
                forest.predict_rows(&rows, &mut got);
                prop_assert_eq!(got.len(), len);
                for (row, got) in rows.iter().zip(&got) {
                    let sum: f64 = arenas.iter().map(|a| reference::predict(a, row)).sum();
                    let want = sum / n_trees as f64;
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                    prop_assert_eq!(forest.predict(row).to_bits(), want.to_bits());
                }
            }
        }
    }

    /// `RandomForest::fit` as it was before the parallel column-major
    /// trainer, over the equally old [`RegressionTree::fit_reference`]:
    /// verbatim, except that the old loop cloned each bootstrap row and this
    /// one borrows it (CI greps for that clone so it does not come back).
    fn fit_reference<R: AsRef<[f64]>>(xs: &[R], ys: &[f64], params: ForestParams) -> RandomForest {
        assert!(!xs.is_empty(), "training set must be non-empty");
        let n_features = xs[0].as_ref().len();
        let mut tree_params = params.tree;
        if tree_params.max_features.is_none() {
            // Default mtry for regression forests: max(1, F/3).
            tree_params.max_features = Some((n_features / 3).max(1));
        }

        let mut rng = SmallRng::seed_from_u64(params.seed);
        let trees = (0..params.n_trees.max(1))
            .map(|_| {
                // Bootstrap sample (with replacement).
                let sample: Vec<usize> =
                    (0..xs.len()).map(|_| rng.gen_range(0..xs.len())).collect();
                let bx: Vec<&R> = sample.iter().map(|&i| &xs[i]).collect();
                let by: Vec<f64> = sample.iter().map(|&i| ys[i]).collect();
                let mut tree_rng = SmallRng::seed_from_u64(rng.gen());
                RegressionTree::fit_reference(&bx, &by, tree_params, Some(&mut tree_rng))
            })
            .collect();

        RandomForest { trees }
    }

    /// A training set in the regimes the split search treats differently:
    /// two all-distinct columns, two columns of 2–7 values, one of signed
    /// zeros and ones (`-0.0 == 0.0` must tie), one constant, and a share
    /// of rows that repeat an earlier row outright. Targets follow the
    /// features plus noise: on a coarse grid in a third of the sets (equal
    /// targets and equal scores occur), full-mantissa in another (a sum
    /// taken in another order rounds differently), and in the last `+1e16`
    /// and `-1e16` on adjacent copies of one row — they tie in every column
    /// and cancel only when added in row order, so a tie broken any other
    /// way yields a visibly different sum and another split. (An unstable
    /// sort passes the first two regimes for dozens of cases on end.)
    fn mixed_training_set(rng: &mut SmallRng) -> (Vec<[f64; 6]>, Vec<f64>) {
        let n = rng.gen_range(12usize..=600);
        let (few_a, few_b) = (rng.gen_range(2u32..=7), rng.gen_range(2u32..=7));
        let mut xs: Vec<[f64; 6]> = Vec::with_capacity(n);
        for i in 0..n {
            if i > 0 && rng.gen_bool(0.2) {
                xs.push(xs[rng.gen_range(0..i)]);
                continue;
            }
            xs.push([
                rng.gen::<f64>(),
                rng.gen_range(-50.0..50.0),
                f64::from(rng.gen_range(0..few_a)),
                f64::from(rng.gen_range(0..few_b)) * 0.5 - 1.0,
                [-0.0, 0.0, 1.0][rng.gen_range(0..3usize)],
                4.25,
            ]);
        }
        let mut noise = vec![0.0; n];
        match rng.gen_range(0..3) {
            0 => noise
                .iter_mut()
                .for_each(|v| *v = f64::from(rng.gen_range(0u32..4)) * 0.05),
            1 => noise.iter_mut().for_each(|v| *v = rng.gen_range(0.0..0.2)),
            _ => {
                for i in (1..n).step_by(2) {
                    if rng.gen_bool(0.5) {
                        xs[i] = xs[i - 1];
                        (noise[i - 1], noise[i]) = (1e16, -1e16);
                    }
                }
            }
        }
        let ys = xs
            .iter()
            .zip(noise)
            .map(|(x, noise)| (x[0] * 8.0).floor() / 8.0 * 0.4 + x[2] * 0.05 + x[4] * 0.1 + noise)
            .collect();
        (xs, ys)
    }

    proptest! {
        /// The trainer == the serial row-major trainer it replaced, node
        /// for node (`==` compares every threshold, child index and
        /// feature), whatever the worker count, with the forest's default
        /// `mtry` and an explicit one, and for a lone tree with and without
        /// feature subsampling.
        #[test]
        fn parallel_fit_equals_serial_reference(
            seed in 0u64..u64::MAX,
            n_trees in 1usize..7,
            mtry in 0usize..5,
            shallow in 0usize..2,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (xs, ys) = mixed_training_set(&mut rng);
            let tree = TreeParams {
                max_depth: if shallow == 1 { 3 } else { 12 },
                max_features: (mtry > 0).then_some(mtry),
                ..ForestParams::default().tree
            };
            let params = ForestParams { n_trees, tree, seed };
            let want = fit_reference(&xs, &ys, params);
            let columns = Columns::from_rows(&xs);
            for threads in [1, 2, 4] {
                let got = RandomForest::fit_columns(&columns, &ys, params, threads);
                prop_assert!(got == want, "{threads} threads grew a different forest");
            }
            prop_assert_eq!(RandomForest::fit(&xs, &ys, params), want);

            prop_assert_eq!(
                RegressionTree::fit(&xs, &ys, tree, None),
                RegressionTree::fit_reference(&xs, &ys, tree, None)
            );
            let (mut a, mut b) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            prop_assert_eq!(
                RegressionTree::fit(&xs, &ys, tree, Some(&mut a)),
                RegressionTree::fit_reference(&xs, &ys, tree, Some(&mut b))
            );
            // Both consumed the same draws.
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_feature_rejected() {
        let (mut xs, ys) = make_data(50);
        xs[17][1] = f64::NAN;
        let _ = RandomForest::fit(&xs, &ys, ForestParams::default());
    }

    #[test]
    #[should_panic(expected = "feature count")]
    fn wrong_feature_count_rejected() {
        let (xs, ys) = make_data(50);
        let forest = RandomForest::fit(&xs, &ys, ForestParams::default());
        forest.predict_rows(&[[0.0; 2]], &mut Vec::new());
    }

    fn make_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(7);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![
                    rng.gen::<f64>(),
                    rng.gen::<f64>(),
                    rng.gen_range(0..7) as f64,
                ]
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (0.3 * x[0] + 0.2 * x[1] + 0.05 * x[2]).clamp(0.0, 1.0))
            .collect();
        (xs, ys)
    }

    #[test]
    fn forest_beats_constant_predictor() {
        let (xs, ys) = make_data(500);
        let forest = RandomForest::fit(&xs, &ys, ForestParams::default());
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let (mut mse_f, mut mse_c) = (0.0, 0.0);
        for (x, &y) in xs.iter().zip(&ys) {
            mse_f += (forest.predict(x) - y).powi(2);
            mse_c += (mean_y - y).powi(2);
        }
        assert!(mse_f < mse_c * 0.3, "forest {mse_f} vs constant {mse_c}");
    }

    #[test]
    fn deterministic_in_seed() {
        let (xs, ys) = make_data(200);
        let a = RandomForest::fit(&xs, &ys, ForestParams::default());
        let b = RandomForest::fit(&xs, &ys, ForestParams::default());
        assert_eq!(a, b);
        let c = RandomForest::fit(
            &xs,
            &ys,
            ForestParams {
                seed: 99,
                ..ForestParams::default()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn bucketed_prediction_dominates_raw() {
        let (xs, ys) = make_data(300);
        let forest = RandomForest::fit(&xs, &ys, ForestParams::default());
        for x in xs.iter().take(30) {
            let raw = forest.predict(x);
            let bucketed = forest.predict_bucketed(x).fraction();
            assert!(bucketed >= raw - 1e-9, "bucketed {bucketed} < raw {raw}");
        }
    }

    #[test]
    fn size_accounting_positive() {
        let (xs, ys) = make_data(100);
        let forest = RandomForest::fit(&xs, &ys, ForestParams::default());
        let nodes: usize = forest.trees.iter().map(RegressionTree::node_count).sum();
        assert_eq!(forest.approx_size_bytes(), nodes * 16);
        assert_eq!(forest.trees.len(), ForestParams::default().n_trees);
    }
}
