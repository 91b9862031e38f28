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

use crate::tree::{RegressionTree, TreeParams};
use coach_types::Bucket;
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
    /// Fit a forest with bootstrap sampling and √F feature subsampling.
    /// Rows are anything that views as a `[f64]` (`Vec<f64>`, `[f64; N]`).
    ///
    /// # Panics
    ///
    /// Panics on an empty training set or mismatched lengths (see
    /// [`RegressionTree::fit`]).
    pub fn fit<R: AsRef<[f64]> + Clone>(xs: &[R], ys: &[f64], params: ForestParams) -> Self {
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
                let bx: Vec<R> = sample.iter().map(|&i| xs[i].clone()).collect();
                let by: Vec<f64> = sample.iter().map(|&i| ys[i]).collect();
                let mut tree_rng = SmallRng::seed_from_u64(rng.gen());
                RegressionTree::fit(&bx, &by, tree_params, Some(&mut tree_rng))
            })
            .collect();

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

    /// Standard deviation of per-tree predictions (an uncertainty signal).
    pub fn predict_std(&self, x: &[f64]) -> f64 {
        let preds: Vec<f64> = self.trees.iter().map(|t| t.predict(x)).collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        let var = preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64;
        var.sqrt()
    }

    /// Number of trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
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
    fn std_is_nonnegative_and_small_for_consistent_data() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 2) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 0.5).collect();
        let forest = RandomForest::fit(&xs, &ys, ForestParams::default());
        let s = forest.predict_std(&[1.0]);
        assert!((0.0..0.1).contains(&s), "std {s}");
    }

    #[test]
    fn size_accounting_positive() {
        let (xs, ys) = make_data(100);
        let forest = RandomForest::fit(&xs, &ys, ForestParams::default());
        let nodes: usize = forest.trees.iter().map(RegressionTree::node_count).sum();
        assert_eq!(forest.approx_size_bytes(), nodes * 16);
        assert_eq!(forest.tree_count(), ForestParams::default().n_trees);
    }
}
