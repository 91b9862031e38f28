//! CART regression trees: the base learner of the random forest (§3.3).
//!
//! Standard classification-and-regression-tree construction with
//! variance-reduction (MSE) splits, depth/size stopping rules, and optional
//! per-split feature subsampling (used by the forest for decorrelation).
//!
//! # Node layout
//!
//! A trained tree is one flat `Vec` of 16-byte nodes in `build`'s push
//! order (pre-order: a split, then its whole left subtree, then its right
//! subtree), root at index 0:
//!
//! | field     | type  | split                    | leaf               |
//! |-----------|-------|--------------------------|--------------------|
//! | `value`   | `f64` | threshold                | prediction         |
//! | `right`   | `u32` | index of the right child | the leaf's own index |
//! | `feature` | `u16` | column compared          | 0 (any valid column) |
//! | `step`    | `u16` | 1                        | 0                  |
//!
//! * **Implicit left child.** The left child of the split at index `i` is
//!   always `i + 1`, because `build` reserves the split's slot and recurses
//!   into the left subtree first; only the right child needs storing. The
//!   walk computes `left = i + step`. `build` asserts the invariant where it
//!   writes each split.
//! * **Self-looping leaf.** A leaf has `step = 0` and `right = i`, so both
//!   of its "children" are itself: stepping from a leaf is a no-op whatever
//!   the comparison says. Every row can therefore take exactly `depth`
//!   steps (the tree's deepest leaf) and end on the leaf an early-exit walk
//!   would have returned.
//!
//! # Traversal
//!
//! There is one walk. It moves a block of `LANES` rows down the tree in
//! lock-step, `depth` levels, and picks each lane's next node with
//! [`std::hint::select_unpredictable`] — a conditional move, not a
//! data-dependent branch. The comparison outcome of a forest walk is close
//! to a coin flip, so a branch here mispredicts about every other level.
//! (Spelling the select as arithmetic, `right ^ ((left ^ right) & mask)`,
//! does not survive the optimizer: LLVM recognises the idiom and emits the
//! branch again.) The lanes are independent, which lets the core overlap
//! their node loads. [`RegressionTree::predict`] is the same walk one lane
//! wide; the forest feeds it whole batches (see [`crate::forest`]).
//!
//! # Training
//!
//! The training rows are transposed once into a column-major `Columns`
//! matrix: a split search reads one feature of many rows, which is
//! contiguous there and 8·F bytes apart in the caller's rows. A tree's rows
//! are `u32` indices into it, kept in **one** array per tree: a node owns a
//! sub-slice in ascending row order, and a split partitions that slice in
//! place and stably, so both children ascend too. The candidate list, the
//! sort buffer, the partition's spill and the counting sort's cursors are
//! one scratch per tree — a node is done with them before it recurses.
//!
//! For each candidate feature a node (i) skips the column if it holds one
//! value there — it cannot split, and at depth most of the low-cardinality
//! columns are in that state; (ii) lays the node's `(value, target)` pairs
//! out ordered by value, equal values in ascending row order; (iii) scans
//! them once, accumulating the left sum. Step (ii) is a stable counting
//! sort by the value's dense rank within its column (`Columns` ranks every
//! column once per matrix) where the node is at least half as large as the
//! column's distinct count — O(n + distinct), and nine of the model's
//! twelve features take a handful of values — and a stable comparison sort
//! of the pairs below that. The two produce the same sequence; which one
//! runs is decided by two integers the node already has.
//!
//! **The trees are the ones the serial row-major trainer grew, to the bit**
//! (`reference` keeps that trainer verbatim; `parallel_fit_equals_serial_
//! reference` holds the two equal node for node, and
//! `trained_model_matches_pinned_digest` pins the model they produce):
//!
//! * it stably sorted the node's ascending row indices by value, so its
//!   ties were in ascending row order — the order both sorts here produce
//!   (a rank is equal exactly where `==` on the values is, `-0.0` and `0.0`
//!   included, and every value is finite, so `partial_cmp` is total);
//! * its `partition` kept ascending order in both halves, as the in-place
//!   one does;
//! * every `total_sum`, `left_sum` and leaf mean therefore adds the same
//!   targets in the same order, starting from the same identity, and a
//!   threshold is the mean of the same two `f64`s;
//! * the per-tree RNG is consumed in the same pre-order — one shuffle of
//!   `0..F` per node that reaches the split search — because skipping a
//!   constant column happens after the shuffle and draws nothing.
//!
//! Measured on the 2-core reference box, one forest of the benchmark's
//! model (11,004 × 12, 24 trees) on one thread: about 240 ms on the
//! row-major trainer, 116 ms here; with a timer around each step, 166 ms
//! without the counting sort (95 ms of it in the comparison sort) and
//! 124 ms with it. End to end, `model_sweep`'s `setup_s` (two models, two
//! threads) read 1.37 s without the counting sort and 1.09 s with it,
//! medians of six alternating pairs, the latter ahead in all six — which is
//! why it is here.
//!
//! Tried and not built, from the issue that sized this work: sorting packed
//! `(rank << 32 | index)` keys is slower than the row-major trainer (3.3 vs
//! 2.0 s per model — distinct keys forfeit the stable sort's cheap handling
//! of few-valued columns), and a classic presort that carries all twelve
//! per-feature orders through every partition is no faster (1.94 s:
//! partitioning thirteen columns per split costs what sorting the four
//! candidate columns did). Mapping the values to order-preserving integer
//! keys before the comparison sort measured level with sorting the floats.
//! Histogram-binned split finding grows *different* trees and stays parked
//! behind a fidelity band (ROADMAP).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::cmp::Ordering;

/// Training hyperparameters for a single tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Do not split nodes with fewer samples than this.
    pub min_samples_split: usize,
    /// Every leaf must keep at least this many samples.
    pub min_samples_leaf: usize,
    /// Number of candidate features per split (`None` = all features).
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_split: 8,
            min_samples_leaf: 2,
            max_features: None,
        }
    }
}

/// Rows the walk advances in lock-step. Eight independent lanes keep the
/// load pipeline busy without spilling the lane state out of registers.
const LANES: usize = 8;

/// One node of the flat arena (see the module docs for the layout).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// Split threshold, or the prediction when this is a leaf.
    value: f64,
    /// Arena index of the right child; a leaf points at itself.
    right: u32,
    /// Column compared against `value`; 0 on a leaf.
    feature: u16,
    /// Distance to the left child: 1 on a split, 0 on a leaf.
    step: u16,
}

/// A trained regression tree.
///
/// # Example
///
/// ```
/// use coach_predict::tree::{RegressionTree, TreeParams};
/// // y = 1 if x0 > 0.5 else 0.
/// let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| if x[0] > 0.5 { 1.0 } else { 0.0 }).collect();
/// let tree = RegressionTree::fit(&xs, &ys, TreeParams::default(), None);
/// assert!(tree.predict(&[0.9]) > 0.9);
/// assert!(tree.predict(&[0.1]) < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
    /// Depth of the deepest leaf (root = 0): the number of steps after
    /// which every row has reached its leaf.
    depth: usize,
}

impl RegressionTree {
    /// Fit a tree on rows `xs` (each of equal length) and targets `ys`.
    /// Rows are anything that views as a `[f64]` — `Vec<f64>`, `[f64; N]`,
    /// `&[f64]`.
    ///
    /// `rng` enables per-split feature subsampling when
    /// `params.max_features` is set (pass `None` for deterministic
    /// all-features splits).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, rows have inconsistent lengths,
    /// `xs.len() != ys.len()`, or any feature or target is NaN or infinite:
    /// the split search orders rows with `partial_cmp`, which is a total
    /// order only over finite values, and scores splits by sums of targets.
    /// A NaN would not fail; it would grow a tree from an unspecified order.
    pub fn fit<R: AsRef<[f64]>>(
        xs: &[R],
        ys: &[f64],
        params: TreeParams,
        rng: Option<&mut SmallRng>,
    ) -> Self {
        let xs = Columns::from_rows(xs);
        xs.assert_targets(ys);
        Self::grow(&xs, ys, &params, rng)
    }

    /// Grow a tree over every row of `xs` (module docs, "Training"); `ys`
    /// has passed [`Columns::assert_targets`].
    pub(crate) fn grow(
        xs: &Columns,
        ys: &[f64],
        params: &TreeParams,
        rng: Option<&mut SmallRng>,
    ) -> Self {
        let mut builder = Builder {
            xs,
            ys,
            params,
            rng,
            tree: RegressionTree {
                nodes: Vec::new(),
                n_features: xs.n_features,
                depth: 0,
            },
            features: Vec::with_capacity(xs.n_features),
            sorted: Vec::with_capacity(xs.n_rows),
            spill: Vec::new(),
            cursors: Vec::new(),
        };
        // `Columns` caps its row count at `u32::MAX`.
        let mut idx: Vec<u32> = (0..xs.n_rows as u32).collect();
        builder.build(&mut idx, 0);
        builder.tree
    }

    /// Push a self-looping leaf and return its index.
    fn push_leaf(&mut self, value: f64, depth: usize) -> usize {
        let slot = self.nodes.len();
        self.nodes.push(Node {
            value,
            right: u32::try_from(slot).expect("tree arena exceeds u32 indices"),
            feature: 0,
            step: 0,
        });
        self.depth = self.depth.max(depth);
        slot
    }

    /// Walk `N` rows to their leaves in lock-step and return the leaf
    /// values, lane `l` for `block[l]`.
    fn leaf_values<const N: usize, R: AsRef<[f64]>>(&self, block: &[R; N]) -> [f64; N] {
        let nodes = self.nodes.as_slice();
        let mut at = [0u32; N]; // the root is the first node pushed
        for _ in 0..self.depth {
            for (at, row) in at.iter_mut().zip(block) {
                let node = nodes[*at as usize];
                let left = *at + u32::from(node.step);
                let goes_left = row.as_ref()[usize::from(node.feature)] <= node.value;
                *at = std::hint::select_unpredictable(goes_left, left, node.right);
            }
        }
        at.map(|i| nodes[i as usize].value)
    }

    /// Add this tree's prediction for `rows[i]` to `sums[i]`, in blocks of
    /// [`LANES`] — the forest's per-tree step. A short last block repeats
    /// its final row in the spare lanes; a lone last row walks alone.
    pub(crate) fn add_predictions<R: AsRef<[f64]>>(&self, rows: &[R], sums: &mut [f64]) {
        let (blocks, tail) = rows.as_chunks::<LANES>();
        let (block_sums, tail_sums) = sums.as_chunks_mut::<LANES>();
        for (block, sums) in blocks.iter().zip(block_sums) {
            for (sum, leaf) in sums.iter_mut().zip(self.leaf_values(block)) {
                *sum += leaf;
            }
        }
        match tail {
            [] => {}
            [row] => tail_sums[0] += self.leaf_values(std::array::from_ref(row))[0],
            [.., last] => {
                let padded: [&[f64]; LANES] =
                    std::array::from_fn(|l| tail.get(l).unwrap_or(last).as_ref());
                for (sum, leaf) in tail_sums.iter_mut().zip(self.leaf_values(&padded)) {
                    *sum += leaf;
                }
            }
        }
    }

    /// Predict the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training feature count.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        self.leaf_values(&[x])[0]
    }

    /// Number of nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes of the node arena.
    pub(crate) fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.nodes.as_slice())
    }

    /// Number of features expected by [`RegressionTree::predict`].
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

/// The training rows as one column-major matrix: what a split search reads
/// is one feature of many rows, which is contiguous here and 8·F bytes
/// apart in the caller's rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Columns {
    n_rows: usize,
    n_features: usize,
    /// Feature `f` of row `i` at `f * n_rows + i`.
    data: Vec<f64>,
    /// Laid out like `data`: the dense rank of each value among the
    /// distinct values of its column (in the matrix `from_rows` built; a
    /// gathered sample keeps those ranks and may skip some).
    ranks: Vec<u32>,
    /// The number of ranks per column.
    distinct: Vec<u32>,
}

impl Columns {
    /// Transpose `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, holds more than `u32::MAX` rows, rows have
    /// inconsistent lengths, or a feature is NaN or infinite. The split
    /// search orders rows with `partial_cmp`, which is a total order only
    /// over finite values: with a NaN in a column the sort's result is
    /// unspecified and the tree built from it is silent garbage, so the one
    /// pass that builds the matrix refuses it. (`model::features` never
    /// produces one: `ln` of positive sizes, small integer codes, and means
    /// of utilization fractions.)
    pub(crate) fn from_rows<R: AsRef<[f64]>>(xs: &[R]) -> Self {
        assert!(!xs.is_empty(), "training set must be non-empty");
        assert!(
            u32::try_from(xs.len()).is_ok(),
            "training set exceeds u32 row indices"
        );
        let (n_rows, n_features) = (xs.len(), xs[0].as_ref().len());
        let mut data = vec![0.0; n_rows * n_features];
        for (i, row) in xs.iter().enumerate() {
            let row = row.as_ref();
            assert_eq!(row.len(), n_features, "inconsistent feature row lengths");
            assert!(
                row.iter().all(|v| v.is_finite()),
                "training features must be finite"
            );
            for (f, &v) in row.iter().enumerate() {
                data[f * n_rows + i] = v;
            }
        }
        let mut ranks = vec![0; data.len()];
        let mut order: Vec<u32> = Vec::with_capacity(n_rows);
        let distinct = data
            .chunks_exact(n_rows)
            .zip(ranks.chunks_exact_mut(n_rows))
            .map(|(column, ranks)| {
                order.clear();
                order.extend(0..n_rows as u32);
                order.sort_unstable_by(|&a, &b| {
                    column[a as usize]
                        .partial_cmp(&column[b as usize])
                        .unwrap_or(Ordering::Equal)
                });
                let mut rank = 0;
                for pair in order.windows(2) {
                    rank += u32::from(column[pair[0] as usize] != column[pair[1] as usize]);
                    ranks[pair[1] as usize] = rank;
                }
                rank + 1
            })
            .collect();
        Columns {
            n_rows,
            n_features,
            data,
            ranks,
            distinct,
        }
    }

    /// # Panics
    ///
    /// Panics unless `ys` is one finite target per row: a split's score is
    /// built from sums of targets, and one NaN turns every comparison false.
    pub(crate) fn assert_targets(&self, ys: &[f64]) {
        assert_eq!(self.n_rows, ys.len(), "features/targets length mismatch");
        assert!(
            ys.iter().all(|y| y.is_finite()),
            "training targets must be finite"
        );
    }

    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.data[f * self.n_rows..][..self.n_rows]
    }

    fn rank_column(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.n_rows..][..self.n_rows]
    }

    /// The matrix of rows `sample[0]`, `sample[1]`, … — a tree's bootstrap
    /// sample, duplicates included, in draw order.
    pub(crate) fn gather(&self, sample: &[u32]) -> Columns {
        let mut data = Vec::with_capacity(sample.len() * self.n_features);
        let mut ranks = Vec::with_capacity(sample.len() * self.n_features);
        for f in 0..self.n_features {
            let (column, rank_column) = (self.column(f), self.rank_column(f));
            data.extend(sample.iter().map(|&i| column[i as usize]));
            ranks.extend(sample.iter().map(|&i| rank_column[i as usize]));
        }
        Columns {
            n_rows: sample.len(),
            n_features: self.n_features,
            data,
            ranks,
            distinct: self.distinct.clone(),
        }
    }
}

/// One tree under construction: the training set, the arena so far, and the
/// buffers every node reuses (a node is done with them before it recurses).
struct Builder<'a> {
    xs: &'a Columns,
    ys: &'a [f64],
    params: &'a TreeParams,
    rng: Option<&'a mut SmallRng>,
    tree: RegressionTree,
    /// The node's candidate features: `0..F`, shuffled, the first `mtry`
    /// of them searched.
    features: Vec<usize>,
    /// The node's `(feature value, target)` pairs, ordered by value.
    sorted: Vec<(f64, f64)>,
    /// The rows `partition` sends right, until they are copied back.
    spill: Vec<u32>,
    /// The counting sort's per-rank counts, then write cursors.
    cursors: Vec<u32>,
}

impl Builder<'_> {
    /// Build the subtree over rows `idx` (ascending) and return its root's
    /// arena index.
    fn build(&mut self, idx: &mut [u32], depth: usize) -> usize {
        let ys = self.ys;
        let total_sum: f64 = idx.iter().map(|&i| ys[i as usize]).sum();
        let mean = total_sum / idx.len() as f64;

        let stop = depth >= self.params.max_depth
            || idx.len() < self.params.min_samples_split
            || is_constant(ys, idx);
        if stop {
            return self.tree.push_leaf(mean, depth);
        }

        // Choose the candidate feature set for this split.
        let n_features = self.xs.n_features;
        self.features.clear();
        self.features.extend(0..n_features);
        let mut candidates = n_features;
        if let (Some(k), Some(r)) = (self.params.max_features, self.rng.as_deref_mut()) {
            self.features.shuffle(r);
            candidates = k.clamp(1, n_features);
        }

        let Some((feature, threshold)) = self.best_split(idx, candidates, total_sum) else {
            return self.tree.push_leaf(mean, depth);
        };
        let (left_idx, right_idx) = self.partition(idx, feature, threshold);

        // Reserve the split's slot (a placeholder leaf), then recurse: the
        // left subtree lands right behind it.
        let slot = self.tree.push_leaf(mean, depth);
        let left = self.build(left_idx, depth + 1);
        let right = self.build(right_idx, depth + 1);
        assert_eq!(left, slot + 1, "left child must follow its parent");
        self.tree.nodes[slot] = Node {
            value: threshold,
            right: u32::try_from(right).expect("tree arena exceeds u32 indices"),
            feature: u16::try_from(feature).expect("feature index exceeds u16"),
            step: 1,
        };
        slot
    }

    /// Exhaustive best split of rows `idx` over the first `candidates`
    /// entries of `self.features`: O(F · n log n). Returns `None` when no
    /// split satisfies the leaf-size constraint or reduces variance.
    fn best_split(
        &mut self,
        idx: &[u32],
        candidates: usize,
        total_sum: f64,
    ) -> Option<(usize, f64)> {
        let n = idx.len() as f64;
        let min_leaf = self.params.min_samples_leaf;
        let parent_score = total_sum * total_sum / n; // constant shift of -SSE

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)

        for &f in &self.features[..candidates] {
            let column = self.xs.column(f);
            // A column with one value in this node cannot split it.
            let first = column[idx[0] as usize];
            if idx.iter().all(|&i| column[i as usize] == first) {
                continue;
            }
            // Order the node's rows by the feature value, equal values in
            // ascending row order (`idx` ascends). Every value is finite,
            // so `partial_cmp` is total.
            let distinct = self.xs.distinct[f] as usize;
            let sorted = &mut self.sorted;
            sorted.clear();
            if 2 * idx.len() >= distinct {
                // A stable counting sort by rank: O(n + distinct).
                let ranks = self.xs.rank_column(f);
                let cursors = &mut self.cursors;
                cursors.clear();
                cursors.resize(distinct, 0);
                for &i in idx {
                    cursors[ranks[i as usize] as usize] += 1;
                }
                let mut start = 0;
                for cursor in cursors.iter_mut() {
                    start += std::mem::replace(cursor, start);
                }
                sorted.resize(idx.len(), (0.0, 0.0));
                for &i in idx {
                    let cursor = &mut cursors[ranks[i as usize] as usize];
                    sorted[*cursor as usize] = (column[i as usize], self.ys[i as usize]);
                    *cursor += 1;
                }
            } else {
                // A stable comparison sort: O(n log n), whatever the column.
                sorted.extend(
                    idx.iter()
                        .map(|&i| (column[i as usize], self.ys[i as usize])),
                );
                sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
            }

            let mut left_sum = 0.0;
            let mut left_n = 0.0;
            for pair in sorted.windows(2) {
                let ((x, y), (next_x, _)) = (pair[0], pair[1]);
                left_sum += y;
                left_n += 1.0;
                // Can't split between equal feature values.
                if x == next_x {
                    continue;
                }
                let right_n = n - left_n;
                if (left_n as usize) < min_leaf || (right_n as usize) < min_leaf {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                // Maximizing sum_of(children n*mean^2) minimizes SSE.
                let score = left_sum * left_sum / left_n + right_sum * right_sum / right_n;
                if score > parent_score + 1e-12 && best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((f, 0.5 * (x + next_x), score));
                }
            }
        }

        best.map(|(f, t, _)| (f, t))
    }

    /// Stable in-place partition of `idx` by `feature <= threshold`: both
    /// halves keep ascending row order.
    fn partition<'i>(
        &mut self,
        idx: &'i mut [u32],
        feature: usize,
        threshold: f64,
    ) -> (&'i mut [u32], &'i mut [u32]) {
        let column = self.xs.column(feature);
        self.spill.clear();
        let mut kept = 0;
        for k in 0..idx.len() {
            let i = idx[k];
            if column[i as usize] <= threshold {
                idx[kept] = i;
                kept += 1;
            } else {
                self.spill.push(i);
            }
        }
        idx[kept..].copy_from_slice(&self.spill);
        idx.split_at_mut(kept)
    }
}

fn is_constant(ys: &[f64], idx: &[u32]) -> bool {
    let first = ys[idx[0] as usize];
    idx.iter().all(|&i| (ys[i as usize] - first).abs() < 1e-12)
}

/// The pre-flattening representation — an arena of `Leaf`/`Split` nodes
/// with both children explicit — and its early-exit walk: the reference the
/// flat lock-step kernel is differentially tested against, plus a generator
/// of random trees in that form — and, at the end, the serial row-major
/// trainer the column-major one is differentially tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{RegressionTree, TreeParams};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::Rng;

    /// Columns of the generated trees and rows.
    pub(crate) const FEATURES: usize = 4;
    /// Depth cap of the generated trees (the shipped `max_depth`).
    pub(crate) const MAX_DEPTH: usize = 12;

    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Node {
        Leaf {
            value: f64,
        },
        Split {
            feature: usize,
            threshold: f64,
            left: usize,
            right: usize,
        },
    }

    /// The walk `RegressionTree::predict` used before flattening.
    pub(crate) fn predict(nodes: &[Node], x: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// A value on a coarse grid, so rows land *exactly on* thresholds often.
    pub(crate) fn grid(rng: &mut SmallRng) -> f64 {
        f64::from(rng.gen_range(-2i32..=6)) * 0.25
    }

    /// Tree shapes: how likely the left and the right child of a split are
    /// to split again (the root splits with the larger of the two).
    pub(crate) const SHAPES: [(f64, f64); 4] = [
        (0.0, 0.0), // a single leaf
        (1.0, 0.0), // fully unbalanced: a left spine down to MAX_DEPTH
        (0.0, 1.0), // fully unbalanced: a right spine down to MAX_DEPTH
        (0.8, 0.7), // bushy, reaching MAX_DEPTH
    ];

    /// A random tree in `build`'s push order (a split, its left subtree,
    /// its right subtree).
    pub(crate) fn random_tree(rng: &mut SmallRng, shape: (f64, f64)) -> Vec<Node> {
        fn grow(
            nodes: &mut Vec<Node>,
            rng: &mut SmallRng,
            depth: usize,
            p_split: f64,
            shape: (f64, f64),
        ) -> usize {
            let slot = nodes.len();
            nodes.push(Node::Leaf {
                value: rng.gen_range(-1.0..1.0),
            });
            if depth < MAX_DEPTH && rng.gen_bool(p_split) {
                let left = grow(nodes, rng, depth + 1, shape.0, shape);
                let right = grow(nodes, rng, depth + 1, shape.1, shape);
                nodes[slot] = Node::Split {
                    feature: rng.gen_range(0..FEATURES),
                    threshold: grid(rng),
                    left,
                    right,
                };
            }
            slot
        }
        let mut nodes = Vec::new();
        grow(&mut nodes, rng, 0, shape.0.max(shape.1), shape);
        nodes
    }

    /// Flatten a reference arena into the production layout, asserting the
    /// implicit-left invariant on the way.
    pub(crate) fn flatten(nodes: &[Node]) -> RegressionTree {
        fn depth_of(nodes: &[Node], at: usize) -> usize {
            match nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, left).max(depth_of(nodes, right))
                }
            }
        }
        let flat = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| match *node {
                Node::Leaf { value } => super::Node {
                    value,
                    right: i as u32,
                    feature: 0,
                    step: 0,
                },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    assert_eq!(left, i + 1, "left child must follow its parent");
                    super::Node {
                        value: threshold,
                        right: right as u32,
                        feature: feature as u16,
                        step: 1,
                    }
                }
            })
            .collect();
        RegressionTree {
            nodes: flat,
            n_features: FEATURES,
            depth: depth_of(nodes, 0),
        }
    }

    /// Batch lengths around the lane width and the serving chunk's row
    /// count (64 VMs x 6 windows).
    pub(crate) const BATCH_LENS: [usize; 7] = [0, 1, 7, 8, 9, 384, 385];

    pub(crate) fn random_rows(rng: &mut SmallRng, len: usize) -> Vec<[f64; FEATURES]> {
        (0..len)
            .map(|_| std::array::from_fn(|_| grid(rng)))
            .collect()
    }

    /// Training as it was before the column-major builder, verbatim: rows
    /// stay row-major and `usize`-indexed, every node allocates its index
    /// vectors and re-sorts through an indirect comparator. Serial and slow;
    /// the reference `RegressionTree::fit` and `RandomForest::fit` are held
    /// equal to, node for node.
    impl RegressionTree {
        pub(crate) fn fit_reference<R: AsRef<[f64]>>(
            xs: &[R],
            ys: &[f64],
            params: TreeParams,
            mut rng: Option<&mut SmallRng>,
        ) -> Self {
            assert!(!xs.is_empty(), "training set must be non-empty");
            assert_eq!(xs.len(), ys.len(), "features/targets length mismatch");
            let n_features = xs[0].as_ref().len();
            assert!(
                xs.iter().all(|r| r.as_ref().len() == n_features),
                "inconsistent feature row lengths"
            );

            let mut tree = RegressionTree {
                nodes: Vec::new(),
                n_features,
                depth: 0,
            };
            let idx: Vec<usize> = (0..xs.len()).collect();
            tree.build(xs, ys, idx, 0, &params, &mut rng);
            tree
        }

        fn build<R: AsRef<[f64]>>(
            &mut self,
            xs: &[R],
            ys: &[f64],
            idx: Vec<usize>,
            depth: usize,
            params: &TreeParams,
            rng: &mut Option<&mut SmallRng>,
        ) -> usize {
            let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64;

            let stop = depth >= params.max_depth
                || idx.len() < params.min_samples_split
                || is_constant(ys, &idx);
            if stop {
                return self.push_leaf(mean, depth);
            }

            // Choose the candidate feature set for this split.
            let mut features: Vec<usize> = (0..self.n_features).collect();
            if let (Some(k), Some(r)) = (params.max_features, rng.as_deref_mut()) {
                features.shuffle(r);
                features.truncate(k.clamp(1, self.n_features));
            }

            let best = best_split(xs, ys, &idx, &features, params.min_samples_leaf);
            let Some((feature, threshold)) = best else {
                return self.push_leaf(mean, depth);
            };

            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
                .into_iter()
                .partition(|&i| xs[i].as_ref()[feature] <= threshold);

            // Reserve the split's slot (a placeholder leaf), then recurse: the
            // left subtree lands right behind it.
            let slot = self.push_leaf(mean, depth);
            let left = self.build(xs, ys, left_idx, depth + 1, params, rng);
            let right = self.build(xs, ys, right_idx, depth + 1, params, rng);
            assert_eq!(left, slot + 1, "left child must follow its parent");
            self.nodes[slot] = super::Node {
                value: threshold,
                right: u32::try_from(right).expect("tree arena exceeds u32 indices"),
                feature: u16::try_from(feature).expect("feature index exceeds u16"),
                step: 1,
            };
            slot
        }
    }

    fn is_constant(ys: &[f64], idx: &[usize]) -> bool {
        let first = ys[idx[0]];
        idx.iter().all(|&i| (ys[i] - first).abs() < 1e-12)
    }

    /// Exhaustive best split over the candidate features: O(F · n log n).
    /// Returns `None` when no split satisfies the leaf-size constraint or
    /// reduces variance.
    fn best_split<R: AsRef<[f64]>>(
        xs: &[R],
        ys: &[f64],
        idx: &[usize],
        features: &[usize],
        min_leaf: usize,
    ) -> Option<(usize, f64)> {
        let n = idx.len() as f64;
        let total_sum: f64 = idx.iter().map(|&i| ys[i]).sum();
        let parent_score = total_sum * total_sum / n; // constant shift of -SSE

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)

        for &f in features {
            let x = |i: usize| xs[i].as_ref()[f];
            // Sort indices by the feature value.
            let mut order: Vec<usize> = idx.to_vec();
            order.sort_by(|&a, &b| x(a).partial_cmp(&x(b)).unwrap_or(std::cmp::Ordering::Equal));

            let mut left_sum = 0.0;
            let mut left_n = 0.0;
            for k in 0..order.len() - 1 {
                let i = order[k];
                left_sum += ys[i];
                left_n += 1.0;
                // Can't split between equal feature values.
                if x(order[k]) == x(order[k + 1]) {
                    continue;
                }
                let right_n = n - left_n;
                if (left_n as usize) < min_leaf || (right_n as usize) < min_leaf {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                // Maximizing sum_of(children n*mean^2) minimizes SSE.
                let score = left_sum * left_sum / left_n + right_sum * right_sum / right_n;
                if score > parent_score + 1e-12 && best.is_none_or(|(_, _, s)| score > s) {
                    let threshold = 0.5 * (x(order[k]) + x(order[k + 1]));
                    best = Some((f, threshold, score));
                }
            }
        }

        best.map(|(f, t, _)| (f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn node_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    #[test]
    fn value_exactly_at_threshold_goes_left() {
        use reference::Node::{Leaf, Split};
        let nodes = [
            Split {
                feature: 1,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            Leaf { value: -1.0 },
            Leaf { value: 1.0 },
        ];
        let tree = reference::flatten(&nodes);
        assert_eq!(tree.predict(&[9.0, 0.5, 9.0, 9.0]), -1.0);
        assert_eq!(tree.predict(&[0.0, 0.5000000001, 0.0, 0.0]), 1.0);
        assert_eq!(
            tree.predict(&[0.0, f64::NAN, 0.0, 0.0]),
            1.0,
            "NaN <= t is false"
        );
    }

    #[test]
    fn fitted_tree_records_its_deepest_leaf() {
        let mut rng = SmallRng::seed_from_u64(3);
        let xs: Vec<[f64; 2]> = (0..400).map(|_| [rng.gen(), rng.gen()]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 9.0).sin() * x[1]).collect();
        let params = TreeParams {
            max_depth: 5,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&xs, &ys, params, None);
        assert_eq!(tree.depth, 5, "400 noisy rows fill a depth-5 tree");
        assert!(tree.nodes.iter().enumerate().all(|(i, n)| {
            (n.step == 0 && n.right as usize == i) || (n.step == 1 && n.right as usize > i + 1)
        }));
    }

    proptest! {
        /// The flat lock-step kernel == the pre-flattening enum walk, to
        /// the bit, per row and accumulated over a batch, for every shape
        /// and every batch length around the lane width.
        #[test]
        fn kernel_matches_reference_walk(seed in 0u64..u64::MAX, shape in 0usize..reference::SHAPES.len()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nodes = reference::random_tree(&mut rng, reference::SHAPES[shape]);
            let tree = reference::flatten(&nodes);
            match shape {
                0 => prop_assert_eq!((tree.node_count(), tree.depth), (1, 0)),
                1 | 2 => prop_assert_eq!(
                    (tree.node_count(), tree.depth),
                    (2 * reference::MAX_DEPTH + 1, reference::MAX_DEPTH)
                ),
                _ => {}
            }
            for len in reference::BATCH_LENS {
                let rows = reference::random_rows(&mut rng, len);
                let start: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut sums = start.clone();
                tree.add_predictions(&rows, &mut sums);
                for ((row, got), start) in rows.iter().zip(&sums).zip(&start) {
                    let want = reference::predict(&nodes, row);
                    prop_assert_eq!(got.to_bits(), (start + want).to_bits());
                    prop_assert_eq!(tree.predict(row).to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn fits_step_function() {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 200.0]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] > 0.3 { 0.8 } else { 0.2 })
            .collect();
        let tree = RegressionTree::fit(&xs, &ys, TreeParams::default(), None);
        assert!((tree.predict(&[0.1]) - 0.2).abs() < 1e-9);
        assert!((tree.predict(&[0.9]) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn fits_multifeature_interaction() {
        // y = x0 if x1 > 0.5 else 1 - x0, on a grid.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            for j in 0..40 {
                let x0 = i as f64 / 40.0;
                let x1 = j as f64 / 40.0;
                xs.push(vec![x0, x1]);
                ys.push(if x1 > 0.5 { x0 } else { 1.0 - x0 });
            }
        }
        let tree = RegressionTree::fit(&xs, &ys, TreeParams::default(), None);
        let mse: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, &y)| (tree.predict(x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys = vec![0.4; 50];
        let tree = RegressionTree::fit(&xs, &ys, TreeParams::default(), None);
        assert_eq!(tree.node_count(), 1);
        assert!((tree.predict(&[17.0]) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let mut rng = SmallRng::seed_from_u64(1);
        let xs: Vec<Vec<f64>> = (0..500).map(|_| vec![rng.gen::<f64>()]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 20.0).sin()).collect();
        let shallow = RegressionTree::fit(
            &xs,
            &ys,
            TreeParams {
                max_depth: 2,
                ..TreeParams::default()
            },
            None,
        );
        // depth 2 => at most 7 nodes.
        assert!(shallow.node_count() <= 7, "{}", shallow.node_count());
    }

    #[test]
    fn min_samples_leaf_enforced() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let tree = RegressionTree::fit(
            &xs,
            &ys,
            TreeParams {
                min_samples_leaf: 5,
                min_samples_split: 2,
                max_depth: 10,
                max_features: None,
            },
            None,
        );
        // Only one split is possible: 5/5.
        assert!(tree.node_count() <= 3);
    }

    #[test]
    fn predictions_within_target_range() {
        let mut rng = SmallRng::seed_from_u64(2);
        let xs: Vec<Vec<f64>> = (0..300)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[1]).collect();
        let tree = RegressionTree::fit(&xs, &ys, TreeParams::default(), None);
        for x in xs.iter().take(50) {
            let p = tree.predict(x);
            assert!((0.0..=1.0).contains(&p), "prediction {p} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_set_rejected() {
        let _ = RegressionTree::fit::<Vec<f64>>(&[], &[], TreeParams::default(), None);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = RegressionTree::fit(&[vec![1.0]], &[1.0, 2.0], TreeParams::default(), None);
    }

    #[test]
    #[should_panic(expected = "features must be finite")]
    fn non_finite_feature_rejected() {
        let mut xs: Vec<[f64; 2]> = (0..40).map(|i| [f64::from(i), 1.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 0.01).collect();
        xs[7][0] = f64::NAN;
        let _ = RegressionTree::fit(&xs, &ys, TreeParams::default(), None);
    }

    #[test]
    #[should_panic(expected = "targets must be finite")]
    fn non_finite_target_rejected() {
        let xs: Vec<[f64; 1]> = (0..40).map(|i| [f64::from(i)]).collect();
        let mut ys = vec![0.5; 40];
        ys[11] = f64::INFINITY;
        let _ = RegressionTree::fit(&xs, &ys, TreeParams::default(), None);
    }

    #[test]
    #[should_panic(expected = "feature count")]
    fn wrong_feature_count_rejected() {
        let tree = RegressionTree::fit(
            &[vec![1.0], vec![2.0]],
            &[1.0, 2.0],
            TreeParams::default(),
            None,
        );
        let _ = tree.predict(&[1.0, 2.0]);
    }
}
