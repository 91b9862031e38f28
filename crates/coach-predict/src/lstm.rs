//! A from-scratch single-layer LSTM regressor: the 5-minute-horizon local
//! utilization predictor (§3.4/§3.6).
//!
//! "The LSTM uses the maximum and average utilization in the five previous
//! 5-minute windows as input and is also updated online." We implement the
//! standard LSTM cell (Hochreiter & Schmidhuber) with full backpropagation
//! through time over the 5-step input sequence and plain SGD with gradient
//! clipping — small enough (25 KB of state, §4.5) to run per server.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sequence length: five previous 5-minute windows.
pub const SEQ_LEN: usize = 5;
/// Inputs per step: (max utilization, average utilization).
pub const INPUT_DIM: usize = 2;

/// Hidden state width.
const HIDDEN: usize = 12;
/// SGD learning rate.
const LEARNING_RATE: f64 = 0.2;
/// Gradient L2-norm clip.
const GRAD_CLIP: f64 = 5.0;

/// Trainable matrix stored row-major.
#[derive(Debug, Clone, PartialEq)]
struct Mat {
    rows: usize,
    cols: usize,
    w: Vec<f64>,
}

impl Mat {
    fn new(rows: usize, cols: usize, rng: &mut SmallRng, scale: f64) -> Self {
        let w = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Mat { rows, cols, w }
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.w[r * self.cols + c]
    }

    /// y = W·x (x len = cols, y len = rows).
    fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        for (r, out) in y.iter_mut().enumerate() {
            let row = &self.w[r * self.cols..(r + 1) * self.cols];
            *out = row.iter().zip(x).map(|(w, xv)| w * xv).sum();
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Reusable forward/backward scratch buffers for one LSTM shape.
///
/// Every `predict`/`train_step` used to allocate its activation caches and
/// gradient accumulators afresh — tens of small `Vec`s per call, on a path
/// the per-server agent runs for every VM every 20 seconds. A scratch is
/// allocated once (per agent, typically) and reused across calls, so
/// steady-state use performs no heap allocation at all.
///
/// The buffers are pure scratch — their contents carry no model state —
/// so `PartialEq` always returns `true`, letting owners (predictors,
/// agents) keep structural equality semantics.
#[derive(Debug, Clone)]
pub struct LstmScratch {
    /// Per-step activations, flattened `[SEQ_LEN × hidden]`.
    i: Vec<f64>,
    f: Vec<f64>,
    o: Vec<f64>,
    g: Vec<f64>,
    c: Vec<f64>,
    h: Vec<f64>,
    /// Concatenated `(x ++ h_prev)` input, `INPUT_DIM + hidden`.
    z: Vec<f64>,
    /// Gradient accumulators: four `hidden × (INPUT_DIM + hidden)` mats...
    gwi: Vec<f64>,
    gwf: Vec<f64>,
    gwo: Vec<f64>,
    gwg: Vec<f64>,
    /// ...four bias rows, the read-out row, and the BPTT carriers.
    gbi: Vec<f64>,
    gbf: Vec<f64>,
    gbo: Vec<f64>,
    gbg: Vec<f64>,
    gwy: Vec<f64>,
    dh: Vec<f64>,
    dc: Vec<f64>,
    dh_next: Vec<f64>,
    dc_next: Vec<f64>,
}

impl LstmScratch {
    /// Scratch sized for the network's hidden width.
    pub fn new() -> Self {
        let per_step = || vec![0.0; SEQ_LEN * HIDDEN];
        let mat = || vec![0.0; HIDDEN * (INPUT_DIM + HIDDEN)];
        let row = || vec![0.0; HIDDEN];
        LstmScratch {
            i: per_step(),
            f: per_step(),
            o: per_step(),
            g: per_step(),
            c: per_step(),
            h: per_step(),
            z: vec![0.0; INPUT_DIM + HIDDEN],
            gwi: mat(),
            gwf: mat(),
            gwo: mat(),
            gwg: mat(),
            gbi: row(),
            gbf: row(),
            gbo: row(),
            gbg: row(),
            gwy: row(),
            dh: row(),
            dc: row(),
            dh_next: row(),
            dc_next: row(),
        }
    }
}

impl Default for LstmScratch {
    fn default() -> Self {
        LstmScratch::new()
    }
}

impl PartialEq for LstmScratch {
    /// Scratch holds no model state: all scratches compare equal so owners
    /// can derive `PartialEq` without their transient buffers mattering.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// A single-layer LSTM with a linear read-out head, trained online by SGD.
///
/// # Example
///
/// ```
/// use coach_predict::lstm::{Lstm, SEQ_LEN};
/// let mut net = Lstm::new(0x15F3);
/// // Learn a constant signal.
/// let window = [[0.6, 0.5]; SEQ_LEN];
/// for _ in 0..300 { net.train_step(&window, 0.55); }
/// assert!((net.predict(&window) - 0.55).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lstm {
    /// Gate weights: each `hidden × (INPUT_DIM + hidden)` (x ++ h_prev).
    wi: Mat,
    wf: Mat,
    wo: Mat,
    wg: Mat,
    bi: Vec<f64>,
    bf: Vec<f64>,
    bo: Vec<f64>,
    bg: Vec<f64>,
    /// Read-out: 1 × hidden + bias.
    wy: Vec<f64>,
    by: f64,
}

impl Lstm {
    /// Initialize with small random weights drawn from `seed` (forget-gate
    /// bias +1, the usual trick to start with long memory).
    pub fn new(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let h = HIDDEN;
        let inw = INPUT_DIM + h;
        let scale = (1.0 / inw as f64).sqrt();
        Lstm {
            wi: Mat::new(h, inw, &mut rng, scale),
            wf: Mat::new(h, inw, &mut rng, scale),
            wo: Mat::new(h, inw, &mut rng, scale),
            wg: Mat::new(h, inw, &mut rng, scale),
            bi: vec![0.0; h],
            bf: vec![1.0; h],
            bo: vec![0.0; h],
            bg: vec![0.0; h],
            wy: (0..h).map(|_| rng.gen_range(-scale..scale)).collect(),
            by: 0.0,
        }
    }

    /// Forward pass into the scratch's activation buffers; returns the
    /// sigmoid-squashed read-out.
    fn forward_into(&self, window: &[[f64; INPUT_DIM]; SEQ_LEN], s: &mut LstmScratch) -> f64 {
        let hdim = HIDDEN;

        for (t, x) in window.iter().enumerate() {
            let (lo, hi) = (t * hdim, (t + 1) * hdim);
            s.z[..INPUT_DIM].copy_from_slice(x);
            if t == 0 {
                s.z[INPUT_DIM..].fill(0.0);
            } else {
                s.z[INPUT_DIM..].copy_from_slice(&s.h[lo - hdim..lo]);
            }

            let gate = |w: &Mat, b: &[f64], squash: fn(f64) -> f64, z: &[f64], out: &mut [f64]| {
                w.mul_vec(z, out);
                out.iter_mut()
                    .zip(b)
                    .for_each(|(v, bb)| *v = squash(*v + bb));
            };
            gate(&self.wi, &self.bi, sigmoid, &s.z, &mut s.i[lo..hi]);
            gate(&self.wf, &self.bf, sigmoid, &s.z, &mut s.f[lo..hi]);
            gate(&self.wo, &self.bo, sigmoid, &s.z, &mut s.o[lo..hi]);
            gate(&self.wg, &self.bg, f64::tanh, &s.z, &mut s.g[lo..hi]);

            for k in 0..hdim {
                let c_prev = if t == 0 { 0.0 } else { s.c[lo - hdim + k] };
                let c = s.f[lo + k] * c_prev + s.i[lo + k] * s.g[lo + k];
                s.c[lo + k] = c;
                s.h[lo + k] = s.o[lo + k] * c.tanh();
            }
        }

        let last = (SEQ_LEN - 1) * hdim;
        let y: f64 = self
            .wy
            .iter()
            .zip(&s.h[last..last + hdim])
            .map(|(w, h)| w * h)
            .sum::<f64>()
            + self.by;
        sigmoid(y) // utilization fractions live in [0, 1]
    }

    /// Predict the next-5-minute utilization from the previous five windows'
    /// `[max, avg]` pairs, reusing `scratch` (no allocation in steady state).
    pub fn predict_with(
        &self,
        window: &[[f64; INPUT_DIM]; SEQ_LEN],
        scratch: &mut LstmScratch,
    ) -> f64 {
        self.forward_into(window, scratch)
    }

    /// [`Lstm::predict_with`] through a transient scratch — convenient for
    /// tests and one-off calls; hot loops should hold a scratch instead.
    pub fn predict(&self, window: &[[f64; INPUT_DIM]; SEQ_LEN]) -> f64 {
        self.predict_with(window, &mut LstmScratch::new())
    }

    /// One online SGD step toward `target`, reusing `scratch` (no
    /// allocation in steady state); returns the squared error *before* the
    /// update.
    pub fn train_step_with(
        &mut self,
        window: &[[f64; INPUT_DIM]; SEQ_LEN],
        target: f64,
        s: &mut LstmScratch,
    ) -> f64 {
        let target = target.clamp(0.0, 1.0);
        let output = self.forward_into(window, s);
        let err = output - target;
        let hdim = HIDDEN;

        // Output layer gradient (through the sigmoid).
        let dy = 2.0 * err * output * (1.0 - output);
        let last = (SEQ_LEN - 1) * hdim;
        for (g, h) in s.gwy.iter_mut().zip(&s.h[last..last + hdim]) {
            *g = dy * h;
        }
        let gby = dy;

        // BPTT over the scratch's cached activations.
        for buf in [&mut s.gwi, &mut s.gwf, &mut s.gwo, &mut s.gwg] {
            buf.fill(0.0);
        }
        for buf in [&mut s.gbi, &mut s.gbf, &mut s.gbo, &mut s.gbg] {
            buf.fill(0.0);
        }
        for (d, w) in s.dh.iter_mut().zip(&self.wy) {
            *d = dy * w;
        }
        s.dc.fill(0.0);

        let inw = INPUT_DIM + hdim;
        for t in (0..SEQ_LEN).rev() {
            let lo = t * hdim;
            s.z[..INPUT_DIM].copy_from_slice(&window[t]);
            if t == 0 {
                s.z[INPUT_DIM..].fill(0.0);
            } else {
                s.z[INPUT_DIM..].copy_from_slice(&s.h[lo - hdim..lo]);
            }

            s.dh_next.fill(0.0);
            s.dc_next.fill(0.0);

            for k in 0..hdim {
                let tanh_c = s.c[lo + k].tanh();
                let do_k = s.dh[k] * tanh_c;
                let dct = s.dh[k] * s.o[lo + k] * (1.0 - tanh_c * tanh_c) + s.dc[k];

                let c_prev = if t == 0 { 0.0 } else { s.c[lo - hdim + k] };
                let di = dct * s.g[lo + k];
                let dg = dct * s.i[lo + k];
                let df = dct * c_prev;
                s.dc_next[k] = dct * s.f[lo + k];

                // Pre-activation gradients.
                let zi = di * s.i[lo + k] * (1.0 - s.i[lo + k]);
                let zf = df * s.f[lo + k] * (1.0 - s.f[lo + k]);
                let zo = do_k * s.o[lo + k] * (1.0 - s.o[lo + k]);
                let zg = dg * (1.0 - s.g[lo + k] * s.g[lo + k]);

                s.gbi[k] += zi;
                s.gbf[k] += zf;
                s.gbo[k] += zo;
                s.gbg[k] += zg;
                let row = k * inw;
                for (c, &zv) in s.z.iter().enumerate() {
                    s.gwi[row + c] += zi * zv;
                    s.gwf[row + c] += zf * zv;
                    s.gwo[row + c] += zo * zv;
                    s.gwg[row + c] += zg * zv;
                    if c >= INPUT_DIM {
                        let hc = c - INPUT_DIM;
                        s.dh_next[hc] += zi * self.wi.at(k, c)
                            + zf * self.wf.at(k, c)
                            + zo * self.wo.at(k, c)
                            + zg * self.wg.at(k, c);
                    }
                }
            }
            std::mem::swap(&mut s.dh, &mut s.dh_next);
            std::mem::swap(&mut s.dc, &mut s.dc_next);
        }

        // Gradient clipping by global L2 norm.
        let mut norm2 = gby * gby;
        for g in s.gwy.iter() {
            norm2 += g * g;
        }
        for m in [&s.gwi, &s.gwf, &s.gwo, &s.gwg] {
            for g in m.iter() {
                norm2 += g * g;
            }
        }
        for b in [&s.gbi, &s.gbf, &s.gbo, &s.gbg] {
            for g in b.iter() {
                norm2 += g * g;
            }
        }
        let norm = norm2.sqrt();
        let scale = if norm > GRAD_CLIP {
            GRAD_CLIP / norm
        } else {
            1.0
        };
        let lr = LEARNING_RATE * scale;

        // SGD update.
        for k in 0..hdim {
            self.wy[k] -= lr * s.gwy[k];
            self.bi[k] -= lr * s.gbi[k];
            self.bf[k] -= lr * s.gbf[k];
            self.bo[k] -= lr * s.gbo[k];
            self.bg[k] -= lr * s.gbg[k];
        }
        self.by -= lr * gby;
        for (m, g) in [
            (&mut self.wi, &s.gwi),
            (&mut self.wf, &s.gwf),
            (&mut self.wo, &s.gwo),
            (&mut self.wg, &s.gwg),
        ] {
            for (w, gr) in m.w.iter_mut().zip(g.iter()) {
                *w -= lr * gr;
            }
        }

        err * err
    }

    /// [`Lstm::train_step_with`] through a transient scratch — for tests
    /// and one-off calls; hot loops should hold a scratch instead.
    pub fn train_step(&mut self, window: &[[f64; INPUT_DIM]; SEQ_LEN], target: f64) -> f64 {
        self.train_step_with(window, target, &mut LstmScratch::new())
    }

    /// Parameter-memory footprint in bytes (§4.5: ~25 KB per predictor).
    pub fn size_bytes(&self) -> usize {
        let h = HIDDEN;
        let inw = INPUT_DIM + h;
        (4 * h * inw + 4 * h + h + 1) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0x15F3;

    fn window_of(vals: [f64; SEQ_LEN]) -> [[f64; INPUT_DIM]; SEQ_LEN] {
        vals.map(|v| [v, v * 0.8])
    }

    #[test]
    fn learns_constant_signal() {
        let mut net = Lstm::new(SEED);
        let w = window_of([0.6; SEQ_LEN]);
        for _ in 0..400 {
            net.train_step(&w, 0.6);
        }
        assert!(
            (net.predict(&w) - 0.6).abs() < 0.05,
            "pred {}",
            net.predict(&w)
        );
    }

    #[test]
    fn learns_two_distinct_patterns() {
        // Rising window → high next value; falling window → low next value.
        let mut net = Lstm::new(SEED);
        let rising = window_of([0.1, 0.25, 0.4, 0.55, 0.7]);
        let falling = window_of([0.7, 0.55, 0.4, 0.25, 0.1]);
        for _ in 0..800 {
            net.train_step(&rising, 0.85);
            net.train_step(&falling, 0.05);
        }
        let pr = net.predict(&rising);
        let pf = net.predict(&falling);
        assert!(pr > 0.6, "rising prediction {pr}");
        assert!(pf < 0.3, "falling prediction {pf}");
    }

    #[test]
    fn training_reduces_error() {
        let mut net = Lstm::new(SEED);
        let w = window_of([0.3, 0.5, 0.3, 0.5, 0.3]);
        let first = net.train_step(&w, 0.5);
        for _ in 0..300 {
            net.train_step(&w, 0.5);
        }
        let last = net.train_step(&w, 0.5);
        assert!(
            last < first * 0.5,
            "error did not shrink: {first} -> {last}"
        );
    }

    #[test]
    fn outputs_are_valid_fractions() {
        let mut net = Lstm::new(SEED);
        for i in 0..50u64 {
            let v = (i % 10) as f64 / 10.0;
            net.train_step(&window_of([v; SEQ_LEN]), v);
        }
        for i in 0..10u64 {
            let p = net.predict(&window_of([(i as f64) / 10.0; SEQ_LEN]));
            assert!((0.0..=1.0).contains(&p), "prediction {p}");
        }
    }

    #[test]
    fn size_is_tens_of_kilobytes() {
        // §4.5: each local predictor ≈ 25 KB.
        let net = Lstm::new(SEED);
        let kb = net.size_bytes() as f64 / 1024.0;
        assert!(kb < 50.0, "LSTM too large: {kb} KB");
    }

    #[test]
    fn deterministic_init() {
        let a = Lstm::new(SEED);
        let b = Lstm::new(SEED);
        assert_eq!(a, b);
    }
}
