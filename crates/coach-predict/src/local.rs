//! The server-local two-level contention predictor (§3.4/§3.6).
//!
//! * **Short horizon** — an [`Ewma`] updated every 20-second monitoring
//!   interval predicts the next 20 seconds.
//! * **Long horizon** — an [`Lstm`] fed the max/avg utilization of the five
//!   previous 5-minute windows predicts the next 5 minutes. The LSTM "is
//!   trained for 24 hours before using its predictions" (§3.6); until then
//!   callers fall back to the EWMA.

use crate::ewma::Ewma;
use crate::lstm::{Lstm, LstmScratch, INPUT_DIM, SEQ_LEN};

/// 20-second observations per 5-minute window.
pub const OBS_PER_WINDOW: usize = 15;
/// 5-minute windows in the 24-hour LSTM warm-up.
pub const WARMUP_WINDOWS: u64 = 288;

/// Two-level utilization predictor for one (VM, resource) stream.
///
/// # Example
///
/// ```
/// use coach_predict::LocalPredictor;
/// let mut p = LocalPredictor::new(0);
/// for _ in 0..100 { p.observe(0.3); }
/// assert!((p.predict_short() - 0.3).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LocalPredictor {
    ewma: Ewma,
    lstm: Lstm,
    /// Accumulator for the in-progress 5-minute window.
    cur_max: f64,
    cur_sum: f64,
    cur_n: usize,
    /// Ring of the last `SEQ_LEN` completed windows' `[max, avg]`.
    history: Vec<[f64; INPUT_DIM]>,
    windows_completed: u64,
}

impl LocalPredictor {
    /// Create a fresh predictor; `seed` controls LSTM weight init.
    pub fn new(seed: u64) -> Self {
        LocalPredictor {
            ewma: Ewma::paper_default(),
            lstm: Lstm::new(seed),
            cur_max: 0.0,
            cur_sum: 0.0,
            cur_n: 0,
            history: Vec::new(),
            windows_completed: 0,
        }
    }

    /// Feed one 20-second utilization observation (fraction in `[0, 1]`),
    /// reusing `scratch` for the LSTM update when a window closes — the
    /// allocation-free form the agent loop uses.
    pub fn observe_with(&mut self, util: f64, scratch: &mut LstmScratch) {
        if self.accumulate(util) {
            self.close_window(scratch);
        }
    }

    /// [`LocalPredictor::observe_with`] through a transient scratch (built
    /// only when a window actually closes). Every 15th observation closes a
    /// 5-minute window and performs one online LSTM update.
    pub fn observe(&mut self, util: f64) {
        if self.accumulate(util) {
            self.close_window(&mut LstmScratch::new());
        }
    }

    /// Fold one observation into the EWMA and the in-progress window;
    /// returns whether the window is now complete.
    fn accumulate(&mut self, util: f64) -> bool {
        let u = util.clamp(0.0, 1.0);
        self.ewma.observe(u);
        self.cur_max = self.cur_max.max(u);
        self.cur_sum += u;
        self.cur_n += 1;
        self.cur_n >= OBS_PER_WINDOW
    }

    fn close_window(&mut self, scratch: &mut LstmScratch) {
        let avg = self.cur_sum / self.cur_n as f64;
        let completed = [self.cur_max, avg];

        // Online training: the previous SEQ_LEN windows predict this one.
        if self.history.len() == SEQ_LEN {
            let window: [[f64; INPUT_DIM]; SEQ_LEN] = std::array::from_fn(|i| self.history[i]);
            // The target is this window's max — the quantity contention
            // detection cares about.
            self.lstm.train_step_with(&window, self.cur_max, scratch);
        }

        self.history.push(completed);
        if self.history.len() > SEQ_LEN {
            self.history.remove(0);
        }
        self.windows_completed += 1;
        self.cur_max = 0.0;
        self.cur_sum = 0.0;
        self.cur_n = 0;
    }

    /// Predicted utilization for the next 20 seconds (EWMA).
    pub fn predict_short(&self) -> f64 {
        self.ewma.predict()
    }

    /// Predicted max utilization for the next 5 minutes (reusing
    /// `scratch`), or `None` during the 24-hour warm-up (callers fall back
    /// to [`predict_short`]).
    ///
    /// [`predict_short`]: LocalPredictor::predict_short
    pub fn predict_long_with(&self, scratch: &mut LstmScratch) -> Option<f64> {
        if self.windows_completed < WARMUP_WINDOWS || self.history.len() < SEQ_LEN {
            return None;
        }
        let window: [[f64; INPUT_DIM]; SEQ_LEN] = std::array::from_fn(|i| self.history[i]);
        Some(self.lstm.predict_with(&window, scratch))
    }

    /// [`LocalPredictor::predict_long_with`] through a transient scratch.
    pub fn predict_long(&self) -> Option<f64> {
        self.predict_long_with(&mut LstmScratch::new())
    }

    /// Best available long-horizon prediction: LSTM after warm-up, EWMA
    /// before. Reuses `scratch` — the agent-loop form.
    pub fn predict_next_5min_with(&self, scratch: &mut LstmScratch) -> f64 {
        self.predict_long_with(scratch)
            .unwrap_or_else(|| self.predict_short())
    }

    /// [`LocalPredictor::predict_next_5min_with`] through a transient
    /// scratch.
    pub fn predict_next_5min(&self) -> f64 {
        self.predict_long().unwrap_or_else(|| self.predict_short())
    }

    /// 5-minute windows completed so far.
    pub fn windows_completed(&self) -> u64 {
        self.windows_completed
    }

    /// Whether the LSTM has finished its 24-hour warm-up.
    pub fn lstm_ready(&self) -> bool {
        self.windows_completed >= WARMUP_WINDOWS
    }

    /// Predictor memory footprint in bytes (§4.5: ~25 KB).
    pub fn size_bytes(&self) -> usize {
        self.lstm.size_bytes() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the predictor through `windows` 5-minute windows of a periodic
    /// signal alternating between `lo` and `hi` each window.
    fn drive_alternating(p: &mut LocalPredictor, windows: usize, lo: f64, hi: f64) {
        for w in 0..windows {
            let level = if w % 2 == 0 { lo } else { hi };
            for _ in 0..OBS_PER_WINDOW {
                p.observe(level);
            }
        }
    }

    #[test]
    fn short_prediction_tracks_signal() {
        let mut p = LocalPredictor::new(1);
        for _ in 0..60 {
            p.observe(0.42);
        }
        assert!((p.predict_short() - 0.42).abs() < 1e-6);
    }

    #[test]
    fn long_prediction_gated_by_warmup() {
        let mut p = LocalPredictor::new(2);
        drive_alternating(&mut p, 100, 0.2, 0.6);
        assert!(!p.lstm_ready());
        assert!(p.predict_long().is_none());
        // Falls back to EWMA.
        let f = p.predict_next_5min();
        assert!((0.0..=1.0).contains(&f));
        drive_alternating(&mut p, 200, 0.2, 0.6);
        assert!(p.lstm_ready());
        assert!(p.predict_long().is_some());
    }

    #[test]
    fn lstm_learns_alternating_pattern() {
        // After warm-up on a strict alternation, the LSTM should predict
        // the next window's level better than a mean guess.
        let mut p = LocalPredictor::new(3);
        drive_alternating(&mut p, 1500, 0.1, 0.7);
        // 1500 windows done; history ends after window 1499 (hi at odd
        // indices, so last = index 1499 → hi). Next (1500) is lo = 0.1, far
        // below the signal mean of 0.4.
        let pred = p.predict_long().expect("warm");
        assert!(pred < 0.3, "expected well below the 0.4 mean, got {pred}");
    }

    #[test]
    fn window_accounting() {
        let mut p = LocalPredictor::new(4);
        for _ in 0..(OBS_PER_WINDOW * 3 + 5) {
            p.observe(0.5);
        }
        assert_eq!(p.windows_completed(), 3);
    }

    #[test]
    fn size_under_50kb() {
        let p = LocalPredictor::new(5);
        assert!(p.size_bytes() < 50 * 1024, "{} bytes", p.size_bytes());
    }
}
