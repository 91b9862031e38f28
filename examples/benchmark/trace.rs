//! The benchmark's own tracing: spans kept in memory around calls into
//! each layer, and the timing adapters that produce them.
//!
//! Nothing here reaches into the program under test. A [`Meter`] times
//! closures the benchmark wraps around public functions; [`TimedIter`] and
//! [`TimedPredictor`] are the two places the serving path accepts caller
//! code (the record iterator and the `Predictor`), so they are where the
//! `trace` and `predict` layers are seen from outside.
//!
//! A meter would emit millions of spans on a million-VM stream, so it folds
//! its calls into one span per [`SEGMENT`] items: the span starts where the
//! segment's first call started and lasts as long as the segment's calls
//! were busy. Totals (busy time, calls, items) are kept exactly, whatever
//! the folding.

use coach::predict::DemandPrediction;
use coach::sim::Predictor;
use coach::trace::VmRecord;
use coach::types::prelude::*;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Items folded into one span — the dispatcher's own segment size, so a
/// `predict` span is one `predict_batch` call on the sharded path.
pub const SEGMENT: u64 = 1024;

pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// All spans of one benchmark process.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("no panic while tracing");
        spans.push(span);
        spans.len() - 1
    }

    /// The handle one workload records through.
    pub fn scope(&self, workload: &'static str) -> Scope<'_> {
        Scope {
            tracer: self,
            workload,
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("no panic while tracing").len()
    }

    /// Chrome `trace_event` JSON (complete events), loadable in
    /// `chrome://tracing` or Perfetto. One process row per workload.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("no panic while tracing");
        let mut workloads: Vec<&str> = Vec::new();
        let mut out = String::from("{\"traceEvents\": [\n");
        for (id, span) in spans.iter().enumerate() {
            let pid = match workloads.iter().position(|w| *w == span.workload) {
                Some(p) => p,
                None => {
                    workloads.push(span.workload);
                    workloads.len() - 1
                }
            };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": {pid}, \"tid\": 0, \
                 \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}",
                if id == 0 { "" } else { ",\n" },
                span.name,
                span.workload,
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A [`Tracer`] as one workload sees it: every span it records carries the
/// workload's name.
#[derive(Clone, Copy)]
pub struct Scope<'t> {
    tracer: &'t Tracer,
    workload: &'static str,
}

impl<'t> Scope<'t> {
    /// Open a top-level span; meters created under it name the returned
    /// index as their parent.
    pub fn open(&self, name: &'static str) -> usize {
        let start_ns = self.tracer.ns(Instant::now());
        self.tracer.push(Span {
            name,
            workload: self.workload,
            start_ns,
            end_ns: start_ns,
            parent: None,
        })
    }

    pub fn close(&self, id: usize) {
        let end_ns = self.tracer.ns(Instant::now());
        self.tracer.spans.lock().expect("no panic while tracing")[id].end_ns = end_ns;
    }

    pub fn meter(&self, name: &'static str, parent: usize) -> Meter<'t> {
        Meter {
            tracer: self.tracer,
            name,
            workload: self.workload,
            parent,
            state: Mutex::new(MeterState::default()),
        }
    }
}

/// What a meter saw, exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub busy_s: f64,
    pub calls: u64,
    pub items: u64,
}

impl Totals {
    /// Busy nanoseconds per item (0 when nothing was counted).
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.busy_s * 1e9 / self.items as f64
        }
    }
}

#[derive(Default)]
struct MeterState {
    busy_ns: u64,
    calls: u64,
    items: u64,
    seg_start_ns: u64,
    seg_busy_ns: u64,
    seg_items: u64,
}

/// Times calls into one layer boundary. `Sync`, because a `Predictor` is
/// shared with shard workers; the lock is uncontended on the single-thread
/// replays the budget is taken from.
pub struct Meter<'t> {
    tracer: &'t Tracer,
    name: &'static str,
    workload: &'static str,
    parent: usize,
    state: Mutex<MeterState>,
}

impl Meter<'_> {
    /// Time one call that handles `items` items.
    pub fn time<R>(&self, items: u64, f: impl FnOnce() -> R) -> R {
        self.time_counting(f, |_| items)
    }

    /// Time one call whose item count is only known from what it returns.
    pub fn time_counting<R>(&self, f: impl FnOnce() -> R, items: impl FnOnce(&R) -> u64) -> R {
        let start = Instant::now();
        let value = f();
        let busy_ns = start.elapsed().as_nanos() as u64;
        let items = items(&value);
        let mut s = self.state.lock().expect("no panic while tracing");
        s.busy_ns += busy_ns;
        s.calls += 1;
        s.items += items;
        if s.seg_items == 0 {
            s.seg_start_ns = self.tracer.ns(start);
        }
        s.seg_busy_ns += busy_ns;
        // A call without items (a clock advance, say) still fills the segment.
        s.seg_items += items.max(1);
        if s.seg_items >= SEGMENT {
            self.flush(&mut s);
        }
        value
    }

    fn flush(&self, s: &mut MeterState) {
        if s.seg_items == 0 {
            return;
        }
        self.tracer.push(Span {
            name: self.name,
            workload: self.workload,
            start_ns: s.seg_start_ns,
            end_ns: s.seg_start_ns + s.seg_busy_ns,
            parent: Some(self.parent),
        });
        s.seg_busy_ns = 0;
        s.seg_items = 0;
    }

    /// Close the open segment and return the exact totals.
    pub fn totals(&self) -> Totals {
        let mut s = self.state.lock().expect("no panic while tracing");
        self.flush(&mut s);
        Totals {
            busy_s: s.busy_ns as f64 / 1e9,
            calls: s.calls,
            items: s.items,
        }
    }
}

/// Times `next()` on the record iterator: the `trace` layer as the serving
/// path pulls on it.
pub struct TimedIter<'m, 't, I> {
    inner: I,
    meter: &'m Meter<'t>,
}

impl<'m, 't, I> TimedIter<'m, 't, I> {
    pub fn new(inner: I, meter: &'m Meter<'t>) -> Self {
        TimedIter { inner, meter }
    }
}

impl<I: Iterator> Iterator for TimedIter<'_, '_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        // The closing `None` is a call, not a record.
        self.meter
            .time_counting(|| self.inner.next(), |next| next.is_some() as u64)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// What a [`TimedPredictor`] answered, in call order.
pub type Stash = Vec<(VmId, Option<Box<DemandPrediction>>)>;

/// Times a [`Predictor`] and keeps what it answered, so the isolated
/// scheduler and accounting replays can be fed the very same predictions
/// without deriving them again.
pub struct TimedPredictor<'m, 't, 'p> {
    inner: &'p dyn Predictor,
    meter: &'m Meter<'t>,
    /// `(vm, prediction)` in call order, and the nanoseconds spent copying
    /// them here (outside the meter's clock; see [`Self::stash_s`]). Boxed,
    /// because most VMs get no prediction and an inline `Option` would
    /// spend 400 bytes on each of them.
    stash: Mutex<(Stash, u64)>,
}

impl<'m, 't, 'p> TimedPredictor<'m, 't, 'p> {
    pub fn new(inner: &'p dyn Predictor, meter: &'m Meter<'t>) -> Self {
        TimedPredictor {
            inner,
            meter,
            stash: Mutex::new((Vec::new(), 0)),
        }
    }

    fn keep(&self, vms: &[&VmRecord], predictions: &[Option<DemandPrediction>]) {
        let start = Instant::now();
        let mut stash = self.stash.lock().expect("no panic while tracing");
        stash.0.extend(
            vms.iter()
                .zip(predictions)
                .map(|(vm, p)| (vm.id, p.clone().map(Box::new))),
        );
        stash.1 += start.elapsed().as_nanos() as u64;
    }

    /// Seconds spent copying predictions into the stash — tracing's own
    /// cost inside the run, to be kept out of every layer's account.
    pub fn stash_s(&self) -> f64 {
        self.stash.lock().expect("no panic while tracing").1 as f64 / 1e9
    }

    /// The predictions answered so far, in call order.
    pub fn into_stash(self) -> Stash {
        self.stash.into_inner().expect("no panic while tracing").0
    }
}

impl Predictor for TimedPredictor<'_, '_, '_> {
    fn time_windows(&self) -> TimeWindows {
        self.inner.time_windows()
    }

    fn predict(&self, vm: &VmRecord, percentile: Percentile) -> Option<DemandPrediction> {
        let prediction = self.meter.time(1, || self.inner.predict(vm, percentile));
        self.keep(&[vm], std::slice::from_ref(&prediction));
        prediction
    }

    fn predict_batch(
        &self,
        vms: &[&VmRecord],
        percentile: Percentile,
    ) -> Vec<Option<DemandPrediction>> {
        let predictions = self.meter.time(vms.len() as u64, || {
            self.inner.predict_batch(vms, percentile)
        });
        self.keep(vms, &predictions);
        predictions
    }
}
