//! What every workload shares: repeated set-up, repeated timed regions
//! under the counting allocator, the correctness log, the report, and the
//! per-layer budget of a traced pass.

use crate::alloc;
use crate::metrics::{median, Layers, Report, END_TO_END};
use crate::replay::{replay_account, replay_sched, RequestMix};
use crate::trace::{Meter, Scope, Stash, TimedPredictor, Totals};
use coach::serve::{Request, ServeConfig};
use coach::sim::{PackingResult, Predictor};
use coach::trace::{Cluster, StreamingTrace};
use coach::types::prelude::*;
use std::time::Instant;

pub struct Params {
    pub seed: u64,
    /// How long the untraced timed region may be repeated for.
    pub seconds: f64,
    /// Every `vm_count` ÷ 20 and at most three passes: a smoke run, not a
    /// measurement.
    pub quick: bool,
}

/// One controller configuration over one fleet.
#[derive(Clone, Copy)]
pub struct Serving<'a> {
    pub clusters: &'a [Cluster],
    pub config: ServeConfig,
    pub tw: TimeWindows,
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Times named parts of one set-up.
#[derive(Default)]
pub struct SetupClock {
    parts: Vec<(&'static str, f64)>,
}

impl SetupClock {
    /// Time one part; `name` is the per-layer metric it is reported as.
    pub fn part<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let value = f();
        self.parts.push((name, start.elapsed().as_secs_f64()));
        value
    }
}

pub struct SetupTimes {
    total_s: f64,
    parts: Vec<(&'static str, f64)>,
    repetitions: usize,
}

impl SetupTimes {
    pub fn write(&self, layers: &mut Layers) {
        for (name, seconds) in &self.parts {
            layers.set(name, *seconds);
        }
    }
}

/// Set up up to three times (while that stays within six seconds) and
/// report the median of the total and of each part; the last set-up is the
/// one used.
pub fn set_up<S>(build: impl Fn(&mut SetupClock) -> S) -> (S, SetupTimes) {
    let mut totals = Vec::new();
    let mut parts: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut spent = 0.0;
    loop {
        let mut clock = SetupClock::default();
        let start = Instant::now();
        let built = build(&mut clock);
        let total = start.elapsed().as_secs_f64();
        totals.push(total);
        for (i, (name, seconds)) in clock.parts.into_iter().enumerate() {
            if parts.len() <= i {
                parts.push((name, Vec::new()));
            }
            parts[i].1.push(seconds);
        }
        spent += total;
        if totals.len() == 3 || spent + total > 6.0 {
            let times = SetupTimes {
                total_s: median(&totals),
                parts: parts.iter().map(|(n, v)| (*n, median(v))).collect(),
                repetitions: totals.len(),
            };
            return (built, times);
        }
    }
}

// ---------------------------------------------------------------------------
// Timed regions
// ---------------------------------------------------------------------------

/// One repetition of a timed region.
pub struct Rep {
    pub wall_s: f64,
    /// Allocator high-water mark over the region, above the live bytes at
    /// its start.
    peak_bytes: usize,
    pub results: Vec<PackingResult>,
}

/// Run one timed region: first request submitted → `PackingResult`
/// returned.
pub fn timed(region: impl FnOnce() -> PackingResult) -> Rep {
    let baseline = alloc::baseline();
    alloc::reset_peak();
    let start = Instant::now();
    let result = region();
    let wall_s = start.elapsed().as_secs_f64();
    Rep {
        wall_s,
        peak_bytes: alloc::peak_since(baseline),
        results: vec![result],
    }
}

impl Rep {
    /// Regions run in sequence: times add, the peak is the highest.
    pub fn then(mut self, next: Rep) -> Rep {
        self.wall_s += next.wall_s;
        self.peak_bytes = self.peak_bytes.max(next.peak_bytes);
        self.results.extend(next.results);
        self
    }
}

/// Repeat a timed region while another repetition still fits in `seconds`
/// (always at least once, at most `max`).
pub fn repeat(seconds: f64, max: usize, mut one: impl FnMut() -> Rep) -> Vec<Rep> {
    let mut reps: Vec<Rep> = Vec::new();
    let mut spent = 0.0;
    loop {
        let rep = one();
        spent += rep.wall_s;
        reps.push(rep);
        if reps.len() >= max || spent + median_wall_s(&reps) > seconds {
            return reps;
        }
    }
}

pub fn median_wall_s(reps: &[Rep]) -> f64 {
    median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>())
}

// ---------------------------------------------------------------------------
// Checks and the report
// ---------------------------------------------------------------------------

/// The correctness checks a workload made, and the notes a reader needs
/// beside its numbers.
#[derive(Default)]
pub struct Log {
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
}

impl Log {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

/// The rule `fig20` holds the online replay to against the batch one: every
/// integer decision field and every rate exactly, the accumulated
/// capacity-hour sums to within summation-order ulps.
pub fn same_decisions(a: &PackingResult, b: &PackingResult) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() / y.abs().max(1.0) < 1e-9;
    a.accepted == b.accepted
        && a.rejected == b.rejected
        && a.probe_capacity == b.probe_capacity
        && a.peak_servers_in_use == b.peak_servers_in_use
        && a.cpu_violation_rate == b.cpu_violation_rate
        && a.mem_violation_rate == b.mem_violation_rate
        && close(a.accepted_core_hours, b.accepted_core_hours)
        && close(a.accepted_gb_hours, b.accepted_gb_hours)
}

/// What a workload decided, for the end-to-end metrics that are decisions.
pub struct Decided<'a> {
    /// VM requests submitted.
    pub attempted: u64,
    /// The result the capacity, violation and server metrics are read from
    /// (`results[headline]` of a repetition).
    pub headline: usize,
    /// Whether the workload probes, and samples violations, at all.
    pub probe_capacity: bool,
    pub violation_rates: bool,
    pub extra_capacity: Option<f64>,
    /// Every `PackingResult` of one repetition (one, or one per policy).
    pub results: &'a [PackingResult],
}

pub fn report(
    workload: &'static str,
    params: &Params,
    setup: &SetupTimes,
    reps: &[Rep],
    decided: Decided<'_>,
    per_layer: Option<Layers>,
    mut log: Log,
) -> Report {
    let accepted: u64 = decided.results.iter().map(|r| r.accepted).sum();
    let rejected: u64 = decided.results.iter().map(|r| r.rejected).sum();
    log.check(
        "accepted + rejected == attempted",
        accepted + rejected == decided.attempted,
    );
    log.note(format!(
        "{} repetition(s) of the timed region, {} of set-up; medians reported",
        reps.len(),
        setup.repetitions
    ));
    let wall_s = median_wall_s(reps);
    let peak_bytes = median(&reps.iter().map(|r| r.peak_bytes as f64).collect::<Vec<_>>());
    let headline = &decided.results[decided.headline];
    let end_to_end = END_TO_END
        .iter()
        .map(|metric| match metric.name {
            "wall_s" => Some(wall_s),
            "placed_per_s" => Some(accepted as f64 / wall_s),
            "setup_s" => Some(setup.total_s),
            "peak_bytes_per_vm" => Some(peak_bytes / decided.attempted as f64),
            "accepted_share" => Some(accepted as f64 / decided.attempted as f64),
            "peak_servers_in_use" => Some(headline.peak_servers_in_use as f64),
            "probe_capacity" => decided.probe_capacity.then_some(headline.probe_capacity),
            "extra_capacity" => decided.extra_capacity,
            "cpu_violation_rate" => decided
                .violation_rates
                .then_some(headline.cpu_violation_rate),
            "mem_violation_rate" => decided
                .violation_rates
                .then_some(headline.mem_violation_rate),
            other => unreachable!("end-to-end metric {other} has no definition"),
        })
        .collect();
    let per_layer = per_layer.map(|mut layers| {
        layers.set("result.rejected", rejected as f64);
        layers.set(
            "result.peak_servers_in_use",
            headline.peak_servers_in_use as f64,
        );
        layers.set("result.probe_capacity", headline.probe_capacity);
        layers.set(
            "result.extra_capacity",
            decided.extra_capacity.unwrap_or(0.0),
        );
        layers.set("result.cpu_violation_rate", headline.cpu_violation_rate);
        layers.set("result.mem_violation_rate", headline.mem_violation_rate);
        layers
    });
    Report {
        workload,
        seed: params.seed,
        attempted: decided.attempted,
        accepted,
        rejected,
        end_to_end,
        per_layer,
        checks: log.checks,
        notes: log.notes,
    }
}

// ---------------------------------------------------------------------------
// The traced pass
// ---------------------------------------------------------------------------

/// One traced run of a timed region, as the adapters saw it.
pub struct TracedRun {
    pub wall_s: f64,
    iter: Totals,
    predict: Totals,
    stash_s: f64,
    pub predictions: Stash,
}

/// Run a timed region under the adapters. `region` is handed the timing
/// predictor and the meter to wrap the record iterator in; on a
/// single-thread run both are called from inside the `serve.run` span, so
/// their spans are its children and its self time is exact.
pub fn trace_run<'t>(
    scope: Scope<'t>,
    predictor: &dyn Predictor,
    region: impl FnOnce(&dyn Predictor, &Meter<'t>) -> Rep,
) -> (TracedRun, Rep) {
    let span = scope.open("serve.run");
    let iter = scope.meter("trace.next", span);
    let predict = scope.meter("predict", span);
    let timed_predictor = TimedPredictor::new(predictor, &predict);
    let rep = region(&timed_predictor, &iter);
    scope.close(span);
    let run = TracedRun {
        wall_s: rep.wall_s,
        iter: iter.totals(),
        predict: predict.totals(),
        stash_s: timed_predictor.stash_s(),
        predictions: timed_predictor.into_stash(),
    };
    (run, rep)
}

/// Busy time per layer, accumulated over the traced runs of one workload
/// (one, or one per policy) and their isolated replays.
#[derive(Default)]
pub struct Budget {
    traced_wall_s: f64,
    stash_s: f64,
    iter: Totals,
    predict: Totals,
    nones: u64,
    demand: Totals,
    place: Totals,
    remove: Totals,
    probe: Totals,
    account: Totals,
    places: u64,
    rejects: u64,
    account_samples: u64,
    mix: RequestMix,
}

fn add(into: &mut Totals, more: Totals) {
    into.busy_s += more.busy_s;
    into.calls += more.calls;
    into.items += more.items;
}

impl Budget {
    /// Attribute one traced run: replay its scheduler and accountant calls
    /// in isolation, check the replays counted what the run reported, and
    /// add everything up.
    pub fn attribute<'a>(
        &mut self,
        scope: Scope<'_>,
        log: &mut Log,
        serving: &Serving<'_>,
        run: &TracedRun,
        result: &PackingResult,
        requests: impl Iterator<Item = Request<'a>>,
    ) {
        let label = serving.config.policy.label;
        let span = scope.open("replay");
        let sched = replay_sched(scope, span, serving, requests, &run.predictions);
        let account = replay_account(scope, span, &serving.config, &sched.log);
        scope.close(span);
        log.check(
            format!("[{label}] scheduler replay places and rejects what the run did"),
            sched.places == result.accepted && sched.rejects == result.rejected,
        );
        let probes = sched.mix.probes.max(1) as f64;
        log.check(
            format!("[{label}] scheduler replay measures the run's probe capacity"),
            sched.probe_total as f64 / probes == result.probe_capacity,
        );
        let samples = account.samples.max(1) as f64;
        log.check(
            format!("[{label}] accountant replay counts the run's violations"),
            account.cpu_violations as f64 / samples == result.cpu_violation_rate
                && account.mem_violations as f64 / samples == result.mem_violation_rate,
        );
        log.check(
            format!("[{label}] one prediction per arrival"),
            run.predict.items == sched.mix.arrivals,
        );

        self.traced_wall_s += run.wall_s;
        self.stash_s += run.stash_s;
        add(&mut self.iter, run.iter);
        add(&mut self.predict, run.predict);
        self.nones += run.predictions.iter().filter(|(_, p)| p.is_none()).count() as u64;
        add(&mut self.demand, sched.demand);
        add(&mut self.place, sched.place);
        add(&mut self.remove, sched.remove);
        add(&mut self.probe, sched.probe);
        add(&mut self.account, account.busy);
        self.places += sched.places;
        self.rejects += sched.rejects;
        self.account_samples += account.samples;
        self.mix.add(&sched.mix);
    }

    /// Write the budget. `untraced_wall_s` is the same region without the
    /// adapters. By construction
    /// `trace.next_busy_s + predict.busy_s + budget.trace_stash_s +
    /// serve.run_self_s == budget.traced_wall_s`, and `serve.run_self_s` is
    /// the isolated scheduler, probe and accountant times plus the
    /// `serve.controller_s` residual.
    pub fn write(&self, layers: &mut Layers, untraced_wall_s: f64) {
        // The run's own time: everything the adapters did not see, less
        // what tracing itself spent copying predictions aside.
        let run_self_s = self.traced_wall_s - self.iter.busy_s - self.predict.busy_s - self.stash_s;
        let sched_s = self.demand.busy_s + self.place.busy_s + self.remove.busy_s;
        layers.set("trace.records", self.iter.items as f64);
        layers.set("trace.next_busy_s", self.iter.busy_s);
        layers.set("trace.ns_per_record", self.iter.ns_per_item());
        layers.set("predict.calls", self.predict.calls as f64);
        layers.set("predict.vms", self.predict.items as f64);
        layers.set("predict.busy_s", self.predict.busy_s);
        layers.set("predict.ns_per_vm", self.predict.ns_per_item());
        layers.set(
            "predict.none_share",
            self.nones as f64 / self.predict.items.max(1) as f64,
        );
        layers.set("sched.demand_ns_per_vm", self.demand.ns_per_item());
        layers.set("sched.place_ns_per_vm", self.place.ns_per_item());
        layers.set("sched.remove_ns_per_vm", self.remove.ns_per_item());
        layers.set("sched.places", self.places as f64);
        layers.set("sched.rejects", self.rejects as f64);
        layers.set("sched.removes", self.remove.items as f64);
        layers.set("serve.run_self_s", run_self_s);
        layers.set("serve.account_busy_s", self.account.busy_s);
        layers.set("serve.account_samples", self.account_samples as f64);
        // The residual: departure heap, resident store, dispatch, and
        // whatever the outside view cannot attribute. Reported as it falls,
        // even if cache effects between the run and the replays make it
        // negative.
        layers.set(
            "serve.controller_s",
            run_self_s - sched_s - self.probe.busy_s - self.account.busy_s,
        );
        layers.set("serve.requests", self.mix.requests as f64);
        layers.set("serve.arrivals", self.mix.arrivals as f64);
        layers.set("serve.departs", self.mix.departs as f64);
        layers.set("serve.probes", self.mix.probes as f64);
        layers.set("serve.stats_barriers", self.mix.stats_barriers as f64);
        layers.set("serve.probe_ns_per_measure", self.probe.ns_per_item());
        layers.set("budget.traced_wall_s", self.traced_wall_s);
        layers.set("budget.trace_stash_s", self.stash_s);
        layers.set(
            "budget.trace_overhead_share",
            (self.traced_wall_s - untraced_wall_s) / untraced_wall_s,
        );
    }
}

/// Ingest-only drain under the allocator: what a consumer of the record
/// stream cannot avoid holding, per VM.
pub fn ingest_peak_bytes_per_vm(streaming: &StreamingTrace, log: &mut Log) -> f64 {
    let baseline = alloc::baseline();
    alloc::reset_peak();
    let mut drained = 0usize;
    for record in streaming.records() {
        std::hint::black_box(&record);
        drained += 1;
    }
    log.check(
        "stream length == StreamingTrace::len()",
        drained == streaming.len(),
    );
    alloc::peak_since(baseline) as f64 / drained.max(1) as f64
}
