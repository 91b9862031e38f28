//! Metric definitions and the report one workload run produces.
//!
//! The names, units and directions here are the ones `BENCHMARK.json` and
//! the README list; `Report::driver_json` is the contract's result line.

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the first value by which a second run of the same code and
    /// seed may be worse. [`EXACT`] for a decision, which repeats to the
    /// last digit for a fixed seed; across seeds decisions vary, which is
    /// why `BENCHMARK.json` gives `accepted_share` a wider bound than this.
    pub bound: f64,
    /// Defined, and never zero, on every workload: these are the metrics
    /// the result line carries with `--trace 0`.
    pub everywhere: bool,
}

impl EndToEnd {
    pub fn bound_label(&self) -> String {
        if self.bound == EXACT {
            "exact".to_string()
        } else {
            format!("{}%", self.bound * 100.0)
        }
    }
}

/// Anything above float noise in the ratio arithmetic is a changed decision.
pub const EXACT: f64 = 1e-9;

/// The measured spread of the timing and memory metrics across ten seeds
/// is 5–7 % of the median on the reference box (README, "Steadiness"), and
/// a bound has to stand three spreads clear to tell a regression from it.
const MEASURED: f64 = 0.25;

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    everywhere: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        everywhere,
    }
}

pub const END_TO_END: [EndToEnd; 10] = [
    end_to_end("wall_s", "s", Lower, MEASURED, true),
    end_to_end("placed_per_s", "VMs/s", Higher, MEASURED, true),
    end_to_end("setup_s", "s", Lower, MEASURED, true),
    end_to_end("peak_bytes_per_vm", "B", Lower, MEASURED, true),
    end_to_end("accepted_share", "fraction", Higher, EXACT, true),
    end_to_end("peak_servers_in_use", "servers", Lower, EXACT, false),
    end_to_end("probe_capacity", "VMs", Higher, EXACT, false),
    end_to_end("extra_capacity", "ratio", Higher, EXACT, false),
    end_to_end("cpu_violation_rate", "fraction", Lower, EXACT, false),
    end_to_end("mem_violation_rate", "fraction", Lower, EXACT, false),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Every per-layer metric, in report order. A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [Layer; 51] = [
    layer("trace.plan_s", "s", Lower),
    layer("trace.generate_s", "s", Lower),
    layer("trace.records", "count", Higher),
    layer("trace.next_busy_s", "s", Lower),
    layer("trace.ns_per_record", "ns", Lower),
    layer("trace.peak_bytes_per_vm", "B", Lower),
    layer("predict.calls", "count", Lower),
    layer("predict.vms", "count", Higher),
    layer("predict.busy_s", "s", Lower),
    layer("predict.ns_per_vm", "ns", Lower),
    layer("predict.none_share", "fraction", Lower),
    layer("predict.envelope_hit_rate", "fraction", Higher),
    layer("predict.train_s", "s", Lower),
    layer("predict.model_bytes", "B", Lower),
    layer("sched.demand_ns_per_vm", "ns", Lower),
    layer("sched.place_ns_per_vm", "ns", Lower),
    layer("sched.remove_ns_per_vm", "ns", Lower),
    layer("sched.places", "count", Higher),
    layer("sched.rejects", "count", Lower),
    layer("sched.removes", "count", Higher),
    layer("serve.run_self_s", "s", Lower),
    layer("serve.account_busy_s", "s", Lower),
    layer("serve.account_samples", "count", Higher),
    layer("serve.controller_s", "s", Lower),
    layer("serve.requests", "count", Higher),
    layer("serve.arrivals", "count", Higher),
    layer("serve.departs", "count", Higher),
    layer("serve.probes", "count", Higher),
    layer("serve.stats_barriers", "count", Higher),
    layer("serve.probe_ns_per_measure", "ns", Lower),
    layer("serve.admit_p50_us", "us", Lower),
    layer("serve.admit_p99_us", "us", Lower),
    layer("runtime.lane_sends", "count", Lower),
    layer("runtime.lane_batched_sends", "count", Lower),
    layer("runtime.lane_wakeups", "count", Lower),
    layer("runtime.lane_full_stalls", "count", Lower),
    layer("runtime.speedup_2_over_1", "ratio", Higher),
    layer("wire.snapshot_bytes", "B", Lower),
    layer("wire.encode_mb_s", "MB/s", Higher),
    layer("wire.restore_mb_s", "MB/s", Higher),
    layer("sim.packing_s", "s", Lower),
    layer("sim.packing_ns_per_vm", "ns", Lower),
    layer("budget.traced_wall_s", "s", Lower),
    layer("budget.trace_stash_s", "s", Lower),
    layer("budget.trace_overhead_share", "fraction", Lower),
    // What was decided, per seed: exact, so a change that moves one of
    // these changed what Coach decides, whatever it did to the clock.
    layer("result.rejected", "count", Lower),
    layer("result.peak_servers_in_use", "servers", Lower),
    layer("result.probe_capacity", "VMs", Higher),
    layer("result.extra_capacity", "ratio", Higher),
    layer("result.cpu_violation_rate", "fraction", Lower),
    layer("result.mem_violation_rate", "fraction", Lower),
];

/// The per-layer values of one traced run; unset metrics read 0.
pub struct Layers(Vec<f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(vec![0.0; PER_LAYER.len()])
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|l| l.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0[i] = value;
    }
}

/// One workload, one invocation.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    /// VM requests submitted, and how the controller answered them. A
    /// request without an answer is the failed operation; a rejection is
    /// an answer, and shows in `accepted_share`.
    pub attempted: u64,
    pub accepted: u64,
    pub rejected: u64,
    /// In `END_TO_END` order; `None` where the workload omits the metric.
    pub end_to_end: Vec<Option<f64>>,
    /// `Some` after a traced pass.
    pub per_layer: Option<Layers>,
    pub checks: Vec<(String, bool)>,
    /// Sample counts and sizes a reader needs beside the numbers.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn failed(&self) -> u64 {
        self.attempted.abs_diff(self.accepted + self.rejected)
    }

    /// Every metric by name with its unit, for a person.
    pub fn print(&self, comparable: bool) {
        println!(
            "workload {} (seed {}{})",
            self.workload,
            self.seed,
            if comparable {
                ""
            } else {
                ", --quick: not comparable"
            }
        );
        println!(
            "  attempted {} accepted {} rejected {} failed {}",
            self.attempted,
            self.accepted,
            self.rejected,
            self.failed()
        );
        for (metric, value) in END_TO_END.iter().zip(&self.end_to_end) {
            match value {
                Some(v) => println!(
                    "  {:<28} {:>18} {:<9} ({} is better, bound {})",
                    metric.name,
                    format_value(*v),
                    metric.unit,
                    metric.better.label(),
                    metric.bound_label()
                ),
                None => println!("  {:<28} {:>18}", metric.name, "n/a"),
            }
        }
        if let Some(layers) = &self.per_layer {
            for (metric, value) in PER_LAYER.iter().zip(&layers.0) {
                println!(
                    "  {:<28} {:>18} {:<9} ({} is better)",
                    metric.name,
                    format_value(*value),
                    metric.unit,
                    metric.better.label()
                );
            }
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
        for (name, ok) in &self.checks {
            println!("  check {}: {name}", if *ok { "ok" } else { "FAILED" });
        }
    }

    /// The contract's result line: with a traced pass the per-layer
    /// metrics, otherwise the end-to-end metrics every workload defines.
    pub fn driver_json(&self) -> String {
        let entry = |name: &str, value: f64, unit: &str| {
            let value = format!(
                "{{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
            (name.to_string(), value)
        };
        let metrics = match &self.per_layer {
            Some(layers) => json_object(
                PER_LAYER
                    .iter()
                    .zip(&layers.0)
                    .map(|(m, v)| entry(m.name, *v, m.unit)),
            ),
            None => json_object(
                END_TO_END
                    .iter()
                    .zip(&self.end_to_end)
                    .filter(|(m, _)| m.everywhere)
                    .map(|(m, v)| entry(m.name, v.expect("defined on every workload"), m.unit)),
            ),
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.correct(),
            self.attempted,
            self.failed()
        )
    }

    /// Everything, for `--out` and for the combined result line.
    pub fn full_json(&self) -> String {
        let end_to_end = json_object(
            END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .filter_map(|(m, v)| v.map(|v| (m.name.to_string(), json_number(v)))),
        );
        let per_layer = self.per_layer.as_ref().map_or(String::new(), |layers| {
            let values = PER_LAYER
                .iter()
                .zip(&layers.0)
                .map(|(m, v)| (m.name.to_string(), json_number(*v)));
            format!(", \"per_layer\": {}", json_object(values))
        });
        let checks = json_object(
            self.checks
                .iter()
                .map(|(name, ok)| (name.clone(), ok.to_string())),
        );
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"correct\": {}, \"attempted\": {}, \
             \"accepted\": {}, \"rejected\": {}, \"failed\": {}, \
             \"end_to_end\": {end_to_end}{per_layer}, \"checks\": {checks}}}",
            self.workload,
            self.seed,
            self.correct(),
            self.attempted,
            self.accepted,
            self.rejected,
            self.failed()
        )
    }
}

/// `{"name": value, ...}` from names and already-rendered values.
fn json_object(entries: impl Iterator<Item = (String, String)>) -> String {
    let body: Vec<String> = entries
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A value as measured, with all its digits. JSON has no NaN or infinity;
/// a metric that is one of those is a bug the `correct` flag cannot carry,
/// so it aborts the run.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v}")
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.6}")
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
