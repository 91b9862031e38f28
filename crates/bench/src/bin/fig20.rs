//! Figure 20: additional capacity and performance violations per policy.
//!
//! Uses the trained random-forest model (not the oracle) so that honest
//! prediction error can produce violations, as in the paper.
//!
//! Produced by the **sharded online controller**: each policy's replay
//! streams through [`coach_serve::ShardedController`], and the figure's
//! columns come from the merged [`coach_serve::StatsReport`] (via its
//! `to_packing_result` view) rather than the batch `packing_experiment` —
//! and every policy's online result is asserted against a batch replay
//! with the same trained model at runtime, so the figure doubles as a
//! differential check on the serving path.
//!
//! Every replay runs with full telemetry armed, and a per-policy summary
//! line from the merged registry (admits, p99 admission latency, span
//! volume) follows the figure — the observable face of
//! the same run the columns came from.

use coach_bench::{figure_header, pct, small_eval_trace};
use coach_predict::{ForestParams, ModelConfig, UtilizationModel};
use coach_serve::{RequestSource, ServeConfig, ShardedController, TelemetryConfig};
use coach_sim::{packing_experiment, Model, PackingResult, PolicyConfig};
use coach_telemetry::{Histogram, MetricValue};
use coach_types::prelude::*;

/// The online sharded replay must reproduce the batch experiment: every
/// integer decision field exactly, the floating-point capacity sums to
/// within accumulation-order ulps (shards sum their slices independently).
fn assert_matches_batch(label: &str, online: &PackingResult, batch: &PackingResult) {
    assert_eq!(online.accepted, batch.accepted, "{label}: accepted");
    assert_eq!(online.rejected, batch.rejected, "{label}: rejected");
    assert_eq!(
        online.probe_capacity, batch.probe_capacity,
        "{label}: probe capacity"
    );
    assert_eq!(
        online.peak_servers_in_use, batch.peak_servers_in_use,
        "{label}: peak servers"
    );
    assert_eq!(
        online.cpu_violation_rate, batch.cpu_violation_rate,
        "{label}: CPU violations"
    );
    assert_eq!(
        online.mem_violation_rate, batch.mem_violation_rate,
        "{label}: memory violations"
    );
    let rel = (online.accepted_core_hours - batch.accepted_core_hours).abs()
        / batch.accepted_core_hours.max(1.0);
    assert!(rel < 1e-9, "{label}: core-hours rel err {rel}");
    let rel = (online.accepted_gb_hours - batch.accepted_gb_hours).abs()
        / batch.accepted_gb_hours.max(1.0);
    assert!(rel < 1e-9, "{label}: gb-hours rel err {rel}");
}

/// One policy's observability summary from the merged registry: counters
/// summed across shard labels, the admission histograms merged for a true
/// cross-shard p99, and span volume from the rings.
fn telemetry_summary(label: &str, controller: &ShardedController<'_>) -> String {
    let registry = controller
        .telemetry_registry()
        .expect("fig20 replays run with full telemetry");
    let snapshot = registry.snapshot();
    let sum = |name: &str| -> u64 {
        snapshot
            .counters_with_prefix(name)
            .into_iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, _, v)| v)
            .sum()
    };
    let mut admission = Histogram::default();
    for entry in &snapshot.entries {
        if entry.name == "coach_serve_admission_latency_ns" {
            if let MetricValue::Histogram(h) = &entry.value {
                admission.merge(h);
            }
        }
    }
    let rings = controller.telemetry_span_rings();
    let spans: usize = rings.iter().map(|r| r.events().len()).sum();
    let dropped: u64 = rings.iter().map(|r| r.dropped()).sum();
    format!(
        "{:<12} {:>7} admits {:>6} rejects | p99 admit {:>7.2}us | {:>6} spans \
         ({} dropped)",
        label,
        sum("coach_serve_accepted_total"),
        sum("coach_serve_rejected_total"),
        admission.quantile_us(0.99),
        spans,
        dropped,
    )
}

fn main() {
    figure_header(
        "Figure 20",
        "capacity and violations per oversubscription policy (online, sharded)",
    );
    let trace = small_eval_trace();
    let (history, _) = trace.split_by_arrival(Timestamp::from_days(7));

    let train = |percentile: Percentile| {
        UtilizationModel::train(
            &history,
            ModelConfig {
                tw: TimeWindows::paper_default(),
                percentile,
                forest: ForestParams {
                    n_trees: 24,
                    ..ForestParams::default()
                },
            },
        )
    };
    let model_p95 = train(Percentile::P95);
    let model_p50 = train(Percentile::P50);
    let shards = available_threads().clamp(1, 4);

    let mut results = Vec::new();
    let mut telemetry_lines = Vec::new();
    for config in PolicyConfig::paper_set() {
        let model = if config.percentile < Percentile::new(90.0) {
            &model_p50
        } else {
            &model_p95
        };
        let preds = Model::new(model);
        let serve_config = ServeConfig {
            telemetry: TelemetryConfig::Full,
            ..ServeConfig::replaying(config, 1.0, trace.horizon)
        };
        let mut controller = ShardedController::new(&trace.clusters, &preds, serve_config, shards);
        let online = controller.run(RequestSource::replaying(&trace));
        let batch = packing_experiment(&trace, &preds, config, 1.0);
        assert_matches_batch(config.label, &online, &batch);
        telemetry_lines.push(telemetry_summary(config.label, &controller));
        results.push(online);
    }
    let baseline = results[0].clone();

    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "policy", "capacity", "additional", "servers", "CPU viol", "Mem viol"
    );
    for r in &results {
        println!(
            "{:<12} {:>10.0} {:>12} {:>12} {:>10} {:>10}",
            r.label,
            r.probe_capacity,
            pct(r.additional_capacity_vs(&baseline)),
            r.peak_servers_in_use,
            pct(r.cpu_violation_rate),
            pct(r.mem_violation_rate),
        );
    }
    // Admit p99 is wall-clock (log2-bucket histogram), so it legitimately
    // varies run to run; every other column is decision-derived and exact.
    println!("\ntelemetry (merged registry, per policy; admit p99 is wall-clock):");
    for line in &telemetry_lines {
        println!("  {line}");
    }

    println!("\npaper: Single +22% over None; Coach +16% over Single; AggrCoach +9%");
    println!("more; violations: Single 2% CPU, Coach +1% CPU / <1% memory, AggrCoach");
    println!("+2% memory.");
}
