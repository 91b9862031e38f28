//! Online-serving benchmark: stream a trace through the `coach-serve`
//! controller and measure sustained placements/s and admission latency,
//! with online-vs-batch decision identity enforced. Emits
//! `BENCH_serve.json` so the serving-path trajectory is tracked PR over PR
//! (and gated by `bench_trend` in CI).
//!
//! Phases:
//!
//! * **derive** — pre-derive every VM's prediction once (the production
//!   shape: the model is trained offline, request-time prediction is a
//!   lookup). The cold inline-derivation rate is also measured.
//! * **identity** — replay a slice through `serve_trace` and
//!   `packing_experiment` with the same predictions; the two
//!   `PackingResult`s must be **equal** (placements, rejections, probe
//!   capacity, occupancy peak, violation rates — bit-exact).
//! * **serve** — the headline: single-shard admission-path throughput on
//!   the full trace. The throughput floor applies here.
//! * **probes** — the spare-capacity measurement microbench at the middle
//!   paper probe point: the read-only incremental estimator first (the
//!   schedulers are untouched), then the exhaustive pack/unpack fill on
//!   the *same* state — counts must match exactly, and the speedup is a
//!   floor-gated first-class metric, as is probes/s (probe VMs placed per
//!   second of measurement work).
//! * **cold / accounting** — cold-path demand derivation two ways: the
//!   per-item inline oracle (trajectory only) and the batched segment
//!   path (the dispatcher hands ≤1024-arrival segments to
//!   `predict_batch`, which derives each VM once past the oracle's
//!   per-item memo). The batched run must agree with the per-item run
//!   decision-for-decision and carries its own floor-gated placements/s.
//!   Live 2-hour violation sampling stays a trajectory metric.
//! * **sharded** — the same stream through the persistent-worker
//!   `ShardedController` (`--shards N`, default ≈ available cores), probe
//!   mode from `--probe-mode` (default `differential`: every measurement
//!   asserts estimator == exhaustive). Exact integer agreement with
//!   single-shard is asserted and per-shard-count throughput recorded —
//!   the CI scale-out matrix uploads one JSON per shard count. Lane
//!   telemetry (sends, batched handoffs, wakeups, full-lane stalls) lands
//!   in the JSON.
//! * **scaling** — the shard sweep at 1/2/4/8 shards on one trace: each
//!   count must stay integer-exact against single-shard, and on machines
//!   with enough cores the 4-shard run must clear a scaling-efficiency
//!   floor over 1-shard.
//! * **snapshot** — the live-servicing drain: serialize a mid-stream
//!   controller into a `Snapshot` frame, restore it, and verify the
//!   restore→re-snapshot byte fixed point; bytes, encode/restore rates,
//!   and the `roundtrip_identical` flag (gated by `bench_trend`) land in
//!   the JSON.
//! * **telemetry** — the observability overhead gate: the warm admission
//!   stream with the `coach-telemetry` registry `Off` vs `Full`
//!   (best-of-N each). The two runs must be decision-bit-identical and
//!   the Full/Off throughput ratio is floor-gated — full instrumentation
//!   may cost at most a few percent.
//! * **footprint** — the per-demand memory layout after the `WindowVec`
//!   shrink, vs. the previous two-heap-`Vec` layout.
//! * **stream** — the streaming-ingestion contract: `StreamingTrace` must
//!   reproduce the materialized trace's clusters, serving it through
//!   `run_stream` must equal the materialized sharded replay exactly, and
//!   the ingestion-only drain's allocator high-water mark (the binary
//!   runs under a counting global allocator) must stay below a committed
//!   per-VM ceiling — the flat-memory claim, gated by `bench_trend`.
//!
//! Usage: `bench_serve [--quick] [--large] [--shards N]
//! [--backend thread|process]
//! [--probe-mode exhaustive|estimated|differential]
//! [--telemetry off|full] [--metrics-out PATH] [--out PATH]
//! [--scenario surge|evac|group-fail|sku-mix|all]`
//!
//! `--scenario NAME` switches the binary into the scenario-catalog
//! harness instead of the phase list: the named combinator(s) from
//! `coach_serve::scenario` are run over a `StreamingTrace`, served
//! streamed *and* materialized at 1 and 4 shards (results must be equal),
//! and a `coach/bench_scenarios/v1` JSON lands at `--out` (default
//! `BENCH_scenarios.json`). `--scenario all` is what produces the
//! committed reference; CI's scenario-matrix job runs one scenario per
//! leg in `--quick` mode and gates it with `bench_trend`.
//!
//! `--large` streams `TraceConfig::huge` — ten million VMs — through the
//! bounded-memory generator and the owned-segment serving path without
//! ever materializing a `Vec<VmRecord>`, asserting the ingestion
//! high-water mark stays under an absolute ceiling.
//!
//! `--telemetry full` arms the sharded phase's registry and span rings;
//! `--metrics-out PATH` then writes `PATH.prom`
//! (Prometheus text), `PATH.jsonl` (one JSON object per series), and
//! `PATH.trace.json` (Chrome `trace_event` JSON, loadable in
//! `chrome://tracing` / Perfetto) from that run.
//!
//! `--backend process` runs the sharded and scaling phases through
//! supervised shard-worker *processes* speaking coach-wire frames (the
//! pool re-execs this binary, so `main` routes children into the worker
//! loop first thing).
//!
//! Exits non-zero with a `REGRESSION` marker if identity fails, the
//! estimator diverges, or a floor is missed.

use coach_bench::alloc;
use coach_predict::DemandPrediction;
use coach_sched::VmDemand;
use coach_serve::scenario::{sku_mix, stream_arrivals, Evacuate, GroupFailure, Surge};
use coach_serve::{
    serve_trace, Controller, Request, RequestSource, ServeConfig, ShardedController, StreamRequest,
    StreamSource, TelemetryConfig,
};
use coach_sim::{
    packing_experiment, paper_probe_times, Oracle, PolicyConfig, Predictor, ProbeMode,
};
use coach_telemetry::chrome_trace;
use coach_trace::{generate, StreamingTrace, Trace, TraceConfig, VmRecord};
use coach_types::prelude::*;
use std::time::Instant;

/// Every heap byte this binary touches flows through the counting
/// allocator, so the stream phase's high-water marks are exact and
/// deterministic (fixed seeds ⇒ reproducible, committable ceilings).
#[global_allocator]
static ALLOCATOR: alloc::TrackingAllocator = alloc::TrackingAllocator;

/// Request-time predictions served from a pre-derived table — the
/// production shape (offline training, O(1) request-time lookup).
struct Prederived {
    tw: TimeWindows,
    by_vm: Vec<Option<DemandPrediction>>,
}

impl Prederived {
    /// Pre-derive every prediction through the batch path in parallel
    /// chunks.
    fn derive(trace: &Trace, tw: TimeWindows, percentile: Percentile) -> Self {
        let oracle = Oracle::new(tw);
        let chunks: Vec<&[VmRecord]> = trace.vms.chunks(4096).collect();
        let by_vm = par_map(&chunks, |chunk| {
            let refs: Vec<&VmRecord> = chunk.iter().collect();
            oracle.predict_batch(&refs, percentile)
        })
        .into_iter()
        .flatten()
        .collect();
        Prederived { tw, by_vm }
    }
}

impl Predictor for Prederived {
    fn time_windows(&self) -> TimeWindows {
        self.tw
    }

    fn predict(&self, vm: &VmRecord, _percentile: Percentile) -> Option<DemandPrediction> {
        self.by_vm.get(vm.id.raw() as usize).and_then(|p| p.clone())
    }
}

/// One controller replay's measurements.
struct ServeStats {
    wall_s: f64,
    accepted: u64,
    rejected: u64,
    placed_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    result: coach_sim::PackingResult,
}

fn serve_stats_json(s: &ServeStats) -> String {
    format!(
        "{{\"wall_s\": {:.6}, \"accepted\": {}, \"rejected\": {}, \
         \"placed_per_s\": {:.1}, \"p50_us\": {:.3}, \"p99_us\": {:.3}}}",
        s.wall_s, s.accepted, s.rejected, s.placed_per_s, s.p50_us, s.p99_us
    )
}

/// Stream the trace through a single-shard controller.
/// `sample_every = None` keeps the batch sweep's 2-hour violation cadence;
/// `Some(d)` overrides it (the throughput phase passes the horizon, which
/// reduces accounting to bookkeeping).
fn run_controller(
    trace: &Trace,
    predictor: &dyn Predictor,
    policy: PolicyConfig,
    fraction: f64,
    sample_every: Option<SimDuration>,
    probes: bool,
) -> ServeStats {
    let mut config = ServeConfig::replaying(policy, fraction, trace.horizon);
    if let Some(every) = sample_every {
        config.sample_every = every;
    }
    let mut controller = Controller::new(&trace.clusters, predictor, config);
    let source = if probes {
        RequestSource::replaying(trace)
    } else {
        RequestSource::new(&trace.vms, Vec::new())
    };
    let start = Instant::now();
    for request in source {
        controller.handle(request);
    }
    let result = controller.finalize();
    let wall_s = start.elapsed().as_secs_f64();
    let stats = controller.stats(trace.horizon);
    ServeStats {
        wall_s,
        accepted: result.accepted,
        rejected: result.rejected,
        placed_per_s: if wall_s > 0.0 {
            result.accepted as f64 / wall_s
        } else {
            0.0
        },
        p50_us: stats.admission_p50_us,
        p99_us: stats.admission_p99_us,
        result,
    }
}

/// The telemetry-overhead runner: the warm admission stream (accounting
/// reduced to bookkeeping, same shape as the headline phase) under an
/// explicit telemetry mode. Returns wall seconds and the merged result so
/// the caller can assert decision identity across modes.
fn run_with_telemetry(
    trace: &Trace,
    predictor: &dyn Predictor,
    policy: PolicyConfig,
    fraction: f64,
    mode: TelemetryConfig,
) -> (f64, coach_sim::PackingResult) {
    let mut config = ServeConfig::replaying(policy, fraction, trace.horizon);
    config.sample_every = trace.horizon.since(Timestamp::ZERO);
    config.telemetry = mode;
    let mut controller = Controller::new(&trace.clusters, predictor, config);
    let start = Instant::now();
    for request in RequestSource::new(&trace.vms, Vec::new()) {
        controller.handle(request);
    }
    let result = controller.finalize();
    (start.elapsed().as_secs_f64().max(1e-9), result)
}

/// The probe microbench: advance a controller to the middle paper probe
/// point, then measure the estimator (read-only, so repeatable on pristine
/// state) and the exhaustive fill on the same state.
struct ProbeBench {
    capacity: u64,
    matches: bool,
    estimated_wall_s: f64,
    exhaustive_wall_s: f64,
}

fn probe_bench(
    trace: &Trace,
    predictor: &dyn Predictor,
    policy: PolicyConfig,
    fraction: f64,
) -> ProbeBench {
    let mut config = ServeConfig::replaying(policy, fraction, trace.horizon);
    config.sample_every = trace.horizon.since(Timestamp::ZERO);
    config.probe_mode = ProbeMode::Estimated;
    let mut controller = Controller::new(&trace.clusters, predictor, config);
    let mid = paper_probe_times(trace.horizon)[1];
    for request in RequestSource::new(&trace.vms, Vec::new()) {
        if request.time() >= mid {
            break;
        }
        controller.handle(request);
    }

    // Estimator first: read-only, so every repetition sees the same state
    // as the exhaustive fill below.
    let est_reps = 10u32;
    let t0 = Instant::now();
    let mut counts = Vec::new();
    for _ in 0..est_reps {
        if let coach_serve::Response::ProbeCapacity(n) =
            controller.handle(Request::Probe { now: mid })
        {
            counts.push(n);
        }
    }
    let estimated_wall_s = t0.elapsed().as_secs_f64() / est_reps as f64;
    let estimated = counts[0];
    let repeatable = counts.iter().all(|&c| c == estimated);

    // Exhaustive on the very state the estimator read: the first
    // measurement is the exact-match reference; later repetitions only
    // feed the timing (each fill's add/remove can leave float dust).
    controller.set_probe_mode(ProbeMode::Exhaustive);
    let exh_reps = 3u32;
    let t0 = Instant::now();
    let mut exhaustive = None;
    for _ in 0..exh_reps {
        if let coach_serve::Response::ProbeCapacity(n) =
            controller.handle(Request::Probe { now: mid })
        {
            exhaustive.get_or_insert(n);
        }
    }
    let exhaustive_wall_s = t0.elapsed().as_secs_f64() / exh_reps as f64;
    let exhaustive = exhaustive.expect("probe answered");
    ProbeBench {
        capacity: exhaustive,
        matches: repeatable && estimated == exhaustive,
        estimated_wall_s: estimated_wall_s.max(1e-9),
        exhaustive_wall_s: exhaustive_wall_s.max(1e-9),
    }
}

fn footprint_json(demands: &[VmDemand]) -> String {
    let n = demands.len().max(1);
    let heap: usize = demands.iter().map(|d| d.window_max.heap_bytes()).sum();
    let spilled = demands.iter().filter(|d| d.window_max.spilled()).count();
    let windows = demands.iter().map(|d| d.window_count()).max().unwrap_or(0);
    // The pre-WindowVec layout: a 24-byte Vec header in the struct plus a
    // `windows × 32`-byte heap block per demand.
    let vec_header = 24usize;
    let baseline_struct =
        std::mem::size_of::<VmId>() + 2 * std::mem::size_of::<ResourceVec>() + vec_header;
    let baseline_heap = windows * std::mem::size_of::<ResourceVec>();
    format!(
        "{{\"windows\": {windows}, \"struct_bytes\": {}, \"heap_bytes_per_demand\": {:.1}, \
         \"spilled_demands\": {spilled}, \"heap_allocs_per_demand\": {:.6}, \
         \"baseline_struct_bytes\": {baseline_struct}, \"baseline_heap_bytes_per_demand\": {baseline_heap}, \
         \"baseline_heap_allocs_per_demand\": 1}}",
        std::mem::size_of::<VmDemand>(),
        heap as f64 / n as f64,
        spilled as f64 / n as f64,
    )
}

/// The `--large` phase: ten million VMs (`TraceConfig::huge`) through the
/// bounded-memory streaming generator and the owned-segment serving path.
/// No `Vec<VmRecord>` is ever materialized; the ingestion drain runs under
/// the counting allocator and its high-water mark must stay under
/// [`LARGE_INGEST_PEAK_CEILING_BYTES`] — the flat-memory assertion. The
/// second element of the return is that `flat` verdict (it feeds the
/// binary's `regression` flag).
///
/// The ceiling is absolute, not per-VM: the stream's peak is dominated by
/// O(servers + subscriptions + chunk-budget) state, so it stays put as
/// `vm_count` grows — that is the point being asserted.
const LARGE_INGEST_PEAK_CEILING_BYTES: u64 = 512 * 1024 * 1024;

fn run_large(coach: PolicyConfig) -> (String, bool) {
    let config = TraceConfig::huge(2026);
    eprintln!(
        "bench_serve: [large] building streaming generator for {} VMs...",
        config.vm_count
    );
    let t0 = Instant::now();
    let streaming = StreamingTrace::new(&config);
    let build_s = t0.elapsed().as_secs_f64();
    let servers: usize = streaming.clusters().iter().map(|c| c.servers.len()).sum();
    eprintln!(
        "bench_serve: [large]   {} VMs / {servers} servers planned in {build_s:.1}s; \
         draining records (ingestion high-water mark)...",
        streaming.len()
    );

    // Ingestion-only drain: every record generated in arrival order,
    // nothing retained. The allocator peak over this region is what a
    // consumer of the stream cannot avoid paying.
    alloc::reset_peak();
    let baseline = alloc::current_bytes();
    let t0 = Instant::now();
    let mut drained = 0u64;
    for record in streaming.records() {
        std::hint::black_box(&record);
        drained += 1;
    }
    let ingest_s = t0.elapsed().as_secs_f64().max(1e-9);
    let ingest_peak = alloc::peak_bytes().saturating_sub(baseline);
    assert_eq!(drained, streaming.len() as u64, "stream yields every VM");
    let ingest_per_s = drained as f64 / ingest_s;
    let ingest_peak_per_vm = ingest_peak as f64 / drained.max(1) as f64;
    let flat = ingest_peak <= LARGE_INGEST_PEAK_CEILING_BYTES;
    eprintln!(
        "bench_serve: [large]   drained {drained} records in {ingest_s:.1}s \
         ({ingest_per_s:.0}/s); peak {:.1} MB ({ingest_peak_per_vm:.1} B/VM), \
         ceiling {:.0} MB, flat: {flat}",
        ingest_peak as f64 / 1e6,
        LARGE_INGEST_PEAK_CEILING_BYTES as f64 / 1e6
    );

    // Serve the stream cold (no pre-derived table — there is no
    // materialized trace to derive it from, which is the scenario this
    // path exists for): the dispatcher's segments feed `predict_batch`
    // exactly like the cold-batched phase.
    eprintln!("bench_serve: [large]   serving the stream (cold, batched segments)...");
    let oracle = Oracle::new(TimeWindows::paper_default());
    let mut serve_config = ServeConfig::replaying(coach, 0.9, streaming.horizon());
    serve_config.sample_every = streaming.horizon().since(Timestamp::ZERO);
    let mut controller = ShardedController::new(streaming.clusters(), &oracle, serve_config, 1);
    alloc::reset_peak();
    let serve_baseline = alloc::current_bytes();
    let t0 = Instant::now();
    let result = controller.run_stream(StreamSource::new(streaming.records(), Vec::new()));
    let serve_s = t0.elapsed().as_secs_f64().max(1e-9);
    let serve_peak = alloc::peak_bytes().saturating_sub(serve_baseline);
    let placed_per_s = result.accepted as f64 / serve_s;
    eprintln!(
        "bench_serve: [large]   served {} arrivals in {serve_s:.1}s \
         ({placed_per_s:.0} placements/s, {} rejected); serve-side peak {:.1} MB",
        streaming.len(),
        result.rejected,
        serve_peak as f64 / 1e6
    );
    let json = format!(
        "{{\"vms\": {}, \"servers\": {servers}, \"build_s\": {build_s:.3}, \
         \"ingest\": {{\"wall_s\": {ingest_s:.3}, \"records_per_s\": {ingest_per_s:.0}, \
         \"peak_bytes\": {ingest_peak}, \"peak_bytes_per_vm\": {ingest_peak_per_vm:.2}, \
         \"peak_ceiling_bytes\": {LARGE_INGEST_PEAK_CEILING_BYTES}, \"flat\": {flat}}}, \
         \"serve\": {{\"wall_s\": {serve_s:.3}, \"accepted\": {}, \"rejected\": {}, \
         \"placed_per_s\": {placed_per_s:.1}, \"peak_bytes\": {serve_peak}}}}}",
        streaming.len(),
        result.accepted,
        result.rejected,
    );
    (json, flat)
}

/// One scenario leg's outcome: the combinator stream served at 1 and 4
/// shards, streamed and materialized, with exact-equality identity.
struct ScenarioOutcome {
    name: &'static str,
    requests: usize,
    departs: usize,
    matches: bool,
    placed_per_s: Vec<(usize, f64)>,
}

/// Serve `requests` on `clusters` at each shard count through both entry
/// points (`run_stream` over the values, `run` over borrows of them —
/// one dispatcher); the two `PackingResult`s must be equal — same
/// segmentation, same float order. Returns per-shard-count streamed
/// throughput and the conjunction of the identity checks.
fn scenario_serve(
    clusters: &[coach_trace::Cluster],
    horizon: Timestamp,
    coach: PolicyConfig,
    requests: &[StreamRequest],
) -> (Vec<(usize, f64)>, bool) {
    let oracle = Oracle::new(TimeWindows::paper_default());
    let mut serve_config = ServeConfig::replaying(coach, 0.9, horizon);
    serve_config.sample_every = horizon.since(Timestamp::ZERO);
    let mut rates = Vec::new();
    let mut matches = true;
    for shards in [1usize, 4] {
        let mut streamed = ShardedController::new(clusters, &oracle, serve_config, shards);
        let t0 = Instant::now();
        let streamed_result = streamed.run_stream(requests.to_vec());
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        let mut materialized = ShardedController::new(clusters, &oracle, serve_config, shards);
        let materialized_result = materialized.run(requests.iter().map(StreamRequest::as_request));
        matches &= streamed_result == materialized_result;
        rates.push((shards, streamed_result.accepted as f64 / wall));
    }
    (rates, matches)
}

/// The `--scenario` harness: run the named combinator(s) over a
/// `StreamingTrace` and write a `coach/bench_scenarios/v1` JSON.
fn run_scenarios(which: &str, quick: bool, out_path: &str) {
    // Cold-path throughput on the reference container sits near the
    // batched cold floor; the scenario floor adds headroom for the
    // 4-shard leg's dispatch overhead on one core.
    const SCENARIO_FLOOR_QUICK: f64 = 15_000.0;
    const SCENARIO_FLOOR_FULL: f64 = 25_000.0;
    let floor = if quick {
        SCENARIO_FLOOR_QUICK
    } else {
        SCENARIO_FLOOR_FULL
    };
    let names: Vec<&str> = match which {
        "all" => vec!["surge", "evac", "group-fail", "sku-mix"],
        "surge" | "evac" | "group-fail" | "sku-mix" => vec![which],
        other => panic!("--scenario is surge|evac|group-fail|sku-mix|all, got {other:?}"),
    };
    let config = if quick {
        TraceConfig {
            vm_count: 8000,
            cluster_count: 8,
            subscription_count: 400,
            ..TraceConfig::medium(2026)
        }
    } else {
        TraceConfig {
            cluster_count: 8,
            ..TraceConfig::medium(2026)
        }
    };
    let coach = PolicyConfig::paper_set().remove(2);
    eprintln!(
        "bench_serve: [scenario] streaming generator, {} VMs / {} clusters...",
        config.vm_count, config.cluster_count
    );
    let streaming = StreamingTrace::new(&config);
    let horizon = streaming.horizon();
    let mid = Timestamp::from_ticks(horizon.ticks() / 2);
    let clusters = streaming.clusters().to_vec();

    let mut outcomes: Vec<ScenarioOutcome> = Vec::new();
    for name in names {
        eprintln!("bench_serve: [scenario] {name}...");
        let (serve_clusters, requests): (&[coach_trace::Cluster], Vec<StreamRequest>) = match name {
            "surge" => (
                &clusters,
                Surge::new(
                    stream_arrivals(streaming.records()),
                    2,
                    mid,
                    horizon,
                    1 << 32,
                )
                .collect(),
            ),
            "evac" => (
                &clusters,
                Evacuate::new(
                    stream_arrivals(streaming.records()),
                    clusters[0].id,
                    mid,
                    clusters[1].id,
                )
                .collect(),
            ),
            "group-fail" => {
                // The busiest subscription makes the biggest re-placement
                // storm; one counting drain finds it without materializing.
                let mut counts = std::collections::HashMap::new();
                for record in streaming.records() {
                    *counts.entry(record.subscription).or_insert(0u64) += 1;
                }
                let (&sub, _) = counts.iter().max_by_key(|(_, n)| **n).expect("non-empty");
                (
                    &clusters,
                    GroupFailure::new(
                        stream_arrivals(streaming.records()),
                        sub,
                        Timestamp::from_ticks(horizon.ticks() / 3),
                        1 << 40,
                    )
                    .collect(),
                )
            }
            "sku-mix" => {
                let rotated = sku_mix(&clusters);
                let requests: Vec<StreamRequest> = stream_arrivals(streaming.records()).collect();
                // Leak-free owned storage for the rotated fleet: serve
                // directly here instead of threading a lifetime out.
                let (placed_per_s, matches) = scenario_serve(&rotated, horizon, coach, &requests);
                let departs = 0;
                outcomes.push(ScenarioOutcome {
                    name: "sku-mix",
                    requests: requests.len(),
                    departs,
                    matches,
                    placed_per_s,
                });
                continue;
            }
            _ => unreachable!(),
        };
        let departs = requests
            .iter()
            .filter(|r| matches!(r, StreamRequest::Depart { .. }))
            .count();
        let (placed_per_s, matches) = scenario_serve(serve_clusters, horizon, coach, &requests);
        outcomes.push(ScenarioOutcome {
            name: match name {
                "surge" => "surge",
                "evac" => "evac",
                _ => "group-fail",
            },
            requests: requests.len(),
            departs,
            matches,
            placed_per_s,
        });
    }

    let all_match = outcomes.iter().all(|o| o.matches);
    let min_placed_per_s = outcomes
        .iter()
        .flat_map(|o| o.placed_per_s.iter().map(|(_, r)| *r))
        .fold(f64::MAX, f64::min);
    let floor_met = min_placed_per_s >= floor;
    let regression = !all_match || !floor_met;
    for outcome in &outcomes {
        let rates: Vec<String> = outcome
            .placed_per_s
            .iter()
            .map(|(s, r)| format!("{s} shards {r:.0}/s"))
            .collect();
        eprintln!(
            "bench_serve: [scenario]   {}: {} requests ({} departs), matches \
             materialized: {}, {}",
            outcome.name,
            outcome.requests,
            outcome.departs,
            outcome.matches,
            rates.join(", ")
        );
    }
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let scenario_json: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let by_shards: Vec<String> = o
                .placed_per_s
                .iter()
                .map(|(s, r)| format!("\"shards{s}\": {r:.1}"))
                .collect();
            format!(
                "\"{}\": {{\"requests\": {}, \"departs\": {}, \
                 \"matches_materialized\": {}, \"placed_per_s\": {{{}}}}}",
                o.name,
                o.requests,
                o.departs,
                o.matches,
                by_shards.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"coach/bench_scenarios/v1\",\n  \"mode\": \"{mode}\",\n  \
         \"unix_time\": {unix_time},\n  \
         \"trace\": {{\"vms\": {vms}, \"clusters\": {cluster_count}}},\n  \
         \"scenarios\": {{{scenarios}}},\n  \
         \"identity\": {{\"all_match\": {all_match}}},\n  \
         \"min_placed_per_s\": {min_placed_per_s:.1},\n  \
         \"serve_floor\": {{\"placed_per_s_floor\": {floor:.0}, \
         \"placed_per_s_floor_quick\": {SCENARIO_FLOOR_QUICK:.0}, \"met\": {floor_met}}},\n  \
         \"regression\": {regression}\n}}\n",
        mode = if quick { "quick" } else { "full" },
        vms = streaming.len(),
        cluster_count = clusters.len(),
        scenarios = scenario_json.join(",\n    "),
    );
    std::fs::write(out_path, &json).expect("write BENCH_scenarios.json");
    println!("{json}");
    eprintln!("bench_serve: wrote {out_path}");
    if !all_match {
        eprintln!("REGRESSION: a scenario's streamed replay diverged from its materialization");
    }
    if !floor_met {
        eprintln!(
            "REGRESSION: scenario throughput {min_placed_per_s:.0}/s below the {floor:.0}/s floor"
        );
    }
    if regression {
        std::process::exit(1);
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|p| args.get(p + 1))
        .cloned()
}

fn main() {
    // Under `--backend process` the pool re-execs this binary as its shard
    // workers; route those children into the worker loop (never returns
    // for a worker).
    coach_serve::maybe_run_shard_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let large = args.iter().any(|a| a == "--large");
    if let Some(which) = flag_value(&args, "--scenario") {
        let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_scenarios.json".to_string());
        run_scenarios(&which, quick, &out);
        return;
    }
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let shards_flag: Option<usize> = flag_value(&args, "--shards").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--shards takes a positive integer, got {v:?}"))
    });
    let probe_mode_name =
        flag_value(&args, "--probe-mode").unwrap_or_else(|| "differential".to_string());
    let sharded_probe_mode = match probe_mode_name.as_str() {
        "exhaustive" => ProbeMode::Exhaustive,
        "estimated" => ProbeMode::Estimated,
        "differential" => ProbeMode::Differential,
        other => panic!("--probe-mode is exhaustive|estimated|differential, got {other:?}"),
    };
    let backend_name = flag_value(&args, "--backend").unwrap_or_else(|| "thread".to_string());
    let backend = WorkerBackend::parse(&backend_name)
        .unwrap_or_else(|| panic!("--backend is thread|process, got {backend_name:?}"));
    let telemetry_name = flag_value(&args, "--telemetry").unwrap_or_else(|| "off".to_string());
    let telemetry_mode = match telemetry_name.as_str() {
        "off" => TelemetryConfig::Off,
        "full" => TelemetryConfig::Full,
        other => panic!("--telemetry is off|full, got {other:?}"),
    };
    let metrics_out = flag_value(&args, "--metrics-out");

    // Floors are for the *warm* admission path on this repo's 1-vCPU
    // reference container; quick mode relaxes for CI-runner variance. The
    // quick constants are also emitted by full-mode runs so the committed
    // JSON carries the floors `bench_trend` gates CI's quick runs against.
    const SERVE_FLOOR_QUICK: f64 = 30_000.0;
    const SERVE_FLOOR_FULL: f64 = 100_000.0;
    // The *cold* floor applies to the batched segment-derivation path —
    // request-time oracle derivation is the bottleneck there, so the bar
    // sits far below the warm floor but still catches a cold-path
    // regression (the per-item inline run is trajectory-only).
    const SERVE_COLD_FLOOR_QUICK: f64 = 20_000.0;
    const SERVE_COLD_FLOOR_FULL: f64 = 50_000.0;
    // The probe estimator must stay well ahead of the exhaustive fill; the
    // ratio is machine-independent enough to gate across modes.
    const ESTIMATOR_SPEEDUP_FLOOR_QUICK: f64 = 2.0;
    const ESTIMATOR_SPEEDUP_FLOOR_FULL: f64 = 4.0;
    // The shard sweep's 4-shard run must beat 1-shard by this factor —
    // but only where the measurement means something: the gate arms on
    // runners with enough cores for the dispatcher and all four workers
    // to run concurrently; elsewhere the efficiency is recorded
    // ungated (on a 1-vCPU container "scaling" only measures overhead).
    const SCALING_EFFICIENCY_FLOOR: f64 = 2.5;
    // Full telemetry (counters + span rings) may cost at most ~5% of warm
    // admission throughput on the reference container; quick mode only
    // widens for shared-runner wall-clock noise. Decisions must stay
    // bit-identical regardless of mode — that part is never relaxed.
    const TELEMETRY_RATIO_FLOOR_QUICK: f64 = 0.70;
    const TELEMETRY_RATIO_FLOOR_FULL: f64 = 0.95;
    let telemetry_ratio_floor = if quick {
        TELEMETRY_RATIO_FLOOR_QUICK
    } else {
        TELEMETRY_RATIO_FLOOR_FULL
    };
    let (config, floor, cold_floor, estimator_floor) = if quick {
        (
            TraceConfig {
                vm_count: 8000,
                // Eight clusters so the scaling sweep's top count is
                // genuinely eight shards.
                cluster_count: 8,
                subscription_count: 400,
                ..TraceConfig::medium(2026)
            },
            SERVE_FLOOR_QUICK,
            SERVE_COLD_FLOOR_QUICK,
            ESTIMATOR_SPEEDUP_FLOOR_QUICK,
        )
    } else {
        (
            TraceConfig {
                // Same reason: the full-mode scaling sweep needs eight
                // distinct shards.
                cluster_count: 8,
                ..TraceConfig::medium(2026)
            },
            SERVE_FLOOR_FULL,
            SERVE_COLD_FLOOR_FULL,
            ESTIMATOR_SPEEDUP_FLOOR_FULL,
        )
    };
    let coach = PolicyConfig::paper_set().remove(2);
    let tw = TimeWindows::paper_default();
    let fraction = 0.9;

    eprintln!(
        "bench_serve: generating {} trace ({} VMs)...",
        if quick { "quick" } else { "medium" },
        config.vm_count
    );
    let trace = generate(&config);

    // --- Phase 1: derive (warm table, via the batched path).
    eprintln!("bench_serve: pre-deriving predictions (batched)...");
    let t0 = Instant::now();
    let warm = Prederived::derive(&trace, tw, Percentile::P95);
    let derive_s = t0.elapsed().as_secs_f64();
    let derive_per_s = trace.vms.len() as f64 / derive_s.max(1e-9);
    eprintln!("bench_serve:   {derive_s:.2}s ({derive_per_s:.0} VMs/s)");

    // Footprint: the demands the scheduler actually packs.
    let demands: Vec<VmDemand> = trace
        .vms
        .iter()
        .map(|vm| {
            VmDemand::from_prediction(
                vm.id,
                vm.demand(),
                coach.policy,
                warm.predict(vm, coach.percentile).as_ref(),
            )
        })
        .collect();
    let footprint = footprint_json(&demands);
    drop(demands);

    // --- Phase 2: identity on a slice (full violation fidelity).
    let slice = {
        let mut t = trace.clone();
        if !quick {
            t.vms.truncate(25_000);
        }
        t
    };
    eprintln!(
        "bench_serve: identity check on {} VMs (online vs batch)...",
        slice.vms.len()
    );
    let online = serve_trace(&slice, &warm, coach, fraction);
    let batch = packing_experiment(&slice, &warm, coach, fraction);
    let identical = online == batch;
    eprintln!("bench_serve:   identical: {identical}");
    drop(slice);

    // --- Phase 3: warm admission-path throughput (the headline + floor).
    eprintln!(
        "bench_serve: streaming {} arrivals (warm, admission path)...",
        trace.vms.len()
    );
    let horizon_span = trace.horizon.since(Timestamp::ZERO);
    let serve = run_controller(&trace, &warm, coach, fraction, Some(horizon_span), false);
    eprintln!(
        "bench_serve:   {:.2}s, {:.0} placements/s, p50 {:.2}us p99 {:.2}us",
        serve.wall_s, serve.placed_per_s, serve.p50_us, serve.p99_us
    );

    // --- Phase 4: the probe microbench — estimator vs exhaustive on the
    // same mid-trace state. probes/s counts probe VM placements per second
    // of measurement work.
    eprintln!("bench_serve: probe capacity, estimator vs exhaustive fill...");
    let probes = probe_bench(&trace, &warm, coach, fraction);
    let estimator_speedup = probes.exhaustive_wall_s / probes.estimated_wall_s;
    let exhaustive_probes_per_s = probes.capacity as f64 / probes.exhaustive_wall_s;
    let estimated_probes_per_s = probes.capacity as f64 / probes.estimated_wall_s;
    eprintln!(
        "bench_serve:   capacity {} | exhaustive {:.3}s ({:.0} probes/s) | \
         estimator {:.4}s ({:.0} probes/s) | {:.1}x, matches: {}",
        probes.capacity,
        probes.exhaustive_wall_s,
        exhaustive_probes_per_s,
        probes.estimated_wall_s,
        estimated_probes_per_s,
        estimator_speedup,
        probes.matches
    );

    // --- Phase 5: the full stream plus the three scheduled probes (the
    // serving shape the batch experiment measures), exhaustive mode.
    eprintln!("bench_serve: streaming (warm, with capacity probes)...");
    let with_probes = run_controller(&trace, &warm, coach, fraction, Some(horizon_span), true);
    let probe_wall_s = (with_probes.wall_s - serve.wall_s).max(0.0) / 3.0;
    eprintln!(
        "bench_serve:   {:.2}s ({probe_wall_s:.2}s per probe measurement)",
        with_probes.wall_s
    );

    // --- Phase 6: cold derivation, two ways. Per-item inline first
    // (trajectory only; every arrival derives through `predict`), then the
    // batched segment path: a single-shard `ShardedController`, whose
    // dispatcher hands ≤1024-arrival segments to `handle_arrivals` →
    // `predict_batch`. The floor applies to the batched path, and the two
    // runs must agree decision-for-decision.
    eprintln!("bench_serve: streaming (cold, per-item inline oracle derivation)...");
    let cold_oracle = Oracle::new(tw);
    let cold = run_controller(
        &trace,
        &cold_oracle,
        coach,
        fraction,
        Some(horizon_span),
        false,
    );
    eprintln!(
        "bench_serve:   {:.2}s, {:.0} placements/s",
        cold.wall_s, cold.placed_per_s
    );

    eprintln!("bench_serve: streaming (cold, batched segment derivation)...");
    let cold_batch_oracle = Oracle::new(tw);
    let mut cold_config = ServeConfig::replaying(coach, fraction, trace.horizon);
    cold_config.sample_every = horizon_span;
    let mut cold_sharded =
        ShardedController::new(&trace.clusters, &cold_batch_oracle, cold_config, 1);
    let t0 = Instant::now();
    let cold_batched_result = cold_sharded.run(RequestSource::new(&trace.vms, Vec::new()));
    let cold_batched_wall = t0.elapsed().as_secs_f64();
    let cold_batched_per_s = cold_batched_result.accepted as f64 / cold_batched_wall.max(1e-9);
    let cold_matches = cold_batched_result.accepted == cold.result.accepted
        && cold_batched_result.rejected == cold.result.rejected
        && cold_batched_result.peak_servers_in_use == cold.result.peak_servers_in_use;
    let cold_floor_met = cold_batched_per_s >= cold_floor;
    eprintln!(
        "bench_serve:   {cold_batched_wall:.2}s, {cold_batched_per_s:.0} placements/s, \
         matches per-item: {cold_matches}"
    );

    // --- Phase 7: live violation accounting at the 2-hour cadence (the
    // full-fidelity Fig 20 serving shape: probes + utilization sampling).
    eprintln!("bench_serve: streaming (warm, live 2h violation accounting + probes)...");
    let accounting = run_controller(&trace, &warm, coach, fraction, None, true);
    eprintln!(
        "bench_serve:   {:.2}s, {:.0} placements/s",
        accounting.wall_s, accounting.placed_per_s
    );

    // --- Phase 8: the sharded worker runtime, one persistent session for
    // the whole stream (+ finalize).
    let shard_count = shards_flag
        .unwrap_or_else(|| trace.clusters.len().min(available_threads().max(2)))
        .max(1);
    eprintln!(
        "bench_serve: streaming through {shard_count} persistent {} shard workers \
         ({probe_mode_name} probes, {telemetry_name} telemetry)...",
        backend.label()
    );
    let mut config_sharded = ServeConfig::replaying(coach, fraction, trace.horizon);
    config_sharded.sample_every = horizon_span;
    config_sharded.probe_mode = sharded_probe_mode;
    config_sharded.backend = backend;
    config_sharded.telemetry = telemetry_mode;
    let mut sharded = ShardedController::new(&trace.clusters, &warm, config_sharded, shard_count);
    let shard_count = sharded.shard_count();
    let t0 = Instant::now();
    let sharded_result = sharded.run(RequestSource::replaying(&trace));
    let sharded_wall = t0.elapsed().as_secs_f64();
    let sharded_placed_per_s = sharded_result.accepted as f64 / sharded_wall.max(1e-9);
    let lane_totals = sharded.lane_totals();
    // Estimated-mode probes skip the fill's float add/remove dust, so the
    // comparable reference is capacity itself, which all modes must agree
    // on; everything else is integer-exact regardless of mode.
    let sharded_identical = sharded_result.accepted == with_probes.result.accepted
        && sharded_result.rejected == with_probes.result.rejected
        && sharded_result.peak_servers_in_use == with_probes.result.peak_servers_in_use
        && sharded_result.probe_capacity == with_probes.result.probe_capacity;
    eprintln!(
        "bench_serve:   {sharded_wall:.2}s, {sharded_placed_per_s:.0} placements/s, \
         matches single-shard: {sharded_identical} \
         ({} lane sends in {} batched handoffs, {} wakeups, {} full stalls)",
        lane_totals.sends, lane_totals.batched_sends, lane_totals.wakeups, lane_totals.full_stalls
    );

    // `--metrics-out PATH`: export the sharded run's registry (and span
    // rings) as the three wire formats. The Chrome trace is valid (if
    // empty) JSON even when spans are off, so all three always land.
    if let Some(prefix) = &metrics_out {
        let registry = sharded.telemetry_registry().unwrap_or_else(|| {
            panic!("--metrics-out requires --telemetry full, got {telemetry_name:?}")
        });
        std::fs::write(format!("{prefix}.prom"), registry.render_text())
            .expect("write metrics .prom");
        std::fs::write(format!("{prefix}.jsonl"), registry.render_jsonl())
            .expect("write metrics .jsonl");
        let rings = sharded.telemetry_span_rings();
        std::fs::write(
            format!("{prefix}.trace.json"),
            chrome_trace(rings.iter().copied()),
        )
        .expect("write metrics .trace.json");
        eprintln!(
            "bench_serve:   wrote {prefix}.prom / .jsonl / .trace.json \
             ({} span rings)",
            rings.len()
        );
    }

    // --- Phase 9: the shard sweep. Every count must stay integer-exact
    // against single-shard; the 4-vs-1 efficiency is floor-gated only on
    // machines with enough cores to host the dispatcher and all four
    // workers concurrently.
    eprintln!("bench_serve: scaling sweep at 1/2/4/8 shards...");
    // Telemetry off for the sweep: the efficiency gate must not move with
    // the `--telemetry` flag (the overhead phase below owns that cost).
    let config_scaling = ServeConfig {
        telemetry: TelemetryConfig::Off,
        ..config_sharded
    };
    let scale_counts = [1usize, 2, 4, 8];
    let mut scale_per_s = Vec::with_capacity(scale_counts.len());
    let mut scaling_matches = true;
    for &n in &scale_counts {
        let mut controller = ShardedController::new(&trace.clusters, &warm, config_scaling, n);
        let t0 = Instant::now();
        let result = controller.run(RequestSource::replaying(&trace));
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        let per_s = result.accepted as f64 / wall;
        let matches = result.accepted == with_probes.result.accepted
            && result.rejected == with_probes.result.rejected
            && result.peak_servers_in_use == with_probes.result.peak_servers_in_use
            && result.probe_capacity == with_probes.result.probe_capacity;
        scaling_matches &= matches;
        eprintln!(
            "bench_serve:   {n} shards: {wall:.2}s, {per_s:.0} placements/s, matches: {matches}"
        );
        scale_per_s.push(per_s);
    }
    let scaling_efficiency = scale_per_s[2] / scale_per_s[0].max(1e-9);
    let scaling_gate_active = available_threads() >= 8;
    let scaling_met = !scaling_gate_active || scaling_efficiency >= SCALING_EFFICIENCY_FLOOR;
    eprintln!(
        "bench_serve:   4-shard/1-shard efficiency {scaling_efficiency:.2}x \
         (floor {SCALING_EFFICIENCY_FLOOR:.1}x, gate {})",
        if scaling_gate_active {
            "armed"
        } else {
            "off — too few cores"
        }
    );

    // --- Phase 10: the snapshot/restore microbench — the live-servicing
    // drain. A mid-stream controller (latency sampling off: wall-clock
    // reads are the one nondeterminism in a snapshot) is serialized,
    // restored, and re-serialized; the re-snapshot must be byte-identical.
    eprintln!("bench_serve: snapshot/restore microbench (mid-stream controller)...");
    let mut snap_config = ServeConfig::replaying(coach, fraction, trace.horizon);
    snap_config.sample_every = horizon_span;
    snap_config.latency_stride = 0;
    let mut snap_controller = Controller::new(&trace.clusters, &warm, snap_config);
    for request in RequestSource::new(&trace.vms[..trace.vms.len() / 2], Vec::new()) {
        snap_controller.handle(request);
    }
    let snap_reps = if quick { 5u32 } else { 20 };
    let t0 = Instant::now();
    let mut snapshot = snap_controller.snapshot();
    for _ in 1..snap_reps {
        snapshot = snap_controller.snapshot();
    }
    let snapshot_encode_s = (t0.elapsed().as_secs_f64() / snap_reps as f64).max(1e-9);
    let snapshot_bytes = snapshot.len();
    let record_table: std::collections::HashMap<VmId, &VmRecord> =
        trace.vms.iter().map(|vm| (vm.id, vm)).collect();
    let t0 = Instant::now();
    let mut restored = None;
    for _ in 0..snap_reps {
        restored = Some(
            Controller::restore(&warm, &snapshot, |vm| record_table.get(&vm).copied())
                .expect("snapshot restores"),
        );
    }
    let snapshot_restore_s = (t0.elapsed().as_secs_f64() / snap_reps as f64).max(1e-9);
    let snapshot_roundtrip = restored.expect("at least one restore rep").snapshot() == snapshot;
    let snapshot_mb = snapshot_bytes as f64 / 1e6;
    let snapshot_encode_mb_s = snapshot_mb / snapshot_encode_s;
    let snapshot_restore_mb_s = snapshot_mb / snapshot_restore_s;
    eprintln!(
        "bench_serve:   {snapshot_bytes} bytes | encode {snapshot_encode_s:.4}s \
         ({snapshot_encode_mb_s:.0} MB/s) | restore {snapshot_restore_s:.4}s \
         ({snapshot_restore_mb_s:.0} MB/s) | roundtrip identical: {snapshot_roundtrip}"
    );

    // --- Phase 11: telemetry overhead — the warm admission stream with
    // the registry Off vs Full, interleaved best-of-N with the in-rep
    // order alternating (interleaving spreads thermal/scheduler drift
    // across both arms; alternation cancels the whichever-runs-first
    // cache/frequency advantage). Decisions must be bit-identical; the
    // Full/Off throughput ratio is floor-gated.
    let telemetry_reps = if quick { 2u32 } else { 4 };
    eprintln!("bench_serve: telemetry overhead, Full vs Off (best of {telemetry_reps} each)...");
    let mut telemetry_off_wall = f64::MAX;
    let mut telemetry_full_wall = f64::MAX;
    let mut telemetry_identical = true;
    for rep in 0..telemetry_reps {
        let modes = if rep % 2 == 0 {
            [TelemetryConfig::Off, TelemetryConfig::Full]
        } else {
            [TelemetryConfig::Full, TelemetryConfig::Off]
        };
        for mode in modes {
            let (wall, result) = run_with_telemetry(&trace, &warm, coach, fraction, mode);
            if mode.is_off() {
                telemetry_off_wall = telemetry_off_wall.min(wall);
            } else {
                telemetry_full_wall = telemetry_full_wall.min(wall);
            }
            telemetry_identical &= result == serve.result;
        }
    }
    let telemetry_off_per_s = serve.accepted as f64 / telemetry_off_wall;
    let telemetry_full_per_s = serve.accepted as f64 / telemetry_full_wall;
    let telemetry_ratio = telemetry_full_per_s / telemetry_off_per_s.max(1e-9);
    let telemetry_met = telemetry_ratio >= telemetry_ratio_floor;
    eprintln!(
        "bench_serve:   off {telemetry_off_per_s:.0}/s | full {telemetry_full_per_s:.0}/s | \
         full/off {telemetry_ratio:.3} (floor {telemetry_ratio_floor:.2}), \
         decisions identical: {telemetry_identical}"
    );

    // --- Phase 12: streaming ingestion. The bounded-memory generator must
    // (a) plan the same fleet as the materialized generator, (b) serve
    // through the owned-segment path exactly equal to the materialized
    // sharded replay, and (c) keep its ingestion-only allocator high-water
    // mark under the committed per-VM ceiling. The per-VM framing makes
    // the number comparable across modes; the stream's peak is dominated
    // by fixed-size state (chunk buffers, fleet plan, template cache), so
    // more VMs mean *fewer* bytes per VM — growth here means someone
    // started materializing.
    // Measured: ~123 B/VM quick (8k VMs), ~114 B/VM full (100k VMs) — the
    // ceilings carry ~2-3x headroom for allocator/std drift, not workload
    // growth (the workload is seed-pinned).
    const STREAM_PEAK_CEILING_QUICK: f64 = 384.0;
    const STREAM_PEAK_CEILING_FULL: f64 = 192.0;
    let stream_ceiling = if quick {
        STREAM_PEAK_CEILING_QUICK
    } else {
        STREAM_PEAK_CEILING_FULL
    };
    eprintln!("bench_serve: streaming ingestion (bounded-memory generator)...");
    let streaming = StreamingTrace::new(&config);
    let clusters_match = streaming.clusters() == &trace.clusters[..];
    alloc::reset_peak();
    let stream_baseline = alloc::current_bytes();
    let t0 = Instant::now();
    let mut stream_drained = 0u64;
    for record in streaming.records() {
        std::hint::black_box(&record);
        stream_drained += 1;
    }
    let stream_ingest_s = t0.elapsed().as_secs_f64().max(1e-9);
    let stream_peak = alloc::peak_bytes().saturating_sub(stream_baseline);
    let stream_ingest_per_s = stream_drained as f64 / stream_ingest_s;
    let stream_peak_per_vm = stream_peak as f64 / stream_drained.max(1) as f64;
    let stream_ceiling_met = stream_peak_per_vm <= stream_ceiling;
    let mut stream_config = ServeConfig::replaying(coach, fraction, trace.horizon);
    stream_config.sample_every = horizon_span;
    let mut stream_reference = ShardedController::new(&trace.clusters, &warm, stream_config, 1);
    let stream_expected = stream_reference.run(RequestSource::replaying(&trace));
    let mut stream_controller =
        ShardedController::new(streaming.clusters(), &warm, stream_config, 1);
    let t0 = Instant::now();
    let stream_result = stream_controller.run_stream(StreamSource::streaming(&streaming));
    let stream_serve_s = t0.elapsed().as_secs_f64().max(1e-9);
    let stream_matches = clusters_match && stream_result == stream_expected;
    let stream_placed_per_s = stream_result.accepted as f64 / stream_serve_s;
    eprintln!(
        "bench_serve:   drain {stream_ingest_s:.2}s ({stream_ingest_per_s:.0} records/s), \
         peak {:.2} MB = {stream_peak_per_vm:.1} B/VM (ceiling {stream_ceiling:.0}, met: \
         {stream_ceiling_met}); serve {stream_serve_s:.2}s \
         ({stream_placed_per_s:.0} placements/s), matches materialized: {stream_matches}",
        stream_peak as f64 / 1e6
    );

    // --- Optional: the ten-million-VM streamed run (never materialized).
    let (large_json, large_flat) = if large {
        run_large(coach)
    } else {
        ("null".to_string(), true)
    };

    let floor_met = serve.placed_per_s >= floor;
    let estimator_floor_met = estimator_speedup >= estimator_floor;
    let regression = !identical
        || !sharded_identical
        || !floor_met
        || !probes.matches
        || !estimator_floor_met
        || !cold_matches
        || !cold_floor_met
        || !scaling_matches
        || !scaling_met
        || !snapshot_roundtrip
        || !telemetry_identical
        || !telemetry_met
        || !stream_matches
        || !stream_ceiling_met
        || !large_flat;
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = format!(
        "{{\n  \"schema\": \"coach/bench_serve/v9\",\n  \"mode\": \"{mode}\",\n  \
         \"unix_time\": {unix_time},\n  \
         \"trace\": {{\"vms\": {vms}, \"servers\": {servers}, \"clusters\": {clusters}}},\n  \
         \"derive\": {{\"wall_s\": {derive_s:.3}, \"vms_per_s\": {derive_per_s:.0}}},\n  \
         \"identity\": {{\"online_equals_batch\": {identical}, \
         \"sharded_equals_single\": {sharded_identical}}},\n  \
         \"serve\": {serve},\n  \
         \"serve_floor\": {{\"placed_per_s_floor\": {floor:.0}, \
         \"placed_per_s_floor_quick\": {SERVE_FLOOR_QUICK:.0}, \"met\": {floor_met}}},\n  \
         \"probes\": {{\"capacity\": {p_cap}, \"estimator_matches_exhaustive\": {p_match}, \
         \"exhaustive\": {{\"wall_s_per_measurement\": {p_exh:.6}, \"probes_per_s\": {p_exh_rate:.0}}}, \
         \"estimated\": {{\"wall_s_per_measurement\": {p_est:.6}, \"probes_per_s\": {p_est_rate:.0}}}, \
         \"estimator_speedup\": {p_speedup:.2}, \
         \"estimator_speedup_floor\": {estimator_floor:.2}, \
         \"estimator_speedup_floor_quick\": {ESTIMATOR_SPEEDUP_FLOOR_QUICK:.2}, \
         \"floor_met\": {estimator_floor_met}}},\n  \
         \"serve_with_probes\": {{\"wall_s\": {wp_wall:.6}, \"probe_capacity\": {wp_cap:.1}, \
         \"wall_s_per_probe\": {probe_wall_s:.3}}},\n  \
         \"serve_cold_derive\": {{\"per_item\": {cold}, \
         \"batched\": {{\"wall_s\": {cb_wall:.6}, \"accepted\": {cb_accepted}, \
         \"placed_per_s\": {cold_batched_per_s:.1}, \"matches_per_item\": {cold_matches}}}, \
         \"placed_per_s_floor\": {cold_floor:.0}, \
         \"placed_per_s_floor_quick\": {SERVE_COLD_FLOOR_QUICK:.0}, \
         \"met\": {cold_floor_met}}},\n  \
         \"serve_accounting\": {accounting},\n  \
         \"sharded\": {{\"shards\": {shard_count}, \"backend\": \"{backend_label}\", \
         \"probe_mode\": \"{probe_mode_name}\", \
         \"wall_s\": {sharded_wall:.3}, \"placed_per_s\": {sharded_placed_per_s:.1}, \
         \"matches_single_shard\": {sharded_identical}, \
         \"lane_telemetry\": {{\"sends\": {lt_sends}, \"batched_sends\": {lt_batched}, \
         \"wakeups\": {lt_wakeups}, \"full_stalls\": {lt_stalls}}}}},\n  \
         \"scaling\": {{\"shard_counts\": [1, 2, 4, 8], \
         \"placed_per_s\": [{sc0:.1}, {sc1:.1}, {sc2:.1}, {sc3:.1}], \
         \"matches_single_shard\": {scaling_matches}, \
         \"efficiency_4x\": {scaling_efficiency:.3}, \
         \"efficiency_4x_floor\": {SCALING_EFFICIENCY_FLOOR:.2}, \
         \"gate_active\": {scaling_gate_active}, \"met\": {scaling_met}}},\n  \
         \"snapshot\": {{\"bytes\": {snapshot_bytes}, \
         \"encode_s\": {snapshot_encode_s:.6}, \"encode_mb_s\": {snapshot_encode_mb_s:.1}, \
         \"restore_s\": {snapshot_restore_s:.6}, \"restore_mb_s\": {snapshot_restore_mb_s:.1}, \
         \"roundtrip_identical\": {snapshot_roundtrip}}},\n  \
         \"telemetry\": {{\"sharded_mode\": \"{telemetry_name}\", \
         \"off_placed_per_s\": {telemetry_off_per_s:.1}, \
         \"full_placed_per_s\": {telemetry_full_per_s:.1}, \
         \"full_over_off\": {telemetry_ratio:.4}, \
         \"full_over_off_floor\": {telemetry_ratio_floor:.2}, \
         \"full_over_off_floor_quick\": {TELEMETRY_RATIO_FLOOR_QUICK:.2}, \
         \"gate_active\": true, \"met\": {telemetry_met}, \
         \"decisions_identical\": {telemetry_identical}}},\n  \
         \"demand_footprint\": {footprint},\n  \
         \"stream\": {{\"matches_materialized\": {stream_matches}, \
         \"ingest_wall_s\": {stream_ingest_s:.3}, \
         \"ingest_records_per_s\": {stream_ingest_per_s:.0}, \
         \"peak_bytes\": {stream_peak}, \
         \"peak_bytes_per_vm\": {stream_peak_per_vm:.2}, \
         \"peak_bytes_per_vm_ceiling\": {stream_ceiling:.0}, \
         \"peak_bytes_per_vm_ceiling_quick\": {STREAM_PEAK_CEILING_QUICK:.0}, \
         \"ceiling_met\": {stream_ceiling_met}, \
         \"serve_placed_per_s\": {stream_placed_per_s:.1}}},\n  \
         \"large\": {large_json},\n  \
         \"regression\": {regression}\n}}\n",
        mode = if quick { "quick" } else { "full" },
        vms = trace.vms.len(),
        servers = trace.server_count(),
        clusters = trace.clusters.len(),
        serve = serve_stats_json(&serve),
        p_cap = probes.capacity,
        p_match = probes.matches,
        p_exh = probes.exhaustive_wall_s,
        p_exh_rate = exhaustive_probes_per_s,
        p_est = probes.estimated_wall_s,
        p_est_rate = estimated_probes_per_s,
        p_speedup = estimator_speedup,
        wp_wall = with_probes.wall_s,
        wp_cap = with_probes.result.probe_capacity,
        cold = serve_stats_json(&cold),
        cb_wall = cold_batched_wall,
        cb_accepted = cold_batched_result.accepted,
        accounting = serve_stats_json(&accounting),
        backend_label = backend.label(),
        lt_sends = lane_totals.sends,
        lt_batched = lane_totals.batched_sends,
        lt_wakeups = lane_totals.wakeups,
        lt_stalls = lane_totals.full_stalls,
        sc0 = scale_per_s[0],
        sc1 = scale_per_s[1],
        sc2 = scale_per_s[2],
        sc3 = scale_per_s[3],
    );
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("{json}");
    eprintln!("bench_serve: wrote {out_path}");

    if !identical {
        eprintln!("REGRESSION: online controller diverged from the batch experiment");
    }
    if !sharded_identical {
        eprintln!("REGRESSION: sharded controller diverged from single-shard");
    }
    if !floor_met {
        eprintln!(
            "REGRESSION: warm admission throughput {:.0}/s below the {floor:.0}/s floor",
            serve.placed_per_s
        );
    }
    if !probes.matches {
        eprintln!("REGRESSION: probe estimator diverged from the exhaustive fill");
    }
    if !estimator_floor_met {
        eprintln!(
            "REGRESSION: probe estimator speedup {estimator_speedup:.2}x below the \
             {estimator_floor:.1}x floor"
        );
    }
    if !cold_matches {
        eprintln!("REGRESSION: batched cold derivation diverged from the per-item cold run");
    }
    if !cold_floor_met {
        eprintln!(
            "REGRESSION: batched cold throughput {cold_batched_per_s:.0}/s below the \
             {cold_floor:.0}/s floor"
        );
    }
    if !scaling_matches {
        eprintln!("REGRESSION: a scaling-sweep shard count diverged from single-shard");
    }
    if !scaling_met {
        eprintln!(
            "REGRESSION: 4-shard scaling efficiency {scaling_efficiency:.2}x below the \
             {SCALING_EFFICIENCY_FLOOR:.1}x floor"
        );
    }
    if !snapshot_roundtrip {
        eprintln!("REGRESSION: snapshot restore→re-snapshot is not byte-identical");
    }
    if !telemetry_identical {
        eprintln!("REGRESSION: Full-telemetry decisions diverged from the Off run");
    }
    if !telemetry_met {
        eprintln!(
            "REGRESSION: full telemetry at {telemetry_ratio:.3}x of Off throughput, below \
             the {telemetry_ratio_floor:.2}x floor"
        );
    }
    if !stream_matches {
        eprintln!("REGRESSION: streaming ingestion diverged from the materialized replay");
    }
    if !stream_ceiling_met {
        eprintln!(
            "REGRESSION: streaming ingestion peak {stream_peak_per_vm:.1} B/VM above the \
             {stream_ceiling:.0} B/VM ceiling"
        );
    }
    if !large_flat {
        eprintln!(
            "REGRESSION: --large ingestion high-water mark above the \
             {LARGE_INGEST_PEAK_CEILING_BYTES}-byte ceiling"
        );
    }
    if regression {
        std::process::exit(1);
    }
}
