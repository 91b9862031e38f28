//! One benchmark from `TraceConfig` to `PackingResult`.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!           [--quick] [--agree] [--out PATH] [--trace-out PATH]
//! ```
//!
//! Without `--workload` every workload runs. Each prints its metrics by
//! name with their units and the outcome of its correctness checks; the
//! last line of standard output is one JSON object (the benchmark
//! contract's result line for a single workload, a list of full reports
//! otherwise). The exit code is non-zero if any check failed, or, with
//! `--agree`, if two runs of the set disagree by more than a bound.
//!
//! See `README.md` beside this file for the workloads, the metric glossary
//! and the measured baseline.

mod alloc;
mod harness;
mod metrics;
mod replay;
mod trace;
mod workloads;

use harness::Params;
use metrics::{Report, END_TO_END, EXACT};
use trace::Tracer;
use workloads::WORKLOADS;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 2026;
/// Matches `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Options {
    workload: Option<usize>,
    params: Params,
    traced: bool,
    agree: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn usage(problem: &str) -> ! {
    eprintln!("benchmark: {problem}");
    eprintln!(
        "usage: benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1 | --traced] \
         [--quick] [--agree] [--out PATH] [--trace-out PATH]",
        WORKLOADS.map(|(name, _)| name).join("|")
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut options = Options {
        workload: None,
        params: Params {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            quick: false,
        },
        traced: false,
        agree: false,
        out: None,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} takes a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                options.workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|(w, _)| *w == name)
                        .unwrap_or_else(|| usage(&format!("no workload named {name:?}"))),
                );
            }
            "--seed" => {
                options.params.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                options.params.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a number of seconds"));
            }
            "--trace" => {
                options.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--traced" => options.traced = true,
            "--quick" => options.params.quick = true,
            "--agree" => options.agree = true,
            "--out" => options.out = Some(value()),
            "--trace-out" => options.trace_out = Some(value()),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    options
}

/// Run the selected workloads once.
fn run_set(options: &Options, tracer: Option<&Tracer>) -> Vec<Report> {
    WORKLOADS
        .iter()
        .enumerate()
        .filter(|(i, _)| options.workload.is_none_or(|w| w == *i))
        .map(|(_, (name, workload))| {
            eprintln!(
                "benchmark: {name} (seed {}{}{})...",
                options.params.seed,
                if tracer.is_some() { ", traced" } else { "" },
                if options.params.quick { ", quick" } else { "" },
            );
            workload(&options.params, tracer.map(|t| t.scope(name)))
        })
        .collect()
}

/// Print, per workload and end-to-end metric, both values, their relative
/// difference and the bound; true if every pair is within its bound. A
/// `--quick` run times milliseconds, so there only the decisions are judged.
fn agreement(first: &[Report], second: &[Report], comparable: bool) -> bool {
    let mut agree = true;
    println!("agreement of two runs of the same code");
    for (a, b) in first.iter().zip(second) {
        for (metric, (x, y)) in END_TO_END
            .iter()
            .zip(a.end_to_end.iter().zip(&b.end_to_end))
        {
            let (Some(x), Some(y)) = (x, y) else {
                continue;
            };
            let difference = if x == y { 0.0 } else { (x - y).abs() / x.abs() };
            let judged = comparable || metric.bound == EXACT;
            let ok = difference <= metric.bound;
            agree &= ok || !judged;
            println!(
                "  {:<14} {:<20} {:>22} {:>22}  diff {:>8.4}%  bound {:>5}  {}",
                a.workload,
                metric.name,
                x,
                y,
                difference * 100.0,
                metric.bound_label(),
                match (ok, judged) {
                    (true, _) => "ok",
                    (false, true) => "EXCEEDED",
                    (false, false) => "not judged (--quick)",
                }
            );
        }
    }
    agree
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(err) = std::fs::write(path, contents) {
        eprintln!("benchmark: cannot write {path}: {err}");
        std::process::exit(2);
    }
}

fn main() {
    // Any binary that may build a shard pool routes re-exec'd workers first.
    coach::serve::maybe_run_shard_worker();

    let options = parse_options();
    let tracer = options.traced.then(Tracer::new);
    let comparable = !options.params.quick;

    let reports = run_set(&options, tracer.as_ref());
    for report in &reports {
        report.print(comparable);
    }
    let mut ok = reports.iter().all(Report::correct);
    if options.agree {
        let again = run_set(&options, tracer.as_ref());
        ok &= again.iter().all(Report::correct);
        ok &= agreement(&reports, &again, comparable);
    }

    if let (Some(path), Some(tracer)) = (&options.trace_out, &tracer) {
        write_or_die(path, &tracer.chrome_json());
        eprintln!("benchmark: wrote {} spans to {path}", tracer.span_count());
    }
    let all = format!(
        "{{\"schema\": \"coach/benchmark/v1\", \"comparable\": {comparable}, \"traced\": {}, \
         \"threads\": {}, \"workloads\": [{}]}}",
        options.traced,
        coach::types::available_threads(),
        reports
            .iter()
            .map(Report::full_json)
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Some(path) = &options.out {
        write_or_die(path, &format!("{all}\n"));
    }
    match (options.workload, reports.as_slice()) {
        (Some(_), [report]) => println!("{}", report.driver_json()),
        _ => println!("{all}"),
    }
    if !ok {
        eprintln!("benchmark: FAILED (a correctness check or an agreement bound)");
        std::process::exit(1);
    }
}
