//! Shared helpers for the figure-reproduction binaries and Criterion
//! benches.
//!
//! Each paper figure/table has a binary under `src/bin/` that prints the
//! same rows/series the paper plots (the README's figure table is the
//! index). Absolute numbers differ from the paper (our substrate is a
//! simulator, the trace is synthetic); shapes and orderings are the
//! reproduction target.
//!
//! How fast the system is has one harness: `examples/benchmark`. What
//! lives here beside the figures is the counting allocator the memory
//! ceiling tests run under ([`alloc`]), the strict JSON parser the
//! telemetry-export test reads exports back with ([`json`]), and the
//! Criterion benches under `benches/`.

pub mod alloc;
pub mod json;

use coach_trace::{generate, Trace, TraceConfig};

/// The standard evaluation trace used by the figure binaries: 10 clusters,
/// two weeks, deterministic seed.
pub fn eval_trace() -> Trace {
    generate(&TraceConfig {
        vm_count: 4000,
        ..TraceConfig::paper_scale(2024)
    })
}

/// A smaller trace for the heavier experiments.
pub fn small_eval_trace() -> Trace {
    generate(&TraceConfig {
        vm_count: 1200,
        subscription_count: 120,
        ..TraceConfig::paper_scale(2024)
    })
}

/// Print a figure header in a consistent format.
pub fn figure_header(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(f: f64) -> String {
    format!("{:.1}%", 100.0 * f)
}
