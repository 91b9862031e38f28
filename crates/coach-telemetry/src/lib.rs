//! Unified observability for the Coach serving control plane.
//!
//! Three pieces, all dependency-free and allocation-free on the hot path:
//!
//! * **Instruments** — [`Counter`], [`Gauge`], and log2-bucket
//!   [`Histogram`]/[`AtomicHistogram`], addressed by static [`MetricId`]s
//!   with labels (shard, policy, lane kind) through a [`Registry`].
//!   Registration allocates once per series; updates are relaxed atomics.
//! * **Spans** — scoped timers recorded into per-thread fixed-capacity
//!   [`SpanRing`]s with drop counters; full rings drop (and count) instead
//!   of blocking, so tracing never perturbs the event loop it measures.
//! * **Export** — deterministic (sorted) renderings: Prometheus-style text
//!   ([`Registry::render_text`]), JSONL ([`Registry::render_jsonl`]), and
//!   Chrome `trace_event` JSON for spans ([`chrome_trace`]), all rendered
//!   from plain-data [`RegistrySnapshot`]s.
//!
//! The serving layer selects a [`TelemetryConfig`] per deployment: `Off`
//! keeps every guard on the cold side of a `None` check (pinned
//! allocation-free by the counting-allocator harness), `Full` arms the
//! instruments and span tracing. Decisions are bit-identical in both —
//! telemetry observes, never steers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod registry;
mod span;

pub use histogram::{AtomicHistogram, Histogram, BUCKETS};
pub use registry::{
    render_jsonl, render_text, Counter, CounterSeries, Gauge, Label, LabelValue, MetricEntry,
    MetricId, MetricValue, Registry, RegistrySnapshot,
};
pub use span::{chrome_trace, SpanEvent, SpanRing, SpanStart, DEFAULT_SPAN_CAPACITY};

/// How much telemetry a deployment records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryConfig {
    /// No registry, no spans: instrumented call sites reduce to a `None`
    /// check. The default.
    #[default]
    Off,
    /// Counters, gauges, and histograms, plus span rings (Chrome-trace
    /// exportable).
    Full,
}

impl TelemetryConfig {
    /// Whether telemetry is fully disabled.
    pub fn is_off(self) -> bool {
        matches!(self, TelemetryConfig::Off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_gates() {
        assert!(TelemetryConfig::Off.is_off());
        assert!(!TelemetryConfig::Full.is_off());
        assert_eq!(TelemetryConfig::default(), TelemetryConfig::Off);
    }
}
