//! Scoped span timers recorded into fixed-capacity per-thread rings.
//!
//! A [`SpanRing`] is owned by exactly one thread (no locks, no atomics): the
//! controller or dispatcher that instruments itself holds its ring and
//! records `(name, tid, start_ns, dur_ns)` events with two clock reads and
//! one in-capacity `Vec::push`. When the ring is full, new events are
//! **dropped and counted** — the hot path never blocks and never
//! reallocates. Rings from many threads are exported together as Chrome
//! `trace_event` JSON (load in `chrome://tracing` or Perfetto).
//!
//! Timestamps are relative to a shared origin `Instant` so spans from
//! different rings line up on one timeline; pass the same origin to every
//! ring of a deployment (see [`SpanRing::with_origin`]).

use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (dot-separated convention: `serve.admit`, `dispatch.merge`).
    pub name: &'static str,
    /// Logical thread id (shard index; dispatcher uses a distinct id).
    pub tid: u32,
    /// Start, nanoseconds since the ring's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// An in-flight span: returned by [`SpanRing::begin`], closed by
/// [`SpanRing::end`]. Not `Clone` — each start closes at most once.
#[derive(Debug)]
pub struct SpanStart {
    at: Instant,
}

/// A fixed-capacity, single-owner span buffer with drop counting.
#[derive(Debug)]
pub struct SpanRing {
    origin: Instant,
    tid: u32,
    events: Vec<SpanEvent>,
    capacity: usize,
    dropped: u64,
    drops_synced: u64,
}

impl SpanRing {
    /// A ring with its own origin (single-ring deployments).
    pub fn new(tid: u32, capacity: usize) -> Self {
        Self::with_origin(Instant::now(), tid, capacity)
    }

    /// A ring sharing `origin` with sibling rings so exported spans share
    /// one timeline.
    pub fn with_origin(origin: Instant, tid: u32, capacity: usize) -> Self {
        SpanRing {
            origin,
            tid,
            events: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
            drops_synced: 0,
        }
    }

    /// The shared timeline origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// This ring's logical thread id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Start a span (one clock read; no ring access, so it cannot drop).
    #[inline]
    pub fn begin() -> SpanStart {
        SpanStart { at: Instant::now() }
    }

    /// Close a span started with [`SpanRing::begin`]. One clock read plus an
    /// in-capacity push; drops (counted) when the ring is full.
    #[inline]
    pub fn end(&mut self, name: &'static str, start: SpanStart) {
        let dur_ns = start.at.elapsed().as_nanos() as u64;
        let start_ns = start.at.duration_since(self.origin).as_nanos() as u64;
        self.record(name, start_ns, dur_ns);
    }

    /// Record a pre-measured span.
    #[inline]
    pub fn record(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        if self.events.len() == self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(SpanEvent {
            name,
            tid: self.tid,
            start_ns,
            dur_ns,
        });
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops since the last call (for mirroring into a drop counter at
    /// export barriers without double counting).
    pub fn take_drop_delta(&mut self) -> u64 {
        let delta = self.dropped - self.drops_synced;
        self.drops_synced = self.dropped;
        delta
    }

    /// Number of recorded spans with `name`.
    pub fn count(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.name == name).count()
    }

    /// Forget recorded events (drop counters are preserved).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

/// Render rings as a Chrome `trace_event` JSON document (complete "X"
/// events; `ts`/`dur` in fractional microseconds).
pub fn chrome_trace<'r>(rings: impl IntoIterator<Item = &'r SpanRing>) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for ring in rings {
        for e in ring.events() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"coach\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                e.name,
                e.tid,
                e.start_ns as f64 / 1_000.0,
                e.dur_ns as f64 / 1_000.0,
            ));
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_with_shared_origin() {
        let origin = Instant::now();
        let mut a = SpanRing::with_origin(origin, 0, 16);
        let mut b = SpanRing::with_origin(origin, 1, 16);
        let s = SpanRing::begin();
        a.end("serve.admit", s);
        b.record("dispatch.merge", 10, 20);
        assert_eq!(a.events().len(), 1);
        assert_eq!(a.events()[0].name, "serve.admit");
        assert_eq!(a.events()[0].tid, 0);
        assert_eq!(b.events()[0].tid, 1);
        assert_eq!(b.events()[0].dur_ns, 20);
        assert_eq!(b.count("dispatch.merge"), 1);
    }

    #[test]
    fn overflow_drops_and_counts_instead_of_blocking() {
        let mut ring = SpanRing::new(0, 4);
        for i in 0..10u64 {
            ring.record("x", i, 1);
        }
        assert_eq!(ring.events().len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.take_drop_delta(), 6);
        ring.record("x", 99, 1);
        assert_eq!(ring.take_drop_delta(), 1);
        assert_eq!(ring.dropped(), 7);
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let mut ring = SpanRing::new(3, 8);
        ring.record("serve.tick", 1_000, 2_000);
        ring.record("serve.probe", 5_000, 500);
        let json = chrome_trace([&ring]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"serve.tick\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"ts\":1,\"dur\":2"));
        let empty = chrome_trace([]);
        assert!(empty.contains("\"traceEvents\":[]"));
    }
}
