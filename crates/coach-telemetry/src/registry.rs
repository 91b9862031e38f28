//! The metrics registry: named, labeled, atomically-updated instruments.
//!
//! Registration (name + label resolution, one small allocation per new
//! series) happens once, at wiring time; the returned `Arc` handles are then
//! updated lock-free on the hot path. Export walks the registry under its
//! lock, snapshots every instrument, and renders deterministically (sorted
//! by name, then labels), so two registries that accumulated the same events
//! render the same text regardless of registration or merge order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{AtomicHistogram, Histogram};

/// Static identity of a metric: its exposition name and help text.
///
/// Declared as `const`s in an instrument catalog so every call site agrees
/// on spelling; the registry keys series by `(name, labels)`.
#[derive(Debug, Clone, Copy)]
pub struct MetricId {
    /// Exposition name, e.g. `coach_serve_accepted_total`.
    pub name: &'static str,
    /// One-line help text for the text exposition.
    pub help: &'static str,
}

impl MetricId {
    /// Declare a metric identity.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self { name, help }
    }
}

/// A label value: static string or integer (formatted at registration).
#[derive(Debug, Clone, Copy)]
pub enum LabelValue {
    /// A static string value, e.g. a policy or lane-kind name.
    Str(&'static str),
    /// An integer value, e.g. a shard index.
    U64(u64),
}

/// One label pair attached at registration time.
pub type Label = (&'static str, LabelValue);

fn resolve_labels(labels: &[Label]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| {
            let value = match v {
                LabelValue::Str(s) => (*s).to_string(),
                LabelValue::U64(n) => n.to_string(),
            };
            ((*k).to_string(), value)
        })
        .collect()
}

/// A monotonically increasing counter. Wait-free, allocation-free updates.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-written-value gauge storing an `f64` (as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicHistogram>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// An exported instrument value (plain data).
///
/// The histogram variant is kept inline (~0.5 KB of buckets) rather than
/// boxed: snapshots are short-lived export values, and boxing would add a
/// per-histogram allocation to every one.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(f64),
    /// A histogram's state.
    Histogram(Histogram),
}

/// One exported series: name, labels, help, value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Exposition name.
    pub name: String,
    /// Resolved label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// Help text.
    pub help: String,
    /// The value.
    pub value: MetricValue,
}

/// A point-in-time copy of a registry, sorted by `(name, labels)` — what
/// the exporters render.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Exported series, sorted by `(name, labels)`.
    pub entries: Vec<MetricEntry>,
}

/// One exported counter series: `(name, resolved labels, value)`.
pub type CounterSeries = (String, Vec<(String, String)>, u64);

impl RegistrySnapshot {
    /// Look up a counter series by name and resolved labels.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.entries.iter().find_map(|e| {
            if e.name == name && labels_match(&e.labels, labels) {
                match e.value {
                    MetricValue::Counter(v) => Some(v),
                    _ => None,
                }
            } else {
                None
            }
        })
    }

    /// All counter series whose name starts with `prefix`, as
    /// `(name, labels, value)` — sorted, so two snapshots with equal
    /// counter state compare equal.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<CounterSeries> {
        self.entries
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .filter_map(|e| match e.value {
                MetricValue::Counter(v) => Some((e.name.clone(), e.labels.clone(), v)),
                _ => None,
            })
            .collect()
    }
}

fn labels_match(resolved: &[(String, String)], wanted: &[(&str, &str)]) -> bool {
    resolved.len() == wanted.len()
        && resolved
            .iter()
            .zip(wanted.iter())
            .all(|((k, v), (wk, wv))| k == wk && v == wv)
}

/// The instrument registry. Cheap to share (`Arc<Registry>`); instruments
/// are registered once and updated lock-free thereafter.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create a counter series.
    ///
    /// # Panics
    /// If the series exists with a different instrument kind.
    pub fn counter(&self, id: MetricId, labels: &[Label]) -> Arc<Counter> {
        let resolved = resolve_labels(labels);
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == id.name && e.labels == resolved)
        {
            match &e.instrument {
                Instrument::Counter(c) => return Arc::clone(c),
                _ => panic!("metric {} registered with a different kind", id.name),
            }
        }
        let handle = Arc::new(Counter::default());
        entries.push(Entry {
            name: id.name.to_string(),
            help: id.help.to_string(),
            labels: resolved,
            instrument: Instrument::Counter(Arc::clone(&handle)),
        });
        handle
    }

    /// Get or create a gauge series.
    ///
    /// # Panics
    /// If the series exists with a different instrument kind.
    pub fn gauge(&self, id: MetricId, labels: &[Label]) -> Arc<Gauge> {
        let resolved = resolve_labels(labels);
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == id.name && e.labels == resolved)
        {
            match &e.instrument {
                Instrument::Gauge(g) => return Arc::clone(g),
                _ => panic!("metric {} registered with a different kind", id.name),
            }
        }
        let handle = Arc::new(Gauge::default());
        entries.push(Entry {
            name: id.name.to_string(),
            help: id.help.to_string(),
            labels: resolved,
            instrument: Instrument::Gauge(Arc::clone(&handle)),
        });
        handle
    }

    /// Get or create a histogram series.
    ///
    /// # Panics
    /// If the series exists with a different instrument kind.
    pub fn histogram(&self, id: MetricId, labels: &[Label]) -> Arc<AtomicHistogram> {
        let resolved = resolve_labels(labels);
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == id.name && e.labels == resolved)
        {
            match &e.instrument {
                Instrument::Histogram(h) => return Arc::clone(h),
                _ => panic!("metric {} registered with a different kind", id.name),
            }
        }
        let handle = Arc::new(AtomicHistogram::new());
        entries.push(Entry {
            name: id.name.to_string(),
            help: id.help.to_string(),
            labels: resolved,
            instrument: Instrument::Histogram(Arc::clone(&handle)),
        });
        handle
    }

    /// Snapshot every series (cumulative values), sorted.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut out: Vec<MetricEntry> = entries
            .iter()
            .map(|e| MetricEntry {
                name: e.name.clone(),
                labels: e.labels.clone(),
                help: e.help.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        RegistrySnapshot { entries: out }
    }

    /// Render the Prometheus-style text exposition (sorted, deterministic).
    pub fn render_text(&self) -> String {
        render_text(&self.snapshot())
    }

    /// Render one JSON object per series (sorted, deterministic).
    pub fn render_jsonl(&self) -> String {
        render_jsonl(&self.snapshot())
    }
}

fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Prometheus-style text exposition of a snapshot. `# HELP`/`# TYPE` are
/// emitted once per metric name; histograms render cumulative `_bucket`
/// lines (only buckets that gained samples, plus `+Inf`), `_sum`, `_count`.
pub fn render_text(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for e in &snapshot.entries {
        if e.name != last_name {
            out.push_str(&format!("# HELP {} {}\n", e.name, escape(&e.help)));
            let kind = match e.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {} {}\n", e.name, kind));
            last_name = &e.name;
        }
        let labels = label_block(&e.labels);
        match &e.value {
            MetricValue::Counter(v) => out.push_str(&format!("{}{} {}\n", e.name, labels, v)),
            MetricValue::Gauge(v) => out.push_str(&format!("{}{} {}\n", e.name, labels, v)),
            MetricValue::Histogram(h) => {
                let (buckets, count, sum) = h.parts();
                let mut cumulative = 0u64;
                for (i, &c) in buckets.iter().enumerate() {
                    cumulative += c;
                    if c != 0 {
                        // Upper bound of log2 bucket i is 2^i ns (i == 0
                        // covers only the zero-duration sample).
                        let le = if i == 0 { 1u128 } else { 1u128 << i };
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            e.name,
                            bucket_labels(&e.labels, &le.to_string()),
                            cumulative
                        ));
                    }
                }
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    e.name,
                    bucket_labels(&e.labels, "+Inf"),
                    count
                ));
                out.push_str(&format!("{}_sum{} {}\n", e.name, labels, sum));
                out.push_str(&format!("{}_count{} {}\n", e.name, labels, count));
            }
        }
    }
    out
}

fn bucket_labels(labels: &[(String, String)], le: &str) -> String {
    let mut all: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    all.push(format!("le=\"{le}\""));
    format!("{{{}}}", all.join(","))
}

/// JSONL exposition: one JSON object per series, sorted like the snapshot.
pub fn render_jsonl(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for e in &snapshot.entries {
        let labels: Vec<String> = e
            .labels
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect();
        let value = match &e.value {
            MetricValue::Counter(v) => format!("\"type\":\"counter\",\"value\":{v}"),
            MetricValue::Gauge(v) => format!("\"type\":\"gauge\",\"value\":{v}"),
            MetricValue::Histogram(h) => {
                let (buckets, count, sum) = h.parts();
                let nonzero: Vec<String> = buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c != 0)
                    .map(|(i, &c)| format!("[{i},{c}]"))
                    .collect();
                format!(
                    "\"type\":\"histogram\",\"count\":{count},\"sum_ns\":{sum},\"buckets\":[{}]",
                    nonzero.join(",")
                )
            }
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"labels\":{{{}}},{}}}\n",
            escape(&e.name),
            labels.join(","),
            value
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const HITS: MetricId = MetricId::new("test_hits_total", "Test hits.");
    const TEMP: MetricId = MetricId::new("test_temp", "Test temperature.");
    const LAT: MetricId = MetricId::new("test_latency_ns", "Test latency.");

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter(HITS, &[("shard", LabelValue::U64(0))]);
        let b = r.counter(HITS, &[("shard", LabelValue::U64(0))]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let other = r.counter(HITS, &[("shard", LabelValue::U64(1))]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_lookup_works() {
        let r = Registry::new();
        r.counter(HITS, &[("shard", LabelValue::U64(1))]).add(5);
        r.counter(HITS, &[("shard", LabelValue::U64(0))]).add(7);
        r.gauge(TEMP, &[]).set(1.5);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(snap.counter("test_hits_total", &[("shard", "0")]), Some(7));
        assert_eq!(snap.counter("test_hits_total", &[("shard", "1")]), Some(5));
        assert_eq!(snap.counter("test_hits_total", &[("shard", "2")]), None);
    }

    #[test]
    fn render_text_shape() {
        let r = Registry::new();
        r.counter(HITS, &[("policy", LabelValue::Str("Coach"))])
            .add(4);
        r.histogram(LAT, &[]).record_ns(1000);
        let text = r.render_text();
        assert!(text.contains("# HELP test_hits_total Test hits.\n"));
        assert!(text.contains("# TYPE test_hits_total counter\n"));
        assert!(text.contains("test_hits_total{policy=\"Coach\"} 4\n"));
        assert!(text.contains("test_latency_ns_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("test_latency_ns_sum 1000\n"));
        assert!(text.contains("test_latency_ns_count 1\n"));
    }

    #[test]
    fn render_jsonl_one_object_per_line() {
        let r = Registry::new();
        r.counter(HITS, &[]).add(2);
        r.gauge(TEMP, &[]).set(0.5);
        let jsonl = r.render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(jsonl.contains("\"type\":\"counter\",\"value\":2"));
    }

    #[test]
    fn counters_with_prefix_filters() {
        let r = Registry::new();
        r.counter(HITS, &[("shard", LabelValue::U64(0))]).add(1);
        r.gauge(TEMP, &[]).set(1.0);
        let series = r.snapshot().counters_with_prefix("test_hits");
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].2, 1);
    }
}
