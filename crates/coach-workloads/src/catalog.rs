//! The nine cloud workloads of Table 2, as parameterized memory/metric
//! models.
//!
//! The paper runs unmodified applications (memcached, SQL, TeraSort,
//! SpecJBB, a KV-store, PageRank, DeathStarBench, BERT fine-tuning, video
//! conferencing). We model each as (a) a deterministic working-set driver
//! `wss(t)` and (b) a key-metric sensitivity that converts memory-access
//! slowdown into the metric the paper reports (P99 tail latency, run time,
//! or throughput). The parameters encode the qualitative facts §4.2
//! establishes: the latency-critical workloads touch oversubscribed memory
//! on their critical path; LLM-FT has the largest working set and high
//! allocation churn; the rest are tolerant.

/// The metric a workload reports (Table 2's "Key metric").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyMetric {
    /// P99 tail latency, milliseconds — lower is better.
    TailLatencyMs,
    /// Run time, minutes — lower is better.
    RunTimeMins,
    /// Throughput, operations/s — higher is better.
    ThroughputOps,
}

impl std::fmt::Display for KeyMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KeyMetric::TailLatencyMs => "P99 latency (ms)",
            KeyMetric::RunTimeMins => "run time (min)",
            KeyMetric::ThroughputOps => "throughput (ops/s)",
        })
    }
}

/// A workload model.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Short name as in Table 2.
    pub name: &'static str,
    /// What it is.
    pub description: &'static str,
    /// VM size it runs on, GB.
    pub vm_size_gb: f64,
    /// Steady-state working set, GB.
    pub working_set_gb: f64,
    /// Warm-up peak: many workloads touch more memory while loading than
    /// they keep hot (this is what creates trimmable cold pages).
    pub warmup_peak_gb: f64,
    /// Amplitude of steady-state working-set oscillation, GB.
    pub oscillation_gb: f64,
    /// Oscillation period, seconds.
    pub period_secs: f64,
    /// Allocation churn: GB/s of fresh allocations replacing old ones
    /// (LLM-FT allocates/frees every training iteration).
    pub churn_gb_per_sec: f64,
    /// Key metric kind.
    pub metric: KeyMetric,
    /// Baseline metric value on a fully PA-backed VM (§4.2 numbers).
    pub baseline: f64,
    /// How strongly memory slowdown amplifies into the key metric
    /// (tail latency is far more sensitive than run time).
    pub sensitivity: f64,
}

impl Workload {
    /// Deterministic working set at time `t` seconds after VM start.
    ///
    /// Shape: a 30-second warm-up ramp to `warmup_peak_gb`, decay to the
    /// steady working set by t = 60 s, then a slow sinusoidal oscillation.
    /// Churn does not change the set's *size* — it changes which pages are
    /// hot, which the performance model charges separately.
    pub fn wss_at(&self, t: f64) -> f64 {
        let wss = if t < 30.0 {
            self.warmup_peak_gb * (t / 30.0)
        } else if t < 60.0 {
            let k = (t - 30.0) / 30.0;
            self.warmup_peak_gb * (1.0 - k) + self.working_set_gb * k
        } else {
            self.working_set_gb
                + self.oscillation_gb * (std::f64::consts::TAU * t / self.period_secs).sin()
        };
        wss.clamp(0.0, self.vm_size_gb)
    }

    /// Normalized slowdown of a measured metric vs the baseline (≥ 1 means
    /// worse), direction-adjusted per metric kind (Fig 18's y-axis).
    pub fn normalized_slowdown(&self, measured: f64) -> f64 {
        match self.metric {
            KeyMetric::TailLatencyMs | KeyMetric::RunTimeMins => measured / self.baseline,
            KeyMetric::ThroughputOps => self.baseline / measured,
        }
    }

    /// The full Table 2 catalog.
    pub fn catalog() -> Vec<Workload> {
        vec![
            Workload {
                name: "Cache",
                description: "Memcached read/writes",
                vm_size_gb: 32.0,
                working_set_gb: 12.0,
                warmup_peak_gb: 16.0,
                oscillation_gb: 1.8,
                period_secs: 120.0,
                churn_gb_per_sec: 0.02,
                metric: KeyMetric::TailLatencyMs,
                baseline: 6.32,
                sensitivity: 14.0,
            },
            Workload {
                name: "Database",
                description: "Queries on a SQL database",
                vm_size_gb: 32.0,
                working_set_gb: 20.0,
                warmup_peak_gb: 22.0,
                oscillation_gb: 1.5,
                period_secs: 180.0,
                churn_gb_per_sec: 0.01,
                metric: KeyMetric::TailLatencyMs,
                baseline: 40.0,
                sensitivity: 5.0,
            },
            Workload {
                name: "Big Data",
                description: "Sorting with TeraSort",
                vm_size_gb: 32.0,
                working_set_gb: 24.0,
                warmup_peak_gb: 24.0,
                oscillation_gb: 3.0,
                period_secs: 90.0,
                churn_gb_per_sec: 0.05,
                metric: KeyMetric::RunTimeMins,
                baseline: 12.0,
                sensitivity: 1.2,
            },
            Workload {
                name: "Web",
                description: "3-tier web application (SpecJBB)",
                vm_size_gb: 32.0,
                working_set_gb: 14.0,
                warmup_peak_gb: 17.0,
                oscillation_gb: 2.0,
                period_secs: 150.0,
                churn_gb_per_sec: 0.02,
                metric: KeyMetric::ThroughputOps,
                baseline: 25_000.0,
                sensitivity: 2.0,
            },
            Workload {
                name: "KV-Store",
                description: "Querying a KV-store",
                vm_size_gb: 32.0,
                working_set_gb: 10.0,
                warmup_peak_gb: 13.0,
                oscillation_gb: 0.8,
                period_secs: 100.0,
                churn_gb_per_sec: 0.02,
                metric: KeyMetric::TailLatencyMs,
                baseline: 0.41,
                sensitivity: 16.0,
            },
            Workload {
                name: "Graph",
                description: "Computing PageRank",
                vm_size_gb: 32.0,
                working_set_gb: 22.0,
                warmup_peak_gb: 22.0,
                oscillation_gb: 1.0,
                period_secs: 200.0,
                churn_gb_per_sec: 0.01,
                metric: KeyMetric::RunTimeMins,
                baseline: 9.0,
                sensitivity: 1.0,
            },
            Workload {
                name: "Microservice",
                description: "Social network (DeathStarBench)",
                vm_size_gb: 32.0,
                working_set_gb: 11.0,
                warmup_peak_gb: 14.0,
                oscillation_gb: 1.2,
                period_secs: 80.0,
                churn_gb_per_sec: 0.03,
                metric: KeyMetric::TailLatencyMs,
                baseline: 2.71,
                sensitivity: 15.0,
            },
            Workload {
                name: "LLM-FT",
                description: "BERT LLM fine-tuning",
                vm_size_gb: 32.0,
                working_set_gb: 26.0,
                warmup_peak_gb: 26.0,
                oscillation_gb: 3.0,
                period_secs: 40.0,
                churn_gb_per_sec: 0.5, // allocates/frees every iteration
                metric: KeyMetric::RunTimeMins,
                baseline: 3.7,
                sensitivity: 3.0,
            },
            Workload {
                name: "Video Conf",
                description: "Video conference application",
                vm_size_gb: 32.0,
                working_set_gb: 8.0,
                warmup_peak_gb: 9.0,
                oscillation_gb: 1.0,
                period_secs: 60.0,
                churn_gb_per_sec: 0.05,
                metric: KeyMetric::ThroughputOps,
                baseline: 900.0,
                sensitivity: 1.5,
            },
        ]
    }

    /// Look up a workload by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::catalog().into_iter().find(|w| w.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_nine_workloads() {
        let c = Workload::catalog();
        assert_eq!(c.len(), 9);
        let names: std::collections::HashSet<_> = c.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 9, "names must be unique");
        // Table 2's metric assignment.
        assert_eq!(
            Workload::by_name("Cache").unwrap().metric,
            KeyMetric::TailLatencyMs
        );
        assert_eq!(
            Workload::by_name("Big Data").unwrap().metric,
            KeyMetric::RunTimeMins
        );
        assert_eq!(
            Workload::by_name("Web").unwrap().metric,
            KeyMetric::ThroughputOps
        );
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn wss_respects_vm_size_and_warmup() {
        for w in Workload::catalog() {
            assert!(w.working_set_gb <= w.vm_size_gb);
            for t in 0..400 {
                let wss = w.wss_at(t as f64);
                assert!((0.0..=w.vm_size_gb).contains(&wss), "{}: wss {wss}", w.name);
            }
            // Warm-up reaches the peak at t=30.
            assert!((w.wss_at(30.0) - w.warmup_peak_gb.min(w.vm_size_gb)).abs() < 1e-9);
            // Steady state around the working set.
            let steady = w.wss_at(1000.0);
            assert!((steady - w.working_set_gb).abs() <= w.oscillation_gb + 1e-9);
        }
    }

    #[test]
    fn llm_ft_has_largest_working_set_and_churn() {
        // §4.2: "LLM-FT is the most sensitive [batch workload] because it
        // has the largest working set and frequently allocates/deallocates".
        let c = Workload::catalog();
        let llm = c.iter().find(|w| w.name == "LLM-FT").unwrap();
        for w in &c {
            assert!(llm.working_set_gb >= w.working_set_gb, "{}", w.name);
            assert!(llm.churn_gb_per_sec >= w.churn_gb_per_sec, "{}", w.name);
        }
    }

    #[test]
    fn latency_workloads_most_sensitive() {
        let c = Workload::catalog();
        let max_latency_sens = c
            .iter()
            .filter(|w| w.metric == KeyMetric::TailLatencyMs)
            .map(|w| w.sensitivity)
            .fold(0.0, f64::max);
        let max_batch_sens = c
            .iter()
            .filter(|w| w.metric != KeyMetric::TailLatencyMs)
            .map(|w| w.sensitivity)
            .fold(0.0, f64::max);
        assert!(max_latency_sens > max_batch_sens);
    }

    #[test]
    fn metric_conversion_directions() {
        let kv = Workload::by_name("KV-Store").unwrap();
        assert!(kv.normalized_slowdown(kv.baseline * 2.0) == 2.0);

        let web = Workload::by_name("Web").unwrap();
        // Normalized slowdown of halved throughput is 2×.
        assert_eq!(web.normalized_slowdown(web.baseline / 2.0), 2.0);
    }
}
