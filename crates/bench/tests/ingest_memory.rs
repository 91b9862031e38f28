//! The streaming generator's flat-memory contract, asserted under the
//! counting allocator: draining [`StreamingTrace::records`] may keep only
//! O(servers + subscriptions + chunk budget) bytes live, so the
//! high-water mark per VM *falls* as the trace grows — growth here means
//! someone started materializing. The workloads are seed-pinned, so the
//! peaks are reproducible to the byte and the ceilings carry headroom for
//! allocator/std drift only, not for workload growth.
//!
//! The ten-million-VM run is `#[ignore]`d (minutes to hours, ~15 GB):
//!
//! ```text
//! cargo test --release -p coach-bench --test ingest_memory -- --ignored --nocapture
//! ```

use coach_bench::alloc::{self, TrackingAllocator};
use coach_serve::{ServeConfig, ShardedController, StreamSource};
use coach_sim::{Oracle, PolicyConfig};
use coach_trace::{StreamingTrace, TraceConfig};
use coach_types::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

/// The allocator's counters are process-wide and the harness runs tests on
/// parallel threads: every measured region holds this lock, so
/// `--include-ignored` cannot land one test's blocks in the other's window.
static MEASURING: Mutex<()> = Mutex::new(());

/// Drain every record, retaining nothing; returns the allocator
/// high-water mark over the drain (above the live bytes it started from)
/// and the drain's wall seconds.
fn drain_peak(streaming: &StreamingTrace) -> (u64, f64) {
    alloc::reset_peak();
    let baseline = alloc::current_bytes();
    let t0 = Instant::now();
    let mut drained = 0usize;
    for record in streaming.records() {
        std::hint::black_box(&record);
        drained += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(drained, streaming.len(), "stream yields every VM");
    (alloc::peak_bytes().saturating_sub(baseline), wall_s)
}

/// Both sizes in one test, in sequence (see [`MEASURING`]). Measured when
/// this test was written: 148.09 B/VM at 5k VMs, 112.00 B/VM at 100k —
/// the same in debug and release.
#[test]
fn ingest_peak_stays_under_the_per_vm_ceilings() {
    let _measuring = MEASURING.lock().expect("no measuring test panicked");
    for (vm_count, subscription_count, ceiling) in [(5_000, 400, 384.0), (100_000, 2000, 192.0)] {
        let streaming = StreamingTrace::new(&TraceConfig {
            vm_count,
            cluster_count: 8,
            subscription_count,
            ..TraceConfig::medium(2026)
        });
        let (peak, _) = drain_peak(&streaming);
        let per_vm = peak as f64 / vm_count as f64;
        println!("ingest peak at {vm_count} VMs: {peak} B = {per_vm:.2} B/VM (ceiling {ceiling})");
        assert!(
            per_vm <= ceiling,
            "ingestion peak {per_vm:.2} B/VM at {vm_count} VMs above the {ceiling} B/VM ceiling"
        );
    }
}

/// Ten million VMs (`TraceConfig::huge`) through the bounded-memory
/// generator and the owned-segment serving path; no `Vec<VmRecord>` is
/// ever materialized. The ingestion ceiling is absolute, not per-VM: the
/// stream's peak is O(servers + subscriptions + chunk budget) state, so it
/// stays put as `vm_count` grows — that is the point being asserted. The
/// serve half runs cold at one shard (there is no materialized trace to
/// pre-derive a table from) and only reports.
#[test]
#[ignore = "ten million VMs: minutes to hours and ~15 GB; run alone, in release"]
fn ten_million_vms_stream_end_to_end() {
    const INGEST_PEAK_CEILING_BYTES: u64 = 512 * 1024 * 1024;
    let _measuring = MEASURING.lock().expect("no measuring test panicked");

    let t0 = Instant::now();
    let streaming = StreamingTrace::new(&TraceConfig::huge(2026));
    let build_s = t0.elapsed().as_secs_f64();
    let servers: usize = streaming.clusters().iter().map(|c| c.servers.len()).sum();
    println!(
        "build:  {} VMs / {servers} servers planned in {build_s:.1} s",
        streaming.len()
    );

    let (ingest_peak, ingest_s) = drain_peak(&streaming);
    println!(
        "ingest: {ingest_s:.1} s ({:.0} records/s), peak {:.1} MB ({:.2} B/VM, ceiling {:.0} MB)",
        streaming.len() as f64 / ingest_s,
        ingest_peak as f64 / 1e6,
        ingest_peak as f64 / streaming.len() as f64,
        INGEST_PEAK_CEILING_BYTES as f64 / 1e6,
    );
    assert!(
        ingest_peak <= INGEST_PEAK_CEILING_BYTES,
        "ingestion high-water mark {ingest_peak} B above the {INGEST_PEAK_CEILING_BYTES} B ceiling"
    );

    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let mut config = ServeConfig::replaying(coach, 0.9, streaming.horizon());
    config.sample_every = streaming.horizon().since(Timestamp::ZERO);
    let mut controller = ShardedController::new(streaming.clusters(), &oracle, config, 1);
    alloc::reset_peak();
    let baseline = alloc::current_bytes();
    let t0 = Instant::now();
    let result = controller.run_stream(StreamSource::new(streaming.records(), Vec::new()));
    let serve_s = t0.elapsed().as_secs_f64();
    let serve_peak = alloc::peak_bytes().saturating_sub(baseline);
    println!(
        "serve:  {serve_s:.1} s, {} accepted / {} rejected ({:.0} placed/s), serve-side peak {:.1} MB",
        result.accepted,
        result.rejected,
        result.accepted as f64 / serve_s,
        serve_peak as f64 / 1e6,
    );
    assert_eq!(
        result.accepted + result.rejected,
        streaming.len() as u64,
        "every arrival answered"
    );
}
