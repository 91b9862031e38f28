//! Steady-state allocation discipline for the per-server agent loop.
//!
//! The EWMA/LSTM agent used to allocate tens of small `Vec`s per tick
//! (LSTM activation caches, gradient accumulators, the memory server's
//! stats vector). With the shared [`coach_predict::LstmScratch`] and
//! [`MemoryServer::step_into`], a quiet server's monitoring loop — stats
//! sampling, EWMA updates, LSTM window closes and online training, and the
//! proactive prediction sweep — performs **zero** heap allocations once
//! buffers have warmed up. This test pins that with a counting global
//! allocator.

use coach_node::{
    MemoryServer, MitigationPolicy, MonitorConfig, OversubscriptionAgent, VmMemoryConfig,
    VmMemoryStats,
};
use coach_types::VmId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts allocations.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn agent_loop_is_allocation_free_in_steady_state() {
    // A quiet, healthy server: plenty of pool, modest working sets — no
    // contention, no mitigation actions. The *proactive* policy is used so
    // the LSTM prediction sweep runs every sample too.
    let mut server = MemoryServer::new(64.0, 2.0);
    server.set_pool_backing(16.0).unwrap();
    let mut agent = OversubscriptionAgent::new(
        MonitorConfig::default(),
        MitigationPolicy::extend(true),
        0.5,
    );
    for i in 0..4u64 {
        server
            .add_vm(VmId::new(i), VmMemoryConfig::split(8.0, 4.0))
            .unwrap();
        server.set_working_set(VmId::new(i), 3.0);
        agent.add_vm(VmId::new(i));
    }

    let mut stats: Vec<VmMemoryStats> = Vec::new();

    // Warm-up: long enough to stabilize every internal buffer capacity
    // (stats vec, per-predictor history rings, the shared LSTM scratch)
    // and to pass the LSTM's 24-hour gate (288 windows × 15 obs of 20 s,
    // driven here at 20 s per step via the monitor cadence).
    for t in 0..(290 * 15) {
        let now = t as f64 * 20.0;
        server.step_into(20.0, &mut stats);
        let actions = agent.step(now, &mut server, &stats, 0.0, 0.1);
        assert!(actions.is_empty(), "unexpected mitigation at t={now}");
    }
    assert!(
        agent.predictor(VmId::new(0)).unwrap().lstm_ready(),
        "warm-up must pass the LSTM gate so the steady-state loop exercises it"
    );

    // Steady state: the monitored loop must not allocate at all.
    let before = alloc_count();
    for t in (290 * 15)..(290 * 15 + 600) {
        let now = t as f64 * 20.0;
        server.step_into(20.0, &mut stats);
        let actions = agent.step(now, &mut server, &stats, 0.0, 0.1);
        assert!(actions.is_empty(), "unexpected mitigation at t={now}");
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "agent steady-state loop performed {delta} heap allocations over 600 ticks"
    );
}
