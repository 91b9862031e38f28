//! A counting [`GlobalAlloc`] wrapper: live heap bytes plus their
//! high-water mark, behind two relaxed atomics per allocation.
//!
//! The memory tests (`tests/ingest_memory.rs`) install
//! [`TrackingAllocator`] with `#[global_allocator]` and bracket a measured
//! region with [`reset_peak`] / [`peak_bytes`]. Because the workloads are
//! deterministic (fixed seeds, no wall-clock-dependent allocation), the
//! recorded high-water mark is reproducible run over run and machine
//! over machine — tight enough to assert a ceiling on (the
//! streaming-ingestion flat-memory contract).
//!
//! Accounting is by requested [`Layout`] size, not allocator-internal
//! bucket size: the number measures what the code asked for, which is
//! the quantity a streaming refactor controls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// System-allocator wrapper that tracks live bytes and their high-water
/// mark. Install with `#[global_allocator]`; read through the
/// free functions in this module.
pub struct TrackingAllocator;

/// Live heap bytes right now.
pub fn current_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed) as u64
}

/// The high-water mark of live bytes since the last [`reset_peak`] (or
/// process start).
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed) as u64
}

/// Restart the high-water mark at the current live-byte count, so the
/// next [`peak_bytes`] read reports the peak of the region that follows.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn grow(n: usize) {
    let now = CURRENT.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrink(n: usize) {
    CURRENT.fetch_sub(n, Ordering::Relaxed);
}

// SAFETY: every method hands the caller's arguments to `System` unchanged
// and returns `System`'s result unchanged, so the blocks handed out are
// exactly `System`'s and its `GlobalAlloc` guarantees carry over. The
// bookkeeping around each call is two relaxed atomics: it never allocates
// (no reentrancy into the allocator) and never unwinds.
unsafe impl GlobalAlloc for TrackingAllocator {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract (`layout`
    // has non-zero size), which is all `System.alloc` requires.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: same contract as `alloc`, forwarded as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    // SAFETY: the caller guarantees `ptr` is a live block this allocator
    // returned for `layout`; every such block came from `System` with the
    // same layout, which is what `System.dealloc` requires.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    // SAFETY: as for `dealloc`, `ptr`/`layout` name a live `System` block,
    // and the caller guarantees `new_size` is non-zero and does not
    // overflow when rounded up to `layout.align()`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is not installed as the test harness's global, so the
    // counters only move through the direct calls here. One test, not two:
    // the statics are shared and the harness runs tests on parallel
    // threads, so a second test's blocks would land inside these windows.
    #[test]
    fn tracks_live_bytes_peak_and_realloc_delta() {
        let a = TrackingAllocator;
        let layout = Layout::from_size_align(1 << 20, 8).unwrap();
        reset_peak();
        let before = current_bytes();
        // SAFETY: `layout` is non-zero-sized, and the one block allocated
        // is freed once, with the layout it was allocated with.
        unsafe {
            let ptr = a.alloc(layout);
            assert!(!ptr.is_null());
            assert!(current_bytes() >= before + (1 << 20));
            assert!(peak_bytes() >= before + (1 << 20));
            a.dealloc(ptr, layout);
        }
        assert!(current_bytes() < before + (1 << 20));
        // The peak survives the dealloc until the next reset.
        assert!(peak_bytes() >= before + (1 << 20));

        let layout = Layout::from_size_align(4096, 8).unwrap();
        // SAFETY: non-zero sizes throughout; the block is reallocated with
        // the layout it was allocated with and freed once with its new
        // size at the same alignment.
        unsafe {
            let ptr = a.alloc(layout);
            assert!(!ptr.is_null());
            let before = current_bytes();
            let grown = a.realloc(ptr, layout, 8192);
            assert!(!grown.is_null());
            assert!(current_bytes() >= before + 4096);
            a.dealloc(grown, Layout::from_size_align(8192, 8).unwrap());
            assert!(current_bytes() < before + 4096);
        }
    }
}
