//! A `HostedDemand` claiming more windows than its frame could hold
//! reserves no more than the frame's size before it fails: each window
//! costs its full width on the wire, so the bytes left bound the
//! reservation.
//!
//! The largest single allocation is measured by a counting global
//! allocator, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use coach_sched::HostedDemand;
use coach_types::Units;
use coach_wire::{open_frame, seal_frame, Encode, Encoder, WireError};

/// The system allocator, recording the largest allocation it served.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method hands its arguments to `System` unchanged and
// returns `System`'s result unchanged; the bookkeeping is one relaxed
// atomic that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Largest {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is
    // all `System.alloc` requires.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr` came from `System` with this `layout`, and the caller
    // upholds `realloc`'s contract on `new_size`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// A guaranteed vector, then a window count of `claimed` over `body`.
struct Hostile {
    claimed: usize,
    body: Vec<u8>,
}

impl Encode for Hostile {
    fn encode(&self, e: &mut Encoder) {
        Units::ZERO.encode(e);
        e.usize(self.claimed);
        for &byte in &self.body {
            e.u8(byte);
        }
    }
}

#[test]
fn a_hostile_window_count_reserves_no_more_than_the_input() {
    const BODY: usize = 1 << 20;
    let frame = seal_frame(&Hostile {
        claimed: BODY,
        body: vec![0; BODY],
    });

    LARGEST.store(0, Ordering::Relaxed);
    let decoded = open_frame::<HostedDemand>(&frame);
    let largest = LARGEST.load(Ordering::Relaxed);

    assert!(
        matches!(decoded, Err(WireError::Truncated { .. })),
        "the frame decodes to an error, got {decoded:?}"
    );
    assert!(
        largest <= frame.len(),
        "decoding a {} B frame made a {largest} B allocation",
        frame.len()
    );
}
