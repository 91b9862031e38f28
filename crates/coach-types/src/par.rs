//! A minimal scoped-thread parallel map.
//!
//! The container this workspace builds in has no crates.io access, so heavy
//! data-parallel work (the Fig 20 four-policy sweep, per-server violation
//! sampling) uses this `std::thread::scope`-based utility instead of rayon.
//! Work is distributed dynamically via an atomic cursor so uneven per-item
//! cost (e.g. servers hosting very different VM counts) balances across
//! workers; results come back in input order, so any order-sensitive
//! reduction stays deterministic.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of worker threads [`par_map`] uses by default:
/// [`std::thread::available_parallelism`], falling back to 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Map `f` over `items` on up to [`available_threads`] worker threads,
/// returning results in input order.
///
/// Panics in `f` are propagated to the caller after all workers stop picking
/// up new items.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(items, available_threads(), f)
}

/// [`par_map`] with an explicit worker-thread cap (`0` is treated as `1`).
pub fn par_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(results) => {
                    for (i, r) in results {
                        slots[i] = Some(r);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn explicit_thread_counts() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [0, 1, 2, 3, 16, 200] {
            let out = par_map_threads(&items, threads, |&x| x + 1);
            assert_eq!(out.len(), items.len());
            assert!(out.iter().enumerate().all(|(i, &r)| r == i + 1));
        }
    }

    #[test]
    fn balances_uneven_work() {
        // Items with wildly different costs still all complete.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            let spin = if x % 7 == 0 { 50_000 } else { 10 };
            (0..spin).fold(x, |acc, i| acc.wrapping_add(i))
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        let _ = par_map_threads(&items, 2, |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }
}
