//! An inline-capable buffer of per-window values: [`ResourceVec`]s for
//! predictions, [`crate::Units`] for the scheduler's demands and sums.
//!
//! Every shipped configuration expresses demands over at most
//! [`WindowVec::INLINE`] time windows (the paper default is 6×4 h), yet the
//! demand pipeline used to carry each VM's per-window vectors in heap
//! `Vec`s — at million-VM scale those small allocations were the dominant
//! footprint cost named in the ROADMAP. [`WindowVec`] stores up to
//! [`WindowVec::INLINE`] windows inline in the value itself and only spills
//! to the heap for exotic partitions (e.g. the 288-window "ideal" sweep).
//!
//! The type dereferences to `[T]`, so consumers index, iterate, and slice
//! exactly as they did with `Vec<T>`.

use crate::resource::ResourceVec;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A small-buffer-optimized sequence of per-window values, [`ResourceVec`]
/// unless named otherwise.
///
/// # Example
///
/// ```
/// use coach_types::{ResourceVec, WindowVec};
///
/// let w: WindowVec = (0..6).map(|i| ResourceVec::splat(i as f64)).collect();
/// assert_eq!(w.len(), 6);
/// assert!(!w.spilled());          // <= 6 windows live inline
/// assert_eq!(w[3], ResourceVec::splat(3.0));
/// ```
#[derive(Clone)]
pub struct WindowVec<T = ResourceVec> {
    /// Number of live windows. When `len <= INLINE` the data lives in
    /// `inline[..len]` and `spill` is empty; otherwise all data lives in
    /// `spill` and `inline` is unused.
    len: u32,
    inline: [T; INLINE],
    spill: Vec<T>,
}

/// [`WindowVec::INLINE`], for the array length.
const INLINE: usize = 6;

impl<T: Copy + Default> WindowVec<T> {
    /// Windows stored inline before spilling to the heap. Covers every
    /// shipped partition (the paper default is 6).
    pub const INLINE: usize = INLINE;

    /// An empty buffer (no heap allocation).
    pub fn new() -> Self {
        WindowVec {
            len: 0,
            inline: [T::default(); INLINE],
            spill: Vec::new(),
        }
    }

    /// A buffer of `n` copies of `v` (allocation-free for `n <= INLINE`).
    pub fn from_elem(v: T, n: usize) -> Self {
        let mut out = WindowVec::new();
        for _ in 0..n {
            out.push(v);
        }
        out
    }

    /// Append one window's value, spilling to the heap on overflow.
    pub fn push(&mut self, v: T) {
        let n = self.len as usize;
        if n < INLINE {
            self.inline[n] = v;
        } else {
            if n == INLINE {
                self.spill.reserve(INLINE + 1);
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(v);
        }
        self.len += 1;
    }
}

impl<T> WindowVec<T> {
    /// Whether the contents overflowed to a heap allocation.
    #[inline]
    pub fn spilled(&self) -> bool {
        (self.len as usize) > INLINE
    }
}

impl<T: Copy + Default> Default for WindowVec<T> {
    fn default() -> Self {
        WindowVec::new()
    }
}

impl<T> Deref for WindowVec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        if self.spilled() {
            &self.spill
        } else {
            &self.inline[..self.len as usize]
        }
    }
}

impl<T> DerefMut for WindowVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        if self.spilled() {
            &mut self.spill
        } else {
            &mut self.inline[..self.len as usize]
        }
    }
}

impl<T: PartialEq> PartialEq for WindowVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: fmt::Debug> fmt::Debug for WindowVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + Default> FromIterator<T> for WindowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = WindowVec::new();
        for v in iter {
            out.push(v);
        }
        out
    }
}

impl<T: Copy + Default> From<Vec<T>> for WindowVec<T> {
    fn from(v: Vec<T>) -> Self {
        v.into_iter().collect()
    }
}

impl<T: Copy + Default, const N: usize> From<[T; N]> for WindowVec<T> {
    fn from(v: [T; N]) -> Self {
        v.into_iter().collect()
    }
}

impl<'a, T> IntoIterator for &'a WindowVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_up_to_capacity() {
        let mut w = WindowVec::new();
        assert!(w.is_empty());
        for i in 0..WindowVec::<ResourceVec>::INLINE {
            w.push(ResourceVec::splat(i as f64));
        }
        assert_eq!(w.len(), WindowVec::<ResourceVec>::INLINE);
        assert!(!w.spilled());
        for (i, v) in w.iter().enumerate() {
            assert_eq!(*v, ResourceVec::splat(i as f64));
        }
    }

    #[test]
    fn spills_beyond_capacity_and_keeps_order() {
        let n = 288; // the TimeWindows::ideal() sweep point
        let w: WindowVec = (0..n).map(|i| ResourceVec::splat(i as f64)).collect();
        assert_eq!(w.len(), n);
        assert!(w.spilled());
        for i in 0..n {
            assert_eq!(w[i], ResourceVec::splat(i as f64));
        }
    }

    #[test]
    fn equality_ignores_representation() {
        let a: WindowVec = vec![ResourceVec::splat(1.0); 3].into();
        let b: WindowVec = (0..3).map(|_| ResourceVec::splat(1.0)).collect();
        assert_eq!(a, b);
        let c: WindowVec = vec![ResourceVec::splat(1.0); 4].into();
        assert_ne!(a, c);
    }

    #[test]
    fn slice_ops_via_deref() {
        let mut w = WindowVec::from_elem(ResourceVec::splat(2.0), 4);
        assert_eq!(w.iter().count(), 4);
        w[2] = ResourceVec::splat(9.0);
        assert_eq!(w[2].cpu(), 9.0);
        let peak = w.iter().fold(ResourceVec::ZERO, |acc, v| acc.max(v));
        assert_eq!(peak.cpu(), 9.0);
        // `for` loops over &WindowVec work.
        let mut n = 0;
        for _v in &w {
            n += 1;
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn from_array_and_debug() {
        let w: WindowVec = [ResourceVec::splat(1.0), ResourceVec::splat(2.0)].into();
        assert_eq!(w.len(), 2);
        assert!(format!("{w:?}").starts_with('['));
    }

    #[test]
    fn push_across_the_spill_boundary() {
        let mut w = WindowVec::from_elem(ResourceVec::splat(1.0), WindowVec::<ResourceVec>::INLINE);
        w.push(ResourceVec::splat(7.0));
        assert!(w.spilled());
        assert_eq!(w.len(), WindowVec::<ResourceVec>::INLINE + 1);
        assert_eq!(w[WindowVec::<ResourceVec>::INLINE].cpu(), 7.0);
        assert_eq!(w[0].cpu(), 1.0);
    }
}
