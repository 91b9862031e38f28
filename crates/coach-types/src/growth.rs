//! Pushing onto a per-server buffer that grows by a quarter.
//!
//! `Vec::push` doubles a full buffer, so a buffer that stops growing keeps
//! up to half its capacity empty. The per-server buffers on the serving
//! path (the scheduler's hosted slots, the accountant's entries) are many
//! and each stops growing at whatever the server hosts at its peak, so
//! that slack is paid across every server at the moment the whole
//! cluster is fullest. Growing by a quarter instead bounds the slack at
//! `len / 4 + 1`, for up to four times the element copies of doubling
//! (`n / (g − 1)` over `n` pushes at growth factor `g`), still amortized
//! O(1) per push.

/// Push `value`, growing a full `buf` by a quarter of its length (plus
/// one) instead of doubling it.
///
/// ```
/// use coach_types::push_by_quarter;
///
/// let mut buf = Vec::new();
/// for i in 0..100u32 {
///     push_by_quarter(&mut buf, i);
///     assert!(buf.capacity() <= buf.len() + buf.len() / 4 + 1);
/// }
/// ```
#[inline]
pub fn push_by_quarter<T>(buf: &mut Vec<T>, value: T) {
    if buf.len() == buf.capacity() {
        buf.reserve_exact(buf.len() / 4 + 1);
    }
    buf.push(value);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capacity never falls below the length or exceeds it by more than a
    /// quarter plus one, and it grows geometrically: log₁.₂₅ 10,000 ≈ 41
    /// changes, plus a few while `len / 4` rounds to zero.
    #[test]
    fn capacity_stays_within_a_quarter_and_grows_geometrically() {
        let mut buf: Vec<u64> = Vec::new();
        let mut changes = 0;
        for i in 0..10_000u64 {
            let before = buf.capacity();
            push_by_quarter(&mut buf, i);
            if buf.capacity() != before {
                changes += 1;
            }
            let len = buf.len();
            assert!(
                (len..=len + len / 4 + 1).contains(&buf.capacity()),
                "capacity {} at length {len}",
                buf.capacity()
            );
        }
        assert!(changes <= 45, "{changes} reallocations over 10,000 pushes");
        assert_eq!(buf, (0..10_000).collect::<Vec<_>>());
    }
}
