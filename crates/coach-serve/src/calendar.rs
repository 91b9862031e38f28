//! The controller's scheduled departures: FIFOs keyed by departure time.
//!
//! Every admitted VM with a future departure is scheduled here under its
//! arrival sequence number, and the controller pops departures in the
//! batch replay's `(time, seq)` order. `seq` is the admission counter, so
//! the departures of one timestamp are pushed in `seq` order already: a
//! first-in-first-out queue per distinct time, in a map ordered by time,
//! pops them in that exact order without comparing entries. The trace
//! clock ticks every five minutes, so a few thousand distinct times hold
//! hundreds of thousands of departures: a push appends to a queue that is
//! usually there already, and a pop takes the front of the earliest one.
//! An entry is 16 bytes (`seq`, id).
//!
//! The calendar knows nothing of residency. A departure that was cancelled
//! — the VM left early, or its id was admitted again — stays scheduled,
//! and the controller skips it when it pops (lazy cancellation).

use coach_types::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// Scheduled departures as FIFOs keyed by departure time; pops in
/// `(time, seq)` order.
#[derive(Debug, Clone, Default)]
pub struct DepartureCalendar {
    queues: BTreeMap<Timestamp, VecDeque<(u64, VmId)>>,
}

impl DepartureCalendar {
    /// An empty calendar.
    pub fn new() -> Self {
        DepartureCalendar::default()
    }

    /// Schedule `vm`'s departure at `when` under arrival sequence `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not above every `seq` already scheduled at
    /// `when`: the FIFOs would no longer pop in `(time, seq)` order.
    pub fn push(&mut self, when: Timestamp, seq: u64, vm: VmId) {
        let queue = self.queues.entry(when).or_default();
        if let Some(&(last, _)) = queue.back() {
            assert!(
                last < seq,
                "departures at {when} scheduled out of seq order"
            );
        }
        queue.push_back((seq, vm));
    }

    /// Rebuild a calendar from `(time, seq, vm)` entries in strictly
    /// increasing `(time, seq)` order, the order [`Self::iter`] yields.
    /// Returns `None` if an entry's `(time, seq)` is not above the one
    /// before it: such a list pops in no order the calendar can keep.
    pub fn from_sorted(entries: impl IntoIterator<Item = (Timestamp, u64, VmId)>) -> Option<Self> {
        let mut calendar = DepartureCalendar::new();
        let mut last = None;
        for (when, seq, vm) in entries {
            if last.is_some_and(|key| key >= (when, seq)) {
                return None;
            }
            last = Some((when, seq));
            calendar
                .queues
                .entry(when)
                .or_default()
                .push_back((seq, vm));
        }
        Some(calendar)
    }

    /// Pop the earliest scheduled departure due by `t` — at or before `t`
    /// when `inclusive`, strictly before it otherwise — as
    /// `(time, seq, vm)`.
    pub fn pop_due(&mut self, t: Timestamp, inclusive: bool) -> Option<(Timestamp, u64, VmId)> {
        let mut first = self.queues.first_entry()?;
        let when = *first.key();
        if when > t || (!inclusive && when == t) {
            return None;
        }
        let queue = first.get_mut();
        let (seq, vm) = queue.pop_front().expect("no empty queue is kept");
        if queue.is_empty() {
            first.remove();
        }
        Some((when, seq, vm))
    }

    /// Every scheduled departure in `(time, seq)` order — the order
    /// [`Self::pop_due`] would pop them in, and the order
    /// [`Self::from_sorted`] rebuilds a calendar from.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, u64, VmId)> + '_ {
        self.queues
            .iter()
            .flat_map(|(&when, queue)| queue.iter().map(move |&(seq, vm)| (when, seq, vm)))
    }
}
