//! The departure calendar against the binary min-heap the controller kept
//! before it: the same entries, popped in the same order, through the
//! controller's own use of it — admissions in `seq` order, inclusive and
//! exclusive drains, lazy cancellation of departed and re-admitted ids,
//! and a rebuild from its canonical list in the middle of the stream.

use coach_serve::DepartureCalendar;
use coach_types::prelude::*;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

type Entry = (Timestamp, u64, VmId);

/// What the controller keeps beside its departures — who is resident
/// under which `seq` — and a log of every entry popped and of those that
/// released a VM.
#[derive(Default)]
struct Residents {
    seq_of: HashMap<VmId, u64>,
    popped: Vec<Entry>,
    released: Vec<Entry>,
}

impl Residents {
    /// The controller's lazy cancellation: a popped entry departs its VM
    /// only while the VM is resident under the entry's `seq`.
    fn pop(&mut self, entry: Entry) {
        let (_, seq, vm) = entry;
        self.popped.push(entry);
        if self.seq_of.get(&vm) == Some(&seq) {
            self.seq_of.remove(&vm);
            self.released.push(entry);
        }
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// Admit an id from a small pool (so ids come back) that departs
    /// `lifetime` ticks from now; a zero lifetime is never scheduled.
    Admit { id: u64, lifetime: u64 },
    /// An explicit early departure: the scheduled one is left behind.
    Depart { id: u64 },
    /// Move the clock on and drain what is due.
    Drain { gap: u64, inclusive: bool },
    /// Rebuild the calendar from its canonical `(time, seq)` list.
    Restore,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (0u8..10, 0u64..24, 0u64..30, 0u8..2).prop_map(|(kind, id, n, flag)| match kind {
        0..=4 => Step::Admit { id, lifetime: n },
        5 => Step::Depart { id },
        6..=8 => Step::Drain {
            gap: n % 6,
            inclusive: flag == 1,
        },
        _ => Step::Restore,
    });
    prop::collection::vec(step, 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn calendar_pops_in_the_heaps_order(steps in steps()) {
        let mut calendar = DepartureCalendar::new();
        let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
        let (mut by_calendar, mut by_heap) = (Residents::default(), Residents::default());
        let (mut now, mut seq) = (0u64, 0u64);
        for step in steps {
            match step {
                Step::Admit { id, lifetime } => {
                    let vm = VmId::new(id);
                    if by_calendar.seq_of.contains_key(&vm) {
                        continue;
                    }
                    by_calendar.seq_of.insert(vm, seq);
                    by_heap.seq_of.insert(vm, seq);
                    if lifetime > 0 {
                        let when = Timestamp::from_ticks(now + lifetime);
                        calendar.push(when, seq, vm);
                        heap.push(Reverse((when, seq, vm)));
                    }
                    seq += 1;
                }
                Step::Depart { id } => {
                    by_calendar.seq_of.remove(&VmId::new(id));
                    by_heap.seq_of.remove(&VmId::new(id));
                }
                Step::Drain { gap, inclusive } => {
                    now += gap;
                    let t = Timestamp::from_ticks(now);
                    while let Some(entry) = calendar.pop_due(t, inclusive) {
                        by_calendar.pop(entry);
                    }
                    while let Some(&Reverse(entry)) = heap.peek() {
                        if entry.0 > t || (!inclusive && entry.0 == t) {
                            break;
                        }
                        heap.pop();
                        by_heap.pop(entry);
                    }
                    prop_assert_eq!(&by_calendar.popped, &by_heap.popped);
                    prop_assert_eq!(&by_calendar.released, &by_heap.released);
                }
                Step::Restore => {
                    let canonical: Vec<Entry> = calendar.iter().collect();
                    let mut sorted: Vec<Entry> = heap.iter().map(|Reverse(e)| *e).collect();
                    sorted.sort_unstable();
                    // Iteration is the heap's contents, sorted.
                    prop_assert_eq!(&canonical, &sorted);
                    calendar = DepartureCalendar::from_sorted(canonical).expect("canonical order");
                }
            }
        }
        let end = Timestamp::from_ticks(u64::MAX);
        while let Some(entry) = calendar.pop_due(end, true) {
            by_calendar.pop(entry);
        }
        while let Some(Reverse(entry)) = heap.pop() {
            by_heap.pop(entry);
        }
        prop_assert_eq!(&by_calendar.popped, &by_heap.popped);
        prop_assert_eq!(&by_calendar.released, &by_heap.released);
        prop_assert_eq!(calendar.iter().count(), 0);
    }
}

/// Two departures at one time pushed against `seq` order would pop out of
/// the heap's order: the calendar refuses the second.
#[test]
#[should_panic(expected = "scheduled out of seq order")]
fn a_push_against_seq_order_is_refused() {
    let mut calendar = DepartureCalendar::new();
    let at = Timestamp::from_hours(3);
    calendar.push(at, 5, VmId::new(1));
    calendar.push(Timestamp::from_hours(4), 2, VmId::new(2));
    calendar.push(at, 4, VmId::new(3));
}
