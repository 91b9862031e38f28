//! Lazy request-stream derivation from trace records.
//!
//! One [`Source`] interleaves a probe schedule and an optional stats
//! cadence with arrival-ordered records, under two names:
//!
//! * [`RequestSource`] borrows arrival records from a materialized slice —
//!   zero copies, but the whole trace must be resident.
//! * [`StreamSource`] pulls owned records from any
//!   `Iterator<Item = VmRecord>` (e.g.
//!   [`coach_trace::StreamingTrace::records`]), emitting owning
//!   [`StreamRequest`](crate::StreamRequest)s — bounded memory regardless
//!   of trace length, and the entry point for the [`crate::scenario`]
//!   combinators.

use crate::request::RequestOf;
use coach_sim::paper_probe_times;
use coach_trace::{StreamingRecords, StreamingTrace, Trace, VmRecord};
use coach_types::prelude::*;
use std::borrow::Borrow;
use std::iter::Peekable;

/// An iterator deriving a request stream lazily from arrival-ordered
/// [`VmRecord`]s — no event vector, no sort, no series materialization.
/// Each arrival carries the record as the underlying iterator yields it
/// (borrowed from a slice, or owned); departures are *not* emitted at all
/// (the controller's departure calendar schedules them); probe requests
/// are interleaved at the first arrival at-or-after each probe time, which
/// the controller's strictly-before drain turns into exactly the batch
/// replay's probe semantics. The next arrival is held in a one-record peek
/// buffer, so memory stays O(1) over the underlying iterator.
pub struct Source<I: Iterator> {
    vms: Peekable<I>,
    /// Probe times not yet emitted, ascending.
    probes: std::vec::IntoIter<Timestamp>,
    /// The stats cadence and the next query's time, once one is set.
    stats: Option<(SimDuration, Timestamp)>,
}

/// A [`Source`] borrowing its arrivals from a slice: yields
/// [`Request`](crate::Request)s.
pub type RequestSource<'a> = Source<std::slice::Iter<'a, VmRecord>>;

/// A [`Source`] over any owning record iterator: yields
/// [`StreamRequest`](crate::StreamRequest)s. Feed it to
/// [`ShardedController::run_stream`](crate::ShardedController::run_stream)
/// or adapt it through the [`crate::scenario`] combinators first.
pub type StreamSource<I> = Source<I>;

impl<I: Iterator> Source<I> {
    /// A stream over arrival-ordered records with explicit probe times
    /// (which must be sorted ascending).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `probes` is not sorted, or — as the
    /// stream is consumed — when an arrival precedes the one before it.
    pub fn new(vms: impl IntoIterator<IntoIter = I>, probes: Vec<Timestamp>) -> Self {
        debug_assert!(
            probes.windows(2).all(|w| w[0] <= w[1]),
            "probe times must be sorted"
        );
        Source {
            vms: vms.into_iter().peekable(),
            probes: probes.into_iter(),
            stats: None,
        }
    }

    /// Also interleave a [`RequestOf::Stats`] query every `every` of
    /// simulated time (the first at `every`), each emitted — like probes —
    /// just before the first arrival at-or-after its scheduled time. In a
    /// sharded deployment every such query is a broadcast barrier token,
    /// so a cadence here exercises (and telemeters) the worker runtime's
    /// merge path mid-stream. Queries are *not* counted by
    /// [`RequestSource::remaining`].
    ///
    /// # Cadence semantics at the end of the stream
    ///
    /// A query is *due* when the **next arrival's** time is at-or-after its
    /// scheduled time; arrivals gate the cadence, so queries stop with the
    /// arrival stream. Precisely:
    ///
    /// * a barrier scheduled at exactly the final arrival's time is
    ///   emitted, and it precedes that arrival (barrier at `t`, then the
    ///   arrival at `t`);
    /// * no trailing barrier follows the last arrival, even when the next
    ///   scheduled time lands before the trace horizon — callers that need
    ///   an end-of-stream report finalize the controller instead;
    /// * scheduled probes still take precedence over a stats barrier due at
    ///   the same gate when the probe time is at-or-before the barrier
    ///   time.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_stats_every(mut self, every: SimDuration) -> Self {
        assert!(every.ticks() > 0, "stats cadence must be positive");
        self.stats = Some((every, Timestamp::ZERO + every));
        self
    }
}

impl<'a> RequestSource<'a> {
    /// The stream replaying a trace with the paper's probe schedule — the
    /// online equivalent of what [`coach_sim::packing_experiment`] builds
    /// its sorted event vector for.
    pub fn replaying(trace: &'a Trace) -> Self {
        Source::new(&trace.vms, paper_probe_times(trace.horizon))
    }

    /// Requests remaining (arrivals + probes; scheduled stats queries are
    /// open-ended and not counted).
    pub fn remaining(&self) -> usize {
        self.vms.len() + self.probes.len()
    }
}

impl<'t> StreamSource<StreamingRecords<'t>> {
    /// The stream replaying a [`StreamingTrace`] with the paper's probe
    /// schedule — the constant-memory equivalent of
    /// [`RequestSource::replaying`].
    pub fn streaming(trace: &'t StreamingTrace) -> Self {
        Source::new(trace.records(), paper_probe_times(trace.horizon()))
    }
}

impl<I: Iterator> Iterator for Source<I>
where
    I::Item: Borrow<VmRecord>,
{
    type Item = RequestOf<I::Item>;

    fn next(&mut self) -> Option<Self::Item> {
        // A scheduled event is due when the next arrival is at-or-after
        // it; once no arrivals remain, probes drain and stats stop.
        let gate = self.vms.peek().map(|vm| vm.borrow().arrival);
        let probe = self.probes.as_slice().first().copied();
        let probe = probe.filter(|&at| gate.is_none_or(|t| t >= at));
        let stats = self.stats.filter(|&(_, at)| gate.is_some_and(|t| t >= at));
        match (probe, stats) {
            (Some(now), stats) if stats.is_none_or(|(_, at)| now <= at) => {
                self.probes.next();
                Some(RequestOf::Probe { now })
            }
            (_, Some((every, now))) => {
                self.stats = Some((every, now + every));
                Some(RequestOf::Stats { now })
            }
            _ => {
                let vm = self.vms.next()?;
                debug_assert!(
                    self.vms
                        .peek()
                        .is_none_or(|next| next.borrow().arrival >= vm.borrow().arrival),
                    "records must be ordered by arrival"
                );
                Some(RequestOf::Arrive(vm))
            }
        }
    }

    /// Arrivals plus the remaining probes; open-ended once a stats cadence
    /// is set.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.vms.size_hint();
        let probes = self.probes.len();
        let bounded = hi.filter(|_| self.stats.is_none());
        (lo + probes, bounded.map(|h| h + probes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use coach_trace::{generate, TraceConfig};

    #[test]
    fn interleaves_probes_at_crossings() {
        let trace = generate(&TraceConfig::small(11));
        let source = RequestSource::replaying(&trace);
        assert_eq!(source.remaining(), trace.vms.len() + 3);
        let reqs: Vec<Request> = source.collect();
        assert_eq!(reqs.len(), trace.vms.len() + 3);

        // Probes appear in schedule order, each before the first arrival
        // at-or-after its time.
        let probes = paper_probe_times(trace.horizon);
        let mut probe_iter = probes.iter();
        let mut last_arrival = Timestamp::ZERO;
        for req in &reqs {
            match req {
                Request::Probe { now } => {
                    assert_eq!(now, probe_iter.next().expect("within schedule"));
                    assert!(last_arrival <= *now, "probe emitted late");
                }
                Request::Arrive(vm) => {
                    assert!(vm.arrival >= last_arrival, "arrivals out of order");
                    last_arrival = vm.arrival;
                }
                other => panic!("unexpected request {other:?}"),
            }
        }
        assert!(probe_iter.next().is_none(), "all probes emitted");
    }

    #[test]
    fn stats_cadence_interleaves_in_time_order() {
        let trace = generate(&TraceConfig::small(13));
        let every = SimDuration::from_hours(24);
        let reqs: Vec<Request> = RequestSource::replaying(&trace)
            .with_stats_every(every)
            .collect();
        let mut stats_seen = 0u64;
        let mut expected_next = Timestamp::ZERO + every;
        let mut last_arrival = Timestamp::ZERO;
        for req in &reqs {
            match req {
                Request::Stats { now } => {
                    assert_eq!(*now, expected_next, "cadence in order");
                    assert!(last_arrival <= *now, "stats emitted late");
                    expected_next = *now + every;
                    stats_seen += 1;
                }
                Request::Arrive(vm) => last_arrival = vm.arrival,
                Request::Probe { .. } => {}
                other => panic!("unexpected request {other:?}"),
            }
        }
        assert!(stats_seen > 1, "cadence fired repeatedly");
        // The probe schedule is unaffected by the cadence.
        let probes = reqs
            .iter()
            .filter(|r| matches!(r, Request::Probe { .. }))
            .count();
        assert_eq!(probes, 3);
    }

    /// A minimal arrival-only record at `t` (placement fields are dummies;
    /// only the times matter to the source's interleaving).
    fn record_at(id: u64, t: Timestamp) -> VmRecord {
        let trace = generate(&TraceConfig::small(1));
        let mut rec = trace.vms[0].clone();
        rec.id = VmId::new(id);
        rec.arrival = t;
        rec.departure = t + SimDuration::from_hours(1);
        rec
    }

    /// Stream ends exactly on a stats barrier: last arrival at t = 2h with
    /// a 1h cadence. The barrier due at 2h fires *before* the final
    /// arrival; no trailing barrier follows it.
    fn assert_barrier_precedes_final_arrival<R: Borrow<VmRecord>>(
        source: impl Iterator<Item = RequestOf<R>>,
        every: SimDuration,
    ) {
        let shape: Vec<String> = source
            .map(|r| match r.as_request() {
                Request::Arrive(vm) => format!("arrive@{}", vm.arrival.ticks()),
                Request::Stats { now } => format!("stats@{}", now.ticks()),
                other => panic!("unexpected request {other:?}"),
            })
            .collect();
        let h = every.ticks();
        assert_eq!(
            shape,
            vec![
                "arrive@0".to_string(),
                format!("stats@{h}"),
                format!("stats@{}", 2 * h), // due at the final arrival: fires first
                format!("arrive@{}", 2 * h),
                // and nothing after the last arrival.
            ]
        );
    }

    #[test]
    fn stats_barrier_exactly_at_final_arrival() {
        let every = SimDuration::from_hours(1);
        let vms = vec![
            record_at(0, Timestamp::ZERO),
            record_at(1, Timestamp::ZERO + every + every),
        ];
        assert_barrier_precedes_final_arrival(
            RequestSource::new(&vms, Vec::new()).with_stats_every(every),
            every,
        );
        assert_barrier_precedes_final_arrival(
            StreamSource::new(vms, Vec::new()).with_stats_every(every),
            every,
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ordered by arrival")]
    fn an_arrival_out_of_order_is_caught_as_it_streams() {
        let hour = SimDuration::from_hours(1);
        let vms = vec![
            record_at(0, Timestamp::ZERO + hour),
            record_at(1, Timestamp::ZERO),
        ];
        StreamSource::new(vms, Vec::new()).count();
    }

    #[test]
    fn arrivals_are_borrowed_not_copied() {
        let trace = generate(&TraceConfig::small(12));
        let mut source = RequestSource::replaying(&trace);
        let first = loop {
            match source.next().expect("non-empty") {
                Request::Arrive(vm) => break vm,
                _ => continue,
            }
        };
        assert!(std::ptr::eq(first, &trace.vms[0]));
    }
}
