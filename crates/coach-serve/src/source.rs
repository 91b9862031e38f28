//! Lazy request-stream derivation from trace records.
//!
//! Two sources share the probe/stats interleaving contract:
//!
//! * [`RequestSource`] borrows arrival records from a materialized slice —
//!   zero copies, but the whole trace must be resident.
//! * [`StreamSource`] pulls owned records from any
//!   `Iterator<Item = VmRecord>` (e.g.
//!   [`coach_trace::StreamingTrace::records`]), emitting owning
//!   [`StreamRequest`]s — bounded memory regardless of trace length, and
//!   the entry point for the [`crate::scenario`] combinators.

use crate::request::{Request, StreamRequest};
use coach_sim::paper_probe_times;
use coach_trace::{StreamingTrace, Trace, VmRecord};
use coach_types::prelude::*;

/// A scheduled (non-arrival) event due ahead of the next arrival.
enum Due {
    Probe(Timestamp),
    Stats(Timestamp),
}

/// The probe schedule and stats cadence both sources interleave with their
/// arrivals, gated by the next arrival's time.
#[derive(Debug, Clone)]
struct Schedule {
    probes: Vec<Timestamp>,
    probe_idx: usize,
    stats_every: Option<SimDuration>,
    next_stats: Timestamp,
}

impl Schedule {
    fn new(probes: Vec<Timestamp>) -> Self {
        debug_assert!(
            probes.windows(2).all(|w| w[0] <= w[1]),
            "probe times must be sorted"
        );
        Schedule {
            probes,
            probe_idx: 0,
            stats_every: None,
            next_stats: Timestamp::ZERO,
        }
    }

    fn set_stats_every(&mut self, every: SimDuration) {
        assert!(every.ticks() > 0, "stats cadence must be positive");
        self.stats_every = Some(every);
        self.next_stats = Timestamp::ZERO + every;
    }

    fn probes_left(&self) -> usize {
        self.probes.len() - self.probe_idx
    }

    /// The scheduled event to emit before the next arrival, whose time is
    /// `gate` (`None`: no arrivals remain — probes drain, stats stop). A
    /// scheduled event is due when the next arrival is at-or-after it.
    fn due(&mut self, gate: Option<Timestamp>) -> Option<Due> {
        let probe_due = self.probe_idx < self.probes.len()
            && gate.is_none_or(|t| t >= self.probes[self.probe_idx]);
        let stats_due = self.stats_every.is_some() && gate.is_some_and(|t| t >= self.next_stats);
        if probe_due && (!stats_due || self.probes[self.probe_idx] <= self.next_stats) {
            let now = self.probes[self.probe_idx];
            self.probe_idx += 1;
            return Some(Due::Probe(now));
        }
        if stats_due {
            let now = self.next_stats;
            self.next_stats = now + self.stats_every.expect("stats cadence set");
            return Some(Due::Stats(now));
        }
        None
    }

    /// The source's size hint given its arrivals' hint: plus the remaining
    /// probes, open-ended once a stats cadence is set.
    fn size_hint(&self, (lo, hi): (usize, Option<usize>)) -> (usize, Option<usize>) {
        let probes = self.probes_left();
        (
            lo + probes,
            if self.stats_every.is_none() {
                hi.map(|h| h + probes)
            } else {
                None
            },
        )
    }
}

/// An iterator deriving a [`Request`] stream lazily from arrival-sorted
/// [`VmRecord`]s — no event vector, no sort, no series materialization.
/// Arrivals are borrowed straight from the slice; departures are *not*
/// emitted at all (the controller's heap schedules them); probe requests
/// are interleaved at the first arrival at-or-after each probe time, which
/// the controller's strictly-before drain turns into exactly the batch
/// replay's probe semantics.
#[derive(Debug, Clone)]
pub struct RequestSource<'a> {
    vms: &'a [VmRecord],
    idx: usize,
    schedule: Schedule,
}

impl<'a> RequestSource<'a> {
    /// A stream over arrival-sorted records with explicit probe times
    /// (which must be sorted ascending).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `vms` is not sorted by arrival or
    /// `probes` is not sorted.
    pub fn new(vms: &'a [VmRecord], probes: Vec<Timestamp>) -> Self {
        debug_assert!(
            vms.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "records must be sorted by arrival"
        );
        RequestSource {
            vms,
            idx: 0,
            schedule: Schedule::new(probes),
        }
    }

    /// The stream replaying a trace with the paper's probe schedule — the
    /// online equivalent of what [`coach_sim::packing_experiment`] builds
    /// its sorted event vector for.
    pub fn replaying(trace: &'a Trace) -> Self {
        RequestSource::new(&trace.vms, paper_probe_times(trace.horizon))
    }

    /// Also interleave a [`Request::Stats`] query every `every` of
    /// simulated time (the first at `every`), each emitted — like probes —
    /// just before the first arrival at-or-after its scheduled time. In a
    /// sharded deployment every such query is a broadcast barrier token,
    /// so a cadence here exercises (and telemeters) the worker runtime's
    /// merge path mid-stream. Queries are *not* counted by
    /// [`Self::remaining`].
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
        self.schedule.set_stats_every(every);
        self
    }

    /// Requests remaining (arrivals + probes; scheduled stats queries are
    /// open-ended and not counted).
    pub fn remaining(&self) -> usize {
        (self.vms.len() - self.idx) + self.schedule.probes_left()
    }
}

impl<'a> Iterator for RequestSource<'a> {
    type Item = Request<'a>;

    fn next(&mut self) -> Option<Request<'a>> {
        let gate = self.vms.get(self.idx).map(|vm| vm.arrival);
        match self.schedule.due(gate) {
            Some(Due::Probe(now)) => Some(Request::Probe { now }),
            Some(Due::Stats(now)) => Some(Request::Stats { now }),
            None => {
                let vm = self.vms.get(self.idx)?;
                self.idx += 1;
                Some(Request::Arrive(vm))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let arrivals = self.vms.len() - self.idx;
        self.schedule.size_hint((arrivals, Some(arrivals)))
    }
}

/// The owning counterpart of [`RequestSource`]: derives a
/// [`StreamRequest`] stream from any arrival-ordered record iterator.
///
/// Probe and stats interleaving is identical to [`RequestSource`]
/// (including the end-of-stream cadence semantics documented on
/// [`RequestSource::with_stats_every`]); the next arrival is held in a
/// one-record peek buffer, so memory stays O(1) over the underlying
/// iterator. Feed the result to
/// [`ShardedController::run_stream`](crate::ShardedController::run_stream)
/// or adapt it through the [`crate::scenario`] combinators first.
#[derive(Debug, Clone)]
pub struct StreamSource<I: Iterator<Item = VmRecord>> {
    vms: std::iter::Peekable<I>,
    schedule: Schedule,
}

impl<I: Iterator<Item = VmRecord>> StreamSource<I> {
    /// A stream over arrival-ordered records with explicit probe times
    /// (which must be sorted ascending). Record order is the caller's
    /// contract — it cannot be checked up front on a lazy iterator.
    pub fn new(vms: I, probes: Vec<Timestamp>) -> Self {
        StreamSource {
            vms: vms.peekable(),
            schedule: Schedule::new(probes),
        }
    }

    /// Interleave a stats cadence; semantics exactly as
    /// [`RequestSource::with_stats_every`].
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_stats_every(mut self, every: SimDuration) -> Self {
        self.schedule.set_stats_every(every);
        self
    }
}

impl StreamSource<coach_trace::StreamingRecords<'_>> {
    /// The stream replaying a [`StreamingTrace`] with the paper's probe
    /// schedule — the constant-memory equivalent of
    /// [`RequestSource::replaying`].
    pub fn streaming(trace: &StreamingTrace) -> StreamSource<coach_trace::StreamingRecords<'_>> {
        StreamSource::new(trace.records(), paper_probe_times(trace.horizon()))
    }
}

impl<I: Iterator<Item = VmRecord>> Iterator for StreamSource<I> {
    type Item = StreamRequest;

    fn next(&mut self) -> Option<StreamRequest> {
        let gate = self.vms.peek().map(|vm| vm.arrival);
        match self.schedule.due(gate) {
            Some(Due::Probe(now)) => Some(StreamRequest::Probe { now }),
            Some(Due::Stats(now)) => Some(StreamRequest::Stats { now }),
            None => self.vms.next().map(StreamRequest::Arrive),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.schedule.size_hint(self.vms.size_hint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn stats_barrier_exactly_at_final_arrival() {
        // Stream ends exactly on a stats barrier: last arrival at t = 2h
        // with a 1h cadence. The barrier due at 2h fires *before* the
        // final arrival; no trailing barrier follows it.
        let every = SimDuration::from_hours(1);
        let vms = vec![
            record_at(0, Timestamp::ZERO),
            record_at(1, Timestamp::ZERO + every + every),
        ];
        let reqs: Vec<Request> = RequestSource::new(&vms, Vec::new())
            .with_stats_every(every)
            .collect();
        let shape: Vec<String> = reqs
            .iter()
            .map(|r| match r {
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

        // The owning source agrees request-for-request.
        let streamed: Vec<StreamRequest> = StreamSource::new(vms.iter().cloned(), Vec::new())
            .with_stats_every(every)
            .collect();
        let borrowed: Vec<StreamRequest> =
            reqs.into_iter().map(StreamRequest::from_request).collect();
        assert_eq!(streamed, borrowed);
    }

    #[test]
    fn stream_source_matches_request_source() {
        let trace = generate(&TraceConfig::small(19));
        let every = SimDuration::from_hours(36);
        let borrowed: Vec<StreamRequest> = RequestSource::replaying(&trace)
            .with_stats_every(every)
            .map(StreamRequest::from_request)
            .collect();
        let owned: Vec<StreamRequest> =
            StreamSource::new(trace.vms.iter().cloned(), paper_probe_times(trace.horizon))
                .with_stats_every(every)
                .collect();
        assert_eq!(owned, borrowed);
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
