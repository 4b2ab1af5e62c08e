//! The flight recorder: where trace events go.
//!
//! The simulator stores `Box<dyn Actor>`s and cannot grow a type
//! parameter, so it holds one concrete [`TraceSink`]: off, or recording
//! straight into a fixed-capacity ring. Every hook goes through
//! [`TraceSink::emit_with`], whose off case costs one load and one
//! predictable branch.

use crate::event::TraceEvent;

/// A fixed-capacity ring buffer of trace events.
///
/// Once full, the newest event overwrites the oldest — a crash or a
/// surprising result always leaves the *last* `capacity` events, which is
/// what post-mortem debugging wants. Recording never allocates after the
/// first event.
#[derive(Debug)]
struct FlightRecorder {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// The slot the next event overwrites once the ring is full, which is
    /// the oldest event's; 0 until the ring first fills.
    next: usize,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (min 1).
    ///
    /// Nothing is reserved until the first event arrives, and then the
    /// whole ring at once: pre-sizing keeps doubling-growth memcpys out of
    /// recorded (timed) runs, and a recorder that is never written never
    /// reserves.
    fn new(capacity: usize) -> Self {
        FlightRecorder { buf: Vec::new(), cap: capacity.max(1), next: 0 }
    }

    /// Records the event `f` builds: a push while the ring fills, then an
    /// overwrite of the oldest slot. Only the push is inlined into trace
    /// sites, so an untraced run's hot functions carry no more than that,
    /// and `f` builds the event in place in the ring rather than on the
    /// stack.
    #[inline]
    fn record_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        let len = self.buf.len();
        if len < self.cap && len < self.buf.capacity() {
            self.buf.push(f());
        } else {
            self.record_slow(f());
        }
    }

    /// The rest of [`FlightRecorder::record_with`]: the first push after
    /// a reservation, and every write once the ring is full.
    #[inline(never)]
    fn record_slow(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.reserve();
            self.buf.push(ev);
            return;
        }
        if let Some(slot) = self.buf.get_mut(self.next) {
            *slot = ev;
        }
        self.next += 1;
        if self.next == self.cap {
            self.next = 0;
        }
    }

    /// Reserves the whole ring; runs at the first event after
    /// [`FlightRecorder::new`] or a take.
    #[cold]
    #[inline(never)]
    fn reserve(&mut self) {
        self.buf.reserve_exact(self.cap - self.buf.len());
    }

    /// The most recent event, or `None` when nothing was recorded since
    /// the last take.
    fn newest_mut(&mut self) -> Option<&mut TraceEvent> {
        match self.next.checked_sub(1) {
            Some(newest) => self.buf.get_mut(newest),
            None => self.buf.last_mut(),
        }
    }

    /// Takes the held events in chronological (recording) order, leaving
    /// the recorder empty with no reservation — the next event reserves a
    /// ring again. The buffer is moved out, not cloned, so ending a traced
    /// run costs at most one in-place rotation, not a ring-sized copy.
    fn take_events(&mut self) -> Vec<TraceEvent> {
        let mut out = std::mem::take(&mut self.buf);
        out.rotate_left(self.next);
        self.next = 0;
        out
    }
}

/// The engine-facing sink: off (the default), or recording into a ring.
///
/// An enabled sink writes each event straight into its ring: a bump push
/// while the ring fills, an overwrite of the oldest slot once it is full.
/// The ring is reserved whole at the first event, so the only allocation
/// of a traced run is one ring-sized block that the allocator can hand to
/// the next run (see [`crate::DEFAULT_TRACE_CAPACITY`]).
/// [`TraceSink::emit_with`] takes a closure so the off case skips event
/// construction entirely.
#[derive(Debug, Default)]
pub struct TraceSink {
    /// `None` while recording is off.
    ring: Option<FlightRecorder>,
}

impl TraceSink {
    /// A sink recording into a ring of `capacity` events — what the engine
    /// enables for live tracing. The name is kept from the staging-chunk
    /// sink this one replaced, because the benchmark's recorder drive
    /// calls it.
    pub fn chunked(capacity: usize) -> Self {
        TraceSink { ring: Some(FlightRecorder::new(capacity)) }
    }

    /// `true` while events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Records the event built by `f`, or does nothing when off.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(ring) = &mut self.ring {
            ring.record_with(f);
        }
    }

    /// Lets `f` rewrite the most recent record in place; returns what `f`
    /// returns, or `false` when there is no record to rewrite (the sink is
    /// off, or nothing was recorded since the last take).
    #[inline]
    pub fn fold_last(&mut self, f: impl FnOnce(&mut TraceEvent) -> bool) -> bool {
        self.ring.as_mut().and_then(FlightRecorder::newest_mut).is_some_and(f)
    }

    /// Takes the recorded events in chronological order, leaving the sink
    /// enabled with an empty ring that holds no reservation. Returns an
    /// empty vec when off.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.ring.as_mut().map_or_else(Vec::new, FlightRecorder::take_events)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::event::component;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::packet_deliver(i, component::link(0), i, 0, 100)
    }

    fn drive(r: &mut FlightRecorder, n: u64) {
        for i in 0..n {
            r.record_with(|| ev(i));
        }
    }

    fn times(events: &[TraceEvent]) -> Vec<u64> {
        events.iter().map(|e| e.t).collect()
    }

    /// What every sink must behave like: the newest `cap` events, in
    /// order, with no ring arithmetic at all.
    struct Newest {
        cap: usize,
        events: VecDeque<TraceEvent>,
    }

    impl Newest {
        fn new(cap: usize) -> Self {
            Newest { cap: cap.max(1), events: VecDeque::new() }
        }

        fn emit(&mut self, e: TraceEvent) {
            if self.events.len() == self.cap {
                self.events.pop_front();
            }
            self.events.push_back(e);
        }

        fn fold_last(&mut self, f: impl FnOnce(&mut TraceEvent) -> bool) -> bool {
            self.events.back_mut().is_some_and(f)
        }

        fn take(&mut self) -> Vec<TraceEvent> {
            self.events.drain(..).collect()
        }
    }

    /// Moves `last` a second later, or refuses when `accept` is false.
    fn bump(accept: bool) -> impl FnOnce(&mut TraceEvent) -> bool {
        move |last| {
            if accept {
                last.t += 1_000_000_000;
            }
            accept
        }
    }

    #[test]
    fn sink_matches_the_newest_cap_model() {
        // A fixed pseudo-random script of emits, folds (accepted or
        // refused) and takes, each take followed by a second one. Takes
        // are rare enough that every capacity wraps between them, and the
        // script is long enough that folds land before and after a wrap.
        for cap in [1usize, 3, 4, 8, 16, 64] {
            let mut sink = TraceSink::chunked(cap);
            let mut model = Newest::new(cap);
            let mut state = 0x9e37_79b9_7f4a_7c15_u64 ^ cap as u64;
            let (mut since_take, mut i) = (0usize, 0u64);
            let (mut folds_filling, mut folds_wrapped) = (0, 0);
            for step in 0..20_000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                match (state >> 33) % 1_000 {
                    0..=4 => {
                        let (got, want) = (sink.take_events(), model.take());
                        assert_eq!(got, want, "cap {cap}, take at step {step}");
                        assert!(sink.take_events().is_empty(), "cap {cap}, take after take");
                        since_take = 0;
                    }
                    5..=104 => {
                        let accept = state & 1 == 0;
                        let (got, want) =
                            (sink.fold_last(bump(accept)), model.fold_last(bump(accept)));
                        assert_eq!(got, want, "cap {cap}, fold at step {step}");
                        if since_take > cap {
                            folds_wrapped += 1;
                        } else if since_take > 0 {
                            folds_filling += 1;
                        }
                    }
                    _ => {
                        sink.emit_with(|| ev(i));
                        model.emit(ev(i));
                        i += 1;
                        since_take += 1;
                    }
                }
            }
            assert_eq!(sink.take_events(), model.take(), "cap {cap}, final take");
            assert!(folds_wrapped > 0, "cap {cap}: no fold after a wrap");
            if cap > 1 {
                assert!(folds_filling > 0, "cap {cap}: no fold before a wrap");
            }
        }
    }

    #[test]
    fn ring_keeps_the_newest_events_in_order() {
        let mut r = FlightRecorder::new(4);
        drive(&mut r, 10);
        assert_eq!(r.buf.len(), 4);
        assert_eq!(times(&r.take_events()), vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut r = FlightRecorder::new(100);
        drive(&mut r, 5);
        assert_eq!(times(&r.take_events()), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut r = FlightRecorder::new(0);
        r.record_with(|| ev(1));
        r.record_with(|| ev(2));
        assert_eq!(times(&r.take_events()), vec![2]);
    }

    #[test]
    fn take_events_matches_events_before_and_after_wrap() {
        for (n, want) in [(3u64, vec![0, 1, 2]), (4, vec![0, 1, 2, 3]), (10, vec![6, 7, 8, 9])] {
            let mut r = FlightRecorder::new(4);
            drive(&mut r, n);
            assert_eq!(times(&r.take_events()), want, "n={n}");
            assert!(r.buf.is_empty(), "take leaves the ring empty");
        }
    }

    #[test]
    fn chunked_sink_take_matches_ring_sink() {
        // The sink against the model over a run that wraps a 16-slot ring
        // several times, then a take right after the take.
        let mut a = TraceSink::chunked(16);
        let mut b = Newest::new(16);
        assert!(a.is_enabled());
        for i in 0..100 {
            a.emit_with(|| ev(i));
            b.emit(ev(i));
        }
        assert_eq!(a.take_events(), b.take());
        assert!(a.take_events().is_empty(), "take resets the sink");
        assert!(a.is_enabled(), "sink stays enabled after take");
    }

    #[test]
    fn fold_last_rewrites_the_newest_record_before_and_after_a_wrap() {
        let mut s = TraceSink::chunked(4);
        assert!(!s.fold_last(|_| true), "nothing recorded yet");
        for i in 0..3 {
            s.emit_with(|| ev(i));
        }
        assert!(s.fold_last(bump(true)), "before the wrap");
        assert!(!s.fold_last(|_| false), "a refusing closure reports false");
        for i in 3..6 {
            s.emit_with(|| ev(i));
        }
        // The ring wrapped: the newest record sits in the slot before the
        // oldest one, not at the end of the buffer.
        assert!(s.fold_last(bump(true)), "after the wrap");
        assert_eq!(times(&s.take_events()), vec![1_000_000_002, 3, 4, 1_000_000_005]);
        assert!(!s.fold_last(|_| true), "a taken sink has no last record");
        assert!(!TraceSink::default().fold_last(|_| true), "an off sink has none either");
    }

    #[test]
    fn sink_off_records_nothing_and_takes_empty() {
        let mut s = TraceSink::default();
        let mut built = 0;
        s.emit_with(|| {
            built += 1;
            ev(1)
        });
        assert_eq!(built, 0, "disabled sink must not build events");
        assert!(s.take_events().is_empty());
        assert!(!s.is_enabled());
    }

    #[test]
    fn a_sink_reserves_its_ring_at_the_first_event_and_gives_it_up_on_take() {
        let ring_capacity = |s: &TraceSink| s.ring.as_ref().map_or(0, |r| r.buf.capacity());
        let mut s = TraceSink::chunked(1 << 20);
        assert!(s.take_events().is_empty());
        assert_eq!(ring_capacity(&s), 0, "a sink that recorded nothing holds no ring");
        s.emit_with(|| ev(0));
        assert_eq!(ring_capacity(&s), 1 << 20, "the first event reserves the whole ring");
        for i in 1..5 {
            s.emit_with(|| ev(i));
        }
        assert_eq!(ring_capacity(&s), 1 << 20, "later events reserve nothing");
        assert_eq!(times(&s.take_events()), vec![0, 1, 2, 3, 4]);
        assert_eq!(ring_capacity(&s), 0, "a taken sink holds no ring");
    }

    #[test]
    fn sink_ring_records_and_resets_on_take() {
        let mut s = TraceSink::chunked(8);
        s.emit_with(|| ev(1));
        s.emit_with(|| ev(2));
        assert_eq!(times(&s.take_events()), vec![1, 2]);
        assert!(s.take_events().is_empty(), "take resets the ring");
        assert!(s.is_enabled(), "sink stays enabled after take");
    }
}
