//! The flight recorder: where trace events go.
//!
//! The simulator stores `Box<dyn Actor>`s and cannot grow a type
//! parameter, so it holds one concrete [`TraceSink`]: off, or recording
//! through a small cache-hot chunk into a fixed-capacity ring. Every hook
//! goes through [`TraceSink::emit_with`], whose off case costs one load
//! and one predictable branch.

use crate::event::TraceEvent;

/// A fixed-capacity ring buffer of trace events.
///
/// Once full, the newest event overwrites the oldest — a crash or a
/// surprising result always leaves the *last* `capacity` events, which is
/// what post-mortem debugging wants. Recording never allocates after the
/// ring is full.
#[derive(Debug)]
struct FlightRecorder {
    buf: Vec<TraceEvent>,
    cap: usize,
    next: usize,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (min 1).
    ///
    /// Nothing is reserved until the first batch arrives, and then the
    /// whole ring at once: pre-sizing keeps doubling-growth memcpys out of
    /// recorded (timed) runs, and a recorder that is never written never
    /// reserves.
    fn new(capacity: usize) -> Self {
        FlightRecorder { buf: Vec::new(), cap: capacity.max(1), next: 0 }
    }

    /// Takes the held events in chronological (recording) order, leaving
    /// the recorder empty with no reservation — the next batch reserves a
    /// ring again. The buffer is moved out, not cloned, so ending a traced
    /// run costs at most one in-place rotation, not a ring-sized copy.
    fn take_events(&mut self) -> Vec<TraceEvent> {
        let mut out = std::mem::take(&mut self.buf);
        if out.len() == self.cap {
            // `next` points at the oldest surviving event once wrapped.
            out.rotate_left(self.next);
        }
        self.next = 0;
        out
    }

    /// Records a batch of events with bulk slice copies. The resulting
    /// recorder state (`buf`, `next`) is *identical* to recording the
    /// events one at a time — the batch-equivalence unit test pins this
    /// against the per-event `record` below — so chunked recording cannot
    /// change artifacts.
    fn record_batch(&mut self, events: &[TraceEvent]) {
        if events.is_empty() {
            return;
        }
        let mut src = events;
        if self.buf.len() < self.cap {
            self.buf.reserve_exact(self.cap - self.buf.len());
            // Fill phase: `next == buf.len()` here (the ring has never
            // wrapped while the buffer is below capacity).
            let take = src.len().min(self.cap - self.buf.len());
            self.buf.extend_from_slice(&src[..take]);
            self.next = (self.next + take) % self.cap;
            src = &src[take..];
            if src.is_empty() {
                return;
            }
        }
        // Wrap phase: the buffer is at capacity. A batch longer than the
        // ring leaves only its last `cap` events, with `next` advanced by
        // the full batch length modulo `cap` — exactly what per-event
        // recording would do.
        let skip = src.len().saturating_sub(self.cap);
        let start = (self.next + skip) % self.cap;
        let src = &src[skip..];
        let first = (self.cap - start).min(src.len());
        self.buf[start..start + first].copy_from_slice(&src[..first]);
        self.buf[..src.len() - first].copy_from_slice(&src[first..]);
        self.next = (start + src.len()) % self.cap;
    }

    /// Moves a full `chunk` into the ring and empties it, reserving it
    /// whole if it has no room yet (the sink's first event). Out of line:
    /// it runs once per chunk, and every trace site inlines the sink's
    /// fast path.
    #[cold]
    #[inline(never)]
    fn flush(&mut self, chunk: &mut Vec<TraceEvent>) {
        self.record_batch(chunk);
        chunk.clear();
        chunk.reserve_exact(CHUNK_EVENTS.min(self.cap));
    }

    /// Records one event: the obvious ring write, kept as the test oracle
    /// that `record_batch` and the chunked sink are compared against.
    #[cfg(test)]
    fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
        }
        self.next += 1;
        if self.next == self.cap {
            self.next = 0;
        }
    }
}

/// Events per chunk of an enabled [`TraceSink`]: 2048 × 32-byte events =
/// 64 KiB, the top of the 4–64 KiB window that stays resident in L1/L2
/// while amortizing the flush into the (potentially tens-of-MiB) ring.
pub const CHUNK_EVENTS: usize = 2048;

/// The engine-facing sink: off (the default), or recording through a
/// chunk-flushed ring.
///
/// The fast path of an enabled sink is a bump write into a small
/// cache-hot chunk; full chunks are flushed into the backing ring with
/// bulk copies. The chunk is reserved at the first event and the ring at
/// the first flush, so a run that records less than a chunk never
/// reserves a ring. Per event this avoids the ring's wrap branch and
/// cold-cache write; artifacts are unchanged because the flush is
/// state-equivalent to per-event recording. [`TraceSink::emit_with`] takes
/// a closure so the off case skips event construction entirely.
#[derive(Debug, Default)]
pub struct TraceSink {
    /// `None` while recording is off.
    ring: Option<FlightRecorder>,
    chunk: Vec<TraceEvent>,
}

impl TraceSink {
    /// A sink recording through a chunk-flushed ring of `capacity` events
    /// — what the engine enables for live tracing.
    pub fn chunked(capacity: usize) -> Self {
        TraceSink { ring: Some(FlightRecorder::new(capacity)), chunk: Vec::new() }
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
            // The chunk is reserved whole, so the push below never
            // reallocates: a bounds check and a bump write.
            if self.chunk.len() == self.chunk.capacity() {
                ring.flush(&mut self.chunk);
            }
            self.chunk.push(f());
        }
    }

    /// Lets `f` rewrite the most recent record in place; returns what `f`
    /// returns, or `false` when there is no record to rewrite (the sink is
    /// off, or nothing was recorded since the last take). The last record
    /// is always still in the chunk: a flush only happens before the next
    /// push.
    #[inline]
    pub fn fold_last(&mut self, f: impl FnOnce(&mut TraceEvent) -> bool) -> bool {
        self.chunk.last_mut().is_some_and(f)
    }

    /// Takes the recorded events in chronological order, leaving the sink
    /// enabled with an empty ring that holds no reservation. Events that
    /// never left the chunk are handed back in the chunk itself. Returns an
    /// empty vec when off.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        let Some(ring) = &mut self.ring else { return Vec::new() };
        if ring.buf.is_empty() && self.chunk.len() <= ring.cap {
            // Nothing was flushed since the last take: the chunk is the run.
            return std::mem::take(&mut self.chunk);
        }
        ring.record_batch(&self.chunk);
        self.chunk.clear();
        ring.take_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::component;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::packet_deliver(i, component::link(0), i, 0, 100)
    }

    fn drive(r: &mut FlightRecorder, n: u64) {
        for i in 0..n {
            r.record(ev(i));
        }
    }

    fn times(events: &[TraceEvent]) -> Vec<u64> {
        events.iter().map(|e| e.t).collect()
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
        r.record(ev(1));
        r.record(ev(2));
        assert_eq!(times(&r.take_events()), vec![2]);
    }

    #[test]
    fn record_batch_state_matches_per_event_recording() {
        // Sweep capacities and adversarial batch shapes (empty, tiny,
        // exactly-capacity, longer-than-capacity) and require the full
        // recorder state to match per-event recording.
        let batches: Vec<usize> = vec![0, 1, 3, 4, 5, 7, 8, 16, 31];
        for cap in [1usize, 3, 4, 8, 16] {
            let mut batched = FlightRecorder::new(cap);
            let mut reference = FlightRecorder::new(cap);
            let mut i = 0u64;
            for &n in &batches {
                let chunk: Vec<TraceEvent> = (0..n as u64).map(|j| ev(i + j)).collect();
                i += n as u64;
                batched.record_batch(&chunk);
                for &e in &chunk {
                    reference.record(e);
                }
                assert_eq!(batched.buf, reference.buf, "cap {cap} after {i} events");
                assert_eq!(batched.next, reference.next, "internal cursor must match too");
            }
        }
    }

    #[test]
    fn chunked_recorder_matches_plain_ring() {
        for total in [0u64, 5, CHUNK_EVENTS as u64, CHUNK_EVENTS as u64 * 3 + 17] {
            let mut chunked = TraceSink::chunked(64);
            let mut plain = FlightRecorder::new(64);
            for i in 0..total {
                chunked.emit_with(|| ev(i));
                plain.record(ev(i));
            }
            assert_eq!(chunked.take_events(), plain.take_events(), "after {total} events");
        }
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
        // A chunk smaller than the run and a ring smaller than the chunk
        // total: the sink flushes mid-run and the ring wraps.
        let mut a = TraceSink::chunked(16);
        let mut b = FlightRecorder::new(16);
        assert!(a.is_enabled());
        for i in 0..100 {
            a.emit_with(|| ev(i));
            b.record(ev(i));
        }
        assert_eq!(a.take_events(), b.take_events());
        assert!(a.take_events().is_empty(), "take resets the chunked sink");
        assert!(a.is_enabled(), "sink stays enabled after take");
    }

    #[test]
    fn fold_last_rewrites_the_newest_record_across_a_flush() {
        let mut s = TraceSink::chunked(1 << 16);
        assert!(!s.fold_last(|_| true), "nothing recorded yet");
        for i in 0..=CHUNK_EVENTS as u64 {
            s.emit_with(|| ev(i));
        }
        // The chunk was flushed before its last push, so the newest record
        // is still in it.
        assert!(s.fold_last(|last| {
            last.t += 1_000_000;
            true
        }));
        assert!(!s.fold_last(|_| false), "a refusing closure reports false");
        let events = s.take_events();
        assert_eq!(events.len(), CHUNK_EVENTS + 1);
        assert_eq!(events[CHUNK_EVENTS].t, CHUNK_EVENTS as u64 + 1_000_000);
        assert_eq!(events[CHUNK_EVENTS - 1].t, CHUNK_EVENTS as u64 - 1);
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
    fn a_sink_reserves_its_ring_at_the_first_flush_and_gives_it_up_on_take() {
        let ring_capacity = |s: &TraceSink| s.ring.as_ref().map_or(0, |r| r.buf.capacity());
        let mut s = TraceSink::chunked(1 << 20);
        assert!(s.take_events().is_empty());
        assert_eq!(ring_capacity(&s), 0, "a sink that recorded nothing holds no ring");
        for i in 0..5 {
            s.emit_with(|| ev(i));
        }
        assert_eq!(times(&s.take_events()), vec![0, 1, 2, 3, 4]);
        assert_eq!(ring_capacity(&s), 0, "less than a chunk comes back in the chunk");
        for i in 0..=CHUNK_EVENTS as u64 {
            s.emit_with(|| ev(i));
        }
        assert_eq!(ring_capacity(&s), 1 << 20, "the first flush reserves the whole ring");
        assert_eq!(s.take_events().len(), CHUNK_EVENTS + 1);
        assert_eq!(ring_capacity(&s), 0, "a taken sink holds no ring");
    }

    #[test]
    fn sink_ring_records_and_resets_on_take() {
        // Fewer events than one chunk: `take_events` must hand back the
        // partial chunk, which never reached the ring.
        let mut s = TraceSink::chunked(8);
        s.emit_with(|| ev(1));
        s.emit_with(|| ev(2));
        assert_eq!(times(&s.take_events()), vec![1, 2]);
        assert!(s.take_events().is_empty(), "take resets the ring");
        assert!(s.is_enabled(), "sink stays enabled after take");
    }
}
