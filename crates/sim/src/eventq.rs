//! The engine's event queue: an indexed 4-ary min-heap with true removal,
//! fronted by a same-instant FIFO lane and delay lines (two per link, one
//! per tick interval).
//!
//! The run loop pops the earliest `(time, phase, ord, seq)` entry; cancellation (timers
//! only) removes the entry from the heap immediately in O(log n) instead of
//! leaving a tombstone behind. This keeps cancel-heavy runs flat in memory —
//! a retransmission timer that is armed and disarmed per packet never
//! outlives its cancellation — and removes the per-pop tombstone lookup the
//! previous `BinaryHeap + HashSet` scheme paid on *every* event.
//!
//! The heap itself orders only 24-byte keys, three `u64` words compared in
//! turn: `time`, `tie = phase << 62 | ord` and `seq_slot = seq << 24 |
//! cancel bit | slot` (see [`Entry`]); event payloads are parked in a pooled
//! slot slab and never move during sifts. With payloads the size of a
//! `Packet` plus its `Event` wrapper, sifting keys instead of nodes is the
//! difference between one cache line per level and several. Slab slots are
//! recycled through a free list, so steady-state scheduling allocates
//! nothing. The packing sets two limits, both checked with `assert!`: fewer
//! than 2⁴⁰ pushes per run (`seq < 2⁴⁰`, about 10 hours at 30 M events/s)
//! and fewer than 2²³ entries pending at once (8 388 608 slab slots).
//!
//! Ordering is by `(time, phase, ord, seq)`. The [`Phase`] is intra-instant
//! *semantics*, not a tie — it encodes two orderings every schedule must
//! agree on, both found by `marnet-lab racecheck` as genuine races in the
//! fairness portfolio member:
//!
//! 1. `Drain` before everything: link departures free transmit-queue
//!    capacity, so capacity freed at time `t` is visible to every arrival
//!    at `t`. Without it, a departure/arrival tie at a full drop-tail queue
//!    decides admit-vs-drop by schedule accident.
//! 2. `Carry` before `Spawn`: entries committed to instant `t` from an
//!    earlier instant (timers armed in the past, packets already in
//!    flight) run before entries *spawned within* instant `t` by handlers
//!    running at `t`. An instant's carries are its causal roots; its
//!    spawns are their downstream effects, and no schedule may run an
//!    effect ahead of the roots. Without it, a periodic timer colliding
//!    with a same-instant message (e.g. a 33 ms frame grid meeting a 5 ms
//!    pacing grid at their 165 ms common multiple) decides
//!    this-tick-vs-next-tick admission by schedule accident.
//!
//! Below the phase, `ord` is computed at insertion by the queue's
//! [`TieBreak`] policy from the entry's *scheduling source* (the component
//! whose handler pushed it — see `crate::config`): under the default FIFO
//! policy `ord == 0` for every entry, so the pop order degenerates to the
//! classic `(time, phase, seq)` order — and because every carry was pushed
//! before the instant's first spawn, the phase split is seq-consistent and
//! FIFO pop order is byte-identical to the pre-phase queue. Non-default
//! policies (`Lifo`, `Seeded`) permute only the order of equal-
//! `(time, phase)` entries from *different* sources; same-source ties keep
//! program order through the trailing raw `seq`, which also keeps the
//! order total.
//!
//! # The same-instant lane
//!
//! Most insertions on a busy run are zero-delay messages: plain `Spawn`
//! entries for the instant being executed, popped again before the clock
//! moves. Through the heap each one is appended at the tail, sifts up past
//! every parked timer and is popped straight back with a full-depth
//! sift-down. They skip the heap instead: plain `Spawn` entries with
//! `ord == 0` for one instant wait in a FIFO threaded through the slab
//! (the `pos` word of a plain occupied slot is otherwise unused, so the
//! lane is a head and a tail index and allocates nothing). Entries join
//! only in ascending `seq`, so the lane is sorted by the full key, and
//! every pop takes whichever of lane front and heap root has the smaller
//! key: pop order is the one total order above by construction, under
//! every policy (`ord == 0` is every entry under FIFO and almost none
//! under the perturbing policies, whose entries simply stay in the heap).
//!
//! # Delay lines
//!
//! A link schedules its packets' arrivals at `departure + delay`, one
//! departure after another: on a loaded link a bandwidth-delay product of
//! entries is pending at every instant, and each was pushed with a larger
//! key than the one before. Sorting them through the heap is sorting a
//! sorted sequence. A *delay line* ([`EventQueue::add_line`]) is a FIFO of
//! heap entries (the payloads stay in the slab, as for the heap) that an
//! entry pushed through it ([`EventQueue::push_line`]) joins only when its
//! full key is greater than the line's tail; any other entry — a jittered
//! arrival that overtakes, a perturbing policy's `ord` — goes to the heap
//! exactly as a plain [`EventQueue::push`] would.
//! Each line is therefore sorted by the full key, and a small 4-ary *front
//! heap* holds the front key of every non-empty line, so the pop takes the
//! smallest of heap root, lane front and front-heap root: three structures
//! that each yield their own minimum, merged by the one total order above.
//! The engine gives the same shape a second use: fixed-rate sources that
//! re-arm a non-cancellable tick for `now + interval` push their deadlines
//! in order too, so every tick of one interval goes through one line.
//!
//! Lane and lines are two mechanisms because they exploit two different
//! facts: the lane's entries share one instant, phase and `ord`, so it
//! stores no keys at all (a head and a tail index into the slab), while a
//! line's entries differ in time and need their 24-byte keys kept.
//!
//! # Slots and tokens
//!
//! Every entry owns a slab slot; cancellable entries additionally hand out a
//! [`CancelToken`] carrying `(slot, seq)`. The globally unique `seq` guards
//! against slot reuse, so cancelling an already-fired timer is a cheap no-op.
//! [`EventQueue::rearm`] moves a pending cancellable entry to a new key
//! where it sits — one sift instead of a removal plus an insertion.

use crate::config::TieBreak;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Branching factor. A 4-ary heap halves the depth of a binary heap, which
/// wins on dispatch-heavy workloads: pops do a few more comparisons per
/// level but far fewer cache-missing moves.
const D: usize = 4;

/// Sentinel for "no slot" (end of the free list, end of the lane).
const NO_SLOT: u32 = u32::MAX;

/// Sentinel sequence marking a slab slot as free.
const FREE: u64 = u64::MAX;

/// Position of the `seq` in [`Entry::seq_slot`], above the cancel bit and
/// the slot.
const SEQ_SHIFT: u32 = 24;

/// Pushes per run: a `seq` must fit the 40 bits above [`SEQ_SHIFT`].
const SEQ_LIMIT: u64 = 1 << (64 - SEQ_SHIFT);

/// Bit of [`Entry::seq_slot`] set when the entry is cancellable. Only
/// cancellable entries need their heap position mirrored into the slab
/// (that is what [`EventQueue::cancel`] looks up), so sift moves of plain
/// entries touch nothing but the heap array itself.
const CANCEL_BIT: u64 = 1 << 23;

/// The slot bits of [`Entry::seq_slot`], below the cancel bit.
const SLOT_MASK: u64 = CANCEL_BIT - 1;

/// Slab slots (and delay lines): an index must fit [`SLOT_MASK`].
const SLOT_LIMIT: usize = CANCEL_BIT as usize;

/// Position of the [`Phase`] in [`Entry::tie`], above the 62-bit `ord`.
const PHASE_SHIFT: u32 = 62;

/// Proof-of-registration for a cancellable entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CancelToken {
    slot: u32,
    seq: u64,
}

/// Handle to a delay line registered with [`EventQueue::add_line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LineId(u32);

/// Intra-instant ordering phase: which half of a timestamp an entry runs
/// in. Phases outrank the [`TieBreak`]-computed `ord`, so they are engine
/// semantics every policy agrees on — the race detector perturbs only the
/// order *within* a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Phase {
    /// Resource-freeing work: link departures, which dequeue the next
    /// packet and so free a transmit-queue slot. Runs first so capacity
    /// freed at `t` is visible to every arrival at `t`.
    Drain = 0,
    /// Work committed to this instant from an *earlier* instant: timers
    /// armed in the past, packets already in flight. These are the
    /// instant's causal roots and run before anything spawned at it.
    Carry = 1,
    /// Work spawned *within* this instant by a handler running at it:
    /// same-instant messages, zero-delay timers, start events. Runs last;
    /// policies still permute cross-source order inside the phase.
    Spawn = 2,
}

/// What the queue has done so far: where insertions went and how timers
/// were moved. Plain counters for tests and diagnostics, deliberately not
/// part of any metrics artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Entries inserted into the heap (cancellable timers, future
    /// messages, and link arrivals, departures and ticks that would have
    /// broken their delay line's order).
    pub heap_pushes: u64,
    /// Entries that bypassed the heap through the same-instant lane.
    pub lane_pushes: u64,
    /// Entries that bypassed the heap through a delay line (in-order link
    /// arrivals and departures, and ticks).
    pub line_pushes: u64,
    /// Pending timers moved to a new deadline in place.
    pub rearms: u64,
    /// Pending timers removed by cancellation.
    pub cancels: u64,
    /// The most entries pending at once — heap, lane and lines together.
    pub peak_depth: u64,
}

/// The full ordering key `(time, phase, ord, seq)` as the heap compares
/// it: `(time, tie, seq_slot)`, see [`Entry`].
type PackedKey = (SimTime, u64, u64);

/// A heap or delay-line element, 24 bytes: the full key packed into three
/// words that compare in the same order, plus the slab slot of its payload
/// (in the front heap: the index of the line the key is the front of).
///
/// `tie` is `phase << 62 | ord`, where `ord` is the policy-computed
/// tie-break component (zero under FIFO, below 2⁶² under every policy),
/// fixed at insertion so sifts never re-derive it. `seq_slot` is
/// `seq << 24 | cancel bit | slot`; `seq` is unique, so the bits below it
/// never decide a comparison. The phase stays out of the time word because
/// [`SimTime::MAX`] is a reachable time: a zero-rate link's departure
/// saturates to it.
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    tie: u64,
    seq_slot: u64,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 24);

/// Panics unless `seq` fits the 40 bits the packed key gives it.
#[inline]
fn check_seq(seq: u64) {
    assert!(seq < SEQ_LIMIT, "event queue: seq {seq} is past the limit of 2^40 pushes per run");
}

/// `index` as a slab slot or line index, which the packed key gives 23 bits.
#[inline]
fn slot_index(index: usize) -> u32 {
    assert!(index < SLOT_LIMIT, "event queue: slot {index} is past the limit of 2^23 slots");
    index as u32
}

/// The middle word of a packed key.
#[inline]
fn tie(phase: Phase, ord: u64) -> u64 {
    debug_assert!(ord < 1 << PHASE_SHIFT, "ord {ord} overlaps the phase bits");
    (phase as u64) << PHASE_SHIFT | ord
}

impl Entry {
    /// A plain entry for the key `(time, phase, ord, seq)` with slot 0.
    #[inline]
    fn new(time: SimTime, phase: Phase, ord: u64, seq: u64) -> Entry {
        check_seq(seq);
        Entry { time, tie: tie(phase, ord), seq_slot: seq << SEQ_SHIFT }
    }

    /// The same entry, tagged cancellable.
    #[inline]
    fn cancellable(self) -> Entry {
        Entry { seq_slot: self.seq_slot | CANCEL_BIT, ..self }
    }

    /// The same entry over slot `slot`.
    #[inline]
    fn with_slot(self, slot: u32) -> Entry {
        Entry { seq_slot: (self.seq_slot & !SLOT_MASK) | u64::from(slot), ..self }
    }

    #[inline]
    fn key(&self) -> PackedKey {
        (self.time, self.tie, self.seq_slot)
    }

    #[inline]
    fn seq(&self) -> u64 {
        self.seq_slot >> SEQ_SHIFT
    }

    #[inline]
    fn is_cancellable(&self) -> bool {
        self.seq_slot & CANCEL_BIT != 0
    }

    /// Slab index (the front heap's line index), with the cancel bit stripped.
    #[inline]
    fn slab(&self) -> usize {
        (self.seq_slot & SLOT_MASK) as usize
    }
}

struct Slot<T> {
    /// `Some` while the slot is occupied.
    item: Option<T>,
    /// While occupied: the heap position (cancellable entries), the next
    /// lane slot (lane entries), nothing (plain heap entries). While free:
    /// the next free-list slot.
    pos: u32,
    /// Sequence of the stored entry; [`FREE`] while free.
    seq: u64,
}

/// Resolves a slab index held by a heap or line entry, the lane or a
/// validated token. Free functions over the field (the `link_rt` pattern in
/// `engine`), so the indexing invariant lives in exactly one place each.
#[inline]
fn slot_ref<T>(slots: &[Slot<T>], slab: usize) -> &Slot<T> {
    // marnet-lint: allow(panic-path): heap and line entries and lane links only ever hold indices of live slab slots
    &slots[slab]
}

/// Mutable counterpart of [`slot_ref`].
#[inline]
fn slot_mut<T>(slots: &mut [Slot<T>], slab: usize) -> &mut Slot<T> {
    // marnet-lint: allow(panic-path): heap and line entries and lane links only ever hold indices of live slab slots
    &mut slots[slab]
}

/// The heap entry at position `i`.
#[inline]
fn entry_at(heap: &[Entry], i: usize) -> Entry {
    // marnet-lint: allow(panic-path): sifts and removals only visit positions below `heap.len()`
    heap[i]
}

/// Writes the heap entry at position `i`.
#[inline]
fn set_entry(heap: &mut [Entry], i: usize, entry: Entry) {
    // marnet-lint: allow(panic-path): sifts and removals only visit positions below `heap.len()`
    heap[i] = entry;
}

/// Records `i` as the main-heap position of `entry` if it is cancellable
/// (no one looks up the position of a plain entry).
#[inline]
fn note_pos<T>(slots: &mut [Slot<T>], entry: Entry, i: usize) {
    if entry.is_cancellable() {
        slot_mut(slots, entry.slab()).pos = i as u32;
    }
}

/// Moves the entry at `i` of a 4-ary min-heap up to its place; returns
/// `true` if it moved. Hole-based: displaced entries shift one level, the
/// moving entry is written once at its final position. `placed` hears of
/// every entry written to a new position — the main heap mirrors
/// cancellable entries' positions into the slab, the front heap has no one
/// to tell.
#[inline(always)]
fn sift_up(heap: &mut [Entry], mut i: usize, mut placed: impl FnMut(Entry, usize)) -> bool {
    let entry = entry_at(heap, i);
    let key = entry.key();
    let start = i;
    while i > 0 {
        let parent = (i - 1) / D;
        let above = entry_at(heap, parent);
        if key >= above.key() {
            break;
        }
        set_entry(heap, i, above);
        placed(above, i);
        i = parent;
    }
    if i == start {
        return false;
    }
    set_entry(heap, i, entry);
    placed(entry, i);
    true
}

/// Moves the entry at `i` down to its place (hole-based, as [`sift_up`]).
#[inline(always)]
fn sift_down(heap: &mut [Entry], mut i: usize, mut placed: impl FnMut(Entry, usize)) {
    let len = heap.len();
    let entry = entry_at(heap, i);
    let key = entry.key();
    loop {
        let first_child = i * D + 1;
        if first_child >= len {
            break;
        }
        let mut best = first_child;
        for c in first_child + 1..(first_child + D).min(len) {
            if entry_at(heap, c).key() < entry_at(heap, best).key() {
                best = c;
            }
        }
        let below = entry_at(heap, best);
        if below.key() >= key {
            break;
        }
        set_entry(heap, i, below);
        placed(below, i);
        i = best;
    }
    set_entry(heap, i, entry);
    placed(entry, i);
}

/// The delay lines and the front heap over them (see the module docs).
/// Orders keys only: the entries' slab slots are the queue's business.
#[derive(Default)]
struct DelayLines {
    /// The lines, each sorted by the full key.
    lines: Vec<VecDeque<Entry>>,
    /// 4-ary min-heap of the front key of every non-empty line; the
    /// entry's slot is the line's index.
    fronts: Vec<Entry>,
    /// Entries in all lines together.
    len: usize,
}

impl DelayLines {
    fn add(&mut self) -> LineId {
        let line = LineId(slot_index(self.lines.len()));
        self.lines.push(VecDeque::new());
        line
    }

    /// Resolves a line index held by a [`LineId`] or a front-heap entry.
    #[inline]
    fn line(&mut self, line: u32) -> &mut VecDeque<Entry> {
        // LineIds are only minted by `add` for this queue, and the front
        // heap only holds indices of its lines.
        &mut self.lines[line as usize]
    }

    /// The key an entry must exceed to join `line`; `None` while it is empty.
    #[inline]
    fn tail_key(&mut self, line: LineId) -> Option<PackedKey> {
        self.line(line.0).back().map(Entry::key)
    }

    /// Appends `entry`, whose key exceeds [`DelayLines::tail_key`]; the
    /// first entry of a line puts the line's key in the front heap.
    #[inline]
    fn push(&mut self, line: LineId, entry: Entry) {
        let entries = self.line(line.0);
        let first = entries.is_empty();
        entries.push_back(entry);
        self.len += 1;
        if first {
            let pos = self.fronts.len();
            self.fronts.push(entry.with_slot(line.0));
            sift_up(&mut self.fronts, pos, |_, _| {});
        }
    }

    /// Removes the entry with the smallest key, putting its line's next
    /// key (if any) in its place in the front heap.
    fn pop(&mut self) -> Entry {
        let line = entry_at(&self.fronts, 0).slab() as u32;
        let entries = self.line(line);
        // A line is non-empty while the front heap holds its key.
        let entry = entries.pop_front().expect("non-empty line");
        match entries.front() {
            Some(&next) => set_entry(&mut self.fronts, 0, next.with_slot(line)),
            None => {
                self.fronts.swap_remove(0);
            }
        }
        if !self.fronts.is_empty() {
            sift_down(&mut self.fronts, 0, |_, _| {});
        }
        self.len -= 1;
        entry
    }
}

/// Where the next entry to pop sits.
#[derive(Clone, Copy)]
enum Front {
    Lane,
    Heap,
    Line,
}

/// An indexed 4-ary min-heap over `(time, phase, ord, seq)` plus the
/// same-instant lane and the delay lines (see the module docs).
pub(crate) struct EventQueue<T> {
    heap: Vec<Entry>,
    slots: Vec<Slot<T>>,
    free_head: u32,
    n_cancellable: usize,
    tie_break: TieBreak,
    /// First and last slab slot of the lane; [`NO_SLOT`] while it is empty.
    lane_head: u32,
    lane_tail: u32,
    lane_len: usize,
    /// The instant every lane entry is scheduled for.
    lane_time: SimTime,
    lines: DelayLines,
    stats: QueueStats,
}

impl<T> EventQueue<T> {
    /// A default-policy (FIFO) queue; production callers go through
    /// [`EventQueue::with_tie_break`] via `Simulator::new`.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::with_tie_break(TieBreak::Fifo)
    }

    pub(crate) fn with_tie_break(tie_break: TieBreak) -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free_head: NO_SLOT,
            n_cancellable: 0,
            tie_break,
            lane_head: NO_SLOT,
            lane_tail: NO_SLOT,
            lane_len: 0,
            lane_time: SimTime::ZERO,
            lines: DelayLines::default(),
            stats: QueueStats::default(),
        }
    }

    /// Registers an empty delay line (see the module docs).
    pub(crate) fn add_line(&mut self) -> LineId {
        self.lines.add()
    }

    /// Pending entries — heap, lane and lines together.
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + self.lane_len + self.lines.len
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pending cancellable timers (diagnostics; not a tombstone count).
    pub(crate) fn cancellable_len(&self) -> usize {
        self.n_cancellable
    }

    pub(crate) fn stats(&self) -> QueueStats {
        // Every pending entry owns a slab slot and the slab never shrinks,
        // so its length is the high-water mark of pending entries.
        QueueStats { peak_depth: self.slots.len() as u64, ..self.stats }
    }

    /// Inserts a non-cancellable entry scheduled by source `src`, in the
    /// given intra-instant [`Phase`].
    #[inline]
    pub(crate) fn push(&mut self, time: SimTime, seq: u64, src: u64, phase: Phase, item: T) {
        let ord = self.tie_break.ord_of(src);
        if phase == Phase::Spawn && ord == 0 && self.lane_accepts(time, seq) {
            self.push_lane(time, seq, item);
        } else {
            self.insert(Entry::new(time, phase, ord, seq), item);
        }
    }

    /// [`EventQueue::push`] for an entry expected to sort behind everything
    /// already pushed through `line`: it joins the line when its full key is
    /// greater than the line's tail, and the heap otherwise — either way it
    /// pops in key order.
    pub(crate) fn push_line(
        &mut self,
        line: LineId,
        time: SimTime,
        seq: u64,
        src: u64,
        phase: Phase,
        item: T,
    ) {
        let entry = Entry::new(time, phase, self.tie_break.ord_of(src), seq);
        // Keys differ in `seq`, so the slot bits never decide this test.
        if self.lines.tail_key(line).is_some_and(|tail| entry.key() <= tail) {
            self.insert(entry, item);
            return;
        }
        let slot = self.alloc_slot(item, NO_SLOT, seq);
        self.lines.push(line, entry.with_slot(slot));
        self.stats.line_pushes += 1;
    }

    /// Inserts a cancellable entry and returns its token. Cancellable
    /// entries are timers; the caller supplies the phase ([`Phase::Carry`]
    /// for a future instant, [`Phase::Spawn`] for a zero-delay timer).
    pub(crate) fn push_cancellable(
        &mut self,
        time: SimTime,
        seq: u64,
        src: u64,
        phase: Phase,
        item: T,
    ) -> CancelToken {
        let entry = Entry::new(time, phase, self.tie_break.ord_of(src), seq).cancellable();
        let slot = self.insert(entry, item);
        self.n_cancellable += 1;
        CancelToken { slot, seq }
    }

    /// Parks `item` in a slab slot (recycled if one is free) and returns
    /// the slot's index. Always inlined: as a call of its own it copies
    /// the item through the stack once more on every insertion.
    #[inline(always)]
    fn alloc_slot(&mut self, item: T, pos: u32, seq: u64) -> u32 {
        match self.free_head {
            NO_SLOT => {
                let slot = slot_index(self.slots.len());
                self.slots.push(Slot { item: Some(item), pos, seq });
                slot
            }
            head => {
                let s = slot_mut(&mut self.slots, head as usize);
                self.free_head = s.pos;
                *s = Slot { item: Some(item), pos, seq };
                head
            }
        }
    }

    /// Takes the item out of an occupied slab slot and threads the slot
    /// onto the free list; returns the item with the slot's `pos` and `seq`.
    #[inline]
    fn release_slot(&mut self, slab: usize) -> (T, u32, u64) {
        let slot = slot_mut(&mut self.slots, slab);
        // marnet-lint: allow(panic-path): a slab slot is occupied while the heap or the lane refers to it
        let item = slot.item.take().expect("occupied slot");
        let (pos, seq) = (slot.pos, slot.seq);
        slot.pos = self.free_head;
        slot.seq = FREE;
        self.free_head = slab as u32;
        (item, pos, seq)
    }

    /// Parks `item` and pushes `entry` over its slot onto the heap; returns
    /// the slot.
    fn insert(&mut self, entry: Entry, item: T) -> u32 {
        let pos = self.heap.len();
        let slot = self.alloc_slot(item, pos as u32, entry.seq());
        self.heap.push(entry.with_slot(slot));
        self.stats.heap_pushes += 1;
        self.sift_up(pos);
        slot
    }

    /// Whether a plain `Spawn` entry with `ord == 0` may join the lane: the
    /// lane holds one instant's entries in ascending `seq`, which is what
    /// keeps it sorted by the full key.
    #[inline]
    fn lane_accepts(&self, time: SimTime, seq: u64) -> bool {
        self.lane_tail == NO_SLOT
            || (time == self.lane_time && seq > slot_ref(&self.slots, self.lane_tail as usize).seq)
    }

    /// Appends to the lane. Out of line: `push` is inlined into every
    /// scheduling site of the engine, and this half of it would bloat all
    /// of them (measured on the Table II ping-pong, which never uses it).
    #[inline(never)]
    fn push_lane(&mut self, time: SimTime, seq: u64, item: T) {
        check_seq(seq);
        let slot = self.alloc_slot(item, NO_SLOT, seq);
        match self.lane_tail {
            NO_SLOT => {
                self.lane_head = slot;
                self.lane_time = time;
            }
            tail => slot_mut(&mut self.slots, tail as usize).pos = slot,
        }
        self.lane_tail = slot;
        self.lane_len += 1;
        self.stats.lane_pushes += 1;
    }

    fn pop_lane(&mut self) -> (SimTime, u64, T) {
        let (item, next, seq) = self.release_slot(self.lane_head as usize);
        self.lane_head = next;
        if next == NO_SLOT {
            self.lane_tail = NO_SLOT;
        }
        self.lane_len -= 1;
        (self.lane_time, seq, item)
    }

    fn pop_line(&mut self) -> (SimTime, u64, T) {
        let entry = self.lines.pop();
        let (item, _, _) = self.release_slot(entry.slab());
        (entry.time, entry.seq(), item)
    }

    /// The time of the earliest pending entry and where it sits: whichever
    /// of heap root, front-heap root and lane front has the smallest full
    /// key (keys are unique, so there are no ties to break).
    #[inline]
    fn front(&self) -> Option<(SimTime, Front)> {
        let mut best = self.heap.first().map(|e| (e.key(), Front::Heap));
        if let Some(line) = self.lines.fronts.first() {
            if best.is_none_or(|(key, _)| line.key() < key) {
                best = Some((line.key(), Front::Line));
            }
        }
        if self.lane_head != NO_SLOT {
            let lane_seq = slot_ref(&self.slots, self.lane_head as usize).seq;
            let lane_key: PackedKey = (self.lane_time, tie(Phase::Spawn, 0), lane_seq << SEQ_SHIFT);
            if best.is_none_or(|(key, _)| lane_key < key) {
                best = Some((lane_key, Front::Lane));
            }
        }
        best.map(|(key, front)| (key.0, front))
    }

    fn pop_front(&mut self, front: Front) -> (SimTime, u64, T) {
        match front {
            Front::Lane => self.pop_lane(),
            Front::Heap => self.remove_at(0),
            Front::Line => self.pop_line(),
        }
    }

    /// Removes the earliest entry.
    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.pop_at_most(SimTime::MAX)
    }

    /// Removes the earliest entry if its time is `<= end` — the run loop's
    /// fused peek-and-pop, one `front()` per event.
    pub(crate) fn pop_at_most(&mut self, end: SimTime) -> Option<(SimTime, u64, T)> {
        let (time, front) = self.front()?;
        if time > end {
            return None;
        }
        Some(self.pop_front(front))
    }

    /// The heap position of the pending entry behind `token`, if it has
    /// not fired, been cancelled or had its slot reused.
    fn pending_pos(&self, token: CancelToken) -> Option<usize> {
        let slot = self.slots.get(token.slot as usize)?;
        if slot.seq != token.seq {
            return None;
        }
        let pos = slot.pos as usize;
        debug_assert_eq!(entry_at(&self.heap, pos).seq(), token.seq);
        Some(pos)
    }

    /// Removes the entry behind `token` if it is still pending. Returns
    /// `true` if an entry was removed.
    pub(crate) fn cancel(&mut self, token: CancelToken) -> bool {
        let Some(pos) = self.pending_pos(token) else {
            return false;
        };
        self.remove_at(pos);
        self.stats.cancels += 1;
        true
    }

    /// [`EventQueue::cancel`] followed by [`EventQueue::push_cancellable`],
    /// done where the entry sits when it is still pending: same slot, new
    /// key and item, one sift in whichever direction the key moved. Pop
    /// order depends on keys alone, so the two forms cannot be told apart;
    /// a dead token falls back to a fresh insertion.
    pub(crate) fn rearm(
        &mut self,
        token: CancelToken,
        time: SimTime,
        seq: u64,
        src: u64,
        phase: Phase,
        item: T,
    ) -> CancelToken {
        let Some(pos) = self.pending_pos(token) else {
            return self.push_cancellable(time, seq, src, phase, item);
        };
        let slot = slot_mut(&mut self.slots, token.slot as usize);
        slot.item = Some(item);
        slot.seq = seq;
        let entry = Entry::new(time, phase, self.tie_break.ord_of(src), seq);
        set_entry(&mut self.heap, pos, entry.cancellable().with_slot(token.slot));
        if !self.sift_up(pos) {
            self.sift_down(pos);
        }
        self.stats.rearms += 1;
        CancelToken { slot: token.slot, seq }
    }

    /// Removes the entry at heap position `pos` and returns its time, `seq`
    /// and item, restoring the heap property and recycling the slab slot.
    fn remove_at(&mut self, pos: usize) -> (SimTime, u64, T) {
        let entry = self.heap.swap_remove(pos);
        let (item, _, _) = self.release_slot(entry.slab());
        if entry.is_cancellable() {
            self.n_cancellable -= 1;
        }
        if pos < self.heap.len() {
            // The swapped-in tail entry may belong above or below `pos`
            // (whichever sift settles it records its position).
            if !self.sift_up(pos) {
                self.sift_down(pos);
            }
        }
        (entry.time, entry.seq(), item)
    }

    /// [`sift_up`] on the main heap.
    fn sift_up(&mut self, i: usize) -> bool {
        let slots = &mut self.slots;
        sift_up(&mut self.heap, i, |entry, pos| note_pos(slots, entry, pos))
    }

    /// [`sift_down`] on the main heap. Always inlined: with a second caller
    /// (`rearm`) the compiler otherwise stops folding it into `remove_at`,
    /// which costs every pop of a shallow queue a call.
    #[inline(always)]
    fn sift_down(&mut self, i: usize) {
        let slots = &mut self.slots;
        sift_down(&mut self.heap, i, |entry, pos| note_pos(slots, entry, pos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full key unpacked, as the differential test's model sorts it.
    type Key = (SimTime, Phase, u64, u64);

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 0, 0, Phase::Spawn, "a");
        q.push(t(10), 1, 1, Phase::Spawn, "b");
        q.push(t(10), 2, 2, Phase::Spawn, "c");
        q.push(t(20), 3, 3, Phase::Spawn, "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(order, ["b", "c", "d", "a"]);
    }

    #[test]
    fn lifo_reverses_ties_only() {
        let mut q = EventQueue::with_tie_break(TieBreak::Lifo);
        q.push(t(30), 0, 0, Phase::Spawn, "a");
        q.push(t(10), 1, 1, Phase::Spawn, "b");
        q.push(t(10), 2, 2, Phase::Spawn, "c");
        q.push(t(20), 3, 3, Phase::Spawn, "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        // Time order is untouched; the t=10 tie runs last-inserted first.
        assert_eq!(order, ["c", "b", "d", "a"]);
    }

    #[test]
    fn drain_phase_outranks_every_tie_break_policy() {
        // The phase split is engine semantics, not a perturbable tie: a
        // later-inserted drain entry from a "later" source must still run
        // before every spawn entry at the same instant, under every policy.
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(0xbeef)] {
            let mut q = EventQueue::with_tie_break(policy);
            q.push(t(10), 0, 0, Phase::Spawn, "spawn-a");
            q.push(t(10), 1, 1, Phase::Spawn, "spawn-b");
            q.push(t(10), 2, 2, Phase::Spawn, "spawn-c");
            q.push(t(10), 3, 3, Phase::Drain, "drain");
            q.push(t(5), 4, 4, Phase::Spawn, "earlier");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
            assert_eq!(order[0], "earlier", "time still dominates under {policy:?}");
            assert_eq!(order[1], "drain", "drain phase must lead its instant under {policy:?}");
        }
    }

    #[test]
    fn carry_phase_outranks_spawn_under_every_tie_break_policy() {
        // An instant's carries (timers armed in the past, packets in
        // flight) are its causal roots: even a policy that inverts or
        // shuffles cross-source order must run them before anything the
        // instant's own handlers spawned.
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(0xbeef)] {
            let mut q = EventQueue::with_tie_break(policy);
            q.push(t(10), 0, 7, Phase::Carry, "timer");
            q.push(t(10), 1, 1, Phase::Spawn, "msg-a");
            q.push(t(10), 2, 9, Phase::Spawn, "msg-b");
            let tok = q.push_cancellable(t(10), 3, 3, Phase::Carry, "arrival");
            q.push(t(10), 4, 4, Phase::Drain, "drain");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
            assert_eq!(order[0], "drain", "drain leads under {policy:?}");
            let mut carries = order[1..3].to_vec();
            carries.sort_unstable();
            assert_eq!(
                carries,
                ["arrival", "timer"],
                "carries precede spawns under {policy:?} (cross-source order within \
                 the phase stays policy-chosen)"
            );
            assert!(!q.cancel(tok), "popped timer's token must be dead");
        }
    }

    #[test]
    fn seeded_permutes_ties_deterministically() {
        let run = |seed: u64| -> Vec<u64> {
            let mut q = EventQueue::with_tie_break(TieBreak::Seeded(seed));
            for seq in 0..32u64 {
                q.push(t(5), seq, seq, Phase::Spawn, seq);
            }
            q.push(t(1), 32, 32, Phase::Spawn, 1000);
            q.push(t(9), 33, 33, Phase::Spawn, 2000);
            std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect()
        };
        let a = run(0xfeed);
        let b = run(0xfeed);
        assert_eq!(a, b, "same seed, same shuffle");
        // Time order still dominates the shuffled ties.
        assert_eq!(a.first(), Some(&1000));
        assert_eq!(a.last(), Some(&2000));
        // The tie block is a permutation of the inserted values...
        let mut ties: Vec<u64> = a[1..33].to_vec();
        ties.sort_unstable();
        assert_eq!(ties, (0..32).collect::<Vec<_>>());
        // ...and a different seed yields a different permutation.
        assert_ne!(a, run(0xbeef));
        // FIFO would leave the block in insertion order; the shuffle must not.
        assert_ne!(a[1..33], *(0..32).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_immediately() {
        let mut q = EventQueue::new();
        q.push(t(1), 0, 0, Phase::Spawn, 0u32);
        let tok = q.push_cancellable(t(2), 1, 1, Phase::Carry, 1u32);
        q.push(t(3), 2, 2, Phase::Spawn, 2u32);
        assert_eq!(q.len(), 3);
        assert_eq!(q.cancellable_len(), 1);
        assert!(q.cancel(tok));
        assert_eq!(q.len(), 2);
        assert_eq!(q.cancellable_len(), 0);
        assert!(!q.cancel(tok), "double cancel is a no-op");
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(order, [0, 2]);
    }

    #[test]
    fn cancel_after_fire_is_noop_even_with_slot_reuse() {
        let mut q = EventQueue::new();
        let tok = q.push_cancellable(t(1), 0, 0, Phase::Carry, "x");
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("x"));
        // The slot is free again; a new registration reuses it.
        let tok2 = q.push_cancellable(t(2), 1, 1, Phase::Carry, "y");
        assert!(!q.cancel(tok), "stale token must not cancel the new entry");
        assert!(q.cancel(tok2));
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled_not_leaked() {
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            let tok = q.push_cancellable(t(round + 1), round, round, Phase::Carry, round);
            assert!(q.cancel(tok));
        }
        assert!(q.is_empty());
        assert_eq!(q.cancellable_len(), 0);
        assert!(q.slots.len() <= 2, "cancelled slots must be reused, got {}", q.slots.len());
    }

    #[test]
    fn same_instant_spawns_bypass_the_heap_and_still_count() {
        let mut q = EventQueue::new();
        let tok = q.push_cancellable(t(10), 0, 0, Phase::Carry, "timer");
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("timer"));
        // The instant is now t=10: its messages queue up in the lane...
        q.push(t(10), 1, 0, Phase::Spawn, "m1");
        q.push(t(10), 2, 0, Phase::Spawn, "m2");
        // ...while a zero-delay timer, a drain and a future entry go to the heap.
        let zero = q.push_cancellable(t(10), 3, 0, Phase::Spawn, "zero-delay");
        q.push(t(10), 4, 0, Phase::Spawn, "m3");
        q.push(t(10), 5, 0, Phase::Drain, "drain");
        q.push(t(20), 6, 0, Phase::Carry, "later");
        assert_eq!(q.len(), 6, "lane entries are pending entries");
        let stats = q.stats();
        assert_eq!((stats.lane_pushes, stats.heap_pushes), (3, 4));
        assert_eq!(stats.peak_depth, 6);
        assert!(!q.cancel(tok));
        // Full-key order: the drain first, then the spawns by seq with the
        // zero-delay timer in its place, then the next instant.
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(order, ["drain", "m1", "m2", "zero-delay", "m3", "later"]);
        assert!(!q.cancel(zero));
        assert!(q.is_empty());
    }

    #[test]
    fn rearm_moves_a_pending_entry_in_place_and_kills_the_old_token() {
        let mut q = EventQueue::new();
        for seq in 0..64u64 {
            q.push(t(seq + 1), seq, 0, Phase::Carry, seq);
        }
        let tok = q.push_cancellable(t(40), 64, 0, Phase::Carry, 1000);
        let slots = q.slots.len();
        // Earlier (sift up), then later (sift down): same slot both times.
        let tok2 = q.rearm(tok, t(2), 65, 0, Phase::Carry, 1001);
        let tok3 = q.rearm(tok2, t(60), 66, 0, Phase::Carry, 1002);
        assert_eq!((tok3.slot, q.slots.len()), (tok.slot, slots));
        assert_eq!((q.stats().rearms, q.stats().cancels), (2, 0));
        assert_eq!((q.len(), q.cancellable_len()), (65, 1));
        assert!(!q.cancel(tok) && !q.cancel(tok2), "superseded tokens are dead");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        let mut want: Vec<u64> = (0..64).collect();
        want.insert(60, 1002); // after the plain t=60 entry (seq 59 < 66)
        assert_eq!(order, want);
        // The entry has fired: re-arming its token is a fresh insertion.
        let tok4 = q.rearm(tok3, t(70), 67, 0, Phase::Carry, 1003);
        assert_eq!((q.stats().rearms, q.len()), (2, 1));
        assert!(q.cancel(tok4));
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    }

    #[test]
    fn a_seq_past_2_pow_40_panics_on_every_push_path() {
        let last = SEQ_LIMIT - 1;
        let mut q = EventQueue::new();
        let line = q.add_line();
        q.push(t(1), last, 0, Phase::Carry, "last");
        assert_eq!(q.pop(), Some((t(1), last, "last")), "2^40 - 1 still round-trips");
        let over = 1u64 << 40;
        // Heap, lane, delay line, cancellable entry.
        for path in 0..4 {
            let msg = panic_message(|| match path {
                0 => q.push(t(2), over, 0, Phase::Carry, "heap"),
                1 => q.push(t(2), over, 0, Phase::Spawn, "lane"),
                2 => q.push_line(line, t(2), over, 0, Phase::Carry, "line"),
                _ => {
                    q.push_cancellable(t(2), over, 0, Phase::Carry, "timer");
                }
            });
            assert!(msg.contains("limit of 2^40 pushes per run"), "path {path}: {msg}");
        }
        assert!(q.is_empty(), "a rejected push leaves nothing behind");
    }

    #[test]
    fn a_slot_past_2_pow_23_panics() {
        assert_eq!(slot_index((1 << 23) - 1), (1 << 23) - 1);
        let msg = panic_message(|| {
            slot_index(1 << 23);
        });
        assert!(msg.contains("limit of 2^23 slots"), "{msg}");
    }

    /// One step of the differential test below.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push { dt: u64, phase: Phase, src: u64 },
        PushLine { line: usize, dt: u64, phase: Phase, src: u64 },
        PushCancellable { dt: u64, phase: Phase, src: u64 },
        Cancel { pick: usize },
        Rearm { pick: usize, dt: u64, phase: Phase, src: u64 },
        Pop { dt: u64 },
    }

    /// Delay lines in the differential test.
    const LINES: usize = 3;

    fn op() -> impl Strategy<Value = Op> {
        // (kind, dt, phase, src, pick). Small ranges on purpose: ties in
        // time, phase and source are the interesting cases, and `dt == 0`
        // is the current instant (zero-delay timers, lane traffic). With
        // the clock advancing a few milliseconds per pop, about as many
        // line pushes land below their line's tail as above it.
        (0u8..10, 0u64..4, 0u8..3, 0u64..3, 0usize..1 << 16).prop_map(
            |(kind, dt, phase, src, pick)| {
                let phase = [Phase::Drain, Phase::Carry, Phase::Spawn][usize::from(phase)];
                match kind {
                    0..=2 => Op::Push { dt, phase, src },
                    3 => Op::PushCancellable { dt, phase, src },
                    4 => Op::Cancel { pick },
                    5 => Op::Rearm { pick, dt, phase, src },
                    6..=7 => Op::Pop { dt },
                    _ => Op::PushLine { line: pick % LINES, dt, phase, src },
                }
            },
        )
    }

    /// Replays `ops` on a queue and on a sorted-`Vec` model of the full
    /// key; every return value and the final drain must agree.
    fn check_against_model(policy: TieBreak, ops: &[Op]) {
        let mut q = EventQueue::with_tie_break(policy);
        let lines: Vec<LineId> = (0..LINES).map(|_| q.add_line()).collect();
        // (key, item), kept sorted; seqs are unique, so keys are too.
        let mut model: Vec<(Key, u64)> = Vec::new();
        // The keys that should be waiting in each line, in order: a push
        // joins iff it sorts behind the line's tail.
        let mut in_line: Vec<VecDeque<Key>> = vec![VecDeque::new(); LINES];
        let mut tokens: Vec<CancelToken> = Vec::new();
        let mut now = SimTime::ZERO;
        let at = |now: SimTime, dt: u64| now + crate::time::SimDuration::from_millis(dt);
        let place = |model: &mut Vec<(Key, u64)>, key: Key, item: u64| {
            let i = model.partition_point(|(k, _)| *k < key);
            model.insert(i, (key, item));
        };
        let forget = |model: &mut Vec<(Key, u64)>, seq: u64| {
            let before = model.len();
            model.retain(|(k, _)| k.3 != seq);
            model.len() < before
        };
        // Removes the model's first entry (from its line too, whose front
        // it must be if it is in one).
        let take_first = |model: &mut Vec<(Key, u64)>, in_line: &mut Vec<VecDeque<Key>>| {
            let (key, item) = model.remove(0);
            for line in in_line.iter_mut() {
                assert!(!line.iter().skip(1).any(|k| *k == key), "popped from mid-line");
                if line.front() == Some(&key) {
                    line.pop_front();
                }
            }
            (key.0, key.3, item)
        };
        for (seq, &op) in (0u64..).zip(ops) {
            match op {
                Op::Push { dt, phase, src } => {
                    q.push(at(now, dt), seq, src, phase, seq);
                    place(&mut model, (at(now, dt), phase, policy.ord_of(src), seq), seq);
                }
                Op::PushLine { line, dt, phase, src } => {
                    let key = (at(now, dt), phase, policy.ord_of(src), seq);
                    let joins = in_line[line].back().is_none_or(|tail| key > *tail);
                    let before = q.stats();
                    q.push_line(lines[line], at(now, dt), seq, src, phase, seq);
                    let after = q.stats();
                    assert_eq!(
                        (
                            after.line_pushes - before.line_pushes,
                            after.heap_pushes - before.heap_pushes
                        ),
                        (u64::from(joins), u64::from(!joins)),
                        "an entry joins its line iff it sorts behind the tail"
                    );
                    if joins {
                        in_line[line].push_back(key);
                    }
                    place(&mut model, key, seq);
                }
                Op::PushCancellable { dt, phase, src } => {
                    tokens.push(q.push_cancellable(at(now, dt), seq, src, phase, seq));
                    place(&mut model, (at(now, dt), phase, policy.ord_of(src), seq), seq);
                }
                Op::Cancel { pick } if !tokens.is_empty() => {
                    // Tokens are never retired, so dead ones get picked too.
                    let tok = tokens[pick % tokens.len()];
                    assert_eq!(q.cancel(tok), forget(&mut model, tok.seq));
                }
                Op::Rearm { pick, dt, phase, src } if !tokens.is_empty() => {
                    let i = pick % tokens.len();
                    let was_pending = forget(&mut model, tokens[i].seq);
                    let rearms = q.stats().rearms;
                    tokens[i] = q.rearm(tokens[i], at(now, dt), seq, src, phase, seq);
                    assert_eq!(q.stats().rearms - rearms, u64::from(was_pending));
                    place(&mut model, (at(now, dt), phase, policy.ord_of(src), seq), seq);
                }
                Op::Cancel { .. } | Op::Rearm { .. } => {}
                Op::Pop { dt } => {
                    let due = model.first().is_some_and(|(k, _)| k.0 <= at(now, dt));
                    let want = due.then(|| take_first(&mut model, &mut in_line));
                    assert_eq!(q.pop_at_most(at(now, dt)), want);
                    now = want.map_or(now, |(time, _, _)| time);
                }
            }
            assert_eq!(q.len(), model.len());
        }
        let drained: Vec<(SimTime, u64, u64)> = std::iter::from_fn(|| q.pop()).collect();
        let want: Vec<(SimTime, u64, u64)> =
            model.iter().map(|(k, item)| (k.0, k.3, *item)).collect();
        assert_eq!(drained, want);
        assert_eq!((q.len(), q.cancellable_len()), (0, 0));
    }

    proptest! {
        /// Random push / push_line / push_cancellable / cancel / rearm / pop
        /// sequences pop in exactly the order of the full key under every
        /// policy — the lane, the delay lines and in-place re-arm change
        /// where entries wait, never when they leave.
        #[test]
        fn queue_matches_a_sorted_model_under_every_policy(
            ops in prop::collection::vec(op(), 1..400),
            seed in any::<u64>(),
        ) {
            for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(seed)] {
                check_against_model(policy, &ops);
            }
        }
    }
}
