//! Packets and their opaque, copy-on-write payloads.
//!
//! The simulator core moves [`Packet`]s between actors without interpreting
//! them. Protocol crates (TCP in `marnet-transport`, the AR protocol in
//! `marnet-core`) attach their own header/payload structures through
//! [`Payload`], which type-erases any `Clone + Debug + 'static` value.
//!
//! Cloning is required because multipath redundancy (§VI-D of the paper)
//! duplicates packets across links — but a duplicate carries the *same*
//! protocol value, so [`Payload`] is reference-counted: `clone` is a
//! refcount bump, and a deep copy of the underlying value happens only if
//! [`Payload::take`] is called while another clone is still alive.

use crate::time::SimTime;
use std::any::Any;
use std::fmt;
use std::rc::Rc;

/// A value that can travel inside a [`Packet`].
///
/// Automatically implemented for every `Clone + Debug + 'static` type; you
/// never implement it manually.
pub trait PayloadData: Any + fmt::Debug {
    /// Clones the payload behind the type-erased pointer (the deep-copy
    /// fallback of [`Payload::take`] on a shared payload).
    fn clone_box(&self) -> Box<dyn PayloadData>;
    /// Upcasts to [`Any`] for downcasting by reference.
    fn as_any(&self) -> &dyn Any;
    /// Upcasts to [`Any`] for downcasting by mutable reference (the
    /// in-place reuse path of [`Payload::try_mut`]).
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Upcasts to [`Any`] for downcasting by value.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    /// Upcasts the shared pointer to [`Any`] for downcasting by value
    /// without a copy when the payload is uniquely owned.
    fn into_any_rc(self: Rc<Self>) -> Rc<dyn Any>;
}

impl<T: Any + Clone + fmt::Debug> PayloadData for T {
    fn clone_box(&self) -> Box<dyn PayloadData> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn into_any_rc(self: Rc<Self>) -> Rc<dyn Any> {
        self
    }
}

/// A type-erased, copy-on-write packet payload.
///
/// Cloning a `Payload` — as multipath duplication, FEC parity fan-out and
/// link-layer echoes do — bumps a reference count instead of deep-cloning
/// the protocol value. [`Payload::take`] moves the value out without a copy
/// when this is the only reference (the common case on the receive path)
/// and falls back to a deep clone only while the payload is genuinely
/// shared.
///
/// ```
/// use marnet_sim::packet::Payload;
/// #[derive(Debug, Clone, PartialEq)]
/// struct Seg { seq: u64 }
/// let p = Payload::new(Seg { seq: 9 });
/// assert_eq!(p.downcast_ref::<Seg>().unwrap().seq, 9);
/// assert!(p.downcast_ref::<String>().is_none());
/// ```
pub struct Payload(Option<Rc<dyn PayloadData>>);

impl Payload {
    /// An empty payload (pure filler bytes, e.g. bulk traffic).
    pub fn empty() -> Self {
        Payload(None)
    }

    /// Wraps a value as a packet payload.
    pub fn new<T: PayloadData>(value: T) -> Self {
        Payload(Some(Rc::new(value)))
    }

    /// Returns `true` if no payload value is attached.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Returns `true` while other clones of this payload are alive, i.e.
    /// while [`Payload::take`] would have to deep-clone.
    pub fn is_shared(&self) -> bool {
        self.0.as_ref().is_some_and(|rc| Rc::strong_count(rc) > 1)
    }

    /// Returns `true` when this is the only live reference to a non-empty
    /// payload — exactly when [`Payload::try_mut`] can succeed.
    pub fn is_unique(&self) -> bool {
        self.0.as_ref().is_some_and(|rc| Rc::strong_count(rc) == 1)
    }

    /// Mutably borrows the payload as `T` **without copying**, or returns
    /// `None` if the payload is empty, of another type, or still shared
    /// (other clones alive). This is the zero-allocation reuse path of
    /// [`PayloadPool`]: a retired payload value is overwritten in place
    /// instead of being reallocated.
    pub fn try_mut<T: Any>(&mut self) -> Option<&mut T> {
        let rc = self.0.as_mut()?;
        Rc::get_mut(rc)?.as_any_mut().downcast_mut()
    }

    /// Borrows the payload as `T`, or `None` if empty or of another type.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.as_deref().and_then(|b| b.as_any().downcast_ref())
    }

    /// Applies `f` to the payload borrowed as `T`, or returns `None` if it
    /// is empty or of another type — a copy-free alternative to
    /// `take`-then-read at call sites that only need to look.
    pub fn map_ref<T: Any, R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.downcast_ref::<T>().map(f)
    }

    /// Takes the payload out as `T`.
    ///
    /// Returns `None` (leaving the payload in place) if it is empty or of a
    /// different type. When this is the only live reference the value is
    /// moved out without copying; otherwise it is deep-cloned and the other
    /// references keep the original.
    pub fn take<T: Any>(&mut self) -> Option<T> {
        let rc = self.0.take()?;
        if !(*rc).as_any().is::<T>() {
            self.0 = Some(rc);
            return None;
        }
        if Rc::strong_count(&rc) == 1 {
            // Sole owner: unwrap in place. No weak refs exist (Payload
            // never hands any out), so the unwrap cannot fail.
            let rc = rc.into_any_rc().downcast::<T>().expect("type checked above");
            Some(Rc::try_unwrap(rc).unwrap_or_else(|_| unreachable!("strong_count was 1")))
        } else {
            // Shared: deep-clone the value out; other holders keep theirs.
            // (Deref explicitly: `rc.clone_box()` would resolve to the
            // blanket impl on `Rc<dyn PayloadData>` itself and box the Rc.)
            let boxed = (*rc).clone_box();
            Some(*boxed.into_any().downcast::<T>().expect("type checked above"))
        }
    }
}

impl Clone for Payload {
    /// A refcount bump — the payload value itself is not copied.
    fn clone(&self) -> Self {
        Payload(self.0.clone())
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(b) => write!(f, "Payload({b:?})"),
            None => write!(f, "Payload(empty)"),
        }
    }
}

/// Default cap on the number of payload slots one [`PayloadPool`] retains.
///
/// A slot is only reusable once every clone of its payload has been
/// dropped, so the pool needs roughly as many slots as payloads of the
/// type are simultaneously in flight. The protocol hot paths keep a few
/// packets per path in the event queue at once; 64 covers them with
/// margin while bounding worst-case retained memory.
pub const DEFAULT_POOL_SLOTS: usize = 64;

/// A slab of reusable [`Payload`] values of one type.
///
/// The pool owns one `Payload` clone per slot. While a payload is in
/// flight (event queue, receiver, duplicate paths) its refcount is ≥ 2
/// and the slot is skipped; once every other clone is dropped the slot
/// becomes unique again and [`PayloadPool::prepare`] overwrites the value
/// in place — no `Rc` allocation, no boxed-value allocation. Steady-state
/// message traffic therefore allocates nothing.
///
/// **Receiver contract:** a pooled payload is *always* shared (the pool
/// holds one reference). Receivers must read it with
/// [`Payload::map_ref`]/[`Payload::downcast_ref`]; calling
/// [`Payload::take`] would deep-clone and defeat the pool.
///
/// Determinism: the pool changes where a value lives, never what it
/// contains, provided `update` leaves the reused value equal to a freshly
/// built one. An `update` that overwrites the whole value (`|s| *s = v`)
/// cannot leak state; the two that keep a list allocation of the retired
/// value are pinned by the slot-reuse tests in `marnet-core`'s endpoint
/// module.
pub struct PayloadPool<T> {
    slots: Vec<Payload>,
    cursor: usize,
    max_slots: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Any + Clone + fmt::Debug> PayloadPool<T> {
    /// An empty pool with the default slot cap.
    pub fn new() -> Self {
        Self::with_max_slots(DEFAULT_POOL_SLOTS)
    }

    /// An empty pool retaining at most `max_slots` payload slots; demand
    /// beyond the cap falls back to fresh allocation.
    pub fn with_max_slots(max_slots: usize) -> Self {
        PayloadPool {
            slots: Vec::new(),
            cursor: 0,
            max_slots: max_slots.max(1),
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of payload slots currently retained.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when no slots are retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Produces a payload containing a value built by `init` and then
    /// shaped by `update`.
    ///
    /// When an idle slot exists, `update` mutates the retired value in
    /// place and the returned payload is a refcount bump of that slot —
    /// zero allocations. Otherwise the value is freshly allocated; a pool
    /// below its slot cap retains a clone so later calls can reuse it.
    pub fn prepare(&mut self, init: impl FnOnce() -> T, update: impl FnOnce(&mut T)) -> Payload {
        let n = self.slots.len();
        // The cursor stays below `n` (slots are never removed), and the
        // wrap branch keeps `i` inside the n-long `slots`.
        let mut i = self.cursor;
        for _ in 0..n {
            let next = if i + 1 == n { 0 } else { i + 1 };
            if let Some(value) = self.slots[i].try_mut::<T>() {
                update(value);
                self.cursor = next;
                return self.slots[i].clone();
            }
            i = next;
        }
        let mut value = init();
        update(&mut value);
        let payload = Payload::new(value);
        if self.slots.len() < self.max_slots {
            self.slots.push(payload.clone());
        }
        payload
    }
}

impl<T: Any + Clone + fmt::Debug> Default for PayloadPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for PayloadPool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PayloadPool")
            .field("slots", &self.slots.len())
            .field("max_slots", &self.max_slots)
            .finish()
    }
}

/// A simulated network packet.
///
/// `size` is the wire size in bytes and is what links serialize; the attached
/// [`Payload`] carries protocol state and contributes nothing to timing.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Globally unique packet identifier (from [`crate::engine::SimCtx::next_packet_id`]).
    pub id: u64,
    /// Flow identifier, used by fair queueing and per-flow statistics.
    pub flow: u64,
    /// Priority band, `0` = highest; used by priority queues (§VI-A).
    pub prio: u8,
    /// Wire size in bytes, including headers.
    pub size: u32,
    /// Instant the packet was created by its source.
    pub created: SimTime,
    /// Instant the packet was last enqueued (stamped by queues for AQM).
    pub enqueued: SimTime,
    /// Protocol payload.
    pub payload: Payload,
}

impl Packet {
    /// Creates a packet with an empty payload and default (highest) priority.
    pub fn new(id: u64, flow: u64, size: u32, created: SimTime) -> Self {
        Packet { id, flow, prio: 0, size, created, enqueued: created, payload: Payload::empty() }
    }

    /// Sets the payload, builder style.
    #[must_use]
    pub fn with_payload<T: PayloadData>(mut self, value: T) -> Self {
        self.payload = Payload::new(value);
        self
    }

    /// Attaches an already-built payload — typically one leased from a
    /// [`PayloadPool`], which stays shared with the pool's slot — without
    /// re-wrapping it.
    #[must_use]
    pub fn with_shared_payload(mut self, payload: Payload) -> Self {
        self.payload = payload;
        self
    }

    /// Sets the priority band, builder style (`0` = highest).
    #[must_use]
    pub fn with_prio(mut self, prio: u8) -> Self {
        self.prio = prio;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Header {
        seq: u32,
        tag: String,
    }

    #[test]
    fn payload_downcast_and_take() {
        let mut p = Payload::new(Header { seq: 5, tag: "a".into() });
        assert!(!p.is_empty());
        assert_eq!(p.downcast_ref::<Header>().unwrap().seq, 5);
        assert!(p.take::<u32>().is_none());
        let h = p.take::<Header>().unwrap();
        assert_eq!(h.tag, "a");
        assert!(p.is_empty());
        assert!(p.take::<Header>().is_none());
    }

    #[test]
    fn payload_clone_is_cow() {
        let p = Payload::new(Header { seq: 1, tag: "x".into() });
        assert!(!p.is_shared());
        let mut q = p.clone();
        assert!(p.is_shared() && q.is_shared());
        // Taking from a shared payload deep-clones; the original survives.
        let h = q.take::<Header>().unwrap();
        assert_eq!(h.seq, 1);
        assert!(q.is_empty());
        assert_eq!(p.downcast_ref::<Header>().unwrap().seq, 1);
        // The original is unique again: take moves without copying.
        assert!(!p.is_shared());
        let mut p = p;
        assert_eq!(p.take::<Header>().unwrap().tag, "x");
    }

    #[test]
    fn take_on_unique_payload_moves() {
        // A type whose clone would be observable: cloning bumps a counter.
        use std::cell::Cell;
        use std::rc::Rc as StdRc;
        #[derive(Debug)]
        struct Probe(StdRc<Cell<u32>>);
        impl Clone for Probe {
            fn clone(&self) -> Self {
                self.0.set(self.0.get() + 1);
                Probe(StdRc::clone(&self.0))
            }
        }
        let clones = StdRc::new(Cell::new(0));
        let mut p = Payload::new(Probe(StdRc::clone(&clones)));
        let _v = p.take::<Probe>().unwrap();
        assert_eq!(clones.get(), 0, "unique take must not clone");

        let mut p = Payload::new(Probe(StdRc::clone(&clones)));
        let _shared = p.clone();
        let _v = p.take::<Probe>().unwrap();
        assert_eq!(clones.get(), 1, "shared take must deep-clone once");
    }

    #[test]
    fn map_ref_reads_in_place() {
        let p = Payload::new(Header { seq: 3, tag: "m".into() });
        assert_eq!(p.map_ref(|h: &Header| h.seq), Some(3));
        assert_eq!(p.map_ref(|s: &String| s.len()), None);
        assert_eq!(Payload::empty().map_ref(|h: &Header| h.seq), None);
    }

    #[test]
    fn try_mut_requires_unique_ownership() {
        let mut p = Payload::new(Header { seq: 1, tag: "a".into() });
        assert!(p.is_unique());
        p.try_mut::<Header>().unwrap().seq = 9;
        assert_eq!(p.downcast_ref::<Header>().unwrap().seq, 9);
        // Wrong type: untouched.
        assert!(p.try_mut::<u32>().is_none());
        // Shared: refused.
        let q = p.clone();
        assert!(!p.is_unique());
        assert!(p.try_mut::<Header>().is_none());
        drop(q);
        assert!(p.try_mut::<Header>().is_some());
        assert!(Payload::empty().try_mut::<Header>().is_none());
    }

    #[test]
    fn pool_reuses_slot_once_consumers_drop() {
        let mut pool: PayloadPool<Header> = PayloadPool::new();
        let first = pool.prepare(|| Header { seq: 0, tag: String::new() }, |h| h.seq = 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(first.downcast_ref::<Header>().unwrap().seq, 1);
        drop(first);
        // The slot is idle again: reused in place, no second slot.
        let second = pool.prepare(|| Header { seq: 0, tag: String::new() }, |h| h.seq = 2);
        assert_eq!(pool.len(), 1);
        assert_eq!(second.downcast_ref::<Header>().unwrap().seq, 2);
    }

    #[test]
    fn pool_allocates_fresh_while_slots_are_in_flight() {
        let mut pool: PayloadPool<Header> = PayloadPool::new();
        let a = pool.prepare(|| Header { seq: 0, tag: String::new() }, |h| h.seq = 1);
        let b = pool.prepare(|| Header { seq: 0, tag: String::new() }, |h| h.seq = 2);
        assert_eq!(pool.len(), 2);
        // In-flight values are unaffected by later prepares.
        assert_eq!(a.downcast_ref::<Header>().unwrap().seq, 1);
        assert_eq!(b.downcast_ref::<Header>().unwrap().seq, 2);
    }

    #[test]
    fn pool_reuse_does_not_copy_the_value() {
        use std::cell::Cell;
        use std::rc::Rc as StdRc;
        #[derive(Debug)]
        struct Probe(u64, StdRc<Cell<u32>>);
        impl Clone for Probe {
            fn clone(&self) -> Self {
                self.1.set(self.1.get() + 1);
                Probe(self.0, StdRc::clone(&self.1))
            }
        }
        let clones = StdRc::new(Cell::new(0));
        let mut pool: PayloadPool<Probe> = PayloadPool::new();
        for i in 0..100 {
            let p = pool.prepare(|| Probe(0, StdRc::clone(&clones)), |v| v.0 = i);
            assert_eq!(p.downcast_ref::<Probe>().unwrap().0, i);
        }
        assert_eq!(pool.len(), 1, "steady state keeps one slot");
        assert_eq!(clones.get(), 0, "reuse must never clone the value");
    }

    #[test]
    fn pool_respects_slot_cap() {
        let mut pool: PayloadPool<Header> = PayloadPool::with_max_slots(2);
        let held: Vec<Payload> = (0..5)
            .map(|i| pool.prepare(|| Header { seq: 0, tag: String::new() }, |h| h.seq = i))
            .collect();
        assert_eq!(pool.len(), 2);
        drop(held);
    }

    #[test]
    fn packet_builder() {
        let pkt = Packet::new(1, 2, 1500, SimTime::from_millis(3))
            .with_prio(2)
            .with_payload(Header { seq: 7, tag: "t".into() });
        assert_eq!(pkt.prio, 2);
        assert_eq!(pkt.size, 1500);
        assert_eq!(pkt.payload.downcast_ref::<Header>().unwrap().seq, 7);
        let clone = pkt.clone();
        assert_eq!(clone.id, 1);
        assert_eq!(clone.payload.downcast_ref::<Header>().unwrap().tag, "t");
    }

    #[test]
    fn empty_payload_debug() {
        assert_eq!(format!("{:?}", Payload::empty()), "Payload(empty)");
    }
}
