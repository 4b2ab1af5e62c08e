//! The event queue's tie-break policy, chosen per thread with
//! [`with_ambient_tie_break`].
//!
//! The engine's determinism invariant is stronger than "same seed, same
//! artifact": the headline claims (byte-identical artifacts at any
//! `--threads`, the tuned-vs-default policy tables) must not depend on
//! *which order equal-timestamp events happen to run in*. By default that
//! order is FIFO by insertion sequence within an intra-instant phase.
//! [`TieBreak`] makes the tie order an explicit, perturbable policy so
//! `marnet-lab racecheck` can replay whole experiments under adversarial
//! tie orders and fail loudly if any artifact byte moves.
//!
//! Every policy is itself deterministic: given the same seed and the same
//! policy, a run is bit-for-bit reproducible. The policies differ only in
//! which total order they impose on entries that share a timestamp.

use std::cell::Cell;

/// How the event queue orders entries that share a timestamp.
///
/// The heap's comparison key is `(time, phase, ord, seq)`: `phase` is the
/// intra-instant phase every policy agrees on (see `eventq`), `ord` is
/// computed at push time from the *scheduling source* — the component
/// (actor, link, or setup code) whose handler scheduled the entry — and
/// `seq` is the raw insertion sequence (kept as the final component so
/// every policy yields a *total* order even when `ord` collides). The
/// queue packs `phase` and `ord` into one word, so `ord` is below 2⁶² under
/// every policy.
///
/// Perturbation is source-granular on purpose: events scheduled by the
/// same component at the same instant form a causal chain (a burst of
/// segments, a message relayed hop by hop) that no real schedule could
/// reorder, so every policy preserves their program order (`ord` equal,
/// `seq` decides). Only the interleaving *across* components — the part an
/// execution schedule genuinely does not fix — is permuted. Under
/// [`TieBreak::Fifo`] `ord` is constant, so the key degenerates to
/// `(time, phase, seq)` and default-policy runs are bit-identical to the
/// pre-policy engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TieBreak {
    /// Equal-time entries run in insertion order. The default, and the
    /// order every committed golden artifact was produced under.
    #[default]
    Fifo,
    /// Equal-time entries from different sources run in *reverse* source
    /// order (highest component key first) — a deterministic adversarial
    /// inversion of the FIFO interleaving.
    Lifo,
    /// Equal-time entries from different sources run in a deterministic
    /// pseudo-random source order keyed by the carried seed: each source
    /// key is mixed through SplitMix64 and the top 62 bits of the mix are
    /// the `ord`, so two runs with the same `Seeded(s)` agree exactly and
    /// two different seeds disagree almost everywhere. Two sources share an
    /// `ord` only if their mixes agree in all 62 bits (chance 2⁻⁶² per
    /// pair); they then keep program order.
    Seeded(u64),
}

impl TieBreak {
    /// Computes the tie-order component of the heap key for an entry
    /// scheduled by source `src` under this policy; it is below 2⁶².
    ///
    /// `Lifo` is `(2⁶² − 1) − squash(src)`, where `squash` moves bit 63 to
    /// bit 61 above the low 61 bits. That is strictly monotone over every
    /// source key the engine mints (actor indices, link keys with bit 63
    /// set, and the setup key `u64::MAX`), so their order is exactly
    /// reversed. `Seeded` keeps the top 62 bits of a bijective SplitMix64
    /// mix: the order is the mix's order, except that two sources whose
    /// mixes agree in those bits (chance 2⁻⁶² per pair) tie and keep
    /// program order.
    #[inline]
    pub fn ord_of(self, src: u64) -> u64 {
        match self {
            TieBreak::Fifo => 0,
            TieBreak::Lifo => (u64::MAX >> 2) - squash(src),
            TieBreak::Seeded(s) => splitmix64(src ^ s) >> 2,
        }
    }

    /// A stable label for artifacts, CLI output and trace file names.
    pub fn label(self) -> String {
        match self {
            TieBreak::Fifo => "fifo".to_owned(),
            TieBreak::Lifo => "lifo".to_owned(),
            TieBreak::Seeded(s) => format!("seeded-{s:016x}"),
        }
    }
}

thread_local! {
    /// The ambient tie-break policy consulted by `Simulator::new`.
    static AMBIENT_TIE_BREAK: Cell<TieBreak> = const { Cell::new(TieBreak::Fifo) };
}

/// The tie-break policy `Simulator::new` will use on this thread right now.
pub fn ambient_tie_break() -> TieBreak {
    AMBIENT_TIE_BREAK.with(Cell::get)
}

/// Runs `f` with the ambient tie-break policy set to `policy`, restoring
/// the previous policy afterwards (also on panic/unwind).
///
/// This is the race detector's perturbation mechanism: scenario runners
/// construct their simulators internally via `Simulator::new(seed)`, so
/// `marnet-lab racecheck` wraps each trial body in this scope instead of
/// threading a policy parameter through every scenario signature. The
/// policy is thread-local, matching the lab runner's model of one trial
/// per worker thread at a time; it never leaks across trials because the
/// previous value is restored when the scope ends. A run's output is a
/// pure function of `(seed, policy)` either way — the ambient scope only
/// selects *which* policy, it adds no hidden state to the simulation.
pub fn with_ambient_tie_break<R>(policy: TieBreak, f: impl FnOnce() -> R) -> R {
    struct Restore(TieBreak);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_TIE_BREAK.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(AMBIENT_TIE_BREAK.with(|c| c.replace(policy)));
    f()
}

/// A source key in 62 bits: bit 63 (set on link keys and the setup key)
/// moves to bit 61 above the low 61 bits. Strictly monotone over keys whose
/// bits 61 and 62 are clear — every actor index and link key — and the
/// setup key `u64::MAX`, which maps to the largest value, 2⁶² − 1.
#[inline]
fn squash(src: u64) -> u64 {
    (src >> 63) << 61 | (src & ((1 << 61) - 1))
}

/// SplitMix64's output mixer: a bijective avalanche over `u64`, used to
/// shuffle source keys under [`TieBreak::Seeded`]. Bijectivity means
/// distinct sources get distinct mixes, so the shuffled order is a
/// permutation of the tied sources up to the 62-bit truncation in
/// [`TieBreak::ord_of`].
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_ord_is_constant_lifo_reverses_sources() {
        // FIFO collapses every source to one ord: ties fall through to the
        // raw insertion sequence, i.e. the historical global-FIFO order.
        assert_eq!(TieBreak::Fifo.ord_of(0), TieBreak::Fifo.ord_of(7));
        // LIFO inverts the source order.
        assert!(TieBreak::Lifo.ord_of(0) > TieBreak::Lifo.ord_of(1));
        assert!(TieBreak::Lifo.ord_of(1) > TieBreak::Lifo.ord_of(2));
    }

    /// Every kind of source key the engine mints, in ascending order: actor
    /// indices, link keys and the setup key.
    fn engine_sources() -> Vec<u64> {
        use crate::engine::{link_src_key, SRC_SETUP};
        vec![0, 1, u64::from(u32::MAX), link_src_key(0), link_src_key(1), SRC_SETUP]
    }

    #[test]
    fn lifo_strictly_reverses_every_engine_source_kind() {
        let ords: Vec<u64> =
            engine_sources().into_iter().map(|s| TieBreak::Lifo.ord_of(s)).collect();
        assert!(ords.iter().all(|&o| o < 1 << 62), "{ords:?}");
        assert!(ords.windows(2).all(|w| w[0] > w[1]), "not strictly reversed: {ords:?}");
        assert_eq!(ords.last(), Some(&0), "the setup key runs last under LIFO");
    }

    #[test]
    fn seeded_ords_fit_62_bits_and_keep_the_full_mix_order() {
        use crate::engine::link_src_key;
        let sources: Vec<u64> =
            (0..10_000).chain((0..1_000).map(link_src_key)).chain(engine_sources()).collect();
        for seed in [0, 1, 0xfeed, u64::MAX] {
            let policy = TieBreak::Seeded(seed);
            let mut by_mix = sources.clone();
            by_mix.sort_unstable_by_key(|&s| splitmix64(s ^ seed));
            by_mix.dedup();
            let ords: Vec<u64> = by_mix.iter().map(|&s| policy.ord_of(s)).collect();
            assert!(ords.iter().all(|&o| o < 1 << 62), "seed {seed:#x}");
            assert!(
                ords.windows(2).all(|w| w[0] < w[1]),
                "seed {seed:#x}: the 62-bit ords must be distinct and in the full mix's order"
            );
        }
    }

    #[test]
    fn seeded_ord_is_seed_dependent_and_reproducible() {
        let a = TieBreak::Seeded(1);
        let b = TieBreak::Seeded(2);
        assert_eq!(a.ord_of(5), a.ord_of(5));
        assert_ne!(a.ord_of(5), b.ord_of(5));
    }

    #[test]
    fn ambient_scope_sets_and_restores() {
        assert_eq!(ambient_tie_break(), TieBreak::Fifo);
        let inner = with_ambient_tie_break(TieBreak::Lifo, || {
            let nested = with_ambient_tie_break(TieBreak::Seeded(9), ambient_tie_break);
            assert_eq!(nested, TieBreak::Seeded(9));
            ambient_tie_break()
        });
        assert_eq!(inner, TieBreak::Lifo);
        assert_eq!(ambient_tie_break(), TieBreak::Fifo);
    }

    #[test]
    fn ambient_scope_restores_on_panic() {
        let caught = std::panic::catch_unwind(|| {
            with_ambient_tie_break(TieBreak::Lifo, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(ambient_tie_break(), TieBreak::Fifo);
    }
}
